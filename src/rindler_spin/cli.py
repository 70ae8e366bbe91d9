"""Command-line front end: sweeps, figure data, worldline dumps, unit restoration.

Subcommands
-----------
rates      one row per alpha: occupation, flip/dephasing rates, T1, T2;
           ``--oracle`` adds the trapezoid cross-check columns (blank
           below alpha 0.4, where the trapezoid route is refused).
curve      concurrence decay of the Bell pair at fixed alpha, closed form
           next to the full master-equation route, with tau0 on the last row.
surface    long-format concurrence over an (alpha, tau) grid plus a second
           table of zero crossings and their inverse-cube asymptote.
worldline  proper-time trajectory dump for constant / sinusoid / zero
           acceleration profiles, in units with c = 1.
constants  physical-unit restoration for an electron-like moment: gamma0,
           Unruh temperature, disentanglement times, and the lab-frame
           exponent constant; ``--target-t0`` inverts for the acceleration.

Output is CSV (comma separated, 9 significant digits, mandatory header) or
JSON; identical configurations produce byte-identical files.  Flags win
over the config file (``--config`` or $RINDLER_SPIN_CONFIG, ``key = value``
lines with ``#`` comments), which wins over built-in defaults.  The
``_SETTINGS`` table is the single list of those settings: each key is a
config key and, with ``-`` for ``_``, a flag.  Exit codes: 0 success,
2 argument error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .correlator import MIN_NUMERIC_ALPHA, oracle_residual, rates_closed, rates_numeric
from .entanglement import (accel_for_t0, concurrence_curve, concurrence_numeric,
                           disentanglement_time, lab_exponent_constant,
                           relaxation_times, t0_lab, tau0_asymptotic,
                           tau0_inverse_cube)
from .errors import DomainError, NumericError, RindlerSpinError, ValidationError
from .kinematics import AccelerationProfile, rindler_residual, worldline
from .params import CODATA, alpha_of, gamma0, unruh_temperature

CONFIG_ENV = "RINDLER_SPIN_CONFIG"
EXPONENT_REFERENCE_M2S4 = 3.8e61  # reference electron value of the t0 exponent constant

_KNOWN_PROFILES = ("constant:a", "sinusoid:a0,omega", "zero")

# figure-range grid defaults per command; the others run at alpha = 1, tau 0..5
_ALPHA_GRIDS = {"rates": "0.05:10:200:log", "surface": "0.5:5:60"}
_TAU_GRIDS = {"worldline": "0:5:101"}
_FORMATS = ("csv", "json")


class _ArgumentError(RindlerSpinError, ValueError):
    """CLI-level argument problem (exit code 2)."""


class _IOFailure(RindlerSpinError, OSError):
    """Output destination unusable (exit code 4)."""


def _parse_grid(spec, name):
    parts = str(spec).split(":")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise _ArgumentError(f"{name}: fourth grid field must be 'log'")
        log = True
        parts = parts[:3]
    if len(parts) != 3:
        raise _ArgumentError(f"{name}: expected lo:hi:n[:log], got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _ArgumentError(f"{name}: {exc}") from exc
    if n < 1 or not math.isfinite(hi - lo) or hi < lo:  # a nan or inf bound, or hi - lo overflows
        raise _ArgumentError(f"{name}: need finite lo <= hi and n >= 1")
    if log:
        if lo <= 0:
            raise _ArgumentError(f"{name}: log grid requires lo > 0")
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def _parse_profile(spec):
    name, _, params = str(spec).partition(":")
    try:
        if name == "constant":
            return AccelerationProfile.constant(float(params or 1.0))
        if name == "sinusoid":
            a0_s, _, om_s = params.partition(",")
            return AccelerationProfile.sinusoid(float(a0_s), float(om_s))
        if name == "zero":
            return AccelerationProfile.zero()
    except ValueError as exc:
        raise _ArgumentError(f"bad profile parameters in {spec!r}: {exc}") from exc
    raise _ArgumentError(
        f"unknown profile {name!r}; known profiles: {', '.join(_KNOWN_PROFILES)}")


def _load_config_file(path):
    settings = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise _ArgumentError(f"{path}:{lineno}: expected 'key = value'")
                settings[key.strip()] = value.strip()
    except OSError as exc:
        raise _ArgumentError(f"cannot read config file {path}: {exc}") from exc
    return settings


def _to_bool(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: every setting: config key and argparse dest -> (converter for config-file
#: text, default, argparse options).  Grids stay text until _resolve_config,
#: where their defaults depend on the command.
_SETTINGS = {
    "alpha": (float, None, dict(help="single dimensionless acceleration")),
    "alpha_grid": (str, None, dict(metavar="LO:HI:N[:log]", help="alpha sweep grid")),
    "tau_grid": (str, None, dict(
        metavar="LO:HI:N", help="proper-time grid, gamma0^-1 units (worldline: c=1 units)")),
    "oracle": (_to_bool, False, dict(
        action="store_const", const=True,
        help="rates: add shifted-contour trapezoid cross-check columns")),
    "format": (str, "csv", dict(choices=_FORMATS, help="output format")),
    "out": (str, None, dict(help="output file path (default: stdout)")),
    "profile": (str, "constant:1", dict(
        metavar="NAME[:PARAMS]",
        help=f"worldline profile, one of: {', '.join(_KNOWN_PROFILES)}")),
    "mu": (float, CODATA.bohr_magneton, dict(help="magnetic moment, erg/G")),
    "gap": (float, 2.0 * CODATA.bohr_magneton,   # electron moment in a 1 G field
            dict(help="energy gap, erg")),
    "accel": (float, None, dict(help="acceleration, cm/s^2")),
    "target_t0": (float, None, dict(
        help="constants: solve for the acceleration giving this t0 (s)")),
}


def _resolve_config(args):
    """Fill ``args`` in place: flag, else config file, else default; parse the grids."""
    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = _load_config_file(path) if path else {}
    unknown = set(cfg) - set(_SETTINGS)
    if unknown:
        raise _ArgumentError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, (convert, default, _) in _SETTINGS.items():
        if getattr(args, key) is not None:
            continue
        value = default
        if key in cfg:
            try:
                value = convert(cfg[key])
            except (TypeError, ValueError) as exc:
                raise _ArgumentError(f"config key {key}: {exc}") from exc
        setattr(args, key, value)

    if args.alpha is not None and args.alpha_grid is not None:
        raise _ArgumentError("give either --alpha or --alpha-grid, not both")
    if args.alpha is not None:
        args.alpha_grid = np.array([args.alpha], dtype=float)
    else:
        if args.alpha_grid is None:
            args.alpha_grid = _ALPHA_GRIDS.get(args.command, "1:1:1")
        args.alpha_grid = _parse_grid(args.alpha_grid, "--alpha-grid")
    if args.tau_grid is None:
        args.tau_grid = _TAU_GRIDS.get(args.command, "0:5:120")
    args.tau_grid = _parse_grid(args.tau_grid, "--tau-grid")

    if args.format not in _FORMATS:
        raise _ArgumentError(f"unknown format {args.format!r} (csv or json)")
    for name, grid in (("alpha", args.alpha_grid), ("tau", args.tau_grid)):
        if np.any(np.diff(grid) <= 0):  # a repeated point repeats rows; a falling one fails
            raise _ArgumentError(f"{name} grid must be strictly increasing")
    if not (0 < args.mu < math.inf and 0 < args.gap < math.inf):
        raise _ArgumentError("--mu and --gap must be finite and positive")
    return args


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.8e}"


def _json_number(v):
    """A float for JSON, or None (null) where v is None or not finite."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _csv(columns, rows):
    return "\n".join([",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def _emit(config, columns, rows, extra_tables=None, scalars=None):
    """Render rows (or key/value scalars) to CSV or JSON at the configured destination."""
    extra_tables = extra_tables or {}
    if config.format == "json":
        payload = {
            "command": config.command,
            "columns": list(columns),
            "rows": [[_json_number(v) for v in row] for row in rows],
        }
        if scalars:
            payload["values"] = {k: _json_number(v) for k, v in scalars.items()}
        for name, (cols, extra_rows) in extra_tables.items():
            payload[name] = {"columns": list(cols),
                             "rows": [[_json_number(v) for v in row] for row in extra_rows]}
        _write_text(config.out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
        return

    if scalars:
        columns, rows = ("key", "value"), scalars.items()
    _write_text(config.out, _csv(columns, rows))
    for name, (cols, extra_rows) in extra_tables.items():
        text = _csv(cols, extra_rows)
        if config.out is None:
            _write_text(None, "\n" + text)
        else:
            _write_text(_companion_path(config.out, name), text)


def _companion_path(path, suffix):
    stem, ext = os.path.splitext(path)
    return f"{stem}_{suffix}{ext or '.csv'}"


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write output file {path}: {exc}") from exc


def cmd_rates(config):
    columns = ["alpha", "n", "g_plus", "g_minus", "g_z", "T1", "T2"]
    if config.oracle:
        columns += ["g_plus_numeric", "g_minus_numeric", "oracle_residual"]
    rows = []
    for alpha in config.alpha_grid:
        rs = rates_closed(float(alpha))
        times = relaxation_times(float(alpha))
        row = [alpha, rs.n, rs.g_plus, rs.g_minus, rs.g_z, times.t1, times.t2]
        if config.oracle:
            if alpha >= MIN_NUMERIC_ALPHA:
                num = rates_numeric(float(alpha))
                row += [num.g_plus, num.g_minus, oracle_residual(num, rs)]
            else:
                row += [None, None, None]  # the trapezoid route refuses alpha < MIN_NUMERIC_ALPHA
        rows.append(row)
    _emit(config, columns, rows)


def cmd_curve(config):
    if config.alpha_grid.size != 1:
        raise _ArgumentError("curve needs a single --alpha")
    alpha = float(config.alpha_grid[0])
    curve = concurrence_curve(alpha, config.tau_grid)
    numeric = concurrence_numeric(alpha, config.tau_grid)
    rows = [[tau, c, c_numeric, None]
            for (tau, c), c_numeric in zip(curve.samples, numeric)]
    rows[-1][-1] = curve.tau0
    _emit(config, ["tau", "c_closed", "c_numeric", "tau0"], rows)


def cmd_surface(config):
    rows, zero_rows = [], []
    for a in config.alpha_grid:
        curve = concurrence_curve(float(a), config.tau_grid)
        rows += [[a, tau, c] for tau, c in curve.samples]
        zero_rows.append([a, curve.tau0, tau0_inverse_cube(float(a))])
    _emit(config, ["alpha", "tau", "c"], rows,
          extra_tables={"tau0": (["alpha", "tau0", "tau0_asymptotic"], zero_rows)})


def cmd_worldline(config):
    """Trajectory dump in units with c = 1 (supply a and tau consistently)."""
    profile = _parse_profile(config.profile)
    events = worldline(profile, config.tau_grid, c=1.0)
    # a positive constant profile gets a column of distances from its closed-form hyperbola
    a = profile.a_of_tau(0.0) if config.profile.partition(":")[0] == "constant" else 0.0
    columns = ["tau", "t", "z", "rapidity", "beta"] + (["residual"] if a > 0 else [])
    rows = []
    for ev in events:
        row = [ev.tau, ev.t, ev.z, ev.rapidity, ev.beta]
        if a > 0:
            row.append(rindler_residual(ev, a, c=1.0))
        rows.append(row)
    _emit(config, columns, rows)


def cmd_constants(config):
    if config.accel is None and config.target_t0 is None:
        raise _ArgumentError("constants needs --accel (or --target-t0 to invert)")
    mu, gap = config.mu, config.gap
    accel = config.accel
    if accel is None:
        accel = accel_for_t0(config.target_t0, CODATA, mu)
    alpha = alpha_of(accel, gap)
    rate0 = gamma0(mu, gap)
    lab = t0_lab(accel, CODATA, mu)
    exponent_si = lab_exponent_constant(CODATA, mu) / 1e4  # cm^2/s^4 -> m^2/s^4
    values = {
        "accel_cm_s2": accel,
        "alpha": alpha,
        "gamma0_per_s": rate0,
        "unruh_temperature_K": unruh_temperature(accel),
        "tau0_s": disentanglement_time(alpha) / rate0,
        "tau0_asymptotic_s": tau0_asymptotic(accel, CODATA, mu),
        "t0_s": lab.t0,
        "log_t0": lab.log_t0,
        "exponent_constant_m2_s4": exponent_si,
        "exponent_rel_dev_from_3.8e61": abs(exponent_si - EXPONENT_REFERENCE_M2S4) / EXPONENT_REFERENCE_M2S4,
    }
    _emit(config, [], [], scalars=values)


#: subcommand -> (function, help)
_COMMANDS = {
    "rates": (cmd_rates, "rate and relaxation-time sweep over alpha"),
    "curve": (cmd_curve, "concurrence decay at fixed alpha (closed form + master equation)"),
    "surface": (cmd_surface, "concurrence over an (alpha, tau) grid plus zero crossings"),
    "worldline": (cmd_worldline, "proper-time trajectory dump (units with c = 1)"),
    "constants": (cmd_constants, "physical-unit outputs for an electron-like moment"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rindler-spin",
        description="Entanglement decay of an accelerated spin pair: "
                    "rates, concurrence curves, worldlines, physical units.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for key, (convert, _, options) in _SETTINGS.items():
            if "action" not in options:
                options = dict(options, type=convert)
            p.add_argument("--" + key.replace("_", "-"), **options)
        p.add_argument("--config", help=f"config file (also ${CONFIG_ENV})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        _COMMANDS[config.command][0](config)
    except (_ArgumentError, DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except _IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
