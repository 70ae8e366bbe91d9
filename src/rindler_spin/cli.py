"""Command-line front end: sweeps, figure data, worldline dumps, unit restoration.

Subcommands
-----------
rates      one row per alpha: occupation, flip/dephasing rates, T1, T2;
           ``--oracle`` adds the quadrature cross-check columns.
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
lines with ``#`` comments), which wins over built-in defaults.  Exit codes:
0 success, 2 argument error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import entanglement
from .correlator import MIN_NUMERIC_ALPHA, rates_closed, rates_numeric
from .dynamics import (LindbladSpec, bell_state, density_from_coefficients,
                       evolve_numeric)
from .entanglement import (disentanglement_time, lab_exponent_constant,
                           relaxation_times, t0_lab, tau0_asymptotic)
from .errors import DomainError, NumericError, RindlerSpinError, ValidationError
from .kinematics import AccelerationProfile, rindler_event, worldline
from .params import CODATA, alpha_of, gamma0, unruh_temperature

CONFIG_ENV = "RINDLER_SPIN_CONFIG"
EXPONENT_REFERENCE_M2S4 = 3.8e61  # reference electron value of the t0 exponent constant

_KNOWN_PROFILES = ("constant:a", "sinusoid:a0,omega", "zero")

# figure-range defaults
_RATES_GRID = "0.05:10:200:log"
_SURFACE_ALPHA_GRID = "0.5:5:60"
_TAU_GRID = "0:5:120"
_WORLDLINE_TAU_GRID = "0:5:101"


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    command: str
    alpha_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    tau_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    output_format: str = "csv"
    output_path: Optional[str] = None
    oracle: bool = False
    profile: str = "constant:1"
    mu: float = CODATA.bohr_magneton
    gap: float = 2.0 * CODATA.bohr_magneton   # electron moment in a 1 G field
    accel: Optional[float] = None
    target_t0: Optional[float] = None


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
    if n < 1 or hi < lo:
        raise _ArgumentError(f"{name}: need hi >= lo and n >= 1")
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


_CONFIG_KEYS = {"alpha", "alpha_grid", "tau_grid", "format", "out", "oracle",
                "profile", "mu", "gap", "accel", "target_t0"}


def _resolve_config(args):
    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = _load_config_file(path) if path else {}
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise _ArgumentError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag_value, key, default, convert):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            try:
                return convert(cfg[key])
            except (TypeError, ValueError) as exc:
                raise _ArgumentError(f"config key {key}: {exc}") from exc
        return default

    def to_bool(text):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")

    command = args.command
    alpha = pick(getattr(args, "alpha", None), "alpha", None, float)
    alpha_grid_spec = pick(getattr(args, "alpha_grid", None), "alpha_grid", None, str)
    tau_default = _WORLDLINE_TAU_GRID if command == "worldline" else _TAU_GRID
    tau_spec = pick(getattr(args, "tau_grid", None), "tau_grid", tau_default, str)

    if alpha is not None and alpha_grid_spec is not None:
        raise _ArgumentError("give either --alpha or --alpha-grid, not both")
    if alpha is not None:
        alpha_grid = np.array([alpha], dtype=float)
    elif alpha_grid_spec is not None:
        alpha_grid = _parse_grid(alpha_grid_spec, "--alpha-grid")
    elif command == "rates":
        alpha_grid = _parse_grid(_RATES_GRID, "--alpha-grid")
    elif command == "surface":
        alpha_grid = _parse_grid(_SURFACE_ALPHA_GRID, "--alpha-grid")
    else:
        alpha_grid = np.array([1.0])

    config = RunConfig(
        command=command,
        alpha_grid=alpha_grid,
        tau_grid=_parse_grid(tau_spec, "--tau-grid"),
        output_format=pick(getattr(args, "format", None), "format", "csv", str),
        output_path=pick(getattr(args, "out", None), "out", None, str),
        oracle=bool(pick(getattr(args, "oracle", None), "oracle", False, to_bool)),
        profile=pick(getattr(args, "profile", None), "profile", "constant:1", str),
        mu=pick(getattr(args, "mu", None), "mu", CODATA.bohr_magneton, float),
        gap=pick(getattr(args, "gap", None), "gap", 2.0 * CODATA.bohr_magneton, float),
        accel=pick(getattr(args, "accel", None), "accel", None, float),
        target_t0=pick(getattr(args, "target_t0", None), "target_t0", None, float),
    )
    if config.output_format not in ("csv", "json"):
        raise _ArgumentError(f"unknown format {config.output_format!r} (csv or json)")
    if config.alpha_grid.size == 0 or config.tau_grid.size == 0:
        raise _ArgumentError("grids must be nonempty")
    if config.alpha_grid.size > 1 and np.any(np.diff(config.alpha_grid) <= 0):
        raise _ArgumentError("alpha grid must be strictly increasing")
    if config.mu <= 0 or config.gap <= 0:
        raise _ArgumentError("--mu and --gap must be positive")
    return config


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.8e}"


def _json_number(v):
    """A float for JSON, or None (null) where v is None or not finite."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _emit(config, columns, rows, extra_tables=None, scalars=None):
    """Render rows to CSV or JSON and write to the configured destination."""
    if config.output_format == "json":
        payload = {
            "command": config.command,
            "columns": list(columns),
            "rows": [[_json_number(v) for v in row] for row in rows],
        }
        if scalars:
            payload["values"] = {k: _json_number(v) for k, v in scalars.items()}
        for name, (cols, extra_rows) in (extra_tables or {}).items():
            payload[name] = {"columns": list(cols),
                             "rows": [[_json_number(v) for v in row] for row in extra_rows]}
        _write_text(config.output_path,
                    json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
        return

    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    _write_text(config.output_path, text)
    for name, (cols, extra_rows) in (extra_tables or {}).items():
        extra_text = "\n".join([",".join(cols)]
                               + [",".join(_fmt(v) for v in row) for row in extra_rows]) + "\n"
        if config.output_path is None:
            _write_text(None, "\n" + extra_text)
        else:
            _write_text(_companion_path(config.output_path, name), extra_text)


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


def cmd_rates(config: RunConfig):
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
                resid = max(
                    abs(num.g_plus - rs.g_plus) / max(rs.g_plus, 1e-30),
                    abs(num.g_minus - rs.g_minus) / max(rs.g_minus, 1e-30),
                    abs(num.g_z - rs.g_z) / max(rs.g_z, 1e-30),
                )
                row += [num.g_plus, num.g_minus, resid]
            else:
                row += [None, None, None]  # quadrature refuses alpha < 0.1
        rows.append(row)
    _emit(config, columns, rows)


def _numeric_concurrence_trace(alpha, taus):
    """Master-equation concurrence at each tau, evolving segment by segment."""
    rs = rates_closed(alpha)
    stiffest = max(rs.g_minus, rs.g_plus, 4.0 * rs.g_z, 1e-12)
    spec = LindbladSpec(rates=rs, dt=min(1e-3, 0.05 / stiffest))
    rho = density_from_coefficients(bell_state())
    out = []
    prev = 0.0
    for tau in taus:
        if tau != prev:
            rho = evolve_numeric(rho, spec, float(tau - prev))
        prev = float(tau)
        out.append(entanglement.concurrence(rho))
    return out


def cmd_curve(config: RunConfig):
    if config.alpha_grid.size != 1:
        raise _ArgumentError("curve needs a single --alpha")
    alpha = float(config.alpha_grid[0])
    if alpha <= 0:
        raise _ArgumentError("curve requires alpha > 0")
    taus = config.tau_grid
    if np.any(taus < 0) or np.any(np.diff(taus) <= 0):
        raise _ArgumentError("tau grid must be nonnegative and strictly increasing")
    closed = [entanglement.concurrence_closed(alpha, float(t)) for t in taus]
    numeric = _numeric_concurrence_trace(alpha, taus)
    tau0 = disentanglement_time(alpha)
    rows = []
    for i, tau in enumerate(taus):
        rows.append([tau, closed[i], numeric[i],
                     tau0 if i == len(taus) - 1 else None])
    _emit(config, ["tau", "c_closed", "c_numeric", "tau0"], rows)


def cmd_surface(config: RunConfig):
    alphas = config.alpha_grid
    if np.any(alphas <= 0):
        raise _ArgumentError("surface requires alpha > 0")
    taus = config.tau_grid
    rows = [[a, t, entanglement.concurrence_closed(float(a), float(t))]
            for a in alphas for t in taus]
    zero_rows = []
    for a in alphas:
        tau0 = disentanglement_time(float(a))  # first: rejects alpha^3 overflow
        cube = float(a) ** 3
        asym = math.pi * math.log(3.0) / cube if cube > 0 else math.inf
        zero_rows.append([a, tau0, asym])
    _emit(config, ["alpha", "tau", "c"], rows,
          extra_tables={"tau0": (["alpha", "tau0", "tau0_asymptotic"], zero_rows)})


def cmd_worldline(config: RunConfig):
    """Trajectory dump in units with c = 1 (supply a and tau consistently)."""
    profile = _parse_profile(config.profile)
    taus = config.tau_grid
    if taus[0] != 0:
        raise _ArgumentError("worldline tau grid must start at 0")
    events = worldline(profile, taus, c=1.0)
    constant_a = None
    if config.profile.partition(":")[0] == "constant":
        constant_a = profile.a_of_tau(0.0)
        if constant_a <= 0:
            constant_a = None
    columns = ["tau", "t", "z", "rapidity", "beta"]
    if constant_a is not None:
        columns.append("residual")
    rows = []
    for ev in events:
        row = [ev.tau, ev.t, ev.z, ev.rapidity, ev.beta]
        if constant_a is not None:
            ref = rindler_event(constant_a, ev.tau, c=1.0)
            floor = 1.0 / constant_a
            row.append(max(abs(ev.t - ref.t) / max(abs(ref.t), floor),
                           abs(ev.z - ref.z) / max(abs(ref.z), floor)))
        rows.append(row)
    _emit(config, columns, rows)


def _solve_accel_for_t0(target_t0, mu):
    """Invert the monotone lab-frame time for the acceleration, by bisection."""
    if target_t0 <= 0:
        raise _ArgumentError("--target-t0 must be positive seconds")
    goal = math.log(target_t0)

    def excess(a):
        return t0_lab(a, CODATA, mu).log_t0 - goal

    lo = hi = 1.0
    while excess(lo) <= 0 and lo > 1e-250:
        lo /= 10.0
    while excess(hi) >= 0 and hi < 1e250:
        hi *= 10.0
    if not (excess(lo) > 0 > excess(hi)):
        raise NumericError("could not bracket the acceleration for this t0 "
                           "(target outside the representable range)")
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # geometric: the root spans many decades
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return math.sqrt(lo * hi)


def cmd_constants(config: RunConfig):
    if config.accel is None and config.target_t0 is None:
        raise _ArgumentError("constants needs --accel (or --target-t0 to invert)")
    mu, gap = config.mu, config.gap
    accel = config.accel
    if accel is None:
        accel = _solve_accel_for_t0(config.target_t0, mu)
    if accel <= 0:
        raise _ArgumentError("--accel must be positive")

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
    if config.output_format == "json":
        _emit(config, [], [], scalars=values)
    else:
        rows = [[k, _fmt(v)] for k, v in values.items()]
        text = "\n".join(["key,value"] + [f"{k},{v}" for k, v in rows]) + "\n"
        _write_text(config.output_path, text)


_COMMANDS = {
    "rates": cmd_rates,
    "curve": cmd_curve,
    "surface": cmd_surface,
    "worldline": cmd_worldline,
    "constants": cmd_constants,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rindler-spin",
        description="Entanglement decay of an accelerated spin pair: "
                    "rates, concurrence curves, worldlines, physical units.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("rates", "rate and relaxation-time sweep over alpha"),
            ("curve", "concurrence decay at fixed alpha (closed form + master equation)"),
            ("surface", "concurrence over an (alpha, tau) grid plus zero crossings"),
            ("worldline", "proper-time trajectory dump (units with c = 1)"),
            ("constants", "physical-unit outputs for an electron-like moment")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--alpha", type=float, help="single dimensionless acceleration")
        p.add_argument("--alpha-grid", dest="alpha_grid", metavar="LO:HI:N[:log]",
                       help="alpha sweep grid")
        p.add_argument("--tau-grid", dest="tau_grid", metavar="LO:HI:N",
                       help="proper-time grid, gamma0^-1 units (worldline: c=1 units)")
        p.add_argument("--oracle", action="store_const", const=True, default=None,
                       help="rates: add regulated-quadrature cross-check columns")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--config", help=f"config file (also ${CONFIG_ENV})")
        p.add_argument("--profile", metavar="NAME[:PARAMS]",
                       help=f"worldline profile, one of: {', '.join(_KNOWN_PROFILES)}")
        p.add_argument("--mu", type=float, help="magnetic moment, erg/G")
        p.add_argument("--gap", type=float, help="energy gap, erg")
        p.add_argument("--accel", type=float, help="acceleration, cm/s^2")
        p.add_argument("--target-t0", dest="target_t0", type=float,
                       help="constants: solve for the acceleration giving this t0 (s)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        _COMMANDS[config.command](config)
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
