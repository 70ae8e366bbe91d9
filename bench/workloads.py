"""Seeded inputs, operations and output checks for the three benchmark workloads.

Every check is a pure function that returns a list of problems (empty when
the output is correct), so that a perturbed value can be shown to be caught.
The library is reached only through the public names of ``rindler_spin``,
passed in as ``rs``; the CLI only as a subprocess (see ``run.py``).
"""

from __future__ import annotations

import math
import random

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # not used while tuning; reserved for confirming later claims

# tolerances from the README, docs/figures.md and tests/test_acceptance.py
CURVE_TOL = 1e-6            # c_closed vs c_numeric per row
TAU0_ALPHA1 = 2.7069        # docs/figures.md: tau0 at alpha = 1
TAU0_TOL = 1e-4
ORACLE_TOL = 1e-4           # rates: quadrature vs closed form (criterion 2)
CONCURRENCE_TOL = 1e-8      # concurrence routes vs closed form (criterion 5)
WORLDLINE_TOL = 1e-8        # worldline vs Rindler closed form (criterion 8)
EXPONENT_TOL = 0.03         # electron exponent constant vs 3.8e61 (criterion 7)
CROSSING_TOL = 1e-10        # crossing-equation residual at tau0 (test_entanglement)
ASYMPTOTE_TOL_AT_100 = 1e-3  # tau0 vs pi ln3 / alpha^3 at alpha = 100 (criterion 6)

# default grids of the CLI: --tau-grid 0:5:120, worldline --tau-grid 0:5:101
TAU_GRID = (0.0, 5.0, 120)
WORLDLINE_GRID = (0.0, 5.0, 101)

CURVE_ALPHA = (0.5, 5.0)      # the default `surface` alpha range
CURVE_SAMPLES = (2, 120)      # number of tau samples per curve, inclusive
CROSS_ALPHA = (0.5, 10.0)     # the acceptance grids (tests/test_acceptance.py criteria 2, 5)
CURVE_BLOCK = 4               # Latin-hypercube block sizes (one stratum per op)
CROSS_BLOCK = 32
INPUT_POOL = {"cli-docs": 64, "curve-rk4": 256, "cross-check": 4096}  # rounds for cli-docs

# Alphas below the cross-check range where the parent commit is known to fail
# (bench/design.json, known_failures_at_parent).  Every traced run checks them
# once, outside the timed and counted operations, and reports which sub-checks
# fail; 0.17075 lies in the narrow window where the Jacobi route exceeds 1e-8.
DEFECT_PROBE_ALPHAS = (0.1, 0.15, 0.17075, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
DEFECT_PROBE_CHECKS = ("rates_numeric", "concurrence", "concurrence_real")


# ----------------------------------------------------------------- parsing

def parse_csv(text):
    """Header and rows of a CLI CSV; empty fields become None."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(v) if v else None for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _column(text, name):
    header, rows = parse_csv(text)
    if name not in header:
        raise ValueError(f"missing column {name}")
    i = header.index(name)
    return [row[i] for row in rows]


# ---------------------------------------------------------------- cli-docs

def _check_rows(files, name, expected):
    _, rows = parse_csv(files[name])
    return [] if len(rows) == expected else [f"{name}: {len(rows)} rows, expected {expected}"]


def check_rates_grid(files):
    return _check_rows(files, "rates.csv", 200)


def check_rates_oracle(files):
    problems = _check_rows(files, "rates_oracle.csv", 1)
    for value in _column(files["rates_oracle.csv"], "oracle_residual"):
        if value is None or not value <= ORACLE_TOL:
            problems.append(f"oracle_residual {value} > {ORACLE_TOL}")
    return problems


def check_curve_csv(files):
    text = files["curve.csv"]
    problems = _check_rows(files, "curve.csv", 120)
    closed, numeric = _column(text, "c_closed"), _column(text, "c_numeric")
    problems += check_curve_samples(closed, numeric)
    tau0 = _column(text, "tau0")[-1]
    if tau0 is None or not abs(tau0 - TAU0_ALPHA1) <= TAU0_TOL:
        problems.append(f"tau0 {tau0} not within {TAU0_TOL} of {TAU0_ALPHA1}")
    return problems


def check_surface(files):
    return (_check_rows(files, "surface.csv", 60 * 120)
            + _check_rows(files, "surface_tau0.csv", 60))


def _worldline_check(name, rows, residual):
    def check(files):
        problems = _check_rows(files, name, rows)
        if residual:
            worst = max(_column(files[name], "residual"))
            if not worst <= WORLDLINE_TOL:
                problems.append(f"{name}: residual {worst} > {WORLDLINE_TOL}")
        return problems
    return check


def check_constants(name):
    def check(files):
        values = dict(ln.split(",", 1) for ln in files[name].splitlines()[1:] if ln)
        dev = float(values["exponent_rel_dev_from_3.8e61"])
        return [] if dev <= EXPONENT_TOL else [f"exponent deviation {dev} > {EXPONENT_TOL}"]
    return check


#: (key, argv with output paths relative to the op directory, output files, check)
#: Each line is documented in README.md (CLI) or docs/figures.md; --out is added
#: where the documented line prints to stdout.
CLI_COMMANDS = (
    ("rates", ["rates", "--alpha-grid", "0.05:10:200:log", "--out", "rates.csv"],
     ("rates.csv",), check_rates_grid),
    ("rates-oracle", ["rates", "--alpha", "1", "--oracle", "--out", "rates_oracle.csv"],
     ("rates_oracle.csv",), check_rates_oracle),
    ("curve", ["curve", "--alpha", "1", "--tau-grid", "0:5:120", "--out", "curve.csv"],
     ("curve.csv",), check_curve_csv),
    ("surface", ["surface", "--out", "surface.csv"],
     ("surface.csv", "surface_tau0.csv"), check_surface),
    ("worldline-constant", ["worldline", "--profile", "constant:1", "--tau-grid", "0:5:101",
                            "--out", "wl_constant.csv"],
     ("wl_constant.csv",), _worldline_check("wl_constant.csv", 101, True)),
    ("worldline-sinusoid", ["worldline", "--profile", "sinusoid:1,0.5", "--out", "wl_sinusoid.csv"],
     ("wl_sinusoid.csv",), _worldline_check("wl_sinusoid.csv", 101, False)),
    ("worldline-figure", ["worldline", "--profile", "constant:1", "--tau-grid", "0:3:301",
                          "--out", "wl.csv"],
     ("wl.csv",), _worldline_check("wl.csv", 301, True)),
    ("constants-accel", ["constants", "--accel", "1e26", "--out", "constants_accel.csv"],
     ("constants_accel.csv",), check_constants("constants_accel.csv")),
    ("constants-t0", ["constants", "--target-t0", "3.15e7", "--out", "constants_t0.csv"],
     ("constants_t0.csv",), check_constants("constants_t0.csv")),
)


# --------------------------------------------------------------- curve-rk4

def check_curve_samples(closed, numeric):
    problems = []
    for i, (a, b) in enumerate(zip(closed, numeric)):
        if a is None or b is None or not abs(a - b) <= CURVE_TOL:
            problems.append(f"sample {i}: |c_closed - c_numeric| = |{a} - {b}| > {CURVE_TOL}")
    if len(closed) != len(numeric):
        problems.append(f"{len(closed)} closed samples against {len(numeric)} numeric")
    return problems


def curve_op(rs, alpha, samples):
    """The `curve` pipeline in-process: closed form, then the master-equation route."""
    taus = np.linspace(0.0, 5.0, samples)
    closed = [rs.concurrence_closed(alpha, float(t)) for t in taus]
    rates = rs.rates_closed(alpha)
    stiffest = max(rates.g_minus, rates.g_plus, 4.0 * rates.g_z, 1e-12)
    spec = rs.LindbladSpec(rates=rates, dt=min(1e-3, 0.05 / stiffest))  # as in `curve`
    rho = rs.density_from_coefficients(rs.bell_state())
    numeric, prev = [], 0.0
    for tau in taus:
        if tau != prev:
            rho = rs.evolve_numeric(rho, spec, float(tau - prev))
        prev = float(tau)
        numeric.append(rs.concurrence(rho))
    rs.disentanglement_time(alpha)
    return {"curve": check_curve_samples(closed, numeric)}


# ------------------------------------------------------------- cross-check

def check_rates(closed, numeric):
    problems = []
    for key in ("g_plus", "g_minus", "g_z"):
        a, b = getattr(numeric, key), getattr(closed, key)
        if not abs(a - b) <= ORACLE_TOL * abs(b):
            problems.append(f"{key}: relative deviation {abs(a - b) / abs(b):.3e} > {ORACLE_TOL}")
    return problems


def check_concurrence(route, values, closed):
    problems = []
    for i, (a, b) in enumerate(zip(values, closed)):
        if isinstance(a, Exception):
            problems.append(f"{route} state {i}: raised {type(a).__name__}: {a}")
        elif not abs(a - b) <= CONCURRENCE_TOL:
            problems.append(f"{route} state {i}: deviation {abs(a - b):.3e} > {CONCURRENCE_TOL}")
    return problems


def check_disentanglement(alpha, tau0):
    """Crossing-equation residual at tau0, and the inverse-cube asymptote.

    The asymptote's relative error is O(alpha^-2); criterion 6 bounds it by
    1e-3 at alpha = 100, which scales to 1e-3 * (100/alpha)^2 here.
    """
    g1 = (1.0 + alpha * alpha) / math.tanh(math.pi / alpha)
    g2 = 0.5 * (g1 + alpha**3 / math.pi)
    residual = math.exp(-tau0 * g2) - 0.5 * (1.0 - math.exp(-tau0 * g1)) / math.cosh(math.pi / alpha)
    asymptote = math.pi * math.log(3.0) / alpha**3
    rel = abs(tau0 / asymptote - 1.0)
    bound = ASYMPTOTE_TOL_AT_100 * (100.0 / alpha) ** 2
    problems = []
    if not abs(residual) <= CROSSING_TOL:
        problems.append(f"crossing residual {residual:.3e} > {CROSSING_TOL}")
    if not rel <= bound:
        problems.append(f"asymptote deviation {rel:.3e} > {bound:.3e}")
    return problems


def check_worldline(events, reference):
    worst = 0.0
    for ev, ref in zip(events[1:], reference[1:]):
        worst = max(worst, abs(ev.t - ref.t) / abs(ref.t), abs(ev.z - ref.z) / abs(ref.z))
    return [] if worst <= WORLDLINE_TOL else [f"worldline deviation {worst:.3e} > {WORLDLINE_TOL}"]


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raising route is a recorded failure, not a crash
        return exc


def cross_check_op(rs, alpha):
    """The README's closed-form / independent-check rows at one alpha, minus RK4."""
    closed_rates = rs.rates_closed(alpha)
    numeric_rates = _attempt(rs.rates_numeric, alpha)
    if isinstance(numeric_rates, Exception):
        rates_problems = [f"raised {type(numeric_rates).__name__}: {numeric_rates}"]
    else:
        rates_problems = check_rates(closed_rates, numeric_rates)

    bell = rs.bell_state()
    eigen, real, closed = [], [], []
    for tau in np.linspace(*TAU_GRID):
        rho = rs.density_from_coefficients(rs.evolve_analytic(bell, closed_rates, float(tau)))
        closed.append(rs.concurrence_closed(alpha, float(tau)))
        eigen.append(_attempt(rs.concurrence, rho))
        real.append(_attempt(rs.concurrence_real, rho))

    taus = np.linspace(*WORLDLINE_GRID)
    events = rs.worldline(rs.AccelerationProfile.constant(alpha), taus, c=1.0)
    reference = [rs.rindler_event(alpha, float(t), c=1.0) for t in taus]
    return {
        "rates_numeric": rates_problems,
        "concurrence": check_concurrence("concurrence", eigen, closed),
        "concurrence_real": check_concurrence("concurrence_real", real, closed),
        "disentanglement_time": check_disentanglement(alpha, rs.disentanglement_time(alpha)),
        "worldline": check_worldline(events, reference),
    }


def defect_probe(rs):
    """Number of DEFECT_PROBE_ALPHAS at which each probed sub-check fails."""
    failing = {name: 0 for name in DEFECT_PROBE_CHECKS}
    for alpha in DEFECT_PROBE_ALPHAS:
        problems = cross_check_op(rs, alpha)
        for name in DEFECT_PROBE_CHECKS:
            failing[name] += bool(problems[name])
    return failing


# ------------------------------------------------------------------ inputs

def _log_uniform(lo, hi, u):
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


def _latin_blocks(rng, block, count, dims):
    """Stratified uniforms: each block of `block` draws covers every stratum once per dim."""
    out = []
    while len(out) < count:
        perms = [rng.sample(range(block), block) for _ in range(dims)]
        for i in range(block):
            out.append(tuple((perm[i] + rng.random()) / block for perm in perms))
    return out[:count]


def make_inputs(workload, seed):
    """The workload's input sequence; the same seed gives the same inputs.

    Inputs are consumed in blocks (``block_size``) so every run covers its
    sampling range evenly; a run that outlasts the pool starts it again.
    """
    rng = random.Random(f"{workload}:{seed}")
    count = INPUT_POOL[workload]
    if workload == "cli-docs":
        # the seed only shuffles the order of the commands in each round
        return [i for _ in range(count) for i in rng.sample(range(len(CLI_COMMANDS)), len(CLI_COMMANDS))]
    if workload == "curve-rk4":
        lo, hi = CURVE_SAMPLES
        return [(_log_uniform(*CURVE_ALPHA, ua), lo + min(int(un * (hi - lo + 1)), hi - lo))
                for ua, un in _latin_blocks(rng, CURVE_BLOCK, count, 2)]
    if workload == "cross-check":
        return [_log_uniform(*CROSS_ALPHA, u) for (u,) in _latin_blocks(rng, CROSS_BLOCK, count, 1)]
    raise ValueError(f"unknown workload {workload!r}")


def block_size(workload):
    return {"cli-docs": len(CLI_COMMANDS), "curve-rk4": CURVE_BLOCK,
            "cross-check": CROSS_BLOCK}[workload]


WORKLOADS = ("cli-docs", "curve-rk4", "cross-check")
