"""Self-test of the benchmark harness: tiny runs, metric names, and checks that bite.

Run with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as harness  # noqa: E402
import workloads  # noqa: E402

import rindler_spin  # noqa: E402
from rindler_spin.cli import main as cli_main  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_input_ranges():
    n_cmd = len(workloads.CLI_COMMANDS)
    order = workloads.make_inputs("cli-docs", 1)
    for start in range(0, len(order), n_cmd):
        assert sorted(order[start:start + n_cmd]) == list(range(n_cmd))
    for alpha, samples in workloads.make_inputs("curve-rk4", 1):
        assert 0.5 <= alpha <= 5.0 and 2 <= samples <= 120
    alphas = workloads.make_inputs("cross-check", 1)
    assert all(0.5 <= a <= 10.0 for a in alphas)
    # stratified: every block of 32 puts exactly one draw in each log-stratum
    block = alphas[:workloads.CROSS_BLOCK]
    strata = sorted(int(32 * math.log(a / 0.5) / math.log(20.0)) for a in block)
    assert strata == list(range(32))


# ---------------------------------------------------------- tiny full runs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(workload, trace):
    result = harness.run(workload, workloads.DEFAULT_SEED, 0.0, trace,
                         setup_runs=1, importtime_runs=1, count=2 if workload == "cli-docs" else 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_bare_directory_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cross-check",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------- cli-docs checkers

@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Genuine outputs of every documented command line, keyed by command."""
    out = {}
    for key, argv, outputs, _ in workloads.CLI_COMMANDS:
        where = tmp_path_factory.mktemp(key)
        args = [str(where / a) if a in outputs else a for a in argv]
        assert cli_main(args) == 0
        out[key] = {name: (where / name).read_text() for name in outputs}
    return out


def _replace_field(text, row, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _drop_row(text):
    lines = text.splitlines()
    return "\n".join(lines[:-1]) + "\n"


def _constants_dev(text):
    return text.replace(text.split("exponent_rel_dev_from_3.8e61,")[1].split("\n")[0], "4.0e-02")


PERTURB = {
    "rates": lambda f: {"rates.csv": _drop_row(f["rates.csv"])},
    "rates-oracle": lambda f: {"rates_oracle.csv": _replace_field(
        f["rates_oracle.csv"], 1, "oracle_residual", "2.0e-04")},
    "curve": lambda f: {"curve.csv": _replace_field(f["curve.csv"], 40, "c_numeric", "{:.8e}".format(
        float(f["curve.csv"].splitlines()[40].split(",")[1]) + 2e-6))},
    "surface": lambda f: {**f, "surface_tau0.csv": _drop_row(f["surface_tau0.csv"])},
    "worldline-constant": lambda f: {"wl_constant.csv": _replace_field(
        f["wl_constant.csv"], 50, "residual", "1.0e-07")},
    "worldline-sinusoid": lambda f: {"wl_sinusoid.csv": _drop_row(f["wl_sinusoid.csv"])},
    "worldline-figure": lambda f: {"wl.csv": _replace_field(f["wl.csv"], 300, "residual", "1.0e-07")},
    "constants-accel": lambda f: {"constants_accel.csv": _constants_dev(f["constants_accel.csv"])},
    "constants-t0": lambda f: {"constants_t0.csv": _constants_dev(f["constants_t0.csv"])},
}


@pytest.mark.parametrize("command", workloads.CLI_COMMANDS, ids=lambda c: c[0])
def test_cli_check_flags_perturbed_output(cli_outputs, command):
    key, _, _, check = command
    assert check(cli_outputs[key]) == []
    assert check(PERTURB[key](cli_outputs[key]))


def test_curve_check_flags_tau0(cli_outputs):
    text = cli_outputs["curve"]["curve.csv"]
    assert workloads.check_curve_csv({"curve.csv": _replace_field(text, 120, "tau0", "2.70710000e+00")})


def test_cli_ops_flag_exit_code_and_nondeterminism(tmp_path, monkeypatch):
    bad = ("bad", ["curve", "--alpha", "-1", "--out", "bad.csv"], ("bad.csv",), lambda f: [])
    monkeypatch.setattr(workloads, "CLI_COMMANDS", (bad,))
    record = harness.CliOps(tmp_path)(0, 1)
    assert record.failed_checks == ["exit"]

    ops = harness.CliOps(tmp_path)
    (tmp_path / "out.csv").write_text("a\n1\n")
    assert ops._check_outputs("k", tmp_path, ("out.csv",), lambda f: [])["determinism"] == []
    (tmp_path / "out.csv").write_text("a\n2\n")
    assert ops._check_outputs("k", tmp_path, ("out.csv",), lambda f: [])["determinism"]


# ---------------------------------------------------- in-process checkers

def test_curve_samples_check():
    assert workloads.check_curve_samples([1.0, 0.5], [1.0, 0.5 + 5e-7]) == []
    assert workloads.check_curve_samples([1.0, 0.5], [1.0, 0.5 + 2e-6])
    assert workloads.curve_op(rindler_spin, 1.0, 5) == {"curve": []}


def test_cross_check_checks_flag_perturbations():
    rs = rindler_spin
    closed = rs.rates_closed(1.0)
    numeric = rs.rates_numeric(1.0)
    assert workloads.check_rates(closed, numeric) == []
    bumped = rs.RateSet(alpha=1.0, n=numeric.n, g_plus=numeric.g_plus,
                        g_minus=numeric.g_minus * (1 + 2e-4), g_z=numeric.g_z)
    assert workloads.check_rates(closed, bumped)

    assert workloads.check_concurrence("c", [0.5, 0.25], [0.5, 0.25]) == []
    assert workloads.check_concurrence("c", [0.5, 0.25 + 2e-8], [0.5, 0.25])
    assert workloads.check_concurrence("c", [0.5, RuntimeError("x")], [0.5, 0.25])

    tau0 = rs.disentanglement_time(3.0)
    assert workloads.check_disentanglement(3.0, tau0) == []
    assert workloads.check_disentanglement(3.0, tau0 * (1 + 1e-6))
    assert workloads.check_disentanglement(200.0, 1.5 * rs.disentanglement_time(200.0))

    events = [rs.rindler_event(2.0, t, c=1.0) for t in (0.0, 1.0, 2.0)]
    assert workloads.check_worldline(events, events) == []
    moved = events[:2] + [rs.WorldlineEvent(2.0, events[2].t * (1 + 1e-7), events[2].z,
                                            events[2].rapidity, events[2].beta)]
    assert workloads.check_worldline(moved, events)


def test_cross_check_op_at_both_ends():
    problems = workloads.cross_check_op(rindler_spin, 2.0)
    assert all(found == [] for found in problems.values())
    failed = [k for k, v in workloads.cross_check_op(rindler_spin, 0.1).items() if v]
    assert failed == ["rates_numeric", "concurrence_real"]


def test_defect_probe_sees_parent_commit_failures():
    failing = workloads.defect_probe(rindler_spin)
    assert set(failing) == set(workloads.DEFECT_PROBE_CHECKS)
    assert failing["rates_numeric"] > 0 and failing["concurrence_real"] > 0


def test_tail_percentile():
    walls = [float(i) for i in range(1, 31)]
    value, pct, n, beyond = harness.tail(walls)
    assert (value, n, beyond) == (20.0, 30, 10)
    assert pct == pytest.approx(100 * 20 / 30)
