import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rindler_spin
from rindler_spin.cli import main

TAU0_A1 = 2.7068896432990886


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(v) if v else None for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_rates_single_alpha(capsys):
    code, out, _ = run_cli(capsys, "rates", "--alpha", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "n", "g_plus", "g_minus", "g_z", "T1", "T2"]
    row = dict(zip(header, rows[0]))
    assert row["n"] == pytest.approx(1.8709365986606441e-3, rel=1e-8)
    assert row["T1"] == pytest.approx(0.49813603811037497, rel=1e-8)
    assert row["T2"] == pytest.approx(0.8599215218345704, rel=1e-8)
    assert row["T2"] == pytest.approx(0.859974, rel=1e-3)  # quoted 6-digit rounding


def test_rates_zero_alpha(capsys):
    code, out, _ = run_cli(capsys, "rates", "--alpha", "0")
    assert code == 0
    _, rows = parse_csv(out)
    alpha, n, g_plus, g_minus, g_z, t1, t2 = rows[0]
    assert g_plus == 0.0
    assert g_minus == 1.0
    assert g_z == 0.0
    assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


def test_rates_oracle_column(capsys):
    code, out, _ = run_cli(capsys, "rates", "--alpha", "1", "--oracle")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-3:] == ["g_plus_numeric", "g_minus_numeric", "oracle_residual"]
    assert rows[0][-1] < 1e-4


def test_rates_oracle_below_cutoff_blank(capsys):
    code, out, _ = run_cli(capsys, "rates", "--alpha", "0.05", "--oracle")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][-3:] == [None, None, None]


def test_rates_oracle_default_grid(capsys):
    # the documented oracle line on the default grid: blank below the trapezoid floor
    code, out, _ = run_cli(capsys, "rates", "--oracle")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 200
    for row in rows:
        if row[0] < 0.4:
            assert row[-3:] == [None, None, None]
        else:
            assert row[-1] <= 1e-4
    assert sum(row[0] >= 0.4 for row in rows) > 100


def test_curve_rows_and_tau0(capsys):
    code, out, _ = run_cli(capsys, "curve", "--alpha", "1", "--tau-grid", "0:2:9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["tau", "c_closed", "c_numeric", "tau0"]
    assert rows[0][1] == 1.0 and rows[0][2] == 1.0
    for row in rows:
        assert abs(row[1] - row[2]) < 1e-6
    assert all(row[3] is None for row in rows[:-1])
    assert rows[-1][3] == pytest.approx(TAU0_A1, rel=1e-8)


@pytest.mark.parametrize("command", [["curve", "--alpha", "1"], ["surface", "--alpha", "1"]])
def test_repeated_tau_grid_refused(capsys, command):
    # surface printed the tau = 0 row three times; both commands share one check
    code, out, err = run_cli(capsys, *command, "--tau-grid", "0:0:3")
    assert code == 2
    assert out == ""
    assert "tau grid must be strictly increasing" in err


def test_surface_tables(capsys, tmp_path):
    out_path = tmp_path / "surf.csv"
    code, _, _ = run_cli(capsys, "surface", "--alpha-grid", "1:100:3:log",
                         "--tau-grid", "0:1:4", "--out", str(out_path))
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["alpha", "tau", "c"]
    for row in rows:
        if row[1] == 0.0:
            assert row[2] == 1.0
    zero_header, zero_rows = parse_csv((tmp_path / "surf_tau0.csv").read_text())
    assert zero_header == ["alpha", "tau0", "tau0_asymptotic"]
    tau0s = [row[1] for row in zero_rows]
    assert all(hi < lo for lo, hi in zip(tau0s, tau0s[1:]))
    last = zero_rows[-1]           # alpha = 100
    assert abs(last[1] - last[2]) / last[1] < 1e-3


def test_worldline_constant_profile(capsys):
    code, out, _ = run_cli(capsys, "worldline", "--profile", "constant:1",
                           "--tau-grid", "0:2:5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["tau", "t", "z", "rapidity", "beta", "residual"]
    by_tau = {row[0]: row for row in rows}
    assert by_tau[1.0][1] == pytest.approx(math.sinh(1.0), rel=1e-8)   # 1.17520
    assert by_tau[1.0][2] == pytest.approx(math.cosh(1.0), rel=1e-8)   # 1.54308
    assert all(row[5] < 1e-8 for row in rows)


def test_worldline_zero_profile(capsys):
    code, out, _ = run_cli(capsys, "worldline", "--profile", "zero",
                           "--tau-grid", "0:3:7")
    assert code == 0
    header, rows = parse_csv(out)
    assert "residual" not in header
    for row in rows:
        assert row[1] == pytest.approx(row[0], abs=1e-12)


def test_worldline_sinusoid_profile(capsys):
    code, out, _ = run_cli(capsys, "worldline", "--profile", "sinusoid:1,2",
                           "--tau-grid", "0:2:5")
    assert code == 0
    header, rows = parse_csv(out)
    assert "residual" not in header  # closed-form column is constant-only
    # rapidity oracle: (a0/omega)(1 - cos(omega tau)) with c = 1
    for row in rows:
        expected = 0.5 * (1.0 - math.cos(2.0 * row[0]))
        assert row[3] == pytest.approx(expected, abs=1e-9)


def test_worldline_unknown_profile(capsys):
    code, _, err = run_cli(capsys, "worldline", "--profile", "spiral")
    assert code == 2
    assert "constant" in err and "sinusoid" in err and "zero" in err


def test_constants_exponent(capsys):
    code, out, _ = run_cli(capsys, "constants", "--accel", "1e26")
    assert code == 0
    values = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(values["exponent_rel_dev_from_3.8e61"]) < 0.03
    assert float(values["exponent_constant_m2_s4"]) == pytest.approx(3.8429978e61, rel=1e-6)


def test_constants_cubic_scaling(capsys):
    def tau0_at(accel):
        code, out, _ = run_cli(capsys, "constants", "--accel", str(accel))
        assert code == 0
        values = dict(line.split(",") for line in out.strip().splitlines()[1:])
        return float(values["tau0_s"])

    assert tau0_at(2e26) == pytest.approx(tau0_at(1e26) / 8.0, rel=1e-6)


def test_constants_target_t0_roundtrip(capsys):
    target = 3.15e7
    code, out, _ = run_cli(capsys, "constants", "--target-t0", str(target))
    assert code == 0
    values = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(values["t0_s"]) == pytest.approx(target, rel=1e-6)


def test_constants_t0_finite_where_exp_alone_overflows(capsys):
    # t0 = (c/2a) e^{K/a^2} is a float although e^{K/a^2} is not
    for argv, t0 in ((["--accel", "2.3e31"], "2.0589"), (["--target-t0", "1e300"],
                                                           "1.00000000e+300")):
        code, out, _ = run_cli(capsys, "constants", *argv)
        assert code == 0
        values = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert values["t0_s"].startswith(t0)
        assert math.isfinite(float(values["log_t0"]))


def test_constants_requires_accel(capsys):
    code, _, err = run_cli(capsys, "constants")
    assert code == 2
    assert "--accel" in err


def test_constants_accel_whose_alpha_underflows(capsys):
    code, out, err = run_cli(capsys, "constants", "--accel", "1e-320")
    assert (code, out) == (2, "")
    assert err == ("error: alpha underflows at accel = 1e-320 cm/s^2, "
                   "gap = 1.85480201566e-20 erg\n")


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "rates", "--alpha", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "rates"
    assert payload["columns"][0] == "alpha"
    assert payload["rows"][0][0] == 1.0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_json_non_finite_is_null(capsys):
    # t0 overflows at this accel; the asymptote 1/alpha^3 overflows at this alpha
    code, out, _ = run_cli(capsys, "constants", "--accel", "1e26", "--format", "json")
    assert code == 0
    values = _strict_json(out)["values"]
    assert values["t0_s"] is None
    assert math.isfinite(values["log_t0"])
    code, out, _ = run_cli(capsys, "surface", "--alpha-grid", "1e-120:1e-100:2",
                           "--tau-grid", "0:1:2", "--format", "json")
    assert code == 0
    table = _strict_json(out)["tau0"]
    assert table["rows"][0][2] is None          # alpha^3 = 1e-360 underflows
    assert table["rows"][1][2] == pytest.approx(math.pi * math.log(3.0) / 1e-300, rel=1e-12)
    assert all(row[1] > 0 for row in table["rows"])


def test_output_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        code, _, _ = run_cli(capsys, "rates", "--alpha-grid", "0.5:5:20",
                             "--out", str(path))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2      # config alpha\nformat = json\n")
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["rows"][0][0] == 2.0
    # explicit flag beats the config file
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--alpha", "1")
    assert json.loads(out)["rows"][0][0] == 1.0


#: (key, base argv, config value, the same setting as flags, a flag that overrides it)
SETTING_CASES = [
    ("alpha", ["rates"], "2", ["--alpha", "2"], ["--alpha", "3"]),
    ("alpha_grid", ["rates"], "0.5:2:4", ["--alpha-grid", "0.5:2:4"], ["--alpha-grid", "1:2:2"]),
    ("tau_grid", ["curve", "--alpha", "1"], "0:1:3", ["--tau-grid", "0:1:3"],
     ["--tau-grid", "0:1:5"]),
    ("format", ["rates", "--alpha", "1"], "json", ["--format", "json"], ["--format", "csv"]),
    ("out", ["rates", "--alpha", "1"], "a.csv", ["--out", "a.csv"], ["--out", "b.csv"]),
    ("oracle", ["rates", "--alpha", "1"], "yes", ["--oracle"], None),  # the flag only sets it
    ("profile", ["worldline", "--tau-grid", "0:1:3"], "sinusoid:1,2",
     ["--profile", "sinusoid:1,2"], ["--profile", "zero"]),
    ("mu", ["constants", "--accel", "1e20"], "2e-20", ["--mu", "2e-20"], ["--mu", "1e-20"]),
    ("gap", ["constants", "--accel", "1e20"], "3e-20", ["--gap", "3e-20"], ["--gap", "1e-20"]),
    ("accel", ["constants"], "1e20", ["--accel", "1e20"], ["--accel", "2e20"]),
    ("target_t0", ["constants"], "100", ["--target-t0", "100"], ["--target-t0", "1e4"]),
]


@pytest.mark.parametrize("key, base, value, as_flags, override", SETTING_CASES,
                         ids=[case[0] for case in SETTING_CASES])
def test_config_every_setting(capsys, tmp_path, monkeypatch, key, base, value, as_flags,
                              override):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")

    def run(*argv):
        """Exit code, stdout and the files the run wrote into the working directory."""
        code, out, _ = run_cli(capsys, *argv)
        files = {}
        for path in sorted(work.iterdir()):
            files[path.name] = path.read_text()
            path.unlink()
        return code, out, files

    from_config = run(*base, "--config", str(cfg))
    from_flags = run(*base, *as_flags)
    assert from_config == from_flags
    assert from_flags != run(*base)          # the value is not the default
    if override is not None:
        overridden = run(*base, *override)
        assert run(*base, *override, "--config", str(cfg)) == overridden
        assert overridden != from_flags


@pytest.mark.parametrize("argv", [
    ["worldline", "--alpha", "2"],                          # worldline reads no alpha
    ["rates", "--alpha", "1", "--mu", "-1"],
    ["constants", "--accel", "1e26", "--tau-grid", "0:0:3"],
    ["curve", "--alpha", "1", "--oracle"],
    ["curve", "--alpha-grid", "1:1:1"],                     # curve runs at one --alpha
], ids=" ".join)
def test_unread_flag_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_config_serves_every_command(capsys, tmp_path):
    # each command reads its own keys and leaves the others' alone
    cfg = tmp_path / "all.cfg"
    cfg.write_text("alpha_grid = 0.5:2:3\ntau_grid = 0:1:3\nprofile = zero\naccel = 1e26\n")
    for command in ("rates", "curve", "surface", "worldline", "constants"):
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 0 and out, (command, err)


def test_each_command_takes_only_its_settings():
    from rindler_spin.cli import _COMMANDS, _build_parser
    parser = _build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    slots = 0
    for name, sub in commands.items():
        flags = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        own = {"--" + key.replace("_", "-") for key in _COMMANDS[name][2]}
        assert flags == own | {"--format", "--out", "--config"}
        slots += len(flags)
    assert slots == 29


def test_config_oracle_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle = no\n")
    code, out, _ = run_cli(capsys, "rates", "--alpha", "1", "--config", str(cfg), "--oracle")
    assert code == 0
    assert parse_csv(out)[0][-1] == "oracle_residual"


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("alpha = 3\n")
    monkeypatch.setenv("RINDLER_SPIN_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "rates")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == 3.0


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for key in ("alpa", "seed"):
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
        assert code == 2
        assert key in err


def test_bad_grid_spec(capsys):
    code, _, err = run_cli(capsys, "rates", "--alpha-grid", "1:2")
    assert code == 2
    assert "lo:hi:n" in err


def test_unwritable_output(capsys):
    code, _, err = run_cli(capsys, "rates", "--alpha", "1",
                           "--out", "/nonexistent/dir/out.csv")
    assert code == 4
    assert "/nonexistent/dir/out.csv" in err


def test_numeric_error_exit_code(capsys):
    # this t0 needs an acceleration beyond float range: bracketing must fail
    code, _, err = run_cli(capsys, "constants", "--target-t0", "1e-300")
    assert code == 3


@pytest.mark.parametrize("argv, expected", [
    (["curve", "--alpha", "0.001"], 0),                    # cosh(pi/alpha) overflowed
    (["surface", "--alpha-grid", "0.001:0.01:3"], 0),
    (["rates", "--alpha", "1e200"], 2),                    # alpha^3 overflows
    (["surface", "--alpha-grid", "1e-120:1e-100:2"], 0),   # tau0 past 200 doublings
    (["constants", "--accel", "1e-200"], 0),
    (["constants", "--accel", "1.7e308"], 2),              # 2 accel overflowed in t0_lab
    (["constants", "--accel", "inf"], 2),
    (["curve", "--alpha", "3e-308"], 2),                   # tau0 ~ 2 pi/alpha is not a float
    (["curve", "--alpha", "1e-309"], 2),
    (["worldline", "--tau-grid", "0:0:3"], 2),             # grid not strictly increasing
    (["worldline", "--profile", "constant:1e300"], 2),     # cosh of the rapidity overflows
    (["worldline", "--tau-grid", "0:1e300:3"], 2),
    (["worldline", "--profile", "sinusoid:1,1e300"], 3),   # hung before the evaluation budget
    (["constants", "--target-t0", "inf"], 2),
    (["constants", "--target-t0", "nan"], 2),
    (["constants", "--mu", "nan", "--accel", "1e26"], 2),
    (["constants", "--accel", "1e26", "--mu", "1e200"], 2),  # mu**2 overflowed in gamma0
    (["constants", "--accel", "1e26", "--gap", "1e200"], 2),  # gap**3 overflowed
])
def test_extreme_alpha_exit_codes(capsys, argv, expected):
    code, _, _ = run_cli(capsys, *argv)
    assert code == expected


def test_extreme_exit_code_in_a_subprocess():
    # the module entry point, as a user runs it: a package error, not a traceback
    src = str(Path(rindler_spin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["constants", "--accel", "1e26", "--mu", "1e-200"]  # gamma0 underflowed to 0
    proc = subprocess.run([sys.executable, "-m", "rindler_spin.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_default_rates_grid_shape(capsys):
    code, out, _ = run_cli(capsys, "rates")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 200
    assert rows[0][0] == pytest.approx(0.05, rel=1e-9)
    assert rows[-1][0] == pytest.approx(10.0, rel=1e-9)
