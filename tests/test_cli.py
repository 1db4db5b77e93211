import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infogeom
import infogeom.derived as derived
import infogeom.invariance as invariance
from infogeom.cli import _OPTIONS, _TOLERANCES, main
from infogeom.expfam import make_family


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def test_families_listing(capsys):
    code, out, _ = _run(capsys, ["families"])
    assert code == 0
    assert "bernoulli" in out and "quadrature" in out


def test_fisher_single_row(capsys):
    code, out, _ = _run(capsys, ["fisher", "--family", "bernoulli", "--theta", "0", "--route", "A"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert rows[0]["quantity"] == "fisher_A[0,0]"
    assert float(rows[0]["value"]) == pytest.approx(0.25, abs=1e-15)
    assert rows[0]["family"] == "bernoulli"
    assert rows[0]["n"] == "1"


def test_fisher_route_all_gap_rows(capsys):
    code, out, _ = _run(capsys, ["fisher", "--family", "categorical", "--theta", "0;0", "--route", "all"])
    assert code == 0
    rows = _rows(out)
    gaps = {r["quantity"]: r for r in rows if r["quantity"].startswith("route_gap")}
    assert float(gaps["route_gap_AB"]["value"]) <= 1e-10
    assert float(gaps["route_gap_AC"]["value"]) <= 1e-6
    assert gaps["route_gap_AB"]["pass"] == "true"


def test_invariance_all_within_tolerance(capsys):
    code, out, _ = _run(capsys, ["invariance", "--family", "bernoulli", "--theta", "0", "--n", "1,2,4,8"])
    assert code == 0
    rows = _rows(out)
    residuals = [float(r["value"]) for r in rows if r["quantity"] in ("A1", "A2")]
    assert residuals and all(v < 1e-9 for v in residuals)
    assert {r["quantity"] for r in rows} == {"A1", "A2", "A3-constancy", "A3-affine"}
    assert all(r["pass"] == "true" for r in rows)


def test_clt_ks_decreasing(capsys):
    code, out, _ = _run(capsys, ["clt", "--family", "bernoulli", "--theta", "0", "--n", "1,4,16,64"])
    assert code == 0
    rows = [r for r in _rows(out) if r["quantity"] == "ks_max"]
    values = [float(r["value"]) for r in sorted(rows, key=lambda r: int(r["n"]))]
    assert values == sorted(values, reverse=True)


def test_tensor_rows(capsys):
    code, out, _ = _run(
        capsys, ["tensor", "--family", "bernoulli", "--theta", "1.0986122886681098", "--n", "1,4", "--k", "3"]
    )
    assert code == 0
    rows = _rows(out)
    ac = [r for r in rows if r["quantity"] == "amari_chentsov_k3"]
    assert float(ac[0]["value"]) == pytest.approx(-0.09375, abs=1e-10)
    fd = [r for r in rows if r["quantity"] == "fd3_gap"]
    assert fd and fd[0]["pass"] == "true"
    exponents = [r for r in rows if r["quantity"] == "scaling_exponent_k3"]
    assert float(exponents[0]["value"]) == pytest.approx(1.0, abs=1e-8)


def test_uniqueness_rows(capsys):
    code, out, _ = _run(capsys, ["uniqueness", "--family", "bernoulli", "--theta", "0", "--n", "1,4"])
    assert code == 0
    rows = {r["quantity"]: r for r in _rows(out)}
    assert float(rows["uniqueness_residual[fisher]"]["value"]) <= 1e-10
    assert float(rows["uniqueness_residual[l1_perturbed]"]["value"]) == pytest.approx(0.0125, abs=1e-12)
    assert float(rows["recover_c_hat[2.5xfisher]"]["value"]) == pytest.approx(2.5, abs=1e-10)
    assert float(rows["recover_spread[2.5xfisher]"]["value"]) <= 1e-10
    assert float(rows["recover_spread[sin_perturbed]"]["value"]) > 0.05


def test_byte_identical_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["invariance", "--family", "binomial", "--params", "m=4", "--theta", "grid", "--n", "1,2,4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only as the tests' reference
    src = str(Path(infogeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, infogeom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_usage_errors_exit_1(tmp_path, capsys):
    code, _, err = _run(capsys, ["invariance", "--family", "nope"])
    assert code == 1 and "error" in err

    code, _, err = _run(capsys, ["invariance", "--family", "bernoulli", "--n", "4,2"])
    assert code == 1 and "ascending" in err

    code, _, err = _run(capsys, ["fisher", "--family", "bernoulli", "--route", "Z"])
    assert code == 1

    # a theta given twice, even spelt differently, would write each of its rows twice
    code, out, err = _run(capsys, ["invariance", "--family", "bernoulli", "--theta", "0,0.0", "--n", "1"])
    assert code == 1 and out == "" and err.splitlines()[-1] == "usage error: theta '0.0' is given twice"

    # so is a key given twice in --params, --tol or a config file, where the last value would win unseen
    code, out, err = _run(capsys, ["clt", "--family", "binomial", "--params", "m=4,m=6"])
    assert code == 1 and out == "" and err.splitlines() == ["usage error: key 'm' is given twice in 'm=4,m=6'"]
    for tol in ("ks=1,ks=1e-9", "1e-9,default=2"):
        code, out, err = _run(capsys, ["clt", "--family", "bernoulli", "--tol", tol])
        assert code == 1 and out == "" and err.splitlines()[-1].endswith(f"is given twice in {tol!r}")
    config = tmp_path / "twice.ini"
    config.write_text("family = bernoulli\nn = 1,2\nn = 1,4\n", encoding="utf-8")
    code, out, err = _run(capsys, ["clt", "--config", str(config)])
    assert code == 1 and out == "" and err.splitlines()[-1] == f"usage error: {config}:3: key 'n' is given twice"


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--family", "binomial", "--params", "m=1030"],
        ["clt", "--family", "bernoulli", "--theta-lo=3", "--theta-hi=-3"],
        ["clt", "--family", "bernoulli", "--theta-lo=nan", "--theta-hi=3"],
        ["clt", "--family", "bernoulli", "--theta-lo=-3", "--theta-hi=inf"],
        ["clt", "--family", "bernoulli", "--theta-lo=-1e308", "--theta-hi=1e308"],
    ],
)
@pytest.mark.filterwarnings("error")  # pytest keeps warnings off the captured stderr, so one is made to fail the run
def test_family_that_cannot_be_built_is_one_error_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot build family '{argv[2]}'")


@pytest.mark.parametrize(
    "family, key, least, limit",
    [("categorical", "k", 2, 32), ("gauss_known_var", "nodes", 11, 360), ("exponential_dist", "nodes", 11, 360)],
)
def test_family_size_past_its_limit_is_one_error_line(capsys, family, key, least, limit):
    # rejected before the builder allocates anything (categorical k = 100000 would ask for a 74.5 GiB np.eye)
    assert make_family(family, {key: limit}).base.size == limit
    code, out, err = _run(capsys, ["clt", "--family", family, "--params", f"{key}={limit + 1}"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: cannot build family '{family}' with parameters {{'{key}': '{limit + 1}'}}: "
        f"parameter '{key}' must be an integer from {least} to {limit}, got '{limit + 1}'"
    ]


def test_theta_lo_without_theta_hi_exits_1(capsys):
    code, out, err = _run(capsys, ["invariance", "--family", "bernoulli", "--theta-lo", "-3"])
    assert code == 1 and out == ""
    assert "theta_lo and theta_hi must be given together" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "# demo configuration\n"
        "family = bernoulli\n"
        "theta = 0\n"
        "n = 1,2\n"
        "seed = 7\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, ["invariance", "--config", str(cfg)])
    assert code == 0
    assert all(r["n"] in ("1", "2") for r in _rows(out))

    # flag overrides the file value
    code, out, _ = _run(capsys, ["invariance", "--config", str(cfg), "--n", "1"])
    assert code == 0
    assert {r["n"] for r in _rows(out)} == {"1"}


def test_unknown_tolerance_key_is_usage_error(tmp_path, capsys):
    # a misspelt key would otherwise leave its check at the default tolerance and exit 0
    config = tmp_path / "run.ini"
    config.write_text("tol = axiom=1e-3\n", encoding="utf-8")
    for argv, key in (["--tol", "kss=0.01"], "kss"), (["--config", str(config)], "axiom"):
        code, out, err = _run(capsys, ["clt", "--family", "bernoulli", "--theta", "0", "--n", "1,2", *argv])
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == (
            f"usage error: unknown tolerance key {key!r}; known keys: default, {', '.join(_TOLERANCES)}"
        )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_non_finite_tolerance_is_usage_error(tmp_path, capsys, value):
    # nan would make rows that can never pass, inf rows that can never fail, 0 rows that pass only at 0
    config = tmp_path / "run.ini"
    config.write_text(f"tol = ks={value}\n", encoding="utf-8")
    for argv in ["--tol", f"ks={value}"], ["--config", str(config)]:
        code, out, err = _run(capsys, ["clt", "--family", "bernoulli", "--theta", "0", "--n", "1,2", *argv])
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == (
            f"usage error: bad tolerance 'ks={value}': tolerances must be positive and finite"
        )


@pytest.mark.parametrize("key", sorted(_TOLERANCES))
def test_every_tolerance_key_sets_some_row(capsys, key):
    # no key of the table is dead: each one, given by --tol, is the tolerance of some command's rows
    commands = ["fisher", "invariance", "clt", "tensor", "uniqueness"]
    flags = ["--family", "bernoulli", "--theta", "0", "--n", "1,2", "--route", "all", "--tol", f"{key}=1e-300"]
    tolerances = set()
    for command in commands:
        code, out, _ = _run(capsys, [command, *flags])
        assert code in (0, 2)
        tolerances |= {float(r["tolerance"]) for r in _rows(out) if r["tolerance"]}
    assert 1e-300 in tolerances


def _readme_default(text):
    """A default as the README's tolerance table writes it: a number, "none ...", or "<value> <kind>, ..."."""
    if text.startswith("none"):
        return None
    parts = [part.split() for part in text.split(",")]
    if len(parts) == 1 and len(parts[0]) == 1:
        return float(parts[0][0])
    return {kind: float(value) for value, kind in parts}


def test_readme_tolerance_table_matches_tolerances():
    # the README lists every --tol key with its default; a key added, dropped or re-set in one place only fails here
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if re.match(r"\|\s*key\s*\|\s*default\s*\|", line))
    table = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        assert key.strip("`") not in table, f"README lists {key} twice"
        table[key.strip("`")] = _readme_default(default)
    assert table == _TOLERANCES


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("family = bernoulli\nbogus = 1\n", encoding="utf-8")
    code, _, err = _run(capsys, ["invariance", "--config", str(cfg)])
    assert code == 1 and "unknown key" in err


def test_config_domain_override(tmp_path, capsys):
    cfg = tmp_path / "dom.ini"
    cfg.write_text(
        "family = bernoulli\ntheta_lo = -2\ntheta_hi = 2\ntheta = 0\nn = 1,2\n", encoding="utf-8"
    )
    code, out, _ = _run(capsys, ["invariance", "--config", str(cfg)])
    assert code == 0 and _rows(out)


def test_numerical_failure_reported_per_row(capsys):
    code, out, err = _run(
        capsys,
        ["invariance", "--family", "bernoulli", "--theta", "0", "--n", "1,32", "--cap", "20"],
    )
    assert code == 2
    rows = _rows(out)
    failed = [r for r in rows if r["pass"] == "false"]
    assert failed and all(math.isnan(float(r["value"])) for r in failed)
    ok = [r for r in rows if r["n"] == "1" and r["quantity"] == "A1"]
    assert ok and ok[0]["pass"] == "true"


def test_rows_sorted_deterministically(capsys):
    code, out, _ = _run(capsys, ["clt", "--family", "bernoulli", "--theta", "grid", "--n", "1,4"])
    assert code == 0
    rows = _rows(out)
    keys = [(r["family"], r["theta"], int(r["n"]), r["quantity"]) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "argv, sorts",
    [
        (["invariance", "--family", "poisson_trunc", "--n", "1,2,4,8"], 3),
        (["clt", "--family", "binomial", "--n", "1,4,16,64"], 6),
        (["tensor", "--family", "bernoulli", "--n", "1,2,3,4"], 3),
    ],
)
def test_q_n_steps_are_sorted_once_per_family(monkeypatch, tmp_path, argv, sorts):
    # one merge plan per convolution step of the family, replayed at every other theta
    calls = []
    original = derived._sum_plan

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(derived, "_sum_plan", counting)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) in (0, 2)
    assert len(calls) == sorts


class _DroppingStore:
    """Stands in for derived._store_lock in single-threaded tests and empties the Q_n store on entry."""

    def __enter__(self):
        derived._store = None

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--family", "categorical", "--n", "1,2,4,8,16"],
        ["invariance", "--family", "exponential_dist", "--n", "1,2"],
    ],
)
def test_replayed_q_n_writes_cold_bytes(monkeypatch, tmp_path, argv):
    warm, cold = tmp_path / "warm.csv", tmp_path / "cold.csv"
    assert main([*argv, "--out", str(warm)]) in (0, 2)
    # a lock that drops the store on entry: every nef_distribution call starts empty and sorts every Q_n afresh
    monkeypatch.setattr(derived, "_store_lock", _DroppingStore())
    assert main([*argv, "--out", str(cold)]) in (0, 2)
    assert warm.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize(
    "argv, expected",
    [
        # scaling_exponent_k3 is NaN at theta = 0, where the third cumulant vanishes: undefined, not failed
        (["tensor", "--family", "bernoulli"], 0),
        (["invariance", "--family", "bernoulli", "--n", "1,32", "--cap", "20"], 2),
        (["clt", "--family", "bernoulli", "--tol", "ks=0.05"], 2),
    ],
)
def test_exit_code_follows_pass_column(capsys, argv, expected):
    code, out, err = _run(capsys, argv)
    rows = _rows(out)
    failed = sum(r["pass"] == "false" for r in rows)
    undefined = sum(math.isnan(float(r["value"])) for r in rows)
    assert code == (2 if failed else 0) == expected
    summary = f"[infogeom] {len(rows)} rows: {len(rows) - failed} pass, {failed} fail, {undefined} undefined (nan)"
    assert err.splitlines()[-1] == summary
    if expected == 0:
        assert undefined > 0


# key -> (command, the other settings as flags, value under test): bernoulli at small n, except
# binomial for params (bernoulli has none) and a theta outside bernoulli's box for theta_lo/theta_hi
_OPTION_CASES = {
    "family": ("invariance", {"theta": "0", "n": "1,2"}, "bernoulli"),
    "params": ("invariance", {"family": "binomial", "theta": "0", "n": "1,2"}, "m=3"),
    "theta": ("invariance", {"family": "bernoulli", "n": "1,2"}, "0.5"),
    "n": ("invariance", {"family": "bernoulli", "theta": "0"}, "1,3"),
    "route": ("fisher", {"family": "bernoulli", "theta": "0"}, "all"),
    "tol": ("clt", {"family": "bernoulli", "theta": "0", "n": "1,4"}, "ks=0.3"),
    "seed": ("uniqueness", {"family": "bernoulli", "theta": "0", "n": "1,2"}, "7"),
    "out": ("clt", {"family": "bernoulli", "theta": "0", "n": "1,2"}, None),
    "cap": ("invariance", {"family": "bernoulli", "theta": "0", "n": "1,32"}, "20"),
    "k": ("tensor", {"family": "bernoulli", "theta": "0.5", "n": "1,2"}, "4"),
    "trials": ("uniqueness", {"family": "bernoulli", "theta": "0", "n": "1,2"}, "5"),
    "theta_lo": ("invariance", {"family": "bernoulli", "theta_hi": "12", "theta": "-11", "n": "1,2"}, "-12"),
    "theta_hi": ("invariance", {"family": "bernoulli", "theta_lo": "-12", "theta": "11", "n": "1,2"}, "12"),
}


def test_option_cases_cover_every_key():
    assert set(_OPTION_CASES) == set(_OPTIONS)


@pytest.mark.parametrize("key", sorted(_OPTION_CASES))
def test_option_as_flag_or_config_key(tmp_path, capsys, key):
    command, others, value = _OPTION_CASES[key]
    out = tmp_path / "out.csv"
    if key == "out":
        value = str(out)

    def run(extra):
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in others.items()]
        code, stdout, _ = _run(capsys, [command, *flags, *extra])
        written = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout, written

    config = tmp_path / "run.ini"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    by_flag = run([f"--{key.replace('_', '-')}={value}"])
    by_config = run(["--config", str(config)])
    assert by_flag == by_config
    assert by_flag[0] in (0, 2) and _rows(by_flag[2] or by_flag[1])
    assert run([]) != by_flag  # the key took effect



@pytest.mark.parametrize("key, value", [("theta_lo", "-3;-2"), ("theta", "-0.5;1")])
def test_negative_value_after_its_flag(tmp_path, capsys, key, value):
    # argparse alone reads '-3;-2' as a flag and exits 1 with 'expected one argument'
    settings = {"family": "categorical", "theta_lo": "-3;-2", "theta_hi": "2;4", "theta": "-0.5;1", "n": "1,2"}
    del settings[key]
    argv = ["invariance", *(f"--{k.replace('_', '-')}={v}" for k, v in settings.items())]
    flag = f"--{key.replace('_', '-')}"
    config = tmp_path / "run.ini"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    separate = _run(capsys, [*argv, flag, value])
    assert separate == _run(capsys, [*argv, f"{flag}={value}"])
    assert separate == _run(capsys, [*argv, "--config", str(config)])
    assert separate[0] == 0
    assert {row["theta"] for row in _rows(separate[1])} == {"-0.5;1"}


# below its minimum each value would otherwise surface as a traceback from the checks (k, trials) or
# the random generator (seed), or as rows measured against a negative working cap (cap)
@pytest.mark.parametrize(
    "command, key, value, minimum",
    [
        ("tensor", "k", "0", 2),
        ("tensor", "k", "1", 2),
        ("uniqueness", "trials", "0", 1),
        ("uniqueness", "seed", "-1", 0),
        ("invariance", "cap", "0", 1),
        ("invariance", "cap", "-5", 1),
    ],
)
@pytest.mark.parametrize("by_config", [False, True])
def test_integer_option_below_minimum_is_usage_error(tmp_path, capsys, command, key, value, minimum, by_config):
    argv = [command, "--family", "bernoulli", "--theta", "0", "--n", "1,2"]
    if by_config:
        config = tmp_path / "run.ini"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv.append(f"--{key}={value}")
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"usage error: {key} must be an integer >= {minimum}, got {value}"


# above its maximum, k would overflow some family's tensor (poisson_trunc from k = 117); trials would only cost time
@pytest.mark.parametrize(
    "command, key, value, maximum",
    [("tensor", "k", "65", 64), ("tensor", "k", "200", 64), ("uniqueness", "trials", "10001", 10_000)],
)
@pytest.mark.parametrize("by_config", [False, True])
def test_integer_option_above_maximum_is_usage_error(tmp_path, capsys, command, key, value, maximum, by_config):
    argv = [command, "--family", "bernoulli", "--theta", "0", "--n", "1,2"]
    if by_config:
        config = tmp_path / "run.ini"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv.append(f"--{key}={value}")
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"usage error: {key} must be an integer <= {maximum}, got {value}"


def test_uniqueness_builds_one_standardized_measure_per_n(monkeypatch, capsys):
    # the candidates share L_* Q_n at each n and one Fisher value per sampled tangent: 2 and 1 + 2 per trial
    calls = {"push_forward": 0, "metric_eval": 0}
    for name in calls:
        original = getattr(invariance, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(invariance, name, counting)
    argv = ["uniqueness", "--family", "bernoulli", "--theta", "0", "--n", "1,2", "--trials", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and len(_rows(out)) == 7
    assert calls == {"push_forward": 2, "metric_eval": 15}


def test_tensor_theta_outside_box_is_a_failing_row(capsys):
    # amari_chentsov at theta = 20 raises; the theta = 0 rows keep their bytes and the run exits 2
    code, out, err = _run(capsys, ["tensor", "--family", "bernoulli", "--theta", "0,20"])
    assert code == 2 and "outside the declared domain" in err
    inside = _run(capsys, ["tensor", "--family", "bernoulli", "--theta", "0"])[1]
    assert [line for line in out.splitlines() if line.split(",")[1] != "20"] == inside.splitlines()
    outside = [r for r in _rows(out) if r["theta"] == "20"]
    assert {(r["n"], r["quantity"]) for r in outside} == {(r["n"], r["quantity"]) for r in _rows(inside)}
    assert all(math.isnan(float(r["value"])) and r["pass"] == "false" for r in outside)


def test_uniqueness_singular_recovery_is_a_failing_row(capsys):
    # recover_constant samples the grid of the box [18, 28], where the covariance is numerically singular
    argv = ["uniqueness", "--family", "bernoulli", "--theta-lo", "18", "--theta-hi", "28", "--theta", "19"]
    code, out, err = _run(capsys, [*argv, "--n", "1,2"])
    assert code == 2 and "numerically singular" in err
    rows = {r["quantity"]: r for r in _rows(out)}
    for quantity in ("recover_c_hat", "recover_spread"):
        for label in ("2.5xfisher", "sin_perturbed"):
            assert math.isnan(float(rows[f"{quantity}[{label}]"]["value"]))
            assert rows[f"{quantity}[{label}]"]["pass"] == "false"
    assert rows["uniqueness_residual[fisher]"]["pass"] == "true"


def test_unopenable_paths_are_usage_errors(monkeypatch, tmp_path, capsys):
    # both fail before any row is computed
    calls = []
    original = invariance.clt_diagnostics

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariance, "clt_diagnostics", counting)
    missing = tmp_path / "missing"
    for extra in (["--config", str(missing / "run.ini")], ["--out", str(missing / "out.csv")]):
        code, out, err = _run(capsys, ["clt", "--family", "bernoulli", "--theta", "0", "--n", "1,2", *extra])
        assert code == 1 and out == "" and not calls
        assert err.splitlines()[-1].startswith("usage error: ") and str(missing) in err
        assert "Traceback" not in err


_BOXES = {"bernoulli": ([-10.0], [10.0]), "categorical": ([-8.0, -8.0], [8.0, 8.0])}


@st.composite
def _theta_components(draw, lo, hi):
    """One theta: each component inside the box, exactly on its edge or outside it."""
    parts = []
    for low, high in zip(lo, hi):
        where = draw(st.sampled_from(["inside", "edge", "outside"]))
        if where == "inside":
            parts.append(draw(st.floats(low, high)))
        elif where == "edge":
            parts.append(draw(st.sampled_from([low, high])))
        else:
            gap = draw(st.floats(1e-6, 30.0))
            parts.append(draw(st.sampled_from([low - gap, high + gap])))
    return tuple(parts)


def _keys_by_theta(argv):
    """Exit code of a quiet run and, per theta written, its set of (n, quantity)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    keys = {}
    for row in _rows(out.getvalue()):
        keys.setdefault(tuple(float(x) for x in row["theta"].split(";")), set()).add((row["n"], row["quantity"]))
    return code, keys


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_numerical_trouble_never_crashes_a_run(data):
    # every command, on a theta inside, on the edge of or outside the box and at any small cap, ends with
    # exit code 0 or 2, and every requested theta has the (n, quantity) rows of a theta in the middle of the
    # box, passing or not; the recover_* rows of uniqueness belong to the first theta only
    command = data.draw(st.sampled_from(["fisher", "invariance", "clt", "tensor", "uniqueness"]))
    family = data.draw(st.sampled_from(sorted(_BOXES)))
    thetas = data.draw(st.lists(_theta_components(*_BOXES[family]), min_size=1, max_size=2, unique=True))
    cap = data.draw(st.integers(1, 50))
    theta_text = ",".join(";".join(repr(x) for x in theta) for theta in thetas)
    flags = ["--family", family, "--n", "1,2", "--cap", str(cap), "--route", "all"]  # only fisher reads --route
    code, written = _keys_by_theta([command, f"--theta={theta_text}", *flags])
    assert code in (0, 2)
    middle = ";".join("0" for _ in _BOXES[family][0])
    (reference,) = _keys_by_theta([command, f"--theta={middle}", *flags])[1].values()
    later = {key for key in reference if not key[1].startswith("recover_")}
    assert [written.get(theta) for theta in thetas] == [reference] + [later] * (len(thetas) - 1)
