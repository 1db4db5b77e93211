import csv
import io
import math

import pytest

import infogeom.derived as derived
from infogeom.cli import _OPTIONS, main


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


def test_usage_errors_exit_1(capsys):
    code, _, err = _run(capsys, ["invariance", "--family", "nope"])
    assert code == 1 and "error" in err

    code, _, err = _run(capsys, ["invariance", "--family", "bernoulli", "--n", "4,2"])
    assert code == 1 and "ascending" in err

    code, _, err = _run(capsys, ["fisher", "--family", "bernoulli", "--route", "Z"])
    assert code == 1


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
    "argv, convolutions",
    [
        (["invariance", "--family", "poisson_trunc", "--n", "1,2,4,8"], 15),
        (["clt", "--family", "binomial", "--n", "1,4,16,64"], 30),
        (["tensor", "--family", "bernoulli", "--n", "1,2,3,4"], 15),
    ],
)
def test_q_n_builds_are_shared_within_theta(monkeypatch, tmp_path, argv, convolutions):
    # one doubling ladder per theta: every block and every Q_n is convolved once
    calls = []
    original = derived.convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(derived, "convolve", counting)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) in (0, 2)
    assert len(calls) == convolutions


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
