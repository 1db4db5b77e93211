import csv
import io
import math

import pytest

import infogeom.derived as derived
from infogeom.cli import main


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
