import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plrf
from plrf import cli, lattice, population, selfcheck, simulate, spectral
from plrf.data import (
    SchemaError,
    read_cifar10,
    read_run_summary,
    read_spectrum_csv,
    write_run_summary,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_record(summary_path, json_path):
    """The summary file and the --json-summary file are the same bytes, and read back whole."""
    assert summary_path.read_bytes() == json_path.read_bytes()
    back = summary_path.parent / "back.json"
    write_run_summary(read_run_summary(summary_path), back)
    assert back.read_bytes() == json_path.read_bytes()


def write_batches(base, rows=150, count=2):
    """`count` CIFAR-10 binary batches of random bytes, `rows` records each."""
    base.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    for b in range(1, count + 1):
        batch = rng.integers(0, 256, size=(rows, 3073), dtype=np.uint8)
        (base / f"data_batch_{b}.bin").write_bytes(batch.tobytes())
    return base


# ---------------------------------------------------------------------------
# lattice subcommand


def test_lattice_count_ordered(capsys):
    code, out, _ = run_cli(capsys, "lattice", "count", "--X", "6", "--pi", "1,1", "--ordered")
    assert code == 0
    assert "count = 6" in out


def test_lattice_asym_value(capsys):
    code, out, _ = run_cli(capsys, "lattice", "asym", "--X", "1000", "--pi", "1,1")
    assert code == 0
    value = float(out.strip().split("=")[1])
    assert value == pytest.approx(1000.0 * math.log(1000.0), rel=1e-12)


def test_lattice_bad_exponent_token(capsys):
    code, out, err = run_cli(capsys, "lattice", "count", "--X", "6", "--pi", "1,x")
    assert code == 2
    assert "'x'" in err


def test_lattice_count_with_an_exponent_past_float_range(capsys):
    # 2**1e300 overflows a float; only the tuple of ones counts
    code, out, err = run_cli(capsys, "lattice", "count", "--X", "5", "--pi", "1e300")
    assert (code, out, err) == (0, "count = 1\n", "")
    code, out, _ = run_cli(capsys, "lattice", "count", "--X", "5", "--pi", "1e300,1", "--ordered")
    assert (code, out) == (0, "count = 4\n")


def test_lattice_budget_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "lattice", "count", "--X", "1e18", "--pi", "1,1,1")
    assert code == 2
    assert "budget" in err


def test_lattice_count_equal_smallest_pair_within_budget(capsys):
    # (2,1,1) at X = 1e9 ends in a divisor sum per loop step, about X^(1/2) log X work
    code, out, _ = run_cli(capsys, "lattice", "count", "--X", "1e9", "--pi", "2,1,1")
    assert code == 0
    assert int(out.split("count = ")[1]) > 10**9


def test_lattice_count_with_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "count", "--X", "100000", "--pi", "1,1", "--with-asym"
    )
    assert code == 0
    assert "ratio = " in out
    ratio = float(out.strip().splitlines()[-1].split("=")[1])
    assert 0.9 <= ratio <= 1.1


def test_lattice_out_and_json(tmp_path, capsys):
    out_file = tmp_path / "count.txt"
    js = tmp_path / "count.json"
    code, _, _ = run_cli(
        capsys,
        "lattice", "count", "--X", "6", "--pi", "1,1", "--ordered",
        "--out", str(out_file), "--json-summary", str(js),
    )
    assert code == 0
    assert "count = 6" in out_file.read_text()
    assert json.loads(js.read_text())["results"]["count"] == 6


def test_lattice_bound_v_without_ordered_exact_count(tmp_path, capsys):
    for argv in (
        ("count", "--X", "100", "--pi", "1,1", "--bound-v", "5"),
        ("asym", "--X", "100", "--pi", "1,1", "--ordered", "--bound-v", "5"),
        ("asym", "--X", "100", "--pi", "1,1", "--with-exact", "--bound-v", "5"),
    ):
        code, out, err = run_cli(capsys, "lattice", *argv)
        assert (code, out) == (2, ""), argv
        assert "--bound-v" in err and "--ordered" in err
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text("bound_v = 5\n")
    code, _, err = run_cli(capsys, "lattice", "count", "--X", "100", "--pi", "1,1", "--config", str(cfg))
    assert code == 2
    assert "--bound-v" in err


def test_lattice_bound_v_with_ordered_count(tmp_path, capsys):
    want = lattice.count_ordered(100, (1, 1), bound_v=5).count
    code, out, _ = run_cli(
        capsys, "lattice", "count", "--X", "100", "--pi", "1,1", "--ordered", "--bound-v", "5"
    )
    assert (code, out) == (0, f"count = {want}\n")
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text("ordered = true\nbound_v = 5\nwith_asym = yes\n")
    code, out, _ = run_cli(capsys, "lattice", "count", "--X", "100", "--pi", "1,1", "--config", str(cfg))
    assert code == 0
    assert out.startswith(f"count = {want}\n") and "ratio = " in out


# ---------------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_hpi_top_value(tmp_path, capsys):
    out = tmp_path / "hpi.csv"
    code, stdout, _ = run_cli(
        capsys,
        "spectrum", "hpi", "--alpha", "1.31", "--pi", "1,1", "--k", "50",
        "--v", "200", "--out", str(out),
    )
    assert code == 0
    spec = read_spectrum_csv(out)
    assert spec.eigenvalues[0] == pytest.approx(2.0**-1.31, rel=1e-14)
    assert len(spec.eigenvalues) == 50
    assert "(1, 2)" in stdout


def test_spectrum_hpi_prints_plain_float(capsys):
    code, stdout, _ = run_cli(capsys, "spectrum", "hpi", "--pi", "1,1", "--k", "5", "--v", "50")
    assert code == 0
    line = next(ln for ln in stdout.splitlines() if ln.startswith("top value = "))
    assert float(line.split()[3]) == pytest.approx(2.0**-1.31, rel=1e-14)


def test_spectrum_theory_strictly_decreasing(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    code, _, _ = run_cli(
        capsys,
        "spectrum", "theory", "--p", "3", "--alpha", "1.31", "--j", "1..400",
        "--out", str(out),
    )
    assert code == 0
    eps = read_spectrum_csv(out).eigenvalues
    assert eps.size == 400
    assert np.all(np.diff(eps) < 0)


@pytest.mark.parametrize("j", ["50..10", "0..10"])
def test_spectrum_theory_rejects_bad_j_range(tmp_path, capsys, j):
    out = tmp_path / "theory.csv"
    code, _, err = run_cli(capsys, "spectrum", "theory", "--j", j, "--out", str(out))
    assert code == 2
    assert f"bad j range {j}" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0.5", "0", "-1"])
def test_spectrum_theory_rejects_alpha_at_most_one(tmp_path, capsys, alpha):
    out = tmp_path / "theory.csv"
    code, stdout, err = run_cli(
        capsys, "spectrum", "theory", "--alpha", alpha, "--p", "3", "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert f"alpha > 1 required, got {float(alpha)}" in err
    assert not out.exists()


def test_spectrum_mc_deterministic(tmp_path, capsys):
    args = [
        "spectrum", "mc", "--p", "1", "--v", "80", "--d", "80", "--m", "500",
        "--seed", "7",
    ]
    out1, out2, out3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    code1, _, _ = run_cli(capsys, *args, "--threads", "1", "--out", str(out1))
    code2, _, _ = run_cli(capsys, *args, "--threads", "3", "--out", str(out2))
    code3, _, _ = run_cli(capsys, *args, "--out", str(out3))
    assert code1 == code2 == code3 == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_spectrum_mc_writes_summary_and_normalized(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    norm = tmp_path / "mc_norm.csv"
    js = tmp_path / "mc.json"
    code, stdout, _ = run_cli(
        capsys,
        "spectrum", "mc", "--p", "2", "--v", "60", "--d", "60", "--m", "400",
        "--seed", "3", "--fit", "1..40", "--out", str(out),
        "--normalized-out", str(norm), "--json-summary", str(js),
    )
    assert code == 0
    assert "slope = " in stdout
    summary = read_run_summary(str(out) + ".summary")
    assert summary.seed == 3
    assert len(summary.fits) == 1
    normalized = read_spectrum_csv(norm)
    assert normalized.eigenvalues[0] == 1.0
    payload = json.loads(js.read_text())
    assert payload["seed"] == 3 and payload["params"]["act"] == "monomial:2"


def test_spectrum_mc_summary_and_json_hold_one_record(tmp_path, capsys):
    out, js = tmp_path / "mc.csv", tmp_path / "mc.json"
    code, _, _ = run_cli(
        capsys,
        "spectrum", "mc", "--p", "2", "--v", "60", "--d", "50", "--m", "400",
        "--seed", "3", "--fit", "2..30", "--out", str(out), "--json-summary", str(js),
    )
    assert code == 0
    assert_same_record(tmp_path / "mc.csv.summary", js)
    summary = read_run_summary(tmp_path / "mc.csv.summary")
    assert summary.command == "spectrum mc"
    assert summary.params == {
        "v": 60, "d": 50, "m": 400, "alpha": 1.31, "act": "monomial:2",
        "dist": "gaussian", "centered": False, "threads": 1,  # one block runs on one worker
        "block_rows": 4096,
    }
    (fit,) = summary.fits
    assert (fit.j_min, fit.j_max, fit.points_used) == (2, 30, 29)
    assert summary.results == {"eigenvalue_count": 50}


@pytest.mark.parametrize("v, d, m, rows", [(800, 400, 10000, 682), (160, 80, 4000, 4096)])
def test_spectrum_mc_record_names_its_block_rows(tmp_path, capsys, v, d, m, rows):
    # the plan depends on (v, d): the record says which one ran, stdout does not
    out, js = tmp_path / "mc.csv", tmp_path / "mc.json"
    code, stdout, err = run_cli(
        capsys, "spectrum", "mc", "--p", "2", "--v", str(v), "--d", str(d), "--m", str(m),
        "--fit", "2..30", "--out", str(out), "--json-summary", str(js),
    )
    assert (code, err) == (0, "")
    assert stdout.splitlines()[0] == f"wrote {d} eigenvalues to {out}" and "block" not in stdout
    assert_same_record(tmp_path / "mc.csv.summary", js)
    assert read_run_summary(tmp_path / "mc.csv.summary").params["block_rows"] == rows


@pytest.mark.parametrize("argv", [
    ["hpi", "--pi", "1,1", "--k", "20", "--v", "50"],
    ["theory", "--p", "2", "--j", "1..50"],
])
def test_spectrum_hpi_and_theory_records_carry_no_fit_or_seed(tmp_path, capsys, argv):
    out, js = tmp_path / "s.csv", tmp_path / "s.json"
    code, _, err = run_cli(capsys, "spectrum", *argv, "--out", str(out), "--json-summary", str(js))
    assert (code, err) == (0, "")
    assert_same_record(tmp_path / "s.csv.summary", js)
    payload = json.loads(js.read_text())
    assert "fits" not in payload and "seed" not in payload
    assert payload["results"]["eigenvalue_count"] == read_spectrum_csv(out).eigenvalues.size


@pytest.mark.parametrize("argv", [
    ["hpi", "--v", "50", "--k", "10"],
    ["mc", "--p", "1", "--v", "40", "--m", "200", "--fit", "1..15"],
    ["exact", "--p", "1", "--v", "40", "--fit", "1..15"],
    ["theory", "--p", "2", "--j", "1..30"],
])
def test_normalized_out_without_out(tmp_path, capsys, argv):
    norm = tmp_path / "norm.csv"
    code, stdout, _ = run_cli(capsys, "spectrum", *argv, "--normalized-out", str(norm))
    assert code == 0
    assert f"wrote normalized spectrum to {norm}" in stdout
    assert read_spectrum_csv(norm).eigenvalues[0] == 1.0
    assert list(tmp_path.iterdir()) == [norm]


def test_fit_past_half_the_spectrum_warns(tmp_path, capsys):
    base = ["spectrum", "mc", "--p", "1", "--v", "100", "--d", "100", "--m", "100"]
    js = tmp_path / "mc.json"
    code, stdout, err = run_cli(capsys, *base, "--json-summary", str(js))
    assert code == 0
    warning = ("fit range j = 5..100 (effective 5..100) reaches past half of the "
               "100 eigenvalues, where the tail is rank- or sample-limited")
    assert err == f"warning: {warning}\n"
    assert "warning" not in stdout
    assert json.loads(js.read_text())["warnings"] == [warning]
    code, _, err = run_cli(capsys, *base, "--fit", "5..50", "--json-summary", str(js))
    assert (code, err) == (0, "")
    assert json.loads(js.read_text())["warnings"] == []
    code, _, err = run_cli(capsys, "spectrum", "exact", "--p", "1", "--v", "100", "--d", "40")
    assert code == 0
    assert "fit range j = 5..100 (effective 5..40) reaches past half of the 40 eigenvalues" in err


def test_fit_within_half_the_spectrum_is_silent(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "mc", "--p", "1", "--v", "200", "--d", "200", "--m", "4000",
        "--fit", "5..100",
    )
    assert (code, err) == (0, "")


def test_hpi_truncated_warns(tmp_path, capsys):
    js = tmp_path / "hpi.json"
    code, stdout, err = run_cli(
        capsys, "spectrum", "hpi", "--pi", "1,1", "--v", "4", "--k", "10", "--json-summary", str(js)
    )
    assert code == 0
    warning = "top-k is truncated: 6 of k = 10 tuples, all v = 4 admits"
    assert err == f"warning: {warning}\n"
    payload = json.loads(js.read_text())
    assert payload["warnings"] == [warning]
    assert payload["results"]["truncated"] is True and payload["results"]["eigenvalue_count"] == 6


@pytest.mark.parametrize("argv, positive, total", [
    (("--pi", "1,1", "--k", "45", "--alpha", "300"), 12, 45),
    (("--pi", "1,1,1,1", "--k", "210", "--alpha", "100"), 186, 210),
    (("--pi", "3,3", "--k", "45", "--alpha", "120"), 7, 45),
])
def test_hpi_underflowed_products_exit_2(capsys, argv, positive, total):
    code, out, err = run_cli(capsys, "spectrum", "hpi", "--v", "10", *argv)
    assert (code, out) == (2, "")
    assert f"only {positive} of the {total} tuple products are positive in floating point" in err
    assert "eps" not in err


def test_spectrum_exact_route(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    code, stdout, _ = run_cli(
        capsys,
        "spectrum", "exact", "--p", "1", "--v", "300", "--d", "300",
        "--alpha", "1.31", "--seed", "0", "--fit", "5..100", "--out", str(out),
    )
    assert code == 0
    slope = float(stdout.split("slope = ")[1].split()[0])
    assert abs(slope + 1.31) < 0.25


@pytest.mark.parametrize("route", [["mc", "--m", "100"], ["exact"]])
@pytest.mark.parametrize("fit, message", [
    ("45..100", "fit range 45..100 clamped to the spectrum's 50 eigenvalues: "
                "only 6 usable points in [45, 50]; need >= 10"),
    ("60..100", "fit range 60..100 starts past the spectrum's 50 eigenvalues"),
])
def test_spectrum_fit_errors_name_the_request(capsys, route, fit, message):
    code, stdout, err = run_cli(capsys, "spectrum", *route, "--p", "1", "--v", "200", "--d", "50",
                                "--fit", fit)
    assert (code, stdout) == (2, "")
    assert message in err


@pytest.mark.parametrize("route, sampler", [
    (["mc", "--m", "200000"], "mc_covariance"),
    (["exact"], "exact_population_covariance"),
])
def test_spectrum_fit_past_spectrum_fails_before_sampling(capsys, monkeypatch, route, sampler):
    def fail(*args, **kwargs):
        raise AssertionError("sampled despite an invalid fit range")

    monkeypatch.setattr(simulate, sampler, fail)
    code, stdout, err = run_cli(capsys, "spectrum", *route, "--p", "1", "--v", "2000", "--d", "50",
                                "--fit", "60..100")
    assert (code, stdout) == (2, "")
    assert err == ("error: invalid configuration:\n"
                   "  fit range 60..100 starts past the spectrum's 50 eigenvalues\n")


def test_spectrum_exact_past_the_dimension_cap_fails_before_sampling(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("drew the sketch despite d past the exact kernel's cap")

    monkeypatch.setattr(simulate, "sample_sketch", fail)
    d = simulate.MAX_EXACT_DIM + 500
    code, stdout, err = run_cli(capsys, "spectrum", "exact", "--p", "3", "--v", "4000", "--d", str(d))
    assert (code, stdout) == (2, "")
    assert err == ("error: invalid configuration:\n"
                   f"  exact route supports d <= {simulate.MAX_EXACT_DIM}, got {d}\n")


def test_spectrum_mc_past_the_eigensolver_cap_fails_before_sampling(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("drew the sketch despite min(m, d) past the eigensolver's cap")

    monkeypatch.setattr(simulate, "sample_sketch", fail)
    size = spectral.MAX_EIG_DIM + 500
    code, stdout, err = run_cli(capsys, "spectrum", "mc", "--p", "2", "--v", str(size + 100), "--d", str(size),
                                "--m", str(size + 1000))
    assert (code, stdout) == (2, "")
    assert err == ("error: invalid configuration:\n"
                   f"  min(m, d) = {size} exceeds the eigensolver's cap of {spectral.MAX_EIG_DIM}\n")


@pytest.mark.parametrize("flags, problem", [
    (["--act", "tanh"], "the exact population route supports monomial activations"),
    (["--p", "7"], f"exact route supports p <= {simulate.MAX_EXACT_DEGREE}, got 7"),
])
def test_spectrum_exact_unsupported_activation_fails_before_sampling(capsys, monkeypatch, flags, problem):
    def fail(*args, **kwargs):
        raise AssertionError("drew the sketch for an activation the exact kernel lacks")

    monkeypatch.setattr(simulate, "sample_sketch", fail)
    code, stdout, err = run_cli(capsys, "spectrum", "exact", "--v", "20", *flags)
    assert (code, stdout, err) == (2, "", f"error: invalid configuration:\n  {problem}\n")


# one Gram-route block, three blockwise blocks, and three centered on two workers
@pytest.mark.parametrize("extra", [["--m", "1000"], ["--m", "10000"], ["--m", "10000", "--centered", "--threads", "2"]])
def test_spectrum_mc_overflowing_covariance_exits_2_without_warnings(extra):
    # monomial:200 features are finite, but their second moments overflow
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["spectrum", "mc", "--act", "monomial:200", "--v", "100", "--d", "50", "--fit", "1..20", *extra]
    done = subprocess.run([sys.executable, "-m", "plrf", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: matrix has non-finite entries\n")


def test_spectrum_mc_data_without_cifar10_fails(capsys):
    code, stdout, err = run_cli(capsys, "spectrum", "mc", "--p", "1", "--v", "50", "--m", "200",
                                "--fit", "1..20", "--data", "/no/such/dir")
    assert (code, stdout) == (2, "")
    assert err == ("error: invalid configuration:\n"
                   "  --data is read only with --dist cifar10, got --dist gaussian\n")


def test_spectrum_mc_threads_match_deterministic(tmp_path, capsys):
    base = [
        "spectrum", "mc", "--p", "2", "--v", "64", "--d", "64", "--m", "20000",
        "--seed", "11",
    ]
    out_det, out_thr, out_def = tmp_path / "det.csv", tmp_path / "thr.csv", tmp_path / "def.csv"
    assert run_cli(capsys, *base, "--threads", "1", "--out", str(out_det))[0] == 0
    assert run_cli(capsys, *base, "--threads", "3", "--out", str(out_thr))[0] == 0
    assert run_cli(capsys, *base, "--out", str(out_def))[0] == 0
    assert out_det.read_bytes() == out_thr.read_bytes() == out_def.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_spectrum_mc_rejects_nonpositive_threads(capsys, threads):
    code, _, err = run_cli(
        capsys, "spectrum", "mc", "--p", "1", "--v", "50", "--m", "200", "--threads", threads
    )
    assert code == 2
    assert f"threads must be >= 1, got {threads}" in err


def test_threads_flag_only_on_spectrum_mc(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "exact", "--p", "1", "--v", "50", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


_COMMON = {"json_summary"}
_SPECTRUM = _COMMON | {"alpha", "out", "normalized_out"}


@pytest.mark.parametrize("argv, options", [
    (["lattice", "count"], _COMMON | {"X", "pi", "ordered", "bound_v", "with_asym", "out"}),
    (["lattice", "asym"], _COMMON | {"X", "pi", "ordered", "bound_v", "with_exact", "out"}),
    (["spectrum", "mc"],
     _SPECTRUM | {"seed", "v", "d", "m", "p", "act", "dist", "data", "fit", "centered", "threads"}),
    (["spectrum", "exact"], _SPECTRUM | {"seed", "v", "d", "p", "act", "fit"}),
    (["spectrum", "hpi"], _SPECTRUM | {"v", "pi", "k"}),
    (["spectrum", "theory"], _SPECTRUM | {"p", "j", "C"}),
    (["layers"],
     _COMMON | {"seed", "data", "widths", "act", "norm", "n", "v", "alpha", "fit", "out_dir"}),
    (["selftest"], _COMMON | {"quick", "data"}),
])
def test_each_subcommand_declares_only_the_options_it_reads(argv, options):
    assert set(cli.build_parser().parse_args(argv)._options) == options


@pytest.mark.parametrize("argv, flag", [
    (["lattice", "count", "--X", "100", "--pi", "1,1"], ["--seed", "5"]),
    (["layers", "--widths", "32", "--n", "128", "--v", "64", "--fit", "1..20"], ["--out", "F"]),
    (["selftest", "--quick"], ["--seed", "5"]),
    (["selftest", "--quick"], ["--out", "F"]),
    (["spectrum", "hpi", "--v", "50", "--k", "10"], ["--m", "500"]),
    (["spectrum", "hpi", "--v", "50", "--k", "10"], ["--seed", "9"]),
    (["spectrum", "theory", "--p", "2", "--j", "1..50"], ["--seed", "9"]),
    (["spectrum", "theory", "--p", "2", "--j", "1..50"], ["--fit", "1..20"]),
    (["spectrum", "exact", "--p", "1", "--v", "50"], ["--centered"]),
    (["spectrum", "mc", "--p", "1", "--v", "50", "--m", "200"], ["--k", "10"]),
])
def test_dropped_option_exits_2_as_flag_and_config_key(tmp_path, capsys, argv, flag):
    flag = [str(tmp_path / "F") if f == "F" else f for f in flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    key = flag[0][2:].replace("-", "_")
    cfg.write_text(f"{key} = {flag[1] if len(flag) > 1 else 'true'}\n")
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"config key {key!r} is not an option" in err
    assert not (tmp_path / "F").exists()


def test_spectrum_mc_cifar_reads_only_m_rows(tmp_path, capsys, monkeypatch):
    write_batches(tmp_path)  # 300 rows on disk, 120 used
    loaded = []

    def spy(batches, limit=None):
        X = read_cifar10(batches, limit=limit)
        loaded.append(X.shape[0])
        return X

    monkeypatch.setattr(cli, "read_cifar10", spy)
    code, out, _ = run_cli(
        capsys, "spectrum", "mc", "--p", "1", "--v", "3072", "--d", "40", "--m", "120",
        "--dist", "cifar10", "--data", str(tmp_path), "--fit", "1..20",
    )
    assert code == 0, out
    assert loaded == [120]


def test_spectrum_mc_cifar_distribution_missing_data(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLRF_CIFAR10_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "spectrum", "mc", "--p", "1", "--v", "3072", "--d", "100",
        "--m", "200", "--dist", "cifar10",
    )
    assert code == 3
    assert "cifar" in err.lower()


@pytest.mark.parametrize("argv", [
    ["spectrum", "mc", "--p", "1", "--v", "3072", "--d", "40", "--m", "120", "--dist", "cifar10",
     "--fit", "1..20"],
    ["layers", "--widths", "32", "--n", "120", "--fit", "1..10"],
])
def test_explicit_data_dir_without_batches_exits_3(tmp_path, capsys, monkeypatch, argv):
    # valid batches elsewhere must not stand in for the directory named by --data
    monkeypatch.setenv("PLRF_CIFAR10_DIR", str(write_batches(tmp_path / "batches")))
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    code, stdout, err = run_cli(capsys, *argv, "--data", str(empty))
    assert (code, stdout) == (3, "")
    assert err.startswith(f"error: no CIFAR-10 binary batches (*.bin) in {empty};")
    code, _, err = run_cli(capsys, *argv, "--data", str(tmp_path / "batches"))
    assert (code, err) == (0, "")


def test_selftest_explicit_data_dir_without_batches_skips(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLRF_CIFAR10_DIR", str(write_batches(tmp_path / "batches")))
    monkeypatch.setattr(selfcheck, "CHECKS", (("11", selfcheck.check_cifar_layers),))
    empty = tmp_path / "empty"
    empty.mkdir()
    code, stdout, _ = run_cli(capsys, "selftest", "--quick", "--data", str(empty))
    assert code == 0
    assert stdout.startswith(
        f"SKIP  criterion 11 CIFAR-10 layer slopes: skipped: no CIFAR-10 binary batches (*.bin) in {empty};"
    )


def test_student_t_bad_nu_names_the_option(capsys):
    code, stdout, err = run_cli(
        capsys, "spectrum", "mc", "--p", "1", "--v", "50", "--m", "200", "--dist", "student_t:abc"
    )
    assert (code, stdout) == (2, "")
    assert err == "error: bad --dist 'student_t:abc': NU in student_t:NU must be a number, got 'abc'\n"


def test_spectrum_conflicting_activation_flags(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "mc", "--p", "2", "--act", "tanh", "--v", "50", "--d", "50",
        "--m", "200",
    )
    assert code == 2
    assert "either" in err


def test_spectrum_validation_errors_listed_exhaustively(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "mc", "--p", "2", "--v", "50", "--d", "80",
        "--m", "10", "--alpha", "0.5",
    )
    assert code == 2
    # all three problems reported in one pass
    assert "d=80" in err and "m must be >= 100" in err and "alpha" in err


def test_spectrum_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# hpi run\nk = 5\nv = 100\nalpha = 1.31\npi = 1,1\n")
    out1 = tmp_path / "file_only.csv"
    code, _, _ = run_cli(
        capsys, "spectrum", "hpi", "--config", str(cfg), "--out", str(out1)
    )
    assert code == 0
    assert read_spectrum_csv(out1).eigenvalues.size == 5
    out2 = tmp_path / "flag_wins.csv"
    code, _, _ = run_cli(
        capsys, "spectrum", "hpi", "--config", str(cfg), "--k", "3", "--out", str(out2)
    )
    assert code == 0
    assert read_spectrum_csv(out2).eigenvalues.size == 3


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("thread = 0\n")
    code, out, err = run_cli(capsys, "spectrum", "mc", "--v", "20", "--m", "100", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "'thread'" in err


def test_config_file_key_of_another_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    code, out, err = run_cli(capsys, "spectrum", "exact", "--p", "2", "--v", "20", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "'threads'" in err


def test_config_file_bad_value_names_the_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = many\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "hpi", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --k: invalid int value: 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, shown", [
    (["spectrum", "hpi"], ["(default: 5000)", "(default: 1000)", "(default: 1,1)", "(default: 1.31)"]),
    (["spectrum", "mc"], ["(default: 1000)", "(default: 20000)", "(default: 5..100)", "(default: 0)"]),
    (["spectrum", "theory"], ["(default: 2)", "(default: 1..1000)"]),
    (["layers"], ["(default: 4096)", "(default: 1024)", "(default: tanh)", "(default: none)"]),
])
def test_help_shows_each_default(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for text in shown:
        assert text in out
    assert "(default: None)" not in out and "(default: False)" not in out


def test_config_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# top-k size\nk 3\n")
    code, stdout, err = run_cli(capsys, "spectrum", "hpi", "--config", str(cfg))
    assert (code, stdout, err) == (2, "", "error: config line without '=': 'k 3'\n")


def test_config_file_missing(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    code, stdout, err = run_cli(capsys, "spectrum", "hpi", "--config", str(path))
    assert (code, stdout) == (3, "")
    assert err == f"error: config file not found: {path}\n"


# ---------------------------------------------------------------------------
# layers subcommand


def test_layers_synthetic_identity_tracks_alpha(tmp_path, capsys):
    out_dir = tmp_path / "layers"
    code, stdout, _ = run_cli(
        capsys,
        "layers", "--data", "synthetic", "--widths", "256,256", "--act", "identity",
        "--norm", "none", "--n", "3000", "--v", "512", "--alpha", "1.31",
        "--seed", "5", "--fit", "2..60", "--out-dir", str(out_dir),
    )
    assert code == 0
    summary = read_run_summary(out_dir / "layers.summary")
    assert len(summary.fits) == 2
    for fit in summary.fits:
        assert abs(fit.slope + 1.31) <= 0.1, summary.fits
    assert (out_dir / "layer_1.csv").exists() and (out_dir / "layer_2.csv").exists()


def test_layers_records_effective_fit_range(tmp_path, capsys):
    out_dir, js = tmp_path / "layers", tmp_path / "layers.json"
    code, stdout, err = run_cli(
        capsys,
        "layers", "--widths", "32,48", "--n", "128", "--v", "64", "--fit", "1..500",
        "--out-dir", str(out_dir), "--json-summary", str(js),
    )
    assert code == 0
    assert "warning" not in stdout
    assert_same_record(out_dir / "layers.summary", js)
    summary = read_run_summary(out_dir / "layers.summary")
    assert [(f.j_min, f.j_max) for f in summary.fits] == [(1, 32), (1, 48)]
    assert summary.params == {
        "data": "synthetic", "v": 64, "alpha": 1.31, "widths": "32,48", "act": "tanh",
        "norm": "none", "n": 128,
    }
    assert summary.warnings == tuple(
        f"layer {t}: fit range j = 1..500 (effective 1..{w}) reaches past half of the "
        f"{w} eigenvalues, where the tail is rank- or sample-limited"
        for t, w in ((1, 32), (2, 48))
    )
    assert err == "".join(f"warning: {w}\n" for w in summary.warnings)


def test_layers_norm_tag_reported(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "layers", "--data", "synthetic", "--widths", "64,64", "--act", "relu",
        "--norm", "layernorm", "--n", "400", "--v", "128", "--seed", "1",
        "--fit", "1..30",
    )
    assert code == 0
    assert "norm=layernorm" in stdout


@pytest.mark.parametrize("fit, message", [
    ("40..50", "fit range 40..50 starts past the layer's 32 eigenvalues"),
    ("20..10", "bad fit range 20..10"),
])
def test_layers_bad_fit_range_names_the_request(capsys, fit, message):
    code, _, err = run_cli(capsys, "layers", "--widths", "32", "--n", "64", "--v", "32",
                           "--fit", fit)
    assert code == 2
    assert message in err


def test_layers_clamped_fit_names_the_request(capsys):
    code, stdout, err = run_cli(capsys, "layers", "--n", "2", "--widths", "32", "--v", "64",
                                "--fit", "1..10")
    assert (code, stdout) == (2, "")
    assert "layer 1: fit range 1..10 clamped to the layer's 2 eigenvalues" in err
    assert "only 1 usable points" in err


def test_layers_empty_widths(capsys):
    code, _, err = run_cli(capsys, "layers", "--widths", "")
    assert code == 2
    assert "widths" in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_layers_rejects_nonpositive_n(capsys, n):
    code, stdout, err = run_cli(capsys, "layers", "--n", n, "--widths", "32", "--v", "64")
    assert (code, stdout) == (2, "")
    assert err == f"error: n must be >= 1, got {n}\n"


def test_layers_missing_dataset_dir(capsys):
    code, _, err = run_cli(capsys, "layers", "--data", "/no/such/dir", "--widths", "64")
    assert code == 3
    assert "download" in err or "not found" in err


# ---------------------------------------------------------------------------
# selftest subcommand


def test_selftest_quick_passes(tmp_path, capsys):
    import time

    js = tmp_path / "selftest.json"
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "selftest", "--quick", "--json-summary", str(js))
    elapsed = time.monotonic() - start
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL", "SKIP"))]
    assert len(lines) == len(selfcheck.CHECKS)
    assert all(not ln.startswith("FAIL") for ln in lines)
    passed = sum(ln.startswith("PASS") for ln in lines)
    skipped = sum(ln.startswith("SKIP") for ln in lines)
    assert f"{len(lines)} criteria: {passed} passed, {skipped} skipped, 0 failed" in out
    statuses = json.loads(js.read_text())["results"]
    assert [f"{status}  criterion {name}:" for name, status in statuses.items()] == [
        ln.split(":")[0] + ":" for ln in lines
    ]
    assert elapsed < 120.0  # quick mode budget (measured ~5 s)


def test_selftest_detects_broken_zeta(capsys, monkeypatch):
    real_zeta = lattice.zeta
    monkeypatch.setattr(lattice, "zeta", lambda s: real_zeta(s) + 1e-3)
    result = selfcheck.check_theory_constants()
    assert result.passed is False
    assert "zeta" in result.detail or "b_theory" in result.detail
    # unrelated criteria stay green
    assert selfcheck.check_pairing_tables(quick=True).passed is True


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# exit codes: 2 for plrf.InvalidInput, 1 for any other exception


def test_invalid_input_is_the_one_exit_2_type():
    assert issubclass(plrf.InvalidInput, ValueError)
    assert issubclass(lattice.BudgetExceededError, plrf.InvalidInput)
    assert issubclass(SchemaError, plrf.InvalidInput)


def test_bare_value_error_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(population, "predicted_spectrum", broken)
    code, out, err = run_cli(capsys, "spectrum", "theory", "--j", "1..5")
    assert (code, out, err) == (1, "", "internal error: boom\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "mc", "--v", "50", "--m", "200"],
    ["layers", "--v", "32", "--n", "64", "--widths", "16"],
])
def test_activation_degree_not_an_integer_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--act", "monomial:x")
    assert (code, out) == (2, "")
    assert "bad activation 'monomial:x': degree must be an integer" in err


@pytest.mark.parametrize("argv, message", [
    (["lattice", "asym", "--X", "nan", "--pi", "1,1"], "X must be finite, got nan"),
    (["lattice", "asym", "--X", "inf", "--pi", "1,1"], "X must be finite, got inf"),
    (["lattice", "count", "--X", "100", "--pi", "0.1"], "reaches 2^53"),
    (["lattice", "count", "--X", "1e10", "--pi", "0.01"], "reaches 2^53"),
    (["lattice", "asym", "--X", "1e308", "--pi", "0.01,1"], "exceeds float range"),
    (["spectrum", "theory", "--C", "inf"], "scale C must be finite, got inf"),
    (["spectrum", "theory", "--alpha", "inf"], "alpha must be finite, got inf"),
    (["spectrum", "theory", "--p", "3", "--alpha", "400", "--j", "1..50"],
     "underflows float range from j = 18"),
    (["spectrum", "mc", "--alpha", "inf"], "got H_2 = 0.0 (alpha = inf"),
    (["spectrum", "exact", "--alpha", "inf"], "got H_2 = 0.0 (alpha = inf"),
    (["spectrum", "mc", "--act", "monomial:x"], "bad activation 'monomial:x'"),
    (["spectrum", "exact", "--p", "2", "--v", "50", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["spectrum", "hpi", "--pi", "nan"], "--pi must be positive integers"),
])
def test_out_of_range_input_exits_2_at_once(tmp_path, capsys, within, argv, message):
    record = tmp_path / "run.json"
    with within(5.0):
        code, out, err = run_cli(capsys, *argv, "--json-summary", str(record))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not record.exists()
