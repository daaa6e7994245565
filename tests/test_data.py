import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _traced_peak, golden_build_only
from plrf import InvalidInput, population
from plrf import data as dio
from plrf.records import RunSummary, SpectrumEstimate
from plrf.spectral import SlopeFit


def make_spec(values) -> SpectrumEstimate:
    return SpectrumEstimate(
        eigenvalues=np.asarray(values, dtype=float),
        dims=(4, 2),
        samples=10,
        activation="tanh",
        seed=1,
    )


# ---------------------------------------------------------------------------
# CIFAR-10 reader


def _record(label: int, fill: int) -> bytes:
    return bytes([label]) + bytes([fill]) * 3072


def test_cifar_reader_scaling(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(_record(7, 0x00) + _record(3, 0xFF) + _record(1, 51))
    X = dio.read_cifar10([path])
    assert X.shape == (3, 3072) and X.dtype == np.float64
    assert np.all(X[0] == -1.0)
    assert np.all(X[1] == 1.0)
    assert np.allclose(X[2], 51 / 127.5 - 1.0)
    assert X.min() >= -1.0 and X.max() <= 1.0


def test_cifar_reader_record_arithmetic(tmp_path):
    # a standard batch holds 10000 records of 3073 bytes; shrink by 1000x
    path = tmp_path / "batch.bin"
    path.write_bytes(b"".join(_record(i % 10, i % 256) for i in range(10)))
    assert path.stat().st_size == 30730
    assert dio.read_cifar10([path]).shape == (10, 3072)


def test_cifar_reader_full_size_batch(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(bytes(30_730_000))  # one standard batch, all-zero pixels
    X = dio.read_cifar10([path])
    assert X.shape == (10_000, 3072)
    assert np.all(X == -1.0)


def test_cifar_reader_limit_and_multiple_files(tmp_path):
    p1 = tmp_path / "b1.bin"
    p2 = tmp_path / "b2.bin"
    p1.write_bytes(_record(0, 10) + _record(0, 20))
    p2.write_bytes(_record(0, 30))
    X = dio.read_cifar10([p1, p2])
    assert X.shape[0] == 3
    assert np.allclose(X[2, 0], 30 / 127.5 - 1.0)  # row order preserved
    assert dio.read_cifar10([p1, p2], limit=2).shape[0] == 2


def test_cifar_reader_rejects_corrupt(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(_record(1, 5)[:-7])  # truncated record
    with pytest.raises(ValueError, match="3073"):
        dio.read_cifar10([path])
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        dio.read_cifar10([empty])
    with pytest.raises(ValueError):
        dio.read_cifar10([])


# ---------------------------------------------------------------------------
# spectrum CSV


def test_spectrum_csv_canonical_format(tmp_path):
    path = tmp_path / "spec.csv"
    dio.write_spectrum_csv(make_spec([1.0, 0.5]), path)
    assert path.read_text() == "j,lambda\n1,1\n2,0.5\n"


def test_spectrum_csv_round_trip_random(tmp_path):
    rng = np.random.default_rng(0)
    vals = np.sort(rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, size=1000))[::-1]
    path = tmp_path / "spec.csv"
    dio.write_spectrum_csv(make_spec(vals), path)
    back = dio.read_spectrum_csv(path)
    assert np.array_equal(back.eigenvalues, vals)


def test_spectrum_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    dio.write_spectrum_csv(make_spec([]), path)
    assert path.read_text() == "j,lambda\n"
    assert dio.read_spectrum_csv(path).eigenvalues.size == 0


def test_spectrum_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda,j\n1,1\n")
    with pytest.raises(dio.SchemaError, match="header"):
        dio.read_spectrum_csv(path)
    path.write_text("j,lambda\n2,0.5\n")
    with pytest.raises(dio.SchemaError, match="out of order"):
        dio.read_spectrum_csv(path)
    path.write_text("j,lambda\nx,0.5\n")
    with pytest.raises(dio.SchemaError, match="malformed row 'x,0.5'$"):
        dio.read_spectrum_csv(path)


def test_spectrum_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("\nj,lambda\n\n1,2.5\n   \n2,1e-300\n\n")
    assert np.array_equal(dio.read_spectrum_csv(path).eigenvalues, [2.5, 1e-300])


def test_spectrum_csv_memory_is_bounded(tmp_path):
    # 2e5 rows are a 1.6 MB array and an 8 MB file; neither direction may
    # hold the whole text or a list of every row
    rng = np.random.default_rng(2)
    vals = np.sort(rng.random(200_000) ** 3)[::-1]
    spec = make_spec(vals)
    path = tmp_path / "big.csv"
    write_peak = _traced_peak(lambda: dio.write_spectrum_csv(spec, path))
    out = []
    read_peak = _traced_peak(lambda: out.append(dio.read_spectrum_csv(path)))
    assert write_peak < 4_000_000, write_peak
    assert read_peak < 4_000_000, read_peak
    assert np.array_equal(out[0].eigenvalues, vals)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_spectrum_csv_lossless_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "vals.csv"
    dio.write_spectrum_csv(make_spec(values), path)
    back = dio.read_spectrum_csv(path)
    assert np.array_equal(back.eigenvalues, np.asarray(values, dtype=float))


def _per_row_csv(values) -> str:
    # reference: the writer's output formatted one row at a time
    rows = (f"{j},{dio._format_value(x)}\n" for j, x in enumerate(values.tolist(), start=1))
    return "j,lambda\n" + "".join(rows)


_EDGE_VALUES = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
    2.2250738585072014e-308, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53),
    1e16 - 2, 1e16, 1e16 + 2, 1e22, 1.0, -3.0, 0.1,
]
_runs = st.lists(
    st.tuples(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()), st.integers(1, 4)),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=150)
@given(runs=_runs, lead=st.sampled_from([0, 1, dio._CSV_BLOCK - 2, 2 * dio._CSV_BLOCK - 1]))
@example(
    runs=[(-0.0, 2), (0.0, 3), (-0.0, 1), (float("nan"), 2), (2.0**53, 2), (1e16, 1), (5e-324, 3)],
    lead=dio._CSV_BLOCK - 1,
)
def test_spectrum_csv_bytes_match_per_row_formula(tmp_path_factory, runs, lead):
    # `lead` copies of the first value put a run across a block boundary
    heads = np.array([v for v, _ in runs])
    lengths = [n for _, n in runs]
    lengths[0] += lead
    values = np.repeat(heads, lengths)
    path = tmp_path_factory.mktemp("csv") / "vals.csv"
    dio.write_spectrum_csv(make_spec(values), path)
    assert path.read_bytes() == _per_row_csv(values).encode()


def _hpi_values(v, parts):
    return population.hpi_top_k(population.PowerLawSpectrum(1.31, v), parts, 30_000).values()


def _theory_values():
    curve = population.theory_curve(3, 1.31)
    return population.predicted_spectrum(curve, curve.scale, range(1, 3001))


# sha256 of CSVs recorded with the one-row-at-a-time formula of _per_row_csv:
# the benchmark's two top-k spectra and one theory spectrum.  The theory
# values carry the caveat of test_population's _PREDICTED_GOLDEN: numpy's SIMD
# log, exp and power move their last bit by CPU, so that digest is compared
# only on `_GOLDEN_BUILD`.
_CSV_GOLDEN = [
    pytest.param(lambda: _hpi_values(20_000, (1, 1)),
                 "58efc86b62b1854ede9b00c85d8988079ced7c6353790dc1716fd20c8df2455c", id="hpi_1_1"),
    pytest.param(lambda: _hpi_values(5_000, (1, 1, 1)),
                 "4ed2403d5b9283040c8e76e05c0ca1a55fa18d28d20cc7cd873b360dc32a87ad", id="hpi_1_1_1"),
    pytest.param(_theory_values, "0c161d79c0af501062fce5825a5b621d56253d72d4551ec2fa1fa2b69e77b5ed",
                 id="theory_p3", marks=golden_build_only),
]


@pytest.mark.parametrize("values, digest", _CSV_GOLDEN)
def test_spectrum_csv_golden_digests(tmp_path, values, digest):
    path = tmp_path / "spectrum.csv"
    dio.write_spectrum_csv(make_spec(values()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spectrum_csv_tied_spectrum_memory(tmp_path):
    # 30 000 rows holding 7 635 distinct values: the run texts, the row list
    # and the joined block together must stay under the 948 KiB the per-row
    # writer peaked at (Python 3.11)
    spec = make_spec(_hpi_values(5_000, (1, 1, 1)))
    peak = _traced_peak(lambda: dio.write_spectrum_csv(spec, tmp_path / "hpi.csv"))
    assert peak <= 948 * 1024, peak


# ---------------------------------------------------------------------------
# run summaries


def _summary(elapsed=1234):
    return RunSummary(
        command="layers",
        params={"v": 1000, "alpha": 1.31, "act": "monomial:1", "centered": False, "data": None},
        seed=7,
        fits=(
            SlopeFit(-1.3087215467891234, 0.25, 0.9991234567, 5, 100, 96),
            SlopeFit(-0.5, -1e-300, 1.0, 1, 32, 30),
        ),
        results={
            "count": 10**30, "ratio": 0.1 + 0.2, "truncated": True, "1 combinatorial ground truth": "PASS"
        },
        warnings=("layer 2: fit range j = 1..500 (effective 1..32)", 'quotes " and = signs'),
        elapsed_ms=elapsed,
        version="0.1.0",
    )


def test_run_summary_round_trip(tmp_path):
    path, path_back = tmp_path / "run.summary", tmp_path / "back.summary"
    dio.write_run_summary(_summary(), path)
    back = dio.read_run_summary(path)
    assert back == _summary()
    assert back.fits[0].slope == -1.3087215467891234  # shortest-exact is bit-exact
    dio.write_run_summary(back, path_back)
    assert path.read_bytes() == path_back.read_bytes()
    payload = json.loads(path.read_text())
    assert list(payload) == [
        "command", "params", "seed", "fits", "results", "warnings", "elapsed_ms", "version"
    ]
    assert list(payload["params"]) == sorted(_summary().params)


def test_run_summary_without_seed_or_fits(tmp_path):
    bare = replace(_summary(), seed=None, fits=(), params={}, results={}, warnings=())
    path = tmp_path / "bare.summary"
    dio.write_run_summary(bare, path)
    assert dio.read_run_summary(path) == bare
    assert json.loads(path.read_text()) == {
        "command": "layers", "params": {}, "results": {}, "warnings": [],
        "elapsed_ms": 1234, "version": "0.1.0",
    }


def test_run_summary_identical_modulo_elapsed(tmp_path):
    p1, p2 = tmp_path / "a.summary", tmp_path / "b.summary"
    dio.write_run_summary(_summary(elapsed=10), p1)
    dio.write_run_summary(_summary(elapsed=99), p2)
    l1 = [ln for ln in p1.read_text().splitlines() if '"elapsed_ms"' not in ln]
    l2 = [ln for ln in p2.read_text().splitlines() if '"elapsed_ms"' not in ln]
    assert l1 == l2
    assert p1.read_text() != p2.read_text()


def test_run_summary_refuses_non_finite_floats(tmp_path):
    # JSON has no NaN; one that slips past validation is an internal error, not a file
    path = tmp_path / "nan.summary"
    with pytest.raises(ValueError) as exc:
        dio.write_run_summary(replace(_summary(), results={"asymptotic": float("nan")}), path)
    assert not isinstance(exc.value, InvalidInput)
    assert not path.exists()


def test_run_summary_missing_field(tmp_path):
    path = tmp_path / "broken.summary"
    dio.write_run_summary(_summary(), path)
    payload = json.loads(path.read_text())
    del payload["command"]
    path.write_text(json.dumps(payload))
    with pytest.raises(dio.SchemaError, match="missing field: command"):
        dio.read_run_summary(path)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('"version"', '"slopes": [1.0], "version"'), "unknown field: slopes"),
    (lambda text: text.replace('"0.1.0"', "0.1.0)"), "malformed file"),
    (lambda text: "[" + text + "]", "malformed file: not a JSON object"),
    (lambda text: text.replace('"points_used": 30', '"points": 30'), "malformed fit"),
])
def test_run_summary_rejects_malformed(tmp_path, edit, message):
    path = tmp_path / "broken.summary"
    dio.write_run_summary(_summary(), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(dio.SchemaError, match=message):
        dio.read_run_summary(path)
