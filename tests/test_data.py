import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ds = dio.read_cifar10([path])
    assert ds.values.shape == (3, 3072)
    assert np.all(ds.values[0] == -1.0)
    assert np.all(ds.values[1] == 1.0)
    assert np.allclose(ds.values[2], 51 / 127.5 - 1.0)
    assert ds.source == "cifar10"
    assert ds.values.min() >= -1.0 and ds.values.max() <= 1.0


def test_cifar_reader_record_arithmetic(tmp_path):
    # a standard batch holds 10000 records of 3073 bytes; shrink by 1000x
    path = tmp_path / "batch.bin"
    path.write_bytes(b"".join(_record(i % 10, i % 256) for i in range(10)))
    assert path.stat().st_size == 30730
    ds = dio.read_cifar10([path])
    assert ds.rows == 10 and ds.cols == 3072


def test_cifar_reader_full_size_batch(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(bytes(30_730_000))  # one standard batch, all-zero pixels
    ds = dio.read_cifar10([path])
    assert ds.rows == 10_000 and ds.cols == 3072
    assert np.all(ds.values == -1.0)


def test_cifar_reader_limit_and_multiple_files(tmp_path):
    p1 = tmp_path / "b1.bin"
    p2 = tmp_path / "b2.bin"
    p1.write_bytes(_record(0, 10) + _record(0, 20))
    p2.write_bytes(_record(0, 30))
    ds = dio.read_cifar10([p1, p2])
    assert ds.rows == 3
    assert np.allclose(ds.values[2, 0], 30 / 127.5 - 1.0)  # row order preserved
    assert dio.read_cifar10([p1, p2], limit=2).rows == 2


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
    with pytest.raises(dio.SchemaError):
        dio.read_spectrum_csv(path)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_spectrum_csv_lossless_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "vals.csv"
    dio.write_spectrum_csv(make_spec(values), path)
    back = dio.read_spectrum_csv(path)
    assert np.array_equal(back.eigenvalues, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# binary sidecar


def test_spectrum_bin_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(257)
    path = tmp_path / "spec.f64"
    dio.write_spectrum_bin(make_spec(vals), path)
    assert path.stat().st_size == 16 + 8 * 257
    back = dio.read_spectrum_bin(path)
    assert np.array_equal(back.eigenvalues, vals)


def test_spectrum_bin_rejects_garbage(tmp_path):
    path = tmp_path / "bad.f64"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(dio.SchemaError, match="magic"):
        dio.read_spectrum_bin(path)
    dio.write_spectrum_bin(make_spec([1.0, 2.0]), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop one value
    with pytest.raises(dio.SchemaError, match="length"):
        dio.read_spectrum_bin(path)


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
    path = tmp_path / "run.summary"
    dio.write_run_summary(_summary(), path)
    back = dio.read_run_summary(path)
    assert back == _summary()
    assert back.fits[0].slope == -1.3087215467891234  # shortest-exact is bit-exact
    js, js_back = tmp_path / "run.json", tmp_path / "back.json"
    dio.write_run_summary_json(_summary(), js)
    dio.write_run_summary_json(back, js_back)
    assert js.read_text() == js_back.read_text()
    assert list(json.loads(js.read_text())) == [
        "command", "params", "seed", "fits", "results", "warnings", "elapsed_ms", "version"
    ]


def test_run_summary_without_seed_or_fits(tmp_path):
    bare = replace(_summary(), seed=None, fits=(), params={}, results={}, warnings=())
    path, js = tmp_path / "bare.summary", tmp_path / "bare.json"
    dio.write_run_summary(bare, path)
    dio.write_run_summary_json(bare, js)
    assert dio.read_run_summary(path) == bare
    assert "seed =" not in path.read_text() and "fits =" not in path.read_text()
    assert json.loads(js.read_text()) == {
        "command": "layers", "params": {}, "results": {}, "warnings": [],
        "elapsed_ms": 1234, "version": "0.1.0",
    }


def test_run_summary_identical_modulo_elapsed(tmp_path):
    p1, p2 = tmp_path / "a.summary", tmp_path / "b.summary"
    dio.write_run_summary(_summary(elapsed=10), p1)
    dio.write_run_summary(_summary(elapsed=99), p2)
    l1 = [ln for ln in p1.read_text().splitlines() if not ln.startswith("elapsed_ms")]
    l2 = [ln for ln in p2.read_text().splitlines() if not ln.startswith("elapsed_ms")]
    assert l1 == l2
    assert p1.read_text() != p2.read_text()


def test_run_summary_missing_field(tmp_path):
    path = tmp_path / "broken.summary"
    dio.write_run_summary(_summary(), path)
    text = "\n".join(ln for ln in path.read_text().splitlines() if not ln.startswith("command"))
    path.write_text(text)
    with pytest.raises(dio.SchemaError, match="missing field: command"):
        dio.read_run_summary(path)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "slopes = [1.0]\n", "unknown field: slopes"),
    (lambda text: text.replace('"0.1.0"', "0.1.0)"), "malformed line"),
    (lambda text: text.replace('"points_used": 30', '"points": 30'), "malformed fit"),
])
def test_run_summary_rejects_malformed(tmp_path, edit, message):
    path = tmp_path / "broken.summary"
    dio.write_run_summary(_summary(), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(dio.SchemaError, match=message):
        dio.read_run_summary(path)
