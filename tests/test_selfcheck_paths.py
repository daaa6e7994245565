"""Structural coverage for the data-dependent check and batch discovery.

The dataset-bound criterion is skipped without real batches; these tests run
its code path on synthetic batch files so the reader -> covariance ->
layer-propagation pipeline is exercised regardless (the verdict itself is
dataset-dependent and not asserted here).
"""

import re

import numpy as np
import pytest

from plrf import data, selfcheck


def _write_synthetic_batch(path, n, seed):
    # power-law correlated pixels quantized to bytes, one 3073-byte record each
    rng = np.random.default_rng(seed)
    scale = np.arange(1, 3073.0) ** (-1.29 / 2.0)
    x = rng.standard_normal((n, 3072)) * scale
    x = np.clip(x / np.abs(x).max(), -1.0, 1.0)
    pixels = np.round((x + 1.0) * 127.5).astype(np.uint8)
    labels = rng.integers(0, 10, size=(n, 1)).astype(np.uint8)
    path.write_bytes(np.hstack([labels, pixels]).tobytes())


def test_find_cifar_batches_discovery(tmp_path, monkeypatch):
    monkeypatch.delenv("PLRF_CIFAR10_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError, match=r"in cifar-10-batches-bin; download"):
        data.find_cifar_batches()
    base = tmp_path / "cifar-10-batches-bin"
    base.mkdir()
    _write_synthetic_batch(base / "data_batch_1.bin", 8, seed=0)
    _write_synthetic_batch(base / "data_batch_2.bin", 8, seed=1)
    got = data.find_cifar_batches(base)
    assert [p.name for p in got] == ["data_batch_1.bin", "data_batch_2.bin"]
    assert [p.name for p in data.find_cifar_batches()] == [p.name for p in got]
    # the environment variable is honored when no explicit dir is given
    monkeypatch.setenv("PLRF_CIFAR10_DIR", str(base))
    assert data.find_cifar_batches() == got


def test_explicit_cifar_dir_is_the_only_place_looked_in(tmp_path, monkeypatch):
    batches = tmp_path / "batches"
    batches.mkdir()
    _write_synthetic_batch(batches / "data_batch_1.bin", 8, seed=0)
    monkeypatch.setenv("PLRF_CIFAR10_DIR", str(batches))
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    for where in (empty, tmp_path / "nope", batches / "data_batch_1.bin"):
        with pytest.raises(FileNotFoundError, match=f"in {re.escape(str(where))};"):
            data.find_cifar_batches(where)


def test_cifar_check_runs_on_synthetic_batches(tmp_path):
    base = tmp_path / "batches"
    base.mkdir()
    _write_synthetic_batch(base / "data_batch_1.bin", 600, seed=2)
    result = selfcheck.check_cifar_layers(quick=True, data_dir=base)
    # the pipeline must complete and produce a verdict with slope details;
    # whether it passes depends on the data, which is synthetic here
    assert result.passed is not None
    assert "slope" in result.detail or "input" in result.detail or "layers" in result.detail


def test_cifar_check_skips_cleanly_without_data(tmp_path, monkeypatch):
    monkeypatch.delenv("PLRF_CIFAR10_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    result = selfcheck.check_cifar_layers(quick=True)
    assert result.passed is None
    assert "skipped" in result.detail
