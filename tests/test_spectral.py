import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrf import InvalidInput, spectral


# ---------------------------------------------------------------------------
# sym_eigenvalues


def test_eigenvalues_diagonal():
    assert np.allclose(spectral.sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])


def test_eigenvalues_swap_matrix():
    got = spectral.sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(got, [1.0, -1.0], atol=1e-14)


def test_eigenvalues_known_factorization():
    rng = np.random.default_rng(0)
    lam = np.sort(rng.uniform(0.1, 5.0, size=50))[::-1]
    Q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    A = Q @ np.diag(lam) @ Q.T
    got = spectral.sym_eigenvalues((A + A.T) / 2)
    assert np.allclose(got, lam, atol=1e-9)


def test_eigenvalues_trace_and_psd_floor():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        B = rng.standard_normal((n, n))
        A = B @ B.T
        eig = spectral.sym_eigenvalues(A)
        tr = float(np.trace(A))
        assert abs(eig.sum() - tr) <= 1e-8 * (1 + abs(tr))
        assert eig.min() >= -1e-8 * eig.max()
        assert np.all(np.diff(eig) <= 0)


def test_eigenvalues_rejects_asymmetry_and_nonfinite():
    A = np.array([[1.0, 2.0], [2.5, 1.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        spectral.sym_eigenvalues(A)
    with pytest.raises(ValueError, match="finite"):
        spectral.sym_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        spectral.sym_eigenvalues(np.ones((2, 3)))


def test_eigenvalues_negative_kept_visible():
    eig = spectral.sym_eigenvalues(np.diag([1.0, -0.5]))
    assert np.allclose(eig, [1.0, -0.5])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigenvalues_asymmetry_check_holds_one_temporary():
    # |A - A'| is formed in one n x n array (two were held before)
    B = np.random.default_rng(5).standard_normal((600, 600))
    A = B + B.T
    peak = _traced_peak(lambda: spectral.sym_eigenvalues(A))
    assert peak < 1.3 * A.nbytes, peak


# ---------------------------------------------------------------------------
# gram_spectrum


def test_gram_spectrum_example():
    F = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(spectral.gram_spectrum(F, 1.0), [4.0, 1.0])


def test_gram_spectrum_both_orders_agree():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((20, 7))
    small = spectral.gram_spectrum(F, 0.3)           # uses F'F
    big = spectral.sym_eigenvalues(0.3 * (F @ F.T))  # the other order
    assert small.size == 7
    assert np.allclose(small, big[:7], rtol=1e-8, atol=1e-10)


def test_gram_spectrum_orthonormal_rows():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    F = Q.T  # 4 x 9 with orthonormal rows
    got = spectral.gram_spectrum(F, 1.0)
    assert got.size == 4
    assert np.allclose(got, 1.0, atol=1e-12)


def test_gram_spectrum_matches_direct_large():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((500, 100))
    a = spectral.gram_spectrum(F, 1.0 / 500)
    b = spectral.sym_eigenvalues(F.T @ F / 500)
    assert np.allclose(a, b, rtol=1e-8)


def test_gram_spectrum_rejects_nonfinite():
    with pytest.raises(ValueError):
        spectral.gram_spectrum(np.array([[1.0, np.inf]]), 1.0)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_gram_spectrum_rejects_an_overflowing_gram(shape):
    # finite entries whose products overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="matrix has non-finite entries"):
            spectral.gram_spectrum(np.full(shape, 1e200), 1.0)


def test_eigensolves_past_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_EIG_DIM", 3)
    assert spectral.sym_eigenvalues(np.eye(3)).size == 3
    assert spectral.gram_spectrum(np.ones((3, 10)), 1.0).size == 3
    with pytest.raises(InvalidInput, match="dimension 4 exceeds the cap of 3"):
        spectral.sym_eigenvalues(np.eye(4))
    for shape in ((4, 10), (10, 4)):
        with pytest.raises(InvalidInput, match="dimension 4 exceeds the cap of 3"):
            spectral.gram_spectrum(np.ones(shape), 1.0)


# ---------------------------------------------------------------------------
# slope_fit


def test_slope_fit_exact_power_law():
    lam = np.arange(1, 101.0) ** -1.31
    fit = spectral.slope_fit(lam, 1, 100)
    assert fit.slope == pytest.approx(-1.31, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 100


def test_slope_fit_intercept():
    lam = 2.0 * np.arange(1, 101.0) ** -2.0
    fit = spectral.slope_fit(lam, 1, 100)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)


def test_slope_fit_log_correction_flattens():
    j = np.arange(1, 101.0)
    lam = (np.log(j + 1.0)) ** 1.31 / j**1.31
    fit = spectral.slope_fit(lam, 1, 100)
    # independent OLS oracle
    x, y = np.log(j), np.log(lam)
    slope_oracle = np.polyfit(x, y, 1)[0]
    assert fit.slope == pytest.approx(slope_oracle, abs=1e-10)
    assert fit.slope > -1.31


def test_slope_fit_drops_nonpositive():
    lam = np.concatenate([np.arange(1, 51.0) ** -1.0, np.zeros(50)])
    fit = spectral.slope_fit(lam, 1, 100)
    assert fit.points_used == 50
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_slope_fit_errors():
    lam = np.arange(1, 21.0) ** -1.0
    with pytest.raises(ValueError):
        spectral.slope_fit(lam, 1, 50)  # beyond length
    with pytest.raises(ValueError, match="usable"):
        spectral.slope_fit(np.zeros(30), 1, 30)
    with pytest.raises(ValueError, match="usable"):
        spectral.slope_fit(lam, 1, 5)  # fewer than 10 points


def test_clamped_slope_fit_names_the_request():
    lam = np.arange(1, 21.0) ** -1.0
    fit = spectral.clamped_slope_fit(lam, 1, 50)
    assert (fit.j_min, fit.j_max) == (1, 20)
    assert fit == spectral.slope_fit(lam, 1, 20)
    with pytest.raises(ValueError, match=r"^fit range 25\.\.50 starts past the spectrum's 20 eigenvalues$"):
        spectral.clamped_slope_fit(lam, 25, 50)
    with pytest.raises(ValueError, match=r"^fit range 15\.\.50 clamped to the layer's 20 eigenvalues: only 6"):
        spectral.clamped_slope_fit(lam, 15, 50, owner="the layer's")
    with pytest.raises(ValueError, match=r"^only 5 usable points in \[1, 5\]"):  # no clamp, no prefix
        spectral.clamped_slope_fit(lam, 1, 5)


@settings(deadline=None, max_examples=30)
@given(alpha=st.floats(min_value=0.5, max_value=4.0), scale=st.floats(min_value=0.01, max_value=100.0))
def test_slope_fit_exact_on_synthetic(alpha, scale):
    lam = scale * np.arange(1, 151.0) ** -alpha
    fit = spectral.slope_fit(lam, 1, 150)
    assert fit.slope == pytest.approx(-alpha, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# normalize_top


def test_normalize_top_examples():
    assert np.allclose(spectral.normalize_top([4.0, 2.0, 1.0]), [1.0, 0.5, 0.25])
    assert spectral.normalize_top([1.0]) == [1.0]
    normalized = spectral.normalize_top([5.0, 1.0])
    assert np.array_equal(spectral.normalize_top(normalized), normalized)
    assert spectral.normalize_top([3.0, 1.5])[0] == 1.0  # exactly


def test_normalize_top_errors():
    with pytest.raises(ValueError):
        spectral.normalize_top([0.0, -1.0])
    with pytest.raises(ValueError):
        spectral.normalize_top([])
