import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _traced_peak, golden_build_only
from plrf import InvalidInput, simulate, spectral
from plrf.combinatorics import HERMITE_DEGREE_CAP, pairing_class_counts
from plrf.population import PowerLawSpectrum
from plrf.simulate import Activation, DataDistribution, LayerSpec, RFConfig


# ---------------------------------------------------------------------------
# activations and distributions


def test_activation_parse_and_labels():
    assert Activation.parse("monomial:2") == Activation("monomial", 2)
    assert Activation.parse("tanh") == Activation("tanh")
    assert Activation("hermite", 3).label == "hermite:3"


def test_activation_values():
    y = np.linspace(-2, 2, 11)
    y2 = y * y  # integer powers are multiplication chains, not libm pow
    assert np.array_equal(Activation("monomial", 3).apply(y), y2 * y)
    assert np.array_equal(Activation("monomial", 5).apply(y), y2 * y2 * y)
    assert np.array_equal(Activation("relu").apply(y), np.maximum(y, 0.0))
    assert np.allclose(Activation("gauss_bump").apply(y), y * y * np.exp(-y * y))
    assert np.allclose(Activation("hermite", 3).apply(y), y**3 - 3 * y)
    hs = Activation("heaviside").apply(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(hs, [0.0, 0.5, 1.0])


@pytest.mark.parametrize(
    "text", ["monomial:1", "monomial:2", "monomial:3", "monomial:4", "monomial:7", "relu", "tanh",
             "heaviside", "gauss_bump", "hermite:0", "hermite:3", "identity"],
)
def test_activation_applied_in_place_matches_a_fresh_result(text):
    act = Activation.parse(text)
    y = np.random.default_rng(5).standard_normal((33, 9)) * 2.0
    want = act.apply(y)
    buf = y.copy()
    assert act.apply(buf, out=buf) is buf
    assert np.array_equal(buf, want)
    other = np.empty_like(y)
    assert act.apply(y, out=other) is other
    assert np.array_equal(other, want)


def test_int_power_in_place_is_the_square_and_multiply_chain():
    y = np.random.default_rng(6).standard_normal(200) * 1.5
    for p in range(1, 17):
        chain = y.copy() if p == 1 else y * y  # the chain done wholly in place
        for k, bit in enumerate(bin(p)[3:]):
            if k:
                chain *= chain
            if bit == "1":
                chain *= y
        buf = y.copy()
        simulate._int_power(buf, p, out=buf)
        assert np.array_equal(buf, chain)
        assert np.array_equal(simulate._int_power(y, p), chain)


_OVERFLOW = Fraction(2) ** 1024 - Fraction(2) ** 970  # exact values at or above round to inf


@settings(max_examples=400, deadline=None)
@given(y=st.floats(allow_nan=False, allow_infinity=False), p=st.integers(1, 16))
@example(y=5e-324, p=2)  # the smallest subnormal underflows to 0
@example(y=1.5e-160, p=2)  # a subnormal result
@example(y=-1e308, p=3)  # overflows to -inf
@example(y=2.0**64, p=16)  # exactly 2**1024: overflows with no rounding
@example(y=-(2.0**-70), p=15)
def test_int_power_within_rounding_of_the_exact_power(y, p):
    with np.errstate(over="ignore", under="ignore"):
        got = float(simulate._int_power(np.array([y]), p)[0])
        pow_value = float(np.float64(y) ** p)
    exact = Fraction(y) ** p
    # p - 1 roundings of relative size <= 2**-53, compounded; each may also lose
    # half a subnormal ulp (2**-1075) once a step underflows
    gamma = Fraction(p - 1, 2**53 - (p - 1))
    if abs(exact) >= _OVERFLOW * (1 + gamma):
        assert math.isinf(got) and got == pow_value
    elif math.isinf(got):
        assert abs(exact) >= _OVERFLOW * (1 - gamma) and (got > 0) == (exact > 0)
    else:
        assert abs(Fraction(got) - exact) <= gamma * abs(exact) + (p - 1) * Fraction(2) ** -1075


def test_int_power_non_finite_and_signed_zero_match_pow():
    y = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, -1.0])
    for p in range(1, 17):
        with np.errstate(invalid="ignore"):
            got = simulate._int_power(y, p)
        assert np.array_equal(got, y**p, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(y**p))
    with pytest.raises(ValueError):
        simulate._int_power(y, 0)


@pytest.mark.parametrize("p", [1, 2])
def test_low_degree_powers_are_bit_identical_to_numpy_pow(p):
    y = np.random.default_rng(p).standard_normal((64, 7)) * 3.0
    assert np.array_equal(Activation("monomial", p).apply(y), y**p)
    # the exact kernel against its former all-`**` formula
    v, d = 12, 5
    H = PowerLawSpectrum(1.31, v)
    W = simulate.sample_sketch(v, d, 4)
    Y = np.sqrt(H.eigenvalues)[:, None] * W
    G = Y.T @ Y
    nrm = np.diag(G).copy()
    outer = np.outer(nrm, nrm)
    K = np.zeros((d, d))
    for q, cnt in sorted(pairing_class_counts(p).counts.items()):
        K += cnt * outer ** ((p - q) // 2) * G**q
    K /= d
    assert np.array_equal(simulate.exact_population_covariance(W, H, p), (K + K.T) / 2.0)


def test_activation_validation():
    with pytest.raises(ValueError):
        Activation("monomial")
    with pytest.raises(ValueError):
        Activation("monomial", 0)
    with pytest.raises(ValueError):
        Activation("selu")
    with pytest.raises(ValueError):
        Activation("tanh", 2)


@pytest.mark.parametrize("text", ["monomial:x", "hermite:2.5", "monomial: "])
def test_activation_parse_names_the_text(text):
    with pytest.raises(InvalidInput, match=f"bad activation {text!r}: degree must be an integer"):
        Activation.parse(text)


def test_library_limits_are_named_once():
    assert Activation("hermite", HERMITE_DEGREE_CAP).param == 64
    with pytest.raises(InvalidInput, match=r"hermite degree must lie in \[0, 64\], got 65"):
        Activation("hermite", 65)
    cfg = dict(v=10, d=10, alpha=1.31, activation=Activation("monomial", 1))
    RFConfig(m=simulate.MIN_MC_SAMPLES, **cfg)
    with pytest.raises(InvalidInput, match="need m >= 100 Monte Carlo samples, got 99"):
        RFConfig(m=99, **cfg)
    W, H = simulate.sample_sketch(5, 3, 0), PowerLawSpectrum(1.31, 5)
    assert simulate.exact_population_covariance(W, H, simulate.MAX_EXACT_DEGREE).shape == (3, 3)
    with pytest.raises(InvalidInput, match="exact kernel supports p <= 6, got 7"):
        simulate.exact_population_covariance(W, H, 7)


def test_negative_seed_is_invalid_input():
    with pytest.raises(InvalidInput, match="seed must be >= 0, got -1"):
        simulate.sample_sketch(5, 3, -1)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DataDistribution("student_t", df=4.0)  # needs df > 4
    with pytest.raises(InvalidInput, match="student_t needs a finite df > 4, got inf"):
        DataDistribution("student_t", df=math.inf)
    with pytest.raises(ValueError):
        DataDistribution("external")
    with pytest.raises(ValueError):
        DataDistribution("cauchy")


def test_distribution_unit_variance():
    rng = np.random.default_rng(0)
    for dist in (
        DataDistribution("gaussian"),
        DataDistribution("rademacher"),
        DataDistribution("student_t", df=6.0),
    ):
        draws = dist.draw_unit(rng, np.empty((200, 500)))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05
    rad = DataDistribution("rademacher").draw_unit(rng, np.empty((10, 10)))
    assert set(np.unique(rad)) <= {-1.0, 1.0}


# law, excess kurtosis, and the tolerances on variance and excess kurtosis:
# five times their standard deviation over 30 seeds of a 1000 x 500 block
# (rademacher's both deviate by O(mean**2), so they are held to 25 / N)
_LAWS = [
    (DataDistribution("gaussian"), 0.0, 0.01, 0.04),
    (DataDistribution("rademacher"), -2.0, 1e-4, 1e-4),
    (DataDistribution("student_t", df=10.0), 6.0 / (10.0 - 4.0), 0.015, 0.15),
]


@pytest.mark.parametrize("law, kurtosis, var_tol, kurt_tol", _LAWS, ids=lambda x: getattr(x, "label", None))
@pytest.mark.parametrize("seed", [0, 20260])
def test_data_stream_draws_the_law(law, kurtosis, var_tol, kurt_tol, seed):
    # what Monte Carlo blocks 0 and 1 draw: unit variance, the law's kurtosis,
    # and no correlation between the blocks (means within 5 / sqrt(N))
    n, v = 1000, 500
    bound = 5.0 / math.sqrt(n * v)
    a, b = (law.draw_unit(simulate._stream(seed, simulate._DATA, k), np.empty((n, v))).ravel() for k in (0, 1))
    c = a - a.mean()
    m2 = np.mean(c * c)
    assert abs(a.mean()) < bound
    assert abs(m2 - 1.0) < var_tol
    assert abs(np.mean(c**4) / m2**2 - 3.0 - kurtosis) < kurt_tol
    assert abs(np.corrcoef(a, b)[0, 1]) < bound


def test_rademacher_draw_holds_one_float_array():
    n, v = 1024, 800
    law = DataDistribution("rademacher")
    rng = simulate._stream(3, simulate._DATA, 0)
    peak = _traced_peak(lambda: law.draw_unit(rng, np.empty((n, v))))
    assert peak <= 1.2 * n * v * 8, peak
    signs = law.draw_unit(rng, np.empty((n, v)))
    assert signs.dtype == np.float64
    assert set(np.unique(signs)) == {-1.0, 1.0}


def test_stream_recipe_per_purpose():
    # data blocks draw from SFC64, every other purpose from Philox, all seeded
    # by SeedSequence(seed, spawn_key=(purpose, *key))
    def recipe(bit_generator, seed, key):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
        return np.random.Generator(bit_generator(ss)).standard_normal(6)

    for seed in (0, 20260):
        for b in (0, 1, 9):
            got = simulate._stream(seed, simulate._DATA, b).standard_normal(6)
            assert np.array_equal(got, recipe(np.random.SFC64, seed, (1, b)))
        for purpose in (simulate._SKETCH, simulate._STAGE, simulate._LAYER, simulate._WICK, 97):
            for key in ((), (0,), (4,)):
                got = simulate._stream(seed, purpose, *key).standard_normal(6)
                assert np.array_equal(got, recipe(np.random.Philox, seed, (purpose, *key)))
    assert simulate._SYNTHETIC == 97  # `plrf layers` and the benchmark's layers job draw from it


def test_data_stream_golden():
    # frozen Gaussian draw of data block 0; catches any silent change in the
    # seed-to-sample pipeline of Monte Carlo data
    U = DataDistribution("gaussian").draw_unit(simulate._stream(0, simulate._DATA, 0), np.empty((2, 2)))
    want = np.array(
        [
            [-1.2540797385549642, -0.057374060490056056],
            [0.1831656089569397, -0.25374987556925],
        ]
    )
    assert np.array_equal(U, want)


# ---------------------------------------------------------------------------
# sketches


def test_sample_sketch_deterministic():
    a = simulate.sample_sketch(50, 40, seed=7)
    b = simulate.sample_sketch(50, 40, seed=7)
    assert np.array_equal(a, b)
    c = simulate.sample_sketch(50, 40, seed=8)
    assert not np.array_equal(a, c)


def test_sample_sketch_moments():
    W = simulate.sample_sketch(1000, 1000, seed=1)
    assert abs(W.mean()) <= 5e-3
    assert abs(W.var() - 1.0) <= 0.01


def test_sample_sketch_validation():
    with pytest.raises(ValueError):
        simulate.sample_sketch(0, 5, 0)
    with pytest.raises(ValueError):
        simulate.sample_sketch(10**6, 10**5, 0)  # entry cap


def test_sample_sketch_golden_stream():
    # frozen draw from the counter-based stream; catches any silent change
    # in the seed-to-sample pipeline
    W = simulate.sample_sketch(2, 2, seed=0)
    want = np.array(
        [
            [-0.8025458906390128, 0.45751928097784245],
            [-0.31455873558038694, 0.726455946897366],
        ]
    )
    assert np.array_equal(W, want)


# ---------------------------------------------------------------------------
# Monte Carlo covariance


def test_mc_covariance_linear_commutes_with_sample_covariance():
    # for f(y)=y the feature covariance is R' S R with S the (uncentered)
    # sample covariance of the d-wide unit draws z and R the QR factor of
    # H^(1/2) W (the Gaussian factor route); rebuild the identical data
    # stream to check
    cfg = RFConfig(v=60, d=30, m=500, alpha=1.31, activation=Activation("monomial", 1), seed=11)
    assert simulate._gaussian_factor(cfg.v, cfg.d, cfg.m)
    est = simulate.mc_covariance(cfg)
    R = _draw_matrix(cfg)
    rng = simulate._stream(cfg.seed, simulate._DATA, 0)
    Z = rng.standard_normal((cfg.m, cfg.d))
    S = Z.T @ Z / cfg.m
    want = spectral.sym_eigenvalues(R.T @ S @ R / cfg.d)[: cfg.d]
    assert np.allclose(est.eigenvalues, want, rtol=1e-10, atol=1e-12)


def test_mc_covariance_constant_activation_rank_one():
    cfg = RFConfig(v=40, d=20, m=200, alpha=1.31, activation=Activation("hermite", 0), seed=2)
    est = simulate.mc_covariance(cfg)
    assert est.eigenvalues[0] > 0
    assert est.eigenvalues[1] <= 1e-12 * est.eigenvalues[0]


def test_mc_covariance_deterministic_and_thread_invariant():
    cfg = RFConfig(v=50, d=25, m=20000, alpha=1.31, activation=Activation("monomial", 2), seed=3)
    a = simulate.mc_covariance(cfg)
    b = simulate.mc_covariance(cfg)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = simulate.mc_covariance(cfg, threads=3)
    assert np.array_equal(a.eigenvalues, c.eigenvalues)
    # reported covariances stay PSD up to round-off
    assert a.eigenvalues.min() >= -1e-8 * a.eigenvalues.max()


def test_mc_covariance_matrix_matches_spectrum_route():
    cfg = RFConfig(v=50, d=25, m=2000, alpha=1.31, activation=Activation("monomial", 2), seed=4)
    mat = simulate.mc_covariance_matrix(cfg)
    est = simulate.mc_covariance(cfg)
    assert np.allclose(spectral.sym_eigenvalues(mat), est.eigenvalues, rtol=1e-9, atol=1e-12)


def _stacked_features(cfg) -> np.ndarray:
    """The m x d features of every block, stacked (centered when cfg is)."""
    Phi = np.empty((cfg.m, cfg.d))
    for _ in simulate._sample_blocks(cfg, 1, Phi=Phi):
        pass
    if cfg.centered:
        Phi -= Phi.mean(axis=0)
    return Phi


@pytest.mark.parametrize("centered", [False, True])
def test_mc_covariance_blockwise_route_is_matrix_spectrum(monkeypatch, centered):
    monkeypatch.setattr(simulate, "_BLOCK", 300)  # seven blocks, the last one short, m >= d
    cfg = RFConfig(
        v=50, d=25, m=2000, alpha=1.31, activation=Activation("monomial", 2), seed=4,
        centered=centered,
    )
    dense = spectral.gram_spectrum(_stacked_features(cfg), cfg.feature_scale / cfg.m)
    eig = {}
    for threads in (1, 3):
        eig[threads] = simulate.mc_covariance(cfg, threads=threads).eigenvalues
        mat = simulate.mc_covariance_matrix(cfg, threads=threads)
        assert np.array_equal(eig[threads], spectral.sym_eigenvalues(mat))
    assert np.array_equal(eig[1], eig[3])
    assert np.allclose(eig[1], dense, rtol=1e-9, atol=1e-12 * dense[0])
    with pytest.raises(ValueError, match="threads"):
        simulate.mc_covariance(cfg, threads=0)


@pytest.mark.parametrize(
    "block, v, d, m, gram",
    [
        (4096, 40, 16, 4000, True),  # one block
        (4096, 300, 150, 2000, True),  # one 2048-row block
        (50, 200, 150, 120, True),  # m < d over three blocks
        (4096, 40, 16, 4097, False),  # two blocks
        (50, 200, 120, 120, False),  # m = d over three blocks
    ],
)
def test_mc_covariance_route_rule(monkeypatch, block, v, d, m, gram):
    # the feature matrix and the Gram trick serve one-block runs and m < d;
    # every other run takes the eigenvalues of the blockwise matrix
    monkeypatch.setattr(simulate, "_BLOCK", block)
    calls = []
    gram_spectrum, sym_eigenvalues = simulate.gram_spectrum, simulate.sym_eigenvalues
    monkeypatch.setattr(simulate, "gram_spectrum", lambda *a: calls.append("gram") or gram_spectrum(*a))
    monkeypatch.setattr(simulate, "sym_eigenvalues", lambda *a: calls.append("sym") or sym_eigenvalues(*a))
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), seed=3)
    eig = simulate.mc_covariance(cfg, threads=2).eigenvalues
    assert calls == (["gram"] if gram else ["sym"])
    assert eig.size == min(m, d)


class _FirstBlock(Exception):
    """Stops a Monte Carlo run at its first block."""


@pytest.mark.parametrize(
    "v, d, m, factor",
    [
        (800, 400, 10**4, True),  # the benchmark's jobs
        (2000, 1000, 4 * 10**4, True),
        (160, 80, 4000, True),
        (120, 100, 5000, True),
        (1000, 1000, 2 * 10**4, False),  # v = d: nothing to save
        (2000, 1500, 1200, False),  # m < d: the QR costs more than it saves
    ],
)
def test_mc_gaussian_factor_route_rule(monkeypatch, v, d, m, factor):
    # a Gaussian run takes the QR factor R of H^(1/2) W when the product work
    # it saves, 2 m d (v - d) flops, exceeds the QR's 2 d^2 (v - d / 3); then
    # its first block multiplies a d-wide draw by the d x d factor, else a
    # v-wide draw by the v x d scaled sketch.  Student-t and Rademacher runs
    # never take the factor
    assert simulate._gaussian_factor(v, d, m) is factor
    seen = []

    def first_block(cfg, M, block, lo, out, draw):
        seen.append((M.shape, draw.shape))
        raise _FirstBlock

    monkeypatch.setattr(simulate, "_feature_block", first_block)
    held = min(m, simulate._block_rows(v, d))
    for law in (DataDistribution("gaussian"), DataDistribution("rademacher"), DataDistribution("student_t", df=5.0)):
        cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), distribution=law, seed=1)
        with pytest.raises(_FirstBlock):
            simulate.mc_covariance(cfg, threads=1)
    width = d if factor else v
    assert seen == [((width, d), (held, width))] + [((v, d), (held, v))] * 2


def test_mc_gaussian_factor_needs_no_positive_definite_gram():
    # at alpha = 10 the Gram matrix (H^(1/2) W)'(H^(1/2) W) = W'HW is
    # numerically singular, so it has no Cholesky factor; the run takes the
    # QR factor of H^(1/2) W instead and gives d finite eigenvalues
    cfg = RFConfig(v=120, d=100, m=5000, alpha=10.0, activation=Activation("monomial", 2), seed=1)
    assert simulate._gaussian_factor(cfg.v, cfg.d, cfg.m)
    Y = simulate.sample_sketch(cfg.v, cfg.d, cfg.seed)
    Y *= np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)[:, None]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Y.T @ Y)
    eig = simulate.mc_covariance(cfg).eigenvalues
    assert eig.shape == (cfg.d,) and np.all(np.isfinite(eig))


@settings(max_examples=30, deadline=None)
@given(
    law=st.sampled_from(["gaussian", "rademacher", "student_t", "external"]),
    act=st.sampled_from(["monomial:1", "monomial:2", "monomial:3", "tanh", "relu", "hermite:0", "hermite:3"]),
    centered=st.booleans(),
    d=st.integers(1, 40),
    extra=st.integers(1, 2 * simulate._BLOCK),
    seed=st.integers(0, 2**31),
)
def test_blockwise_spectrum_is_the_gram_spectrum_of_the_stacked_blocks(law, act, centered, d, extra, seed):
    v, m = 40, simulate._BLOCK + extra  # two or three blocks, m > d
    if law == "external":
        dist = DataDistribution("external", matrix=np.random.default_rng(seed).standard_normal((m, v)))
    else:
        dist = DataDistribution(law, df=5.0 if law == "student_t" else None)
    cfg = RFConfig(
        v=v, d=d, m=m, alpha=1.31, activation=Activation.parse(act), distribution=dist, seed=seed,
        centered=centered,
    )
    want = spectral.gram_spectrum(_stacked_features(cfg), cfg.feature_scale / cfg.m)
    eig = simulate.mc_covariance(cfg).eigenvalues
    assert eig.shape == want.shape == (d,)
    assert np.max(np.abs(eig - want)) <= 1e-12 * abs(want[0])


@pytest.mark.parametrize("v, d, m", [(300, 60, 5000), (300, 60, 2000), (300, 200, 120)])
def test_mc_covariance_past_the_eigensolver_cap_fails_before_sampling(monkeypatch, v, d, m):
    # the blockwise route, one block and m < d: each would solve min(m, d) = 60 or 120
    def fail(*args, **kwargs):
        raise AssertionError("drew the sketch despite min(m, d) past the eigensolver's cap")

    monkeypatch.setattr(simulate, "MAX_EIG_DIM", 50)
    monkeypatch.setattr(simulate, "sample_sketch", fail)
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2))
    with pytest.raises(InvalidInput, match=rf"min\(m, d\) = {min(m, d)} exceeds the eigensolver's cap of 50"):
        simulate.mc_covariance(cfg)


def test_mc_covariance_gram_trick_when_m_below_d():
    cfg = RFConfig(v=150, d=120, m=100, alpha=1.31, activation=Activation("monomial", 2), seed=9)
    eig = simulate.mc_covariance(cfg).eigenvalues
    assert eig.size == cfg.m
    full = spectral.sym_eigenvalues(simulate.mc_covariance_matrix(cfg))
    assert np.allclose(eig, full[: cfg.m], rtol=1e-9, atol=1e-12 * full[0])
    assert np.all(np.abs(full[cfg.m :]) <= 1e-12 * full[0])  # rank is at most m


@pytest.mark.parametrize("threads", [1, 3])
def test_mc_covariance_matrix_reduction_memory_is_bounded(monkeypatch, threads):
    # 200 blocks of 50 x 50 partials are 4 MB if all are held before the sum
    monkeypatch.setattr(simulate, "_BLOCK", 100)
    act = Activation("monomial", 2)
    simulate.mc_covariance_matrix(RFConfig(v=50, d=50, m=100, alpha=1.31, activation=act))
    cfg = RFConfig(v=50, d=50, m=20000, alpha=1.31, activation=act, seed=1)
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=threads))
    assert peak < 1_000_000, peak


def _draw_matrix(cfg) -> np.ndarray:
    """What a block's unit draw is multiplied by, rebuilt for a synthetic law.

    The H^(1/2)-scaled sketch (v x d), or on the Gaussian factor route its
    d x d QR factor R, whose draws are d wide.
    """
    W = simulate.sample_sketch(cfg.v, cfg.d, cfg.seed)
    W *= np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)[:, None]
    if cfg.distribution.kind == "gaussian" and simulate._gaussian_factor(cfg.v, cfg.d, cfg.m):
        return np.linalg.qr(W, mode="r")
    return W


def scaled_data_covariance(cfg, rows=simulate._BLOCK):
    """The covariance from features act(U @ M), one whole draw U per block of `rows`.

    M is `_draw_matrix(cfg)`, so H^(1/2) scales every data block; external
    rows are used as x directly.
    """
    if cfg.distribution.kind == "external":
        W = simulate.sample_sketch(cfg.v, cfg.d, cfg.seed)
        F = cfg.activation.apply(cfg.distribution.matrix[: cfg.m] @ W)
    else:
        M = _draw_matrix(cfg)
        blocks = []
        for b, lo in enumerate(range(0, cfg.m, rows)):
            U = cfg.distribution.draw_unit(
                simulate._stream(cfg.seed, simulate._DATA, b),
                np.empty((min(lo + rows, cfg.m) - lo, M.shape[0])),
            )
            blocks.append(cfg.activation.apply(U @ M))
        F = np.vstack(blocks)
    if cfg.centered:
        F = F - F.mean(axis=0)
    C = F.T @ F / cfg.m / cfg.d
    return (C + C.T) / 2


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize(
    "dist", [DataDistribution("gaussian"), DataDistribution("rademacher"), DataDistribution("student_t", df=5.0)]
)
def test_mc_covariance_matrix_equals_data_scaled_features(dist, centered):
    # the sketch carries H^(1/2), and Gaussian draws are d wide through its
    # QR factor: the same draws give the same covariance up to round-off
    cfg = RFConfig(
        v=40, d=16, m=simulate._BLOCK + 700, alpha=1.31, activation=Activation("monomial", 2),
        distribution=dist, seed=12, centered=centered,
    )
    got = simulate.mc_covariance_matrix(cfg)
    want = scaled_data_covariance(cfg)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "v, d, rows",
    [
        (40, 16, 4096), (160, 80, 4096), (174, 80, 4096), (175, 80, 2048), (200, 100, 2048),
        (300, 150, 2048), (400, 100, 2048), (800, 100, 1024), (600, 300, 1024), (800, 400, 682),
        (1000, 500, 512), (2000, 1500, 512), (2000, 2000, 512), (16000, 800, 512),
    ],
)
def test_block_rows_pinned(v, d, rows):
    assert simulate._block_rows(v, d) == rows


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 3000), extra=st.integers(0, 10**6))
@example(d=80, extra=80)
@example(d=400, extra=400)
@example(d=1024, extra=0)
def test_block_rows_hold_a_worker_within_the_chunk(d, extra):
    # a block's draw, features and d x d partial fit _CHUNK entries unless the
    # row floor binds, and the block is one of the fewest near-equal parts of
    # _BLOCK that fit
    v = d + extra
    rows = simulate._block_rows(v, d)

    def fits(r: int) -> bool:
        return r <= simulate._MIN_CHUNK_ROWS or r * (v + d) + d * d <= simulate._CHUNK

    assert simulate._MIN_CHUNK_ROWS <= rows <= simulate._BLOCK and fits(rows)
    parts = simulate._BLOCK // rows
    assert rows == simulate._BLOCK // parts  # near-equal parts of _BLOCK
    assert parts == 1 or not fits(-(-simulate._BLOCK // (parts - 1)))  # the fewest that fit


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("act", ["monomial:2", "monomial:3", "tanh"])
@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "student_t", "external"])
def test_chunked_blocks_keep_the_recipe(monkeypatch, dist, act, centered):
    # the chunk constants size the block plan: worker holdings of at most 700
    # rows split 4096 into six parts, so blocks are 682 rows and m = 9692 is
    # fourteen of them and a short 144-row last one, each one draw from its
    # own stream
    monkeypatch.setattr(simulate, "_CHUNK", 700 * (40 + 16) + 16 * 16)
    monkeypatch.setattr(simulate, "_MIN_CHUNK_ROWS", 1)
    m = 2 * simulate._BLOCK + 1500
    if dist == "external":
        law = DataDistribution("external", matrix=np.random.default_rng(3).standard_normal((m, 40)))
    else:
        law = DataDistribution(dist, df=5.0 if dist == "student_t" else None)
    cfg = RFConfig(
        v=40, d=16, m=m, alpha=1.31, activation=Activation.parse(act), distribution=law, seed=6,
        centered=centered,
    )
    assert simulate._block_rows(cfg.v, cfg.d) == 682
    want = scaled_data_covariance(cfg, rows=682)
    want_eig = spectral.sym_eigenvalues(want)
    sizes = []
    draw = DataDistribution.draw_unit
    monkeypatch.setattr(
        DataDistribution, "draw_unit", lambda self, rng, out: sizes.append(len(out)) or draw(self, rng, out)
    )
    mat = simulate.mc_covariance_matrix(cfg, threads=1)
    assert sizes == ([] if dist == "external" else [682] * 14 + [144])
    assert np.linalg.norm(mat - want) <= 1e-12 * np.linalg.norm(want)
    eig = simulate.mc_covariance(cfg, threads=1).eigenvalues
    assert np.max(np.abs(eig - want_eig)) <= 1e-12 * want_eig[0]
    for threads in (2, 3):
        assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=threads), mat)
        assert np.array_equal(simulate.mc_covariance(cfg, threads=threads).eigenvalues, eig)


def _worker_entries(v: int, d: int) -> int:
    """What one Monte Carlo worker holds: a block's draw and features, and a d x d partial."""
    return simulate._block_rows(v, d) * (v + d) + d * d


def test_mc_covariance_matrix_block_holds_one_v_wide_array():
    # a block is one 2048 x 400 draw (6.6 MB), not a 4096 x 400 one (13 MB);
    # scaling the draw would hold a second one
    cfg = RFConfig(v=400, d=100, m=20000, alpha=1.31, activation=Activation("monomial", 2), seed=1)
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=1))
    assert peak < 8 * (_worker_entries(cfg.v, cfg.d) + cfg.v * cfg.d) + 1_000_000, peak


def test_mc_covariance_matrix_workers_hold_one_v_wide_array_each():
    # ten blocks on two workers: at most two block draws are alive at once
    cfg = RFConfig(v=400, d=100, m=20000, alpha=1.31, activation=Activation("monomial", 2), seed=1)
    simulate.mc_covariance_matrix(cfg, threads=2)  # first-call imports (numpy.random) outside the trace
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=2))
    assert peak < 8 * (2 * _worker_entries(cfg.v, cfg.d) + cfg.v * cfg.d) + 1_000_000, peak


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_mc_covariance_dense_route_keeps_no_block_by_d_copy(threads, p):
    # m < d over three blocks takes the feature matrix: features go straight
    # into their rows of it, so the peak is that matrix, one 512 x 2000 block
    # draw per worker, the sketch and one 512 x 1500 boolean mask per worker
    # (the finiteness check of a block's features, which two workers may hold
    # at once), plus 1 MB slack; a kept block x d copy would add 6 MB
    cfg = RFConfig(v=2000, d=1500, m=1200, alpha=1.31, activation=Activation("monomial", p), seed=2)
    assert cfg.m < cfg.d and cfg.m > simulate._block_rows(cfg.v, cfg.d)
    simulate.mc_covariance(cfg, threads=threads)  # first-call imports (numpy.random) outside the trace
    peak = _traced_peak(lambda: simulate.mc_covariance(cfg, threads=threads))
    rows = simulate._block_rows(cfg.v, cfg.d)
    bound = 8 * (cfg.m * cfg.d + threads * rows * cfg.v + cfg.v * cfg.d) + threads * rows * cfg.d + 1_000_000
    assert peak < bound, (peak, bound)


def test_mc_covariance_past_one_block_holds_no_feature_matrix():
    # the benchmark's size, fifteen 682-row blocks on two workers: the peak is
    # the workers' holdings, two d x d arrays (the sum and an arriving partial)
    # and the sketch, plus 1 MB slack (21.8 MB); the m x d feature matrix alone
    # is 32 MB
    cfg = RFConfig(v=800, d=400, m=10**4, alpha=1.31, activation=Activation("monomial", 2), seed=2)
    peak = _traced_peak(lambda: simulate.mc_covariance(cfg, threads=2))
    bound = 8 * (2 * _worker_entries(cfg.v, cfg.d) + 2 * cfg.d * cfg.d + cfg.v * cfg.d) + 1_000_000
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_slots_are_sized_to_the_run(threads):
    # m = 150 samples of a 4096-row block plan: a worker's slot holds 150 rows,
    # so the peak is the draw, the features and the sketch (plus the sum and
    # the partial on the blockwise route); a 4096-row draw buffer alone is 5.2 MB
    cfg = RFConfig(v=160, d=80, m=150, alpha=1.31, activation=Activation("monomial", 3), seed=2)
    assert cfg.m < simulate._block_rows(cfg.v, cfg.d)
    simulate.mc_covariance(cfg, threads=threads)  # first-call set-up outside the trace
    bound = 8 * (cfg.m * (cfg.v + cfg.d) + cfg.v * cfg.d) + 250_000
    peak = _traced_peak(lambda: simulate.mc_covariance(cfg, threads=threads))
    assert peak < bound, (peak, bound)
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=threads))
    assert peak < bound + 8 * 2 * cfg.d * cfg.d, (peak, bound)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_mc_blocks_reuse_one_slot_per_worker(monkeypatch, threads):
    # fifteen 682-row blocks: block b draws into slot b mod workers, so every
    # draw lands in one of `workers` draw buffers and every partial in one of
    # `workers` d x d arrays, all owned by the run; block b + workers starts
    # only once the consumer has summed block b's partial, so the sum equals
    # one taken over copies of the partials
    cfg = RFConfig(v=800, d=400, m=10**4, alpha=1.31, activation=Activation("monomial", 3), seed=5)
    workers = simulate.mc_worker_count(cfg.m, cfg.v, cfg.d, threads)
    draws, partials = [], []
    draw = DataDistribution.draw_unit
    monkeypatch.setattr(
        DataDistribution, "draw_unit", lambda self, rng, out: draws.append(out.base) or draw(self, rng, out)
    )
    sample_blocks = simulate._sample_blocks

    def spied(cfg, threads, reduce):
        def spy(F, partial):
            partials.append(partial)
            return reduce(F, partial)

        return sample_blocks(cfg, threads, spy)

    monkeypatch.setattr(simulate, "_sample_blocks", spied)
    eig = simulate.mc_covariance(cfg, threads=threads).eigenvalues
    assert len(draws) == len(partials) == 15
    for held in (draws, partials):  # the lists keep every array alive, so ids are unique
        assert all(a is not None for a in held)
        assert len({id(a) for a in held}) <= workers

    def copied(cfg, threads, reduce):
        for Gb, mu in sample_blocks(cfg, threads, reduce):
            yield Gb.copy(), mu

    monkeypatch.setattr(simulate, "_sample_blocks", copied)
    assert np.array_equal(simulate.mc_covariance(cfg, threads=threads).eigenvalues, eig)


@pytest.mark.parametrize("threads", [2, 3])
def test_mc_run_closed_early_or_failing_returns_and_restores_blas(within, threads):
    # five blocks: closing the run after its first block, or a block that
    # fails while others are in flight, waits for the blocks in flight, each
    # in its own slot b mod workers, and puts back the caller's BLAS setting
    cfg = RFConfig(v=300, d=150, m=9000, alpha=1.31, activation=Activation("monomial", 3), seed=8)
    assert -(-cfg.m // simulate._block_rows(cfg.v, cfg.d)) == 5
    before = None if _BLAS_CALLS is None else _blas_threads()
    want = simulate.mc_covariance_matrix(cfg, threads=threads)
    X = np.ones((cfg.m, cfg.v))
    X[2500, 3] = np.inf  # in the second block
    failing = dataclasses.replace(cfg, distribution=DataDistribution("external", matrix=X))

    def reduce(F, partial):
        return np.matmul(F.T, F, out=partial)

    with within(60):
        run = simulate._sample_blocks(cfg, threads, reduce)
        next(run)
        run.close()
        if before is not None:
            assert _blas_threads() == before
        with pytest.raises(InvalidInput, match="sample index 2500"):
            for _ in simulate._sample_blocks(failing, threads, reduce):
                pass
        if before is not None:
            assert _blas_threads() == before
        assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=threads), want)


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("act", ["monomial:2", "monomial:3", "tanh"])
@pytest.mark.parametrize(
    "dist", [DataDistribution("gaussian"), DataDistribution("rademacher"), DataDistribution("student_t", df=5.0)]
)
def test_mc_results_do_not_depend_on_the_thread_count(dist, act, centered):
    # three blocks, the last one short; None is the usable cpu count
    cfg = RFConfig(
        v=40, d=16, m=2 * simulate._BLOCK + 700, alpha=1.31, activation=Activation.parse(act),
        distribution=dist, seed=8, centered=centered,
    )
    eig = simulate.mc_covariance(cfg, threads=1).eigenvalues
    mat = simulate.mc_covariance_matrix(cfg, threads=1)
    for threads in (None, 2, 3):
        assert np.array_equal(simulate.mc_covariance(cfg, threads=threads).eigenvalues, eig)
        assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=threads), mat)


@pytest.mark.parametrize("v, d, m", [(300, 150, 5000), (800, 100, 3000)])
@pytest.mark.parametrize("dist", ["gaussian", "student_t", "rademacher", "external"])
def test_mc_results_do_not_depend_on_the_thread_count_in_short_blocks(dist, v, d, m):
    # three blocks of 2048 or 1024 rows at their real size, the last one short
    if dist == "external":
        law = DataDistribution("external", matrix=np.random.default_rng(5).standard_normal((m, v)))
    else:
        law = DataDistribution(dist, df=5.0 if dist == "student_t" else None)
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), distribution=law, seed=8)
    assert -(-m // simulate._block_rows(v, d)) == 3
    eig = simulate.mc_covariance(cfg, threads=1).eigenvalues
    mat = simulate.mc_covariance_matrix(cfg, threads=1)
    for threads in (2, 3):
        assert np.array_equal(simulate.mc_covariance(cfg, threads=threads).eigenvalues, eig)
        assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=threads), mat)


def test_default_thread_count_is_the_usable_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        limit = simulate._cgroup_cpu_limit()
        cpus = len(os.sched_getaffinity(0))
        assert simulate._usable_cpu_count() == (cpus if limit is None else max(1, min(cpus, limit)))
    seen = []

    def no_blocks(fn, items, threads):  # a generator, as the run closes it
        seen.append(threads)
        yield from ()

    monkeypatch.setattr(simulate, "_ordered_map", no_blocks)
    monkeypatch.setattr(simulate, "_usable_cpu_count", lambda: 7)
    act = Activation("monomial", 1)
    for m in (10 * simulate._BLOCK, 3 * simulate._BLOCK):
        simulate.mc_covariance_matrix(RFConfig(v=40, d=16, m=m, alpha=1.31, activation=act))
    assert seen == [7, 3]  # never more workers than blocks
    assert [simulate.mc_worker_count(m, 40, 16) for m in (10 * simulate._BLOCK, 3 * simulate._BLOCK)] == seen


def test_worker_count_holds_block_draws_to_the_dense_cap():
    # every worker holds a block's draw and features (682 x (v + d) at
    # (800, 400), 512 x (v + d) at the others) and a d x d partial: their
    # entries stay within the cap
    m, cap = 100 * simulate._BLOCK, simulate._WORKER_ENTRY_CAP
    shapes = ((800, 400), (2000, 1000), (16000, 800), (20000, 2000), (10**6, 10))
    counts = [simulate.mc_worker_count(m, v, d, threads=64) for v, d in shapes]
    assert counts == [51, 19, 5, 3, 1]
    for (v, d), workers in zip(shapes, counts):
        held = _worker_entries(v, d)
        assert workers == 1 or workers * held <= cap < (workers + 1) * held
    assert simulate.mc_worker_count(m, 800, 400, threads=2) == 2  # the benchmark's jobs
    assert simulate.mc_worker_count(10**4, 800, 400, threads=64) == 15  # fifteen 682-row blocks
    with pytest.raises(InvalidInput, match="threads"):
        simulate.mc_worker_count(m, 800, 400, threads=0)


@pytest.mark.parametrize("v, d, m, rows, workers", [(160, 80, 4000, "4096", "1"), (800, 400, 10**4, "682", "2")])
def test_mc_covariance_meta_names_the_plan_that_ran(v, d, m, rows, workers):
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), seed=2)
    meta = simulate.mc_covariance(cfg, threads=2).meta
    assert (meta["block_rows"], meta["workers"]) == (rows, workers)


def test_workers_past_the_dense_cap_hold_one_draw(monkeypatch):
    # a cap of one worker's holdings leaves one worker whatever threads asks
    # for; such a run keeps the caller's BLAS threads, so `want` is taken
    # under the same cap
    cfg = RFConfig(v=400, d=100, m=20000, alpha=1.31, activation=Activation("monomial", 2), seed=1)
    monkeypatch.setattr(simulate, "_WORKER_ENTRY_CAP", _worker_entries(cfg.v, cfg.d))
    want = simulate.mc_covariance_matrix(cfg, threads=1)
    assert simulate.mc_worker_count(cfg.m, cfg.v, cfg.d, threads=4) == 1
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=4))
    assert peak < 8 * (_worker_entries(cfg.v, cfg.d) + cfg.v * cfg.d) + 1_000_000, peak
    assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=4), want)


def _cgroup_tree(tmp_path, listing: str, files: dict) -> tuple[str, str]:
    """A fake /proc/self/cgroup holding `listing` and a cgroup mount with `files`."""
    proc = tmp_path / "cgroup"
    proc.write_text(listing)
    root = tmp_path / "fs"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(proc), str(root)


@pytest.mark.parametrize(
    "listing, files, want",
    [
        ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),  # v2: ceil(1.5)
        ("0::/job\n", {"job/cpu.max": "max 100000\n"}, None),
        ("0::/\n", {"unified/cpu.max": "300000 100000\n"}, 3),  # hybrid mount
        ("0::/job\n", {"job/cpu.max": "20000 100000\n"}, 1),  # a fraction of a cpu is one
        # v1 with the host's path listed: the quota sits at the mount's top
        (
            "4:cpu,cpuacct:/docker/abc\n3:memory:/docker/abc\n",
            {"cpu,cpuacct/cpu.cfs_quota_us": "250000\n", "cpu,cpuacct/cpu.cfs_period_us": "100000\n"},
            3,
        ),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        (
            "1:cpu:/\n0::/\n",
            {"cpu/cpu.cfs_quota_us": "400000", "cpu/cpu.cfs_period_us": "100000", "cpu.max": "200000 100000"},
            2,  # the smallest quota wins
        ),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "50000\n"}, None),  # no period file
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "lots", "cpu/cpu.cfs_period_us": "100000"}, None),
        ("0::/job\n", {"job/cpu.max": "150000\n"}, None),
        ("garbage\n", {"cpu.max": "100000 100000"}, None),
        ("3:memory:/x\n", {}, None),
    ],
)
def test_cgroup_cpu_quota(tmp_path, listing, files, want):
    assert simulate._cgroup_cpu_limit(*_cgroup_tree(tmp_path, listing, files)) == want


def test_cgroup_cpu_quota_without_a_cgroup_listing(tmp_path):
    assert simulate._cgroup_cpu_limit(str(tmp_path / "missing"), str(tmp_path)) is None


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no cpu affinity call")
@pytest.mark.parametrize("limit", [None, 1, 10**6])
def test_usable_cpu_count_is_capped_by_the_cgroup_quota(monkeypatch, limit):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(simulate, "_cgroup_cpu_limit", lambda: limit)
    assert simulate._usable_cpu_count() == (cpus if limit is None else min(cpus, limit))


# ---------------------------------------------------------------------------
# the BLAS thread budget of Monte Carlo sampling

_BLAS_CALLS = simulate._openblas_thread_calls()
needs_openblas = pytest.mark.skipif(_BLAS_CALLS is None, reason="numpy's BLAS is not OpenBLAS")


def _blas_threads() -> int:
    return _BLAS_CALLS[0]()


@pytest.fixture
def caller_blas_threads():
    """The caller's OpenBLAS thread count set to 2 for the test, then put back."""
    get, put = _BLAS_CALLS
    before = get()
    put(2)
    try:
        yield 2
    finally:
        put(before)


def _three_block_cfg(seed: int = 8, dist: DataDistribution = DataDistribution("gaussian")) -> RFConfig:
    return RFConfig(v=300, d=150, m=5000, alpha=1.31, activation=Activation("monomial", 2), distribution=dist, seed=seed)


def test_openblas_thread_calls_found_when_numpy_uses_openblas():
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy reports no BLAS build configuration")
    if "openblas" not in name.lower():
        pytest.skip(f"numpy's BLAS is {name}")
    assert _BLAS_CALLS is not None


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_mc_block_work_runs_on_one_blas_thread(caller_blas_threads, threads):
    seen = list(simulate._sample_blocks(_three_block_cfg(), threads, lambda F, partial: _blas_threads()))
    assert seen == [1, 1, 1]
    assert _blas_threads() == caller_blas_threads


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_mc_runs_of_one_worker_keep_the_callers_blas_threads(monkeypatch, caller_blas_threads, threads):
    # one block, or a worker cap of one worker's holdings: no `threads` gives
    # a second worker, so nothing is pinned
    one_block = RFConfig(v=300, d=150, m=2000, alpha=1.31, activation=Activation("monomial", 2), seed=8)
    seen = list(simulate._sample_blocks(one_block, threads, lambda F, partial: _blas_threads()))
    assert seen == [caller_blas_threads]
    cfg = _three_block_cfg()
    monkeypatch.setattr(simulate, "_WORKER_ENTRY_CAP", 2 * _worker_entries(cfg.v, cfg.d) - 1)
    seen = list(simulate._sample_blocks(cfg, threads, lambda F, partial: _blas_threads()))
    assert seen == [caller_blas_threads] * 3
    assert _blas_threads() == caller_blas_threads


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_mc_blas_threads_restored_after_a_run(caller_blas_threads, threads):
    simulate.mc_covariance(_three_block_cfg(), threads=threads)
    assert _blas_threads() == caller_blas_threads
    simulate.mc_covariance_matrix(_three_block_cfg(), threads=threads)
    assert _blas_threads() == caller_blas_threads


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_mc_blas_threads_restored_after_a_non_finite_block(caller_blas_threads, threads):
    X = np.ones((5000, 300))
    X[4990, 3] = np.inf  # in the last of three blocks
    cfg = _three_block_cfg(dist=DataDistribution("external", matrix=X))
    with pytest.raises(InvalidInput, match="sample index 4990"):
        simulate.mc_covariance(cfg, threads=threads)
    assert _blas_threads() == caller_blas_threads


@needs_openblas
def test_mc_blas_threads_restored_after_concurrent_runs(caller_blas_threads, within):
    # more sampling threads than cores: 4 Python threads of 2 workers each
    cfgs = [_three_block_cfg(seed) for seed in range(4)]
    want = [simulate.mc_covariance(cfg, threads=1).eigenvalues for cfg in cfgs]
    got = [None] * len(cfgs)

    def run(i):
        got[i] = simulate.mc_covariance(cfgs[i], threads=2).eigenvalues

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with within(120):
            runners = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for t in runners:
                t.start()
            for t in runners:
                t.join(timeout=100)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in runners)
    for a, b in zip(got, want):  # an eigensolve may overlap another run's sampling
        assert np.max(np.abs(a - b)) <= 1e-12 * b[0]
    assert _blas_threads() == caller_blas_threads


def test_blas_budget_holds_one_thread_while_any_run_is_inside(within):
    state = {"threads": 4, "lookups": 0}

    def lookup():
        state["lookups"] += 1
        return (lambda: state["threads"]), (lambda n: state.update(threads=n))

    budget = simulate._BlasBudget(lookup)
    seen = []

    def run():
        for _ in range(300):
            with budget:
                seen.append(state["threads"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with within(60):
            runners = [threading.Thread(target=run) for _ in range(8)]
            for t in runners:
                t.start()
            for t in runners:
                t.join(timeout=50)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in runners)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert state == {"threads": 4, "lookups": 1}
    with pytest.raises(RuntimeError):
        with budget:
            raise RuntimeError
    assert state["threads"] == 4


def test_mc_runs_when_no_blas_thread_call_is_found(monkeypatch):
    cfg = _three_block_cfg()
    want = simulate.mc_covariance(cfg, threads=2).eigenvalues
    before = None if _BLAS_CALLS is None else _blas_threads()
    monkeypatch.setattr(simulate, "_BLAS_BUDGET", simulate._BlasBudget(lambda: None))
    got = simulate.mc_covariance(cfg, threads=2).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
    if _BLAS_CALLS is not None:  # nothing was pinned
        assert list(simulate._sample_blocks(cfg, 2, lambda F, partial: _blas_threads())) == [before] * 3
        assert _blas_threads() == before


@needs_openblas
def test_mc_covariance_matrix_bytes_do_not_depend_on_the_callers_blas_threads():
    code = (
        "import hashlib; from plrf.simulate import Activation, RFConfig, mc_covariance_matrix; "
        "cfg = RFConfig(v=300, d=150, m=5000, alpha=1.31, activation=Activation('monomial', 2), seed=20260); "
        "print(hashlib.sha256(mc_covariance_matrix(cfg).tobytes()).hexdigest())"
    )
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    digests = set()
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        digests.add(done.stdout)
    assert len(digests) == 1, digests


@pytest.mark.parametrize("centered", [False, True])
def test_mc_covariance_matrix_tail_holds_two_d_by_d_arrays(monkeypatch, centered):
    # the partial sums arrive untraced: the tail holds the sum G, scaled in
    # place, and when centered one more d x d array (the mean's scatter)
    cfg = RFConfig(v=500, d=500, m=100, alpha=1.31, activation=Activation("monomial", 2), seed=1, centered=centered)
    want = simulate.mc_covariance_matrix(cfg, threads=1)
    sample_blocks, parts = simulate._sample_blocks, []

    def replay(cfg, threads, reduce):  # the partials, taken once as the run takes them
        if not parts:
            parts.extend(sample_blocks(cfg, threads, reduce))
        return iter(parts)

    monkeypatch.setattr(simulate, "_sample_blocks", replay)
    simulate.mc_covariance_matrix(cfg, threads=1)
    peak = _traced_peak(lambda: simulate.mc_covariance_matrix(cfg, threads=1))
    assert peak < (2.2 if centered else 1.2) * cfg.d * cfg.d * 8, peak
    assert np.array_equal(simulate.mc_covariance_matrix(cfg, threads=1), want)


# one block (v = 160) and three (v = 300, m = 9000), each at one and two workers
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("v, d, m", [(160, 80, 4000), (300, 150, 9000)])
@pytest.mark.parametrize("centered", [False, True])
def test_mc_covariance_matrix_is_exactly_symmetric(centered, v, d, m, threads):
    # every block partial F'F is one symmetric rank-k update, so the sum
    # needs no symmetrization
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("tanh"), seed=3, centered=centered)
    C = simulate.mc_covariance_matrix(cfg, threads)
    assert np.array_equal(C, C.T)


# the one-block route, the m < d route and the blockwise route
@pytest.mark.parametrize("v, d, m", [(160, 80, 4000), (300, 200, 150), (300, 150, 9000)])
@pytest.mark.parametrize("centered", [False, True])
def test_mc_covariance_hands_the_eigensolver_an_exactly_symmetric_block_sum(monkeypatch, centered, v, d, m):
    solve, handed = spectral.sym_eigenvalues, []

    def record(M):
        handed.append(M.copy())
        return solve(M)

    monkeypatch.setattr(spectral, "sym_eigenvalues", record)
    monkeypatch.setattr(simulate, "sym_eigenvalues", record)
    cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), seed=4, centered=centered)
    simulate.mc_covariance(cfg, threads=2)
    (M,) = handed
    assert M.shape == (min(m, d),) * 2
    assert np.array_equal(M, M.T)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(1, 1), (7, 20), (20, 7), (129, 65), (65, 129), (4096, 80), (300, 301)])
def test_gram_of_contiguous_mc_block_features_is_exactly_symmetric(shape, order):
    F = np.asarray(np.random.default_rng(7).standard_normal(shape), order=order)
    for G in (F.T @ F, F @ F.T):
        assert np.array_equal(G, G.T)


# sha256 of the little-endian float64 output (eigenvalues of mc_covariance,
# then the mc_covariance_matrix entries) at threads=1, recorded with data
# blocks drawn from SFC64 and centered matrices summed from moments about
# each block's mean; keys are (law, activation, v, m, centered) at d = 80.
# m <= 4096 is one block under every block plan so far, so these bits move
# only with the data stream's recipe or the centered reduction.  The
# Gaussian v = 160 key takes the factor route (re-recorded when Gaussian
# blocks were first drawn d wide through R); the v = d one keeps the v-wide
# draw and its bits.  numpy picks
# its SIMD loops and OpenBLAS its GEMM and
# eigensolver kernels by CPU, so the digests are compared only on the build
# they were recorded on (`_GOLDEN_BUILD`); elsewhere
# `test_one_block_output_is_the_single_draw_recipe` checks the same recipe.
_ONE_BLOCK_GOLDEN = {
    ("gaussian", "monomial:2", 80, 4096, False): (
        "c87abb6f64b83ec763bf56b8e7379a47095f265d12fe36bd2ab653a3749517ee",
        "a5bdc63daef911ab546d2e450a3b726cdb76621b8f41b6066242ca0b19c92806",
    ),
    ("gaussian", "monomial:3", 160, 4096, False): (
        "9b5dd510c952136d2b14c4c949a09b2618de9dfbf1120104c9775b130ed9bda2",
        "8a1cf005db988f857b4365bc26a87b95fb1722d391174f72a501f4816a7bf2fb",
    ),
    ("student_t", "monomial:2", 160, 4000, True): (
        "c1c623543fa99c43f1f88eb76ee3f2aaff57909544c85ce9228bddfcc07eea58",
        "8192247ffb145abf074b419515f29524989c097cc141a1ba3c1e475ffdf824e9",
    ),
    ("rademacher", "tanh", 160, 4096, True): (
        "8f0e11c57c2bfc18209288f8d904b0dc061d0290e256ff35bc279de93c8b7473",
        "c66548623fab4ca98cbb3899cdb97a356e13aca1f6d53e9e87ad2d9f037e7cc8",
    ),
}


def _one_block_cfg(dist: str, act: str, v: int, m: int, centered: bool) -> RFConfig:
    law = DataDistribution("student_t", df=10.0) if dist == "student_t" else DataDistribution(dist)
    return RFConfig(
        v=v, d=80, m=m, alpha=1.31, activation=Activation.parse(act), distribution=law,
        seed=20260, centered=centered,
    )


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(a, dtype="<f8").tobytes()).hexdigest()


@golden_build_only
@pytest.mark.parametrize("key", sorted(_ONE_BLOCK_GOLDEN))
def test_one_block_output_bits_pinned(key):
    cfg = _one_block_cfg(*key)
    got = (_sha(simulate.mc_covariance(cfg).eigenvalues), _sha(simulate.mc_covariance_matrix(cfg)))
    assert got == _ONE_BLOCK_GOLDEN[key]


# sha256 of the little-endian float64 eigenvalues of mc_covariance, then the
# mc_covariance_matrix entries, at the benchmark's size: fifteen 682-row
# blocks summed as d x d partials.  Recorded on `_GOLDEN_BUILD` before each
# worker kept one scratch slot per run, with the eigensolve on two BLAS
# threads (at one it rounds differently; the matrix bits do not depend on the
# caller's BLAS setting).  These bits move with the block plan, the data
# streams, the blockwise reduction or how a block is drawn, multiplied and
# activated.  The Gaussian key takes the factor route, and was re-recorded
# when Gaussian blocks were first drawn d wide through R.
_BLOCKWISE_GOLDEN = {
    ("gaussian", "monomial:2", False): (
        "1eb68ddf87b5c3286c568922cdb1b891f466ae7ee27b3c30bcf8999324ca8669",
        "03abe904223e7224e34180a9871d1be521a7097c91ef96d9d010667ff0f4af4b",
    ),
    ("student_t", "monomial:3", False): (
        "0f064c664dc0797ba87146898a1be7851592317a052e682ada76d425ccb06ee5",
        "c6c6be5112a526a0b4501b88ad2596872cbe9900d0caaa0a267ed63b32b1f64e",
    ),
    ("rademacher", "monomial:3", True): (
        "e91cfe06b5b8e08135b52a952a73a2d879d3446fb2ae976c45af8bb0bff9d6b1",
        "caea2a98d74cfb26e47e19e9dd87557d83804af43f72e4d7eb3ab791352d0023",
    ),
}


@golden_build_only
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("key", sorted(_BLOCKWISE_GOLDEN))
def test_mc_blockwise_output_bits_pinned(caller_blas_threads, key, threads):
    dist, act, centered = key
    cfg = dataclasses.replace(_one_block_cfg(dist, act, 800, 10**4, centered), d=400)
    assert -(-cfg.m // simulate._block_rows(cfg.v, cfg.d)) == 15
    got = (
        _sha(simulate.mc_covariance(cfg, threads=threads).eigenvalues),
        _sha(simulate.mc_covariance_matrix(cfg, threads=threads)),
    )
    assert got == _BLOCKWISE_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(_ONE_BLOCK_GOLDEN))
def test_one_block_output_is_the_single_draw_recipe(key):
    # one draw from stream (seed, data, 0), v wide, one product with the
    # H^(1/2)-scaled sketch, a fresh activated array, then the Gram trick; on
    # the Gaussian factor route the draw is d wide and the product is with
    # the sketch's QR factor R.  The Gaussian keys lie on both sides of the
    # rule: v = 160 takes the factor, v = d does not
    cfg = _one_block_cfg(*key)
    M = _draw_matrix(cfg)
    U = cfg.distribution.draw_unit(simulate._stream(cfg.seed, simulate._DATA, 0), np.empty((cfg.m, M.shape[0])))
    F = cfg.activation.apply(U @ M)
    if cfg.centered:
        F = F - F.mean(axis=0)
    want = spectral.gram_spectrum(F, cfg.feature_scale / cfg.m)
    assert simulate.mc_covariance(cfg).eigenvalues.tobytes() == want.tobytes()


def test_mc_covariance_centered_subtracts_mean():
    cfg = RFConfig(
        v=30, d=15, m=4000, alpha=1.31, activation=Activation("relu"), seed=5, centered=True
    )
    assert simulate._gaussian_factor(cfg.v, cfg.d, cfg.m)
    mat = simulate.mc_covariance_matrix(cfg)
    # recompute from raw blocks, d-wide draws through the factor R: centered second moment
    rng = simulate._stream(cfg.seed, simulate._DATA, 0)
    F = Activation("relu").apply(rng.standard_normal((cfg.m, cfg.d)) @ _draw_matrix(cfg))
    Fc = F - F.mean(axis=0)
    want = (Fc.T @ Fc / cfg.m) / cfg.d
    assert np.allclose(mat, (want + want.T) / 2, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("block", [simulate._BLOCK, 4])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "student_t"])
def test_centered_mc_covariance_matrix_is_accurate_to_round_off(monkeypatch, law, block):
    # monomial:2 features have a mean larger than their spread, so a centered
    # covariance taken as E[ff'] - mu mu' loses digits (an error of 1.8e-15 to
    # 1.1e-14 of the top eigenvalue here); moments about each block's mean
    # keep it at round-off, as the centered feature matrix has it.  Blocks of
    # 4 rows add their mean differences in batches of 4, the last of 2
    monkeypatch.setattr(simulate, "_BLOCK", block)
    dist = DataDistribution(law, df=10.0 if law == "student_t" else None)
    raw = RFConfig(v=200, d=60, m=5000, alpha=1.31, activation=Activation("monomial", 2), distribution=dist, seed=3)
    cfg = dataclasses.replace(raw, centered=True)
    P = _stacked_features(raw).astype(np.longdouble)
    P -= P.mean(axis=0)
    want = P.T @ P / cfg.m / cfg.d
    top = np.linalg.eigvalsh(want.astype(float))[-1]
    for threads in (1, 2):
        got = simulate.mc_covariance_matrix(cfg, threads=threads)
        assert np.linalg.norm((got - want).astype(float), 2) <= 8e-16 * top


def test_mc_covariance_external_distribution():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((300, 20))
    cfg = RFConfig(
        v=20,
        d=10,
        m=300,
        alpha=1.31,
        activation=Activation("monomial", 1),
        distribution=DataDistribution("external", matrix=data),
        seed=7,
    )
    est = simulate.mc_covariance(cfg)
    W = simulate.sample_sketch(20, 10, 7)
    want = spectral.gram_spectrum(data @ W, 1.0 / (300 * 10))
    assert np.allclose(est.eigenvalues, want, rtol=1e-10)
    bad = RFConfig(
        v=20,
        d=10,
        m=500,
        alpha=1.31,
        activation=Activation("monomial", 1),
        distribution=DataDistribution("external", matrix=data),
        seed=7,
    )
    with pytest.raises(ValueError, match="external"):
        simulate.mc_covariance(bad)


def test_mc_covariance_refuses_short_external_data_before_drawing_the_sketch(monkeypatch):
    data = np.random.default_rng(6).standard_normal((300, 20))
    cfg = RFConfig(
        v=20,
        d=10,
        m=500,
        alpha=1.31,
        activation=Activation("monomial", 1),
        distribution=DataDistribution("external", matrix=data),
        seed=7,
    )

    def no_sketch(*args):
        raise AssertionError(f"sketch drawn before the data check: {args}")

    monkeypatch.setattr(simulate, "sample_sketch", no_sketch)
    with pytest.raises(InvalidInput, match="external"):
        simulate.mc_covariance(cfg)


def test_mc_covariance_nonfinite_names_sample():
    data = np.ones((200, 4))
    data[137] = 1e200  # overflows under squaring
    cfg = RFConfig(
        v=4,
        d=4,
        m=200,
        alpha=1.31,
        activation=Activation("monomial", 2),
        distribution=DataDistribution("external", matrix=data),
        seed=0,
    )
    with pytest.raises(ValueError, match="sample index 137"):
        simulate.mc_covariance(cfg)


def test_rfconfig_validation():
    with pytest.raises(ValueError):
        RFConfig(v=5, d=10, m=100, alpha=1.31, activation=Activation("tanh"))
    with pytest.raises(ValueError):
        RFConfig(v=10, d=10, m=100, alpha=0.9, activation=Activation("tanh"))
    cfg = RFConfig(v=10, d=5, m=100, alpha=1.31, activation=Activation("tanh"))
    assert cfg.feature_scale == pytest.approx(0.2)
    with pytest.raises(ValueError, match="m >= 100"):
        RFConfig(v=10, d=5, m=99, alpha=1.31, activation=Activation("tanh"))


def test_rfconfig_coerces_numpy_scalars():
    cfg = RFConfig(v=np.int64(60), d=np.int64(30), m=np.int64(500), alpha=np.float64(1.31),
                   activation=Activation("monomial", 1), seed=np.int64(11))
    for name, kind in (("v", int), ("d", int), ("m", int), ("seed", int), ("alpha", float)):
        assert type(getattr(cfg, name)) is kind
    assert simulate.mc_covariance(cfg).meta["alpha"] == "1.31"


def test_mc_to_exact_error_shrinks_with_samples():
    v, d = 60, 30
    H = PowerLawSpectrum(1.31, v)
    errs = []
    for m in (1000, 4000, 16000):
        med = []
        for seed in (1, 2, 3):
            cfg = RFConfig(v=v, d=d, m=m, alpha=1.31, activation=Activation("monomial", 2), seed=seed)
            W = simulate.sample_sketch(v, d, seed)
            exact = simulate.exact_population_covariance(W, H, 2)
            mc = simulate.mc_covariance_matrix(cfg)
            med.append(np.linalg.norm(mc - exact) / np.linalg.norm(exact))
        errs.append(np.median(med))
    assert errs[2] < errs[1] < errs[0]


# ---------------------------------------------------------------------------
# exact population covariance


def test_exact_population_covariance_linear():
    v, d = 40, 20
    H = PowerLawSpectrum(1.31, v)
    W = simulate.sample_sketch(v, d, 0)
    K = simulate.exact_population_covariance(W, H, 1)
    want = W.T @ np.diag(H.eigenvalues) @ W / d
    assert np.allclose(K, (want + want.T) / 2, rtol=1e-12, atol=1e-15)


def test_exact_population_covariance_quadratic_diagonal():
    v, d = 30, 10
    H = PowerLawSpectrum(2.0, v)
    W = simulate.sample_sketch(v, d, 1)
    K = simulate.exact_population_covariance(W, H, 2)
    Y = np.sqrt(H.eigenvalues)[:, None] * W
    norms = np.sum(Y * Y, axis=0)
    assert np.allclose(np.diag(K), 3.0 * norms**2 / d, rtol=1e-12)


def test_exact_population_covariance_zero_sketch():
    H = PowerLawSpectrum(1.31, 8)
    K = simulate.exact_population_covariance(np.zeros((8, 4)), H, 3)
    assert np.array_equal(K, np.zeros((4, 4)))


def test_exact_population_covariance_matches_kernel_entries():
    from plrf.combinatorics import kernel_pair_value

    v, d = 15, 6
    H = PowerLawSpectrum(1.31, v)
    W = simulate.sample_sketch(v, d, 3)
    Y = np.sqrt(H.eigenvalues)[:, None] * W
    for p in range(1, 7):  # up to the exact kernel's cap
        K = simulate.exact_population_covariance(W, H, p)
        for i in (0, 2, 5):
            for j in (1, 4):
                want = kernel_pair_value(Y[:, i], Y[:, j], p) / d
                assert K[i, j] == pytest.approx(want, rel=1e-10)


def kernel_by_whole_terms(W, H, p):
    """The exact kernel with every term a fresh d x d array: the reference for the row-block build."""
    Y = np.sqrt(H.eigenvalues)[:, None] * W
    G = Y.T @ Y
    nrm = np.diag(G).copy()
    outer = np.outer(nrm, nrm)
    K = np.zeros_like(G)
    for q, cnt in sorted(pairing_class_counts(p).counts.items()):
        term = cnt
        if q < p:
            term = term * simulate._int_power(outer, (p - q) // 2)
        if q:
            term = term * simulate._int_power(G, q)
        K += term
    K /= G.shape[0]
    return (K + K.T) / 2.0


@pytest.mark.parametrize("block", [None, 7, 120])  # None: the module's block size
@pytest.mark.parametrize("p", range(1, 7))
def test_exact_population_covariance_bytes_are_the_whole_term_formula(monkeypatch, p, block):
    if block is not None:  # 7 <= d gives one-row blocks; 120 leaves a short last block at d = 30
        monkeypatch.setattr(simulate, "_KERNEL_BLOCK", block)
    for v, d, seed in ((9, 7, 0), (40, 30, 1), (700, 600, 2)):
        if block is not None and d > 30:
            continue
        H = PowerLawSpectrum(1.31, v)
        W = simulate.sample_sketch(v, d, seed)
        for sketch in (W, np.zeros((v, d)), -W):
            got = simulate.exact_population_covariance(sketch, H, p)
            assert got.tobytes() == kernel_by_whole_terms(sketch, H, p).tobytes()


@pytest.mark.parametrize("block", [None, 7, 120])  # None: the module's block size
@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_exact_kernel_is_exactly_symmetric_row_block_by_row_block(monkeypatch, p, block):
    # K_ij is built from G_ij = G_ji and the product of two diagonal entries
    if block is not None:
        monkeypatch.setattr(simulate, "_KERNEL_BLOCK", block)
    v, d = 70, 45
    W = simulate.sample_sketch(v, d, 5)
    K = simulate.exact_population_covariance(W, PowerLawSpectrum(1.31, v), p)
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_exact_population_covariance_holds_two_d_by_d_arrays(p):
    # beyond the caller's W: the scaled sketch and G during the product, which
    # becomes K, plus a few row blocks of scratch (the whole-term build held
    # six or seven d x d arrays)
    v = d = 800
    H = PowerLawSpectrum(1.31, v)
    W = simulate.sample_sketch(v, d, 4)
    peak = _traced_peak(lambda: simulate.exact_population_covariance(W, H, p))
    bound = 8 * (2 * d * d + 4 * simulate._KERNEL_BLOCK)
    assert peak < bound, (peak, bound)


def test_exact_population_covariance_validation():
    H = PowerLawSpectrum(1.31, 10)
    W = np.zeros((10, 5))
    with pytest.raises(ValueError):
        simulate.exact_population_covariance(W, H, 7)
    with pytest.raises(ValueError):
        simulate.exact_population_covariance(np.zeros((9, 5)), H, 2)


# ---------------------------------------------------------------------------
# iterated sketches


class _IdentityDraws:
    """A stand-in stage stream whose n x n "Gaussian" draw is sqrt(n) * I."""

    def standard_normal(self, shape):
        n, k = shape
        assert n == k
        return math.sqrt(n) * np.eye(n)


def test_iterated_sketch_identity_mode(monkeypatch):
    # with W_t = sqrt(d_t) I every square stage reproduces its input exactly
    monkeypatch.setattr(simulate, "_stream", lambda seed, purpose, *key: _IdentityDraws())
    H = PowerLawSpectrum(1.31, 30)
    stages = simulate.iterated_sketch(H, [30, 30, 30], seed=0)
    assert len(stages) == 4
    for est in stages[1:]:
        assert np.max(np.abs(est.eigenvalues - H.eigenvalues)) <= 1e-12 * H.eigenvalues[0]


def test_iterated_sketch_stages_match_the_matrix_level_chain():
    # stage 1 is (1/d1) W1' diag(H) W1; stage 2 sketches diag(lam_1), which is M_1
    # sketched by R = Q W2 with Q the eigenvectors of M_1 ordered like lam_1 (descending)
    H = PowerLawSpectrum(1.31, 400)
    stages = simulate.iterated_sketch(H, [200, 100], seed=5)
    W1 = simulate._stream(5, simulate._STAGE, 0).standard_normal((400, 200))
    M1 = W1.T @ np.diag(H.eigenvalues) @ W1 / 200
    M1 = (M1 + M1.T) / 2.0
    want1 = spectral.sym_eigenvalues(M1)
    assert np.max(np.abs(stages[1].eigenvalues - want1)) <= 1e-12 * want1[0]
    _, Q = np.linalg.eigh(M1)
    R = Q[:, ::-1] @ simulate._stream(5, simulate._STAGE, 1).standard_normal((200, 100))
    M2 = R.T @ M1 @ R / 100
    want2 = spectral.sym_eigenvalues((M2 + M2.T) / 2.0)
    assert np.max(np.abs(stages[2].eigenvalues - want2)) <= 1e-12 * want2[0]


def test_iterated_sketch_never_forms_a_v_by_v_matrix():
    v, d1 = 2000, 1000
    H = PowerLawSpectrum(1.31, v)
    peak = _traced_peak(lambda: simulate.iterated_sketch(H, [d1, 500], seed=3))
    # the stage-1 sketch is v*d1 doubles; a v x v matrix would add 2 * v*d1 more
    assert peak < 3 * v * d1 * 8


def test_iterated_sketch_ranks():
    H = PowerLawSpectrum(1.31, 300)
    stages = simulate.iterated_sketch(H, [100, 40, 40], seed=1)
    for est, dt in zip(stages[1:], [100, 40, 40]):
        assert est.eigenvalues.size == dt
        nonzero = int(np.sum(est.eigenvalues > est.eigenvalues[0] * 1e-12))
        assert nonzero == dt


def test_iterated_sketch_single_stage_slope():
    # one sketch 2000 -> 500 keeps the population slope within 0.12
    H = PowerLawSpectrum(1.31, 2000)
    stages = simulate.iterated_sketch(H, [500], seed=0)
    fit = spectral.slope_fit(stages[1].eigenvalues, 5, 50)
    assert abs(fit.slope + 1.31) <= 0.12


def test_iterated_sketch_validation():
    H = PowerLawSpectrum(1.31, 50)
    with pytest.raises(ValueError):
        simulate.iterated_sketch(H, [60], seed=0)
    with pytest.raises(ValueError):
        simulate.iterated_sketch(H, [40, 50], seed=0)
    with pytest.raises(ValueError):
        simulate.iterated_sketch(H, [], seed=0)


# ---------------------------------------------------------------------------
# layer propagation


def test_propagate_layers_linear_layer_matches_direct():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((200, 30))
    layers = [LayerSpec(12, Activation("identity"))]
    (est, fit), = simulate.propagate_layers(X, layers, seed=9, fit_range=(1, 12))
    W1 = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=9, spawn_key=(3, 0)))
    ).standard_normal((30, 12))
    A = X @ W1 / math.sqrt(30)
    Ac = A - A.mean(axis=0)
    want = spectral.sym_eigenvalues(Ac.T @ Ac / 200)
    assert np.allclose(est.eigenvalues, want[:12], rtol=1e-10, atol=1e-13)


def test_propagate_layers_normalizations():
    A = np.random.default_rng(10).standard_normal((50, 20)) * 3.0 + 1.0
    rms, ln = A.copy(), A.copy()
    simulate._normalize_rows(rms, "rmsnorm", 1)  # both normalize in place
    assert np.allclose(np.sqrt(np.mean(rms * rms, axis=1)), 1.0, atol=1e-12)
    simulate._normalize_rows(ln, "layernorm", 1)
    assert np.max(np.abs(ln.mean(axis=1))) <= 1e-10
    assert np.allclose(ln.var(axis=1), 1.0, atol=1e-8)


@pytest.mark.parametrize("norm, kind", [("rmsnorm", "all zero"), ("layernorm", "constant")])
def test_propagate_layers_degenerate_row_names_layer_norm_and_row(norm, kind):
    X = np.random.default_rng(13).standard_normal((40, 16))
    X[3] = 0.0  # tanh keeps the row at zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero RuntimeWarning first
        with pytest.raises(ValueError, match=f"layer 1: {norm} cannot normalize row 3, which is {kind}"):
            simulate.propagate_layers(X, [LayerSpec(32, Activation("tanh"), norm)], seed=0)
    A = np.tile(np.arange(1.0, 4.0), (4, 1))
    A[2] = 0.1  # constant, yet its rounded mean leaves a nonzero std
    with pytest.raises(ValueError, match="row 2, which is constant"):
        simulate._normalize_rows(A, "layernorm", 2)


def test_propagate_layers_gram_trick_when_wide():
    X = np.random.default_rng(11).standard_normal((40, 16))
    layers = [LayerSpec(128, Activation("tanh"))]  # width > n
    (est, fit), = simulate.propagate_layers(X, layers, seed=12, fit_range=(1, 40))
    assert est.eigenvalues.size == 40  # min(n, width)
    assert fit.points_used >= 10


def layers_by_fresh_arrays(X, layers, seed, fit_range):
    """propagate_layers with a fresh array per step: the reference for the in-place build."""
    cur, out = X, []
    for t, layer in enumerate(layers):
        fan_in = cur.shape[1]
        Wt = simulate._stream(seed, simulate._LAYER, t).standard_normal((fan_in, layer.width))
        A = layer.activation.apply(cur @ Wt / math.sqrt(fan_in))
        if layer.normalization == "rmsnorm":
            A = A / np.sqrt(np.mean(A * A, axis=1, keepdims=True))
        elif layer.normalization == "layernorm":
            A = (A - A.mean(axis=1, keepdims=True)) / A.std(axis=1, keepdims=True)
        eig = spectral.gram_spectrum(A - A.mean(axis=0), 1.0 / X.shape[0])
        out.append((eig, spectral.clamped_slope_fit(eig, *fit_range)))
        cur = A
    return out


@pytest.mark.parametrize("norm", ["none", "rmsnorm", "layernorm"])
@pytest.mark.parametrize("act", ["tanh", "relu", "monomial:3", "hermite:2", "identity", "gauss_bump"])
def test_propagate_layers_bytes_are_the_fresh_array_recipe(act, norm):
    X = np.random.default_rng(14).standard_normal((120, 24)) * np.arange(1, 25) ** -0.65
    layers = [LayerSpec(w, Activation.parse(act), norm) for w in (48, 200, 32)]
    got = simulate.propagate_layers(X, layers, seed=15, fit_range=(1, 30))
    want = layers_by_fresh_arrays(X, layers, 15, (1, 30))
    for (est, fit), (eig, want_fit) in zip(got, want, strict=True):
        assert est.eigenvalues.tobytes() == eig.tobytes()
        assert fit == want_fit


@pytest.mark.parametrize("norm", ["none", "rmsnorm", "layernorm"])
@pytest.mark.parametrize("act", ["tanh", "monomial:3"])
def test_propagate_layers_holds_three_n_row_arrays(act, norm):
    # beyond the caller's X: the activations and one more n x w array (the
    # previous layer's during the product, a normalization or power
    # temporary, or the centered copy), W_t and the Gram matrix with its
    # symmetrization; fresh arrays per step held four or five
    n, v, w = 3000, 200, 200
    X = np.random.default_rng(16).standard_normal((n, v))
    layers = [LayerSpec(w, Activation.parse(act), norm)] * 3
    peak = _traced_peak(lambda: simulate.propagate_layers(X, layers, seed=17, fit_range=(1, 50)))
    bound = 8 * (2 * n * w + v * w + 2 * w * w) + 500_000
    assert peak < bound, (peak, bound)


def test_propagate_layers_validation():
    X = np.zeros((10, 4))
    with pytest.raises(ValueError):
        simulate.propagate_layers(X, [LayerSpec(5000, Activation("tanh"))], seed=0)
    with pytest.raises(ValueError):
        LayerSpec(16, Activation("tanh"), "batchnorm")
    with pytest.raises(ValueError, match="n >= 1"):
        simulate.propagate_layers(np.zeros((0, 4)), [LayerSpec(8, Activation("tanh"))], seed=0)


# ---------------------------------------------------------------------------
# diagnostics


def test_head_concentration_single_row():
    v, d, seed = 80, 400, 13
    got = simulate.head_concentration(v, d, 1, seed)
    W = simulate.sample_sketch(v, d, seed)
    want = abs(float(W[0] @ W[0]) / d - 1.0)
    assert got == pytest.approx(want, abs=1e-10)


def test_head_concentration_small_head_concentrates():
    d = 4000
    k_star = int(0.1 * d / math.log(d))
    vals = [simulate.head_concentration(d, d, k_star, seed) for seed in range(20)]
    assert all(val < 0.5 for val in vals), max(vals)


def test_head_concentration_uses_leading_sketch_rows():
    v, d, k_star, seed = 90, 70, 25, 6
    W = simulate.sample_sketch(v, d, seed)
    head = simulate._stream(seed, simulate._SKETCH).standard_normal((k_star, d))
    assert np.array_equal(head, W[:k_star])
    A = W[:k_star] @ W[:k_star].T / d - np.eye(k_star)
    want = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert simulate.head_concentration(v, d, k_star, seed) == pytest.approx(want, rel=1e-12)


def test_head_concentration_full_head_recorded():
    # at k_star = d there is no concentration; record the scale, assert nothing sharp
    val = simulate.head_concentration(600, 600, 600, seed=3)
    assert val > 0.0  # typically > 0.5; documented as a diagnostic only


def test_head_concentration_validation(monkeypatch):
    with pytest.raises(ValueError):
        simulate.head_concentration(10, 10, 11, 0)
    monkeypatch.setattr(simulate, "MAX_EIG_DIM", 5)
    with pytest.raises(InvalidInput, match=r"k_star must lie in \[1, 5\], got 6"):
        simulate.head_concentration(10, 10, 6, 0)


def test_wick_empirical_moments_targets():
    m = 200_000
    stats1 = simulate.wick_empirical_moments((1,), m, seed=0)
    assert abs(stats1.mean) <= 5.0 / math.sqrt(m)
    assert abs(stats1.variance - 1.0) <= 0.02
    stats21 = simulate.wick_empirical_moments((2, 1), m, seed=0)
    assert abs(stats21.variance - 2.0) <= 0.05
    stats3 = simulate.wick_empirical_moments((3,), m, seed=0)
    assert abs(stats3.variance - 6.0) <= 0.15
    for s in (stats1, stats21, stats3):
        assert s.max_cross_correlation <= 5.0 / math.sqrt(m)


def test_wick_empirical_moments_validation():
    with pytest.raises(ValueError):
        simulate.wick_empirical_moments((2, 1), 100, seed=0)


def test_universality_gaussian_vs_rademacher():
    # p=2 slope fits agree across the two input laws (3-seed median)
    slopes = {}
    for kind in ("gaussian", "rademacher"):
        fits = []
        for seed in (1, 2, 3):
            cfg = RFConfig(
                v=500,
                d=500,
                m=20000,
                alpha=1.31,
                activation=Activation("monomial", 2),
                distribution=DataDistribution(kind),
                seed=seed,
            )
            est = simulate.mc_covariance(cfg)
            fits.append(spectral.slope_fit(est.eigenvalues, 1, 100).slope)
        slopes[kind] = float(np.median(fits))
    assert abs(slopes["gaussian"] - slopes["rademacher"]) <= 0.1
