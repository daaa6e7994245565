import math
import tracemalloc
import warnings

import numpy as np
import pytest

from plrf import simulate, spectral
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
    assert np.array_equal(Activation("monomial", 3).apply(y), y**3)
    assert np.array_equal(Activation("relu").apply(y), np.maximum(y, 0.0))
    assert np.allclose(Activation("gauss_bump").apply(y), y * y * np.exp(-y * y))
    assert np.allclose(Activation("hermite", 3).apply(y), y**3 - 3 * y)
    hs = Activation("heaviside").apply(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(hs, [0.0, 0.5, 1.0])


def test_activation_validation():
    with pytest.raises(ValueError):
        Activation("monomial")
    with pytest.raises(ValueError):
        Activation("monomial", 0)
    with pytest.raises(ValueError):
        Activation("selu")
    with pytest.raises(ValueError):
        Activation("tanh", 2)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DataDistribution("student_t", df=4.0)  # needs df > 4
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
        draws = dist.draw_unit(200, 500, rng)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05
    rad = DataDistribution("rademacher").draw_unit(10, 10, rng)
    assert set(np.unique(rad)) <= {-1.0, 1.0}


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
    # for f(y)=y the feature covariance is W' S W with S the (uncentered)
    # sample covariance of x; rebuild the identical data stream to check
    cfg = RFConfig(v=60, d=30, m=500, alpha=1.31, activation=Activation("monomial", 1), seed=11)
    est = simulate.mc_covariance(cfg)
    W = simulate.sample_sketch(cfg.v, cfg.d, cfg.seed)
    sqrt_h = np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, 0)))
    )
    X = rng.standard_normal((cfg.m, cfg.v)) * sqrt_h
    S = X.T @ X / cfg.m
    want = spectral.sym_eigenvalues(W.T @ S @ W / cfg.d)[: cfg.d]
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


@pytest.mark.parametrize("centered", [False, True])
def test_mc_covariance_blockwise_route_is_matrix_spectrum(monkeypatch, centered):
    monkeypatch.setattr(simulate, "_BLOCK", 300)  # seven blocks, the last one short
    cfg = RFConfig(
        v=50, d=25, m=2000, alpha=1.31, activation=Activation("monomial", 2), seed=4,
        centered=centered,
    )
    dense = simulate.mc_covariance(cfg).eigenvalues
    monkeypatch.setattr(simulate, "_DENSE_FEATURE_CAP", 0)
    eig = {}
    for threads in (1, 3):
        eig[threads] = simulate.mc_covariance(cfg, threads=threads).eigenvalues
        mat = simulate.mc_covariance_matrix(cfg, threads=threads)
        assert np.array_equal(eig[threads], spectral.sym_eigenvalues(mat))
    assert np.array_equal(eig[1], eig[3])
    assert np.allclose(eig[1], dense, rtol=1e-9, atol=1e-12 * dense[0])
    with pytest.raises(ValueError, match="threads"):
        simulate.mc_covariance(cfg, threads=0)


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
    tracemalloc.start()
    try:
        simulate.mc_covariance_matrix(cfg, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_mc_covariance_centered_subtracts_mean():
    cfg = RFConfig(
        v=30, d=15, m=4000, alpha=1.31, activation=Activation("relu"), seed=5, centered=True
    )
    mat = simulate.mc_covariance_matrix(cfg)
    # recompute from raw blocks: centered second moment
    W = simulate.sample_sketch(cfg.v, cfg.d, cfg.seed)
    sqrt_h = np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, 0)))
    )
    F = Activation("relu").apply((rng.standard_normal((cfg.m, cfg.v)) * sqrt_h) @ W)
    Fc = F - F.mean(axis=0)
    want = (Fc.T @ Fc / cfg.m) / cfg.d
    assert np.allclose(mat, (want + want.T) / 2, rtol=1e-10, atol=1e-14)


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
        simulate.mc_covariance(
            RFConfig(v=10, d=5, m=50, alpha=1.31, activation=Activation("tanh"))
        )


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
    for p in (1, 2, 3, 4):
        K = simulate.exact_population_covariance(W, H, p)
        for i in (0, 2, 5):
            for j in (1, 4):
                want = kernel_pair_value(Y[:, i], Y[:, j], p) / d
                assert K[i, j] == pytest.approx(want, rel=1e-10)


def test_exact_population_covariance_validation():
    H = PowerLawSpectrum(1.31, 10)
    W = np.zeros((10, 5))
    with pytest.raises(ValueError):
        simulate.exact_population_covariance(W, H, 7)
    with pytest.raises(ValueError):
        simulate.exact_population_covariance(np.zeros((9, 5)), H, 2)


# ---------------------------------------------------------------------------
# iterated sketches


def test_iterated_sketch_identity_mode():
    H = PowerLawSpectrum(1.31, 30)
    stages = simulate.iterated_sketch(H, [30], seed=0, identity_sketch=True)
    assert len(stages) == 2
    assert np.allclose(stages[1].eigenvalues, H.eigenvalues, rtol=1e-12)


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
    rms = simulate._normalize_rows(A, "rmsnorm", 1)
    assert np.allclose(np.sqrt(np.mean(rms * rms, axis=1)), 1.0, atol=1e-12)
    ln = simulate._normalize_rows(A, "layernorm", 1)
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


def test_propagate_layers_validation():
    X = np.zeros((10, 4))
    with pytest.raises(ValueError):
        simulate.propagate_layers(X, [LayerSpec(5000, Activation("tanh"))], seed=0)
    with pytest.raises(ValueError):
        LayerSpec(16, Activation("tanh"), "batchnorm")


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


def test_head_concentration_validation():
    with pytest.raises(ValueError):
        simulate.head_concentration(10, 10, 11, 0)


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
