"""Monte Carlo and exact generation of random-feature covariance spectra.

Data samplers x = H^(1/2) u for several unit-variance input laws, entrywise
activations, the exact population kernel (no Monte Carlo error), iterated
population sketches, multi-layer propagation with per-layer slope fits, and
concentration/orthogonality diagnostics.

Randomness is counter-based (Philox): every consumer derives its own stream
from (seed, purpose, block), so block sampling is reproducible regardless of
execution order and covariance accumulation is reduced in fixed block order.
Identical (config, seed) therefore give bit-identical spectra.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .combinatorics import _as_composition, hermite_value, pairing_class_counts, wick_product_value
from .population import PowerLawSpectrum
from .records import SpectrumEstimate
from .spectral import SlopeFit, gram_spectrum, slope_fit, sym_eigenvalues

__all__ = [
    "Activation",
    "DataDistribution",
    "RFConfig",
    "LayerSpec",
    "WickMoments",
    "sample_sketch",
    "mc_covariance",
    "mc_covariance_matrix",
    "exact_population_covariance",
    "iterated_sketch",
    "propagate_layers",
    "head_concentration",
    "wick_empirical_moments",
]

# stream purposes for derived generators; a changed key moves every draw made from it
_SKETCH, _DATA, _STAGE, _LAYER, _WICK = 0, 1, 2, 3, 5

_BLOCK = 8192
_DENSE_FEATURE_CAP = 5 * 10**7  # materialise the feature matrix below this m*d
MAX_SKETCH_ENTRIES = 10**9
MAX_LAYER_WIDTH = 4096


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Activation:
    """Entrywise activation: monomial(p), relu, tanh, heaviside, gauss_bump, hermite(k)."""

    kind: str
    param: int | None = None

    _PARAMETRIC = ("monomial", "hermite")
    _PLAIN = ("relu", "tanh", "heaviside", "gauss_bump", "identity")

    def __post_init__(self) -> None:
        if self.kind in self._PARAMETRIC:
            if self.param is None:
                raise ValueError(f"activation {self.kind!r} needs a degree parameter")
            p = int(self.param)
            if self.kind == "monomial" and p < 1:
                raise ValueError(f"monomial degree must be >= 1, got {p}")
            if self.kind == "hermite" and not 0 <= p <= 64:
                raise ValueError(f"hermite degree must lie in [0, 64], got {p}")
            object.__setattr__(self, "param", p)
        elif self.kind in self._PLAIN:
            if self.param is not None:
                raise ValueError(f"activation {self.kind!r} takes no parameter")
        else:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Activation":
        """Parse 'monomial:2', 'hermite:3', or a plain kind like 'tanh'."""
        kind, _, param = text.partition(":")
        return cls(kind.strip(), int(param) if param else None)

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def apply(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "monomial":
            return y**self.param
        if self.kind == "relu":
            return np.maximum(y, 0.0)
        if self.kind == "tanh":
            return np.tanh(y)
        if self.kind == "heaviside":
            return np.heaviside(y, 0.5)
        if self.kind == "gauss_bump":
            return y * y * np.exp(-(y * y))
        if self.kind == "hermite":
            return hermite_value(self.param, y)
        return np.asarray(y, dtype=float)  # identity


@dataclass(frozen=True)
class DataDistribution:
    """Input law for x = H^(1/2) u with unit-variance iid u; or external rows.

    Kinds: gaussian, rademacher, student_t (df > 4, scaled to unit variance),
    external (a fixed data matrix whose rows are used as x directly, exempt
    from the E[x x'] = H coupling).
    """

    kind: str = "gaussian"
    df: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "student_t":
            if self.df is None or not self.df > 4:
                raise ValueError(f"student_t needs df > 4, got {self.df}")
        elif self.kind == "external":
            if self.matrix is None:
                raise ValueError("external distribution needs a data matrix")
            mat = np.asarray(self.matrix, dtype=float)
            if mat.ndim != 2:
                raise ValueError(f"external matrix must be 2-D, got shape {mat.shape}")
            object.__setattr__(self, "matrix", mat)
        elif self.kind not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "student_t":
            return f"student_t:{self.df:g}"
        return self.kind

    def draw_unit(self, n: int, v: int, rng: np.random.Generator) -> np.ndarray:
        """n x v draws with iid unit-variance entries (synthetic kinds only)."""
        if self.kind == "gaussian":
            return rng.standard_normal((n, v))
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=(n, v)).astype(float) * 2.0 - 1.0
        if self.kind == "student_t":
            return rng.standard_t(self.df, size=(n, v)) * math.sqrt((self.df - 2.0) / self.df)
        raise ValueError("external distributions provide samples, not unit draws")


@dataclass(frozen=True)
class RFConfig:
    """One random-feature covariance experiment."""

    v: int
    d: int
    m: int
    alpha: float
    activation: Activation
    distribution: DataDistribution = DataDistribution("gaussian")
    seed: int = 0
    centered: bool = False
    scale: float | None = None  # covariance prefactor; defaults to 1/d

    def __post_init__(self) -> None:
        if self.d < 1 or self.v < self.d:
            raise ValueError(f"need v >= d >= 1, got v={self.v}, d={self.d}")
        if self.m < 1:
            raise ValueError(f"need m >= 1 samples, got {self.m}")
        if not self.alpha > 1.0:
            raise ValueError(f"alpha > 1 required, got {self.alpha}")

    @property
    def feature_scale(self) -> float:
        return self.scale if self.scale is not None else 1.0 / self.d


@dataclass(frozen=True)
class LayerSpec:
    """One network layer: width, activation, optional per-sample normalization."""

    width: int
    activation: Activation
    normalization: str = "none"

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_LAYER_WIDTH:
            raise ValueError(f"width must lie in [1, {MAX_LAYER_WIDTH}], got {self.width}")
        if self.normalization not in ("none", "rmsnorm", "layernorm"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def sample_sketch(v: int, d: int, seed: int) -> np.ndarray:
    """v x d matrix of iid N(0,1) entries, bit-reproducible for a fixed seed."""
    if v < 1 or d < 1:
        raise ValueError(f"dimensions must be positive, got {v} x {d}")
    if v * d > MAX_SKETCH_ENTRIES:
        raise ValueError(f"{v} x {d} exceeds the {MAX_SKETCH_ENTRIES:.0e}-entry cap")
    return _stream(seed, _SKETCH).standard_normal((v, d))


def _feature_block(cfg: RFConfig, W: np.ndarray, sqrt_h: np.ndarray | None, block: int, lo: int, hi: int) -> np.ndarray:
    if cfg.distribution.kind == "external":
        X = cfg.distribution.matrix[lo:hi]
    else:
        U = cfg.distribution.draw_unit(hi - lo, cfg.v, _stream(cfg.seed, _DATA, block))
        X = U * sqrt_h
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below instead
        F = cfg.activation.apply(X @ W)
    if not np.all(np.isfinite(F)):
        bad = int(np.flatnonzero(~np.isfinite(F).all(axis=1))[0])
        raise ValueError(
            f"non-finite feature at sample index {lo + bad} "
            f"(activation {cfg.activation.label}, distribution {cfg.distribution.label})"
        )
    return F


def _ordered_map(fn, items, threads: int) -> Iterator:
    """fn(item) for each item, yielded in item order.

    Up to `threads` calls run on worker threads; at most `threads` results
    are pending at once, so a caller reducing them in order holds a bounded
    number regardless of how many items there are.
    """
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _sample_blocks(cfg: RFConfig, threads: int, per_block) -> Iterator:
    """per_block(lo, hi, F) for every sample block of features F, in block order.

    Validates the config, draws the sketch and plans fixed-size blocks, each
    with its own derived data stream, so the results do not depend on
    `threads`.  Validation runs at call time, before any block is sampled.
    """
    if cfg.m < 100:
        raise ValueError(f"need m >= 100 Monte Carlo samples, got {cfg.m}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if cfg.distribution.kind == "external":
        mat = cfg.distribution.matrix
        if mat.shape[0] < cfg.m or mat.shape[1] != cfg.v:
            raise ValueError(
                f"external data {mat.shape} cannot supply m={cfg.m} samples of dim v={cfg.v}"
            )
        sqrt_h = None
    else:
        sqrt_h = np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)
    W = sample_sketch(cfg.v, cfg.d, cfg.seed)

    def work(b: int):
        lo, hi = b * _BLOCK, min((b + 1) * _BLOCK, cfg.m)
        return per_block(lo, hi, _feature_block(cfg, W, sqrt_h, b, lo, hi))

    return _ordered_map(work, range(-(-cfg.m // _BLOCK)), threads)


def mc_covariance(cfg: RFConfig, threads: int = 1) -> SpectrumEstimate:
    """Spectrum of the Monte Carlo feature covariance scale * mean_i f(W'x_i)^(x2).

    Samples in fixed blocks with per-block derived streams; the centered
    variant subtracts the empirical feature mean.  When m*d is moderate the
    feature matrix is materialised and handed to the Gram trick, otherwise
    the spectrum is that of `mc_covariance_matrix`; both paths give
    bit-identical results for a fixed config regardless of thread count.
    """
    if cfg.m * cfg.d <= _DENSE_FEATURE_CAP:
        Phi = np.empty((cfg.m, cfg.d))

        def store(lo: int, hi: int, F: np.ndarray) -> None:
            Phi[lo:hi] = F

        for _ in _sample_blocks(cfg, threads, store):
            pass
        if cfg.centered:
            Phi = Phi - Phi.mean(axis=0)
        eig = gram_spectrum(Phi, cfg.feature_scale / cfg.m)
    else:
        eig = sym_eigenvalues(mc_covariance_matrix(cfg, threads))[: min(cfg.m, cfg.d)]

    return SpectrumEstimate(
        eigenvalues=eig,
        dims=(cfg.v, cfg.d),
        samples=cfg.m,
        activation=cfg.activation.label,
        seed=cfg.seed,
        meta={
            "distribution": cfg.distribution.label,
            "alpha": repr(cfg.alpha),
            "centered": str(cfg.centered).lower(),
            "scale": repr(cfg.feature_scale),
        },
    )


def mc_covariance_matrix(cfg: RFConfig, threads: int = 1) -> np.ndarray:
    """The d x d Monte Carlo feature covariance itself (same sampling as mc_covariance).

    Per-block second moments are summed in fixed block order as they arrive.
    """
    G = np.zeros((cfg.d, cfg.d))
    colsum = np.zeros(cfg.d)
    for Gb, sb in _sample_blocks(cfg, threads, lambda lo, hi, F: (F.T @ F, F.sum(axis=0))):
        G += Gb
        colsum += sb
    C = G / cfg.m
    if cfg.centered:
        mu = colsum / cfg.m
        C = C - np.outer(mu, mu)
    return cfg.feature_scale * (C + C.T) / 2.0


def exact_population_covariance(W, H: PowerLawSpectrum, p: int) -> np.ndarray:
    """Exact d x d population covariance of monomial features, entry by entry.

    K_ij = (1/d) E_z[(y_i'z)^p (y_j'z)^p] with y_i = H^(1/2) W[:, i], computed
    from the matching class counts; exact up to float round-off.
    """
    Wm = np.asarray(W, dtype=float)
    if Wm.ndim != 2:
        raise ValueError(f"sketch must be 2-D, got shape {Wm.shape}")
    v, d = Wm.shape
    if v != H.v:
        raise ValueError(f"sketch rows {v} != spectrum dimension {H.v}")
    if p > 6:
        raise ValueError(f"exact kernel supports p <= 6, got {p}")
    if d > 2000:
        raise ValueError(f"exact kernel supports d <= 2000, got {d}")
    Y = np.sqrt(H.eigenvalues)[:, None] * Wm
    G = Y.T @ Y
    nrm = np.diag(G).copy()
    outer = np.outer(nrm, nrm)
    K = np.zeros((d, d))
    for q, cnt in sorted(pairing_class_counts(p).counts.items()):
        K += cnt * outer ** ((p - q) // 2) * G**q
    K /= d
    return (K + K.T) / 2.0


def iterated_sketch(
    H: PowerLawSpectrum, dims: Sequence[int], seed: int, identity_sketch: bool = False
) -> list[SpectrumEstimate]:
    """Population spectra along a chain of Gaussian sketches.

    Stage 0 is H itself; stage t+1 is the spectrum of (1/d_t) W_t' S_t W_t at
    the matrix level (no data sampling), with fresh W_t per stage.  Rank is
    capped by each sketch dimension, so tails peel off where d_t limits it.
    `identity_sketch` replaces W_t by sqrt(d_t) * I (square stages only), a
    test hook making every stage reproduce its input exactly.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one sketch dimension")
    if dims[0] > H.v:
        raise ValueError(f"first sketch dim {dims[0]} exceeds v={H.v}")
    if any(b > a for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be nonincreasing, got {dims}")
    out = [
        SpectrumEstimate(
            eigenvalues=H.eigenvalues,
            dims=(H.v, H.v),
            samples=0,
            activation="population",
            seed=seed,
        )
    ]
    M = np.diag(H.eigenvalues)
    prev = H.v
    for t, dt in enumerate(dims):
        if identity_sketch:
            if dt != prev:
                raise ValueError("identity sketch needs square stages")
            Wt = math.sqrt(dt) * np.eye(prev)
        else:
            Wt = _stream(seed, _STAGE, t).standard_normal((prev, dt))
        M = Wt.T @ M @ Wt / dt
        M = (M + M.T) / 2.0
        eig = sym_eigenvalues(M)
        out.append(
            SpectrumEstimate(
                eigenvalues=eig,
                dims=(prev, dt),
                samples=0,
                activation="identity",
                seed=seed,
                meta={"stage": str(t + 1)},
            )
        )
        prev = dt
    return out


def _normalize_rows(A: np.ndarray, mode: str, layer: int) -> np.ndarray:
    """Per-row rmsnorm or layernorm; a row it would divide by zero raises ValueError."""
    if mode == "none":
        return A
    if mode == "rmsnorm":
        scale = np.sqrt(np.mean(A * A, axis=1, keepdims=True))
        degenerate, kind = scale[:, 0] == 0, "all zero"
    else:  # layernorm
        mu = A.mean(axis=1, keepdims=True)
        scale = A.std(axis=1, keepdims=True)
        degenerate, kind = (scale[:, 0] == 0) | (np.ptp(A, axis=1) == 0), "constant"
    rows = np.flatnonzero(degenerate)
    if rows.size:
        raise ValueError(f"layer {layer}: {mode} cannot normalize row {rows[0]}, which is {kind}")
    return A / scale if mode == "rmsnorm" else (A - mu) / scale


def propagate_layers(
    X, layers: Sequence[LayerSpec], seed: int, fit_range: tuple[int, int] = (1, 100)
) -> list[tuple[SpectrumEstimate, SlopeFit]]:
    """Push data through fresh random layers; spectrum and slope per layer.

    Layer t multiplies by W_t / sqrt(fan_in) with iid N(0,1) W_t, applies the
    activation entrywise and then the per-sample normalization.  Each layer
    reports the centered sample covariance spectrum (Gram trick when the
    width exceeds the sample count) with an OLS slope over `fit_range`.
    """
    cur = np.asarray(X, dtype=float)
    if cur.ndim != 2:
        raise ValueError(f"data must be n x v, got shape {cur.shape}")
    n = cur.shape[0]
    out: list[tuple[SpectrumEstimate, SlopeFit]] = []
    for t, layer in enumerate(layers):
        fan_in = cur.shape[1]
        Wt = _stream(seed, _LAYER, t).standard_normal((fan_in, layer.width))
        A = layer.activation.apply(cur @ Wt / math.sqrt(fan_in))
        A = _normalize_rows(A, layer.normalization, t + 1)
        if not np.all(np.isfinite(A)):
            raise ValueError(f"non-finite activations at layer {t + 1}")
        centered = A - A.mean(axis=0)
        eig = gram_spectrum(centered, 1.0 / n)
        fit = slope_fit(eig, fit_range[0], min(fit_range[1], eig.size))
        est = SpectrumEstimate(
            eigenvalues=eig,
            dims=(fan_in, layer.width),
            samples=n,
            activation=layer.activation.label,
            seed=seed,
            meta={"layer": str(t + 1), "normalization": layer.normalization},
        )
        out.append((est, fit))
        cur = A
    return out


def head_concentration(v: int, d: int, k_star: int, seed: int) -> float:
    """Operator norm of (1/d) W_0 W_0' - I for the first k_star rows W_0 of the sketch.

    Draws only those rows of `sample_sketch(v, d, seed)` and returns the
    largest absolute eigenvalue of the deviation; a diagnostic for how well
    the leading block of the sketch concentrates (values below 1/2 mean the
    head spectrum transfers two-sidedly).
    """
    if not 1 <= k_star <= v:
        raise ValueError(f"k_star must lie in [1, {v}], got {k_star}")
    if d < 1:
        raise ValueError(f"sketch dimension must be positive, got {d}")
    if k_star * d > MAX_SKETCH_ENTRIES:
        raise ValueError(f"{k_star} x {d} exceeds the {MAX_SKETCH_ENTRIES:.0e}-entry cap")
    W0 = _stream(seed, _SKETCH).standard_normal((k_star, d))  # the sketch's leading rows
    A = W0 @ W0.T / d - np.eye(k_star)
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


class WickMoments(NamedTuple):
    mean: float
    variance: float
    max_cross_correlation: float


def wick_empirical_moments(composition, m: int, seed: int) -> WickMoments:
    """Sample statistics of the Wick product over iid Gaussian draws.

    Returns the sample mean and variance of :g_1^{a_1} ... g_l^{a_l}: over m
    draws (targets: 0 and a_1! ... a_l!), plus the absolute correlation
    against the same product on a shifted coordinate tuple (target: 0).
    """
    if m < 10**4:
        raise ValueError(f"need m >= 1e4 draws, got {m}")
    comp = _as_composition(composition)
    l = comp.length
    g = _stream(seed, _WICK).standard_normal((m, l + 1))
    w_a = wick_product_value(comp, g[:, :l])
    w_b = wick_product_value(comp, g[:, 1 : l + 1])
    corr = float(np.corrcoef(w_a, w_b)[0, 1])
    return WickMoments(float(w_a.mean()), float(w_a.var(ddof=1)), abs(corr))
