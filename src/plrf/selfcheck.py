"""Runnable acceptance checks at desk scale.

Each check returns a CheckResult; `run_all` executes the whole battery.  The
CLI `selftest` command prints one PASS/FAIL line per criterion, and the test
suite asserts the same checks.  Quick mode shrinks problem sizes (and where
a tolerance is statistical, widens it accordingly) to smoke-test in seconds;
full mode runs the stated desk scales and tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import combinatorics as comb
from . import lattice, population, simulate, spectral
from .data import find_cifar_batches, read_cifar10

__all__ = ["CheckResult", "CHECKS", "run_all"]

# Exact unordered counts at the criterion grid, frozen from independent
# oracles: a brute-force loop up to 10^6 and a divisor-count sieve at 10^7
# (tests/test_lattice.py re-derives the small ones).
GOLDEN_UNORDERED_COUNTS = {
    (1.0, 1.0): {
        10**3: 7069, 10**4: 93668, 10**5: 1166750, 10**6: 13970034, 10**7: 162725364
    },
    (1.0, 1.0, 1.0): {
        10**3: 29425, 10**4: 496623, 10**5: 7518850, 10**6: 106030594, 10**7: 1421760251
    },
}

# Width of the stated envelope band [1/8, 8]: the eigenvalue sandwich holds
# with existential constants only, so the constant-free check asserts that
# the ratio to the envelope varies by at most this factor across j.
ENVELOPE_BAND_WIDTH = 64.0

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool | None  # None = skipped
    detail: str


def _result(criterion: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(criterion, bool(ok), detail)


# --------------------------------------------------------------------------
# 1. combinatorial ground truth


def check_pairing_tables(quick: bool = False) -> CheckResult:
    problems: list[str] = []
    if dict(comb.pairing_class_counts(3).counts) != {3: 6, 1: 9}:
        problems.append("class counts at p=3 wrong")
    if dict(comb.monomial_hermite_coefficients(2).coefficients) != {2: 1, 0: 1}:
        problems.append("y^2 expansion wrong")
    if dict(comb.monomial_hermite_coefficients(3).coefficients) != {3: 1, 1: 3}:
        problems.append("y^3 expansion wrong")
    p_max = 4 if quick else 6
    for p in range(1, p_max + 1):
        hist: dict[int, int] = {}
        for pairing in comb.iter_pairings(p):
            q = pairing.cross_count
            hist[q] = hist.get(q, 0) + 1
        if hist != dict(comb.pairing_class_counts(p).counts):
            problems.append(f"enumeration histogram mismatch at p={p}")
        if sum(hist.values()) != comb.double_factorial(2 * p - 1):
            problems.append(f"matching total != (2p-1)!! at p={p}")
    detail = "; ".join(problems) if problems else f"class counts equal enumeration for p <= {p_max}"
    return _result("1 combinatorial ground truth", not problems, detail)


# --------------------------------------------------------------------------
# 2. diagram multiplicities


def _partial_matchings(vertices: tuple[int, ...]) -> Iterable[tuple[tuple[int, int], ...]]:
    """All sets of vertex-disjoint pairs (any number of edges, including none)."""
    if len(vertices) < 2:
        yield ()
        return
    a, rest = vertices[0], vertices[1:]
    # a stays unpaired
    for tail in _partial_matchings(rest):
        yield tail
    # a pairs with each later vertex
    for i, b in enumerate(rest):
        for tail in _partial_matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + tail


def _diagram_histogram(parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Brute-force diagram counts per eta, for slots of same-label copies.

    Enumerates every partial matching of the full labeled vertex set, drops
    diagrams with any cross-slot edge (independent labels pair to zero), and
    histograms the survivors by per-slot edge counts.
    """
    slot_of: list[int] = []
    for j, pj in enumerate(parts):
        slot_of.extend([j] * pj)
    hist: dict[tuple[int, ...], int] = {}
    for matching in _partial_matchings(tuple(range(len(slot_of)))):
        eta = [0] * len(parts)
        ok = True
        for a, b in matching:
            if slot_of[a] != slot_of[b]:
                ok = False
                break
            eta[slot_of[a]] += 1
        if ok:
            key = tuple(eta)
            hist[key] = hist.get(key, 0) + 1
    return hist


def check_feynman_counts(quick: bool = False) -> CheckResult:
    if comb.feynman_count((4, 2), (1, 1)) != 6:
        return _result("2 diagram multiplicities", False, "N_(1,1) for slots (4,2) != 6")
    total_max = 6 if quick else 8
    for q in range(1, total_max + 1):
        for comp in comb.compositions(q):
            hist = _diagram_histogram(comp.parts)
            for eta, n_brute in hist.items():
                if comb.feynman_count(comp, eta) != n_brute:
                    return _result(
                        "2 diagram multiplicities",
                        False,
                        f"closed form != enumeration at parts={comp.parts}, eta={eta}",
                    )
    return _result(
        "2 diagram multiplicities", True, f"closed form equals enumeration for sums <= {total_max}"
    )


# --------------------------------------------------------------------------
# 3. Wick product sample moments


def check_wick_moments(quick: bool = False) -> CheckResult:
    m = 50_000 if quick else 200_000
    rel_tol = 0.06 if quick else 0.03
    problems = []
    for parts in ((1,), (2,), (3,), (2, 1)):
        target = math.prod(math.factorial(a) for a in parts)
        stats = simulate.wick_empirical_moments(parts, m, DEFAULT_SEED)
        if abs(stats.variance - target) > rel_tol * target:
            problems.append(f"variance {stats.variance:.4f} vs {target} at parts={parts}")
        if stats.max_cross_correlation > 5.0 / math.sqrt(m):
            problems.append(f"cross-correlation {stats.max_cross_correlation:.4f} at parts={parts}")
    detail = "; ".join(problems) if problems else f"variances within {rel_tol:.0%} at m={m}"
    return _result("3 Wick product moments", not problems, detail)


# --------------------------------------------------------------------------
# 4. lattice asymptotics


def check_lattice_asymptotics(quick: bool = False) -> CheckResult:
    xs = (10**3, 10**4, 10**5) if quick else (10**3, 10**4, 10**5, 10**6, 10**7)
    problems = []
    for parts in ((1.0, 1.0), (1.0, 1.0, 1.0)):
        golden = GOLDEN_UNORDERED_COUNTS[parts]
        ratios = []
        for X in xs:
            exact = lattice.count_unordered(X, parts).count
            if exact != golden[X]:
                problems.append(f"count at X={X}, k={len(parts)}: {exact} != golden {golden[X]}")
            ratios.append(exact / lattice.asymptotic_unordered(X, parts))
        if not 0.6 <= ratios[-1] <= 1.4:
            problems.append(f"final ratio {ratios[-1]:.3f} outside [0.6, 1.4] for k={len(parts)}")
        gaps = [abs(r - 1.0) for r in ratios]
        if any(b > a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"|ratio - 1| not trending to 1 for k={len(parts)}: {ratios}")
    detail = "; ".join(problems) if problems else f"counts match golden; ratios trend to 1 over {xs}"
    return _result("4 lattice asymptotics", not problems, detail)


# --------------------------------------------------------------------------
# 5. zeta and theory constants


def check_theory_constants(quick: bool = False) -> CheckResult:
    problems = []
    z2 = lattice.zeta(2.0)
    if abs(z2 - math.pi**2 / 6) > 1e-12:
        problems.append(f"zeta(2) off by {abs(z2 - math.pi**2 / 6):.2e}")
    alpha = 1.31
    b = population.theory_curve(3, alpha).b_theory
    # independent recomputation: Basel value for zeta(2), exp/log for powers
    b_ind = (math.pi**2 / 6) / math.exp(math.log(2.0) / alpha) + math.exp(-math.log(4.0) / alpha)
    if abs(b - b_ind) > 1e-10:
        problems.append(f"b_theory off by {abs(b - b_ind):.2e}")
    detail = "; ".join(problems) if problems else f"zeta(2)={z2:.14f}, b_theory={b:.12f}"
    return _result("5 zeta and theory constants", not problems, detail)


# --------------------------------------------------------------------------
# 6. tuple-product envelope and top-k correctness


def _brute_top_k(H: population.PowerLawSpectrum, parts: tuple[int, ...], k: int):
    eig = H.eigenvalues.tolist()
    entries = [
        population.TupleEigenvalue(idx, math.prod(eig[i - 1] ** a for i, a in zip(idx, parts)))
        for idx in itertools.combinations(range(1, H.v + 1), len(parts))
    ]
    entries.sort(key=lambda e: (-e.value, e.indices))
    return entries[:k]


def check_envelope(quick: bool = False) -> CheckResult:
    v = 800 if quick else 5000
    j_max = 200 if quick else 1000
    problems = []
    notes = []
    for alpha in (1.31, 2.0):
        H = population.PowerLawSpectrum(alpha, v)
        for length in (1, 2, 3):
            top = population.hpi_top_k(H, (1,) * length, j_max)
            ratios = np.array(
                [e.value / population.envelope(j, alpha, length) for j, e in enumerate(top, 1)]
            )
            spread = float(ratios.max() / ratios.min())
            # the sandwich constants are existential: constant-free check is
            # that the ratio varies by no more than the band width 8/(1/8)
            if spread > ENVELOPE_BAND_WIDTH:
                problems.append(
                    f"ratio spread {spread:.1f} > {ENVELOPE_BAND_WIDTH:g} "
                    f"(alpha={alpha}, l={length})"
                )
            if length <= 2 and not (ratios.min() >= 1 / 8 and ratios.max() <= 8):
                problems.append(
                    f"absolute band violated at l={length}, alpha={alpha}: "
                    f"[{ratios.min():.3g}, {ratios.max():.3g}]"
                )
            notes.append(f"l={length},a={alpha:g}:[{ratios.min():.2g},{ratios.max():.2g}]")
    # top-k enumeration equals brute force at small v
    H_small = population.PowerLawSpectrum(1.31, 60)
    for parts in ((1, 1), (2, 1), (1, 1, 1)):
        # same indices, bit-equal values
        if list(population.hpi_top_k(H_small, parts, 120)) != _brute_top_k(H_small, parts, 120):
            problems.append(f"top-k disagrees with brute force for parts={parts}")
    detail = "; ".join(problems) if problems else "ratios " + " ".join(notes)
    return _result("6 tuple-product envelope", not problems, detail)


# --------------------------------------------------------------------------
# 7. exact kernel vs Monte Carlo


def _mc_frobenius(v: int, d: int, m: int, seed: int) -> float:
    cfg = simulate.RFConfig(
        v=v, d=d, m=m, alpha=1.31, activation=simulate.Activation("monomial", 2), seed=seed
    )
    H = population.PowerLawSpectrum(cfg.alpha, v)
    W = simulate.sample_sketch(v, d, seed)
    exact = simulate.exact_population_covariance(W, H, 2)
    mc = simulate.mc_covariance_matrix(cfg)
    return float(np.linalg.norm(mc - exact) / np.linalg.norm(exact))


def check_mc_vs_exact(quick: bool = False) -> CheckResult:
    v, d = (100, 50) if quick else (200, 100)
    m_main = 10_000 if quick else 50_000
    tol = 0.12 if quick else 0.05
    problems = []
    err = _mc_frobenius(v, d, m_main, DEFAULT_SEED)
    if err > tol:
        problems.append(f"relative Frobenius {err:.4f} > {tol} at m={m_main}")
    ladder = (500, 2000, 8000) if quick else (1000, 4000, 16000)
    medians = []
    for m in ladder:
        medians.append(np.median([_mc_frobenius(v, d, m, s) for s in (1, 2, 3)]))
    if any(b >= a for a, b in zip(medians, medians[1:])):
        problems.append(f"medians not decreasing over m={ladder}: {medians}")
    detail = "; ".join(problems) if problems else f"error {err:.4f} at m={m_main}, medians decrease"
    return _result("7 exact kernel vs Monte Carlo", not problems, detail)


# --------------------------------------------------------------------------
# 8. monomial slopes and theory-curve band


def check_monomial_slopes(quick: bool = False) -> CheckResult:
    v = d = 400 if quick else 1000
    alpha = 1.31
    j_lo, j_hi = (10, 150) if quick else (10, 300)
    H = population.PowerLawSpectrum(alpha, v)
    W = simulate.sample_sketch(v, d, DEFAULT_SEED)
    problems = []
    eig1 = spectral.sym_eigenvalues(simulate.exact_population_covariance(W, H, 1))
    fit = spectral.slope_fit(eig1, 5, 100)
    if abs(fit.slope - (-alpha)) > 0.15:
        problems.append(f"p=1 slope {fit.slope:.3f} not within 0.15 of {-alpha}")
    for p in (2, 3):
        eig = spectral.sym_eigenvalues(simulate.exact_population_covariance(W, H, p))
        curve = population.theory_curve(p, alpha)
        js = range(j_lo, j_hi + 1)
        pred = population.predicted_spectrum(curve, curve.scale, js)
        lam = eig[j_lo - 1 : j_hi]
        ratio = (lam / lam[0]) / (pred / pred[0])
        if not (ratio.min() >= 0.25 and ratio.max() <= 4.0):
            problems.append(
                f"p={p} spectrum outside factor-4 band of theory curve: "
                f"[{ratio.min():.3f}, {ratio.max():.3f}]"
            )
    detail = (
        "; ".join(problems)
        if problems
        else f"p=1 slope {fit.slope:.3f}; p=2,3 within factor 4 of theory over j={j_lo}..{j_hi}"
    )
    return _result("8 monomial slopes vs theory", not problems, detail)


# --------------------------------------------------------------------------
# 9. iterated sketches


def check_iterated_sketches(quick: bool = False) -> CheckResult:
    v, dims = (1000, [300, 100, 100]) if quick else (2000, [600, 200, 200])
    j_hi = 40 if quick else 50
    tol = 0.2 if quick else 0.12  # smaller sketches fluctuate more
    alpha = 1.31
    H = population.PowerLawSpectrum(alpha, v)
    stages = simulate.iterated_sketch(H, dims, DEFAULT_SEED)
    problems = []
    for est, dt in zip(stages[1:], dims):
        fit = spectral.slope_fit(est.eigenvalues, 5, j_hi)
        if abs(fit.slope - (-alpha)) > tol:
            problems.append(f"stage dim={dt}: slope {fit.slope:.3f} not within {tol} of {-alpha}")
        nonzero = int(np.sum(est.eigenvalues > est.eigenvalues[0] * 1e-12))
        if nonzero != dt:
            problems.append(f"stage dim={dt}: {nonzero} nonzero eigenvalues")
    slopes = [spectral.slope_fit(e.eigenvalues, 5, j_hi).slope for e in stages[1:]]
    detail = "; ".join(problems) if problems else f"stage slopes {[f'{s:.3f}' for s in slopes]}"
    return _result("9 iterated sketches", not problems, detail)


# --------------------------------------------------------------------------
# 10. eigensolver and Gram contracts


def check_spectral_contracts(quick: bool = False) -> CheckResult:
    rng = np.random.default_rng(DEFAULT_SEED)
    n_mats = 50 if quick else 200
    problems = []
    for _ in range(n_mats):
        n = int(rng.integers(2, 51 if quick else 201))
        B = rng.standard_normal((n, n))
        A = B @ B.T
        eig = spectral.sym_eigenvalues(A)
        tr = float(np.trace(A))
        if abs(eig.sum() - tr) > 1e-8 * (1.0 + abs(tr)):
            problems.append(f"trace mismatch at n={n}")
            break
        if eig.min() < -1e-8 * eig.max():
            problems.append(f"PSD floor violated at n={n}")
            break
    shapes = ((20, 7), (100, 40), (7, 20), (40, 100))  # m < d takes the FF' side
    for m, d in shapes if quick else shapes + ((500, 100), (100, 500)):
        F = rng.standard_normal((m, d))
        a = spectral.gram_spectrum(F, 0.5)
        b = spectral.sym_eigenvalues(0.5 * F.T @ F)
        nz = b > 1e-10 * b[0]
        if not np.allclose(a[: nz.sum()], b[nz], rtol=1e-8):
            problems.append(f"Gram equivalence fails at {m}x{d}")
    for alpha in (0.5, 1.31, 4.0):
        lam = np.arange(1, 201.0) ** -alpha
        fit = spectral.slope_fit(lam, 1, 100)
        if abs(fit.slope + alpha) > 1e-9 or abs(fit.r_squared - 1.0) > 1e-12:
            problems.append(f"slope fit inexact at alpha={alpha}")
    detail = "; ".join(problems) if problems else f"{n_mats} PSD matrices, Gram and fit contracts hold"
    return _result("10 eigensolver contracts", not problems, detail)


# --------------------------------------------------------------------------
# 11. CIFAR-10 (skipped without the dataset)


def check_cifar_layers(quick: bool = False, data_dir=None) -> CheckResult:
    try:
        batches = find_cifar_batches(data_dir)
    except FileNotFoundError as exc:
        return CheckResult("11 CIFAR-10 layer slopes", None, f"skipped: {exc}")
    X = read_cifar10(batches, limit=2000 if quick else 10_000)
    centered = X - X.mean(axis=0)
    eig = spectral.gram_spectrum(centered, 1.0 / X.shape[0])
    fit = spectral.slope_fit(eig, 1, 100)
    problems = []
    if abs(fit.slope - (-1.29)) > 0.05:
        problems.append(f"input slope {fit.slope:.3f} not within 0.05 of -1.29")
    layers = [simulate.LayerSpec(1024, simulate.Activation("tanh"))] * 4
    per_layer = simulate.propagate_layers(X, layers, seed=DEFAULT_SEED, fit_range=(1, 100))
    targets = (-1.28, -1.28, -1.27, -1.28)
    slopes = [fit_t.slope for _, fit_t in per_layer]
    for t, (got, want) in enumerate(zip(slopes, targets), start=1):
        if abs(got - want) > 0.08:
            problems.append(f"layer {t} slope {got:.3f} not within 0.08 of {want}")
    detail = (
        "; ".join(problems)
        if problems
        else f"input {fit.slope:.3f}; layers {[f'{s:.2f}' for s in slopes]}"
    )
    return _result("11 CIFAR-10 layer slopes", not problems, detail)


# --------------------------------------------------------------------------

CHECKS: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("1", check_pairing_tables),
    ("2", check_feynman_counts),
    ("3", check_wick_moments),
    ("4", check_lattice_asymptotics),
    ("5", check_theory_constants),
    ("6", check_envelope),
    ("7", check_mc_vs_exact),
    ("8", check_monomial_slopes),
    ("9", check_iterated_sketches),
    ("10", check_spectral_contracts),
    ("11", check_cifar_layers),
)


def run_all(quick: bool = False, data_dir=None) -> list[CheckResult]:
    out = []
    for name, fn in CHECKS:
        if fn is check_cifar_layers:
            out.append(fn(quick, data_dir))
        else:
            out.append(fn(quick))
    return out
