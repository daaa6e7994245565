"""Job kinds and workloads of the plrf benchmark.

A job kind has three parts: `make` draws the job's inputs from a generator
seeded by the workload seed, `run` makes the library calls of the matching
`plrf` subcommand (this is the timed region), and `check` compares the result
with an independent oracle and returns a list of problems (empty when the
result is correct).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np
from plrf import combinatorics, data, lattice, population, records, simulate, spectral

import oracles

SPECTRUM_FIT = (5, 100)  # `plrf spectrum mc|exact` default fit range
LAYERS_FIT = (1, 100)  # `plrf layers` default fit range
HEAVY_DF = 10.0
TOPK_ALPHA = 1.31  # fixed: see README, "Why topk inputs do not depend on the seed"
LATTICE_X = 5 * 10**5
LATTICE_JITTER = 10**4
THEORY_J = 3000


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable[[np.random.Generator, bool], dict]  # (rng, small) -> inputs
    run: Callable[[dict, Path], Any]
    check: Callable[[dict, Any], list[str]]


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict
    job_id: int


def _alpha(rng: np.random.Generator) -> float:
    return float(rng.uniform(1.2, 1.5))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))))


def _descending(eig: np.ndarray) -> bool:
    return bool(np.all(np.diff(eig) <= 0))


# --------------------------------------------------------------------------
# Monte Carlo feature spectra (`plrf spectrum mc`)


def _mc_maker(p: int, df: float | None):
    def make(rng, small):
        v, d, m = (160, 80, 4000) if small else (800, 400, 10000)
        return {"p": p, "df": df, "v": v, "d": d, "m": m, "alpha": _alpha(rng), "seed": _seed(rng)}

    return make


def _run_mc(prm, workdir):
    if prm["df"] is None:
        dist = simulate.DataDistribution("gaussian")
    else:
        dist = simulate.DataDistribution("student_t", df=prm["df"])
    cfg = simulate.RFConfig(
        v=prm["v"],
        d=prm["d"],
        m=prm["m"],
        alpha=prm["alpha"],
        activation=simulate.Activation("monomial", prm["p"]),
        distribution=dist,
        seed=prm["seed"],
    )
    est = simulate.mc_covariance(cfg)
    fit = spectral.slope_fit(est.eigenvalues, SPECTRUM_FIT[0], min(SPECTRUM_FIT[1], est.eigenvalues.size))
    return {"eig": est.eigenvalues, "slope": fit.slope}


def mc_reference(prm) -> np.ndarray:
    """Population spectrum the Monte Carlo estimate converges to, descending."""
    W = simulate.sample_sketch(prm["v"], prm["d"], prm["seed"])  # the sketch mc_covariance draws
    Y = np.sqrt(oracles.power_law(prm["alpha"], prm["v"]))[:, None] * W
    K = oracles.monomial_kernel(Y, prm["p"])
    if prm["df"] is not None:
        K += oracles.fourth_cumulant_term(Y, oracles.student_t_excess_kurtosis(prm["df"]))
    return np.linalg.eigvalsh((K + K.T) / 2.0)[::-1]


# Tolerances are in units of 1/sqrt(m), the scale of the Monte Carlo error.
# Its tails are heavy (features are powers of heavy-tailed projections): over
# 400 seeds at m=4000 the largest deviations were 31 (leading eigenvalues), 27
# (spectrum) and 16 (trace).  Those limits therefore sit far out and catch
# gross errors only.  The bulk statistic, the median log-ratio over the fit
# range, has light tails (largest 5.8 over the same seeds), so it catches a
# scale error of 20% even at m=4000.  A bias confined to the leading
# eigenvalues, such as dropping the fourth-cumulant term, is not caught per job.
MC_TOP = 5  # leading eigenvalues compared one by one
MC_TOP_TOL = 50.0  # max relative error of the leading eigenvalues
MC_SPEC_TOL = 50.0  # ||eig - ref|| / ||ref||
MC_TRACE_TOL = 30.0  # |sum(eig) / sum(ref) - 1|
MC_BULK_TOL = 12.0  # |median log(eig_j / ref_j)| over the fit range
MC_SLOPE_TOL = 0.15  # absolute, over the fit range


def _check_mc(prm, res):
    eig = res["eig"]
    if eig.shape != (prm["d"],) or not _descending(eig):
        return [f"expected {prm['d']} descending eigenvalues, got shape {eig.shape}"]
    ref = mc_reference(prm)
    out = []
    scale = 1.0 / math.sqrt(prm["m"])
    top = _rel(eig[:MC_TOP], ref[:MC_TOP])
    if top > MC_TOP_TOL * scale:
        out.append(f"leading eigenvalues off by {top:.3g} (tolerance {MC_TOP_TOL * scale:.3g})")
    spec = float(np.linalg.norm(eig - ref) / np.linalg.norm(ref))
    if spec > MC_SPEC_TOL * scale:
        out.append(f"spectrum off by {spec:.3g} (tolerance {MC_SPEC_TOL * scale:.3g})")
    trace = abs(eig.sum() / ref.sum() - 1.0)
    if trace > MC_TRACE_TOL * scale:
        out.append(f"trace off by {trace:.3g} (tolerance {MC_TRACE_TOL * scale:.3g})")
    j_max = min(SPECTRUM_FIT[1], prm["d"])
    fit_range = slice(SPECTRUM_FIT[0] - 1, j_max)
    bulk = abs(float(np.median(np.log(eig[fit_range] / ref[fit_range]))))
    if bulk > MC_BULK_TOL * scale:
        out.append(f"bulk of the spectrum off by a factor exp({bulk:.3g}) (tolerance {MC_BULK_TOL * scale:.3g})")
    own = oracles.loglog_slope(eig, SPECTRUM_FIT[0], j_max)
    if abs(own - res["slope"]) > 1e-9:
        out.append(f"reported slope {res['slope']} != refit {own}")
    want = oracles.loglog_slope(ref, SPECTRUM_FIT[0], j_max)
    if abs(own - want) > MC_SLOPE_TOL:
        out.append(f"slope {own:.4f} not within {MC_SLOPE_TOL} of population slope {want:.4f}")
    return out


# --------------------------------------------------------------------------
# exact population kernel (`plrf spectrum exact`)


def _make_exact(rng, small):
    v = 200 if small else 1500
    return {"p": 3, "v": v, "d": v, "alpha": _alpha(rng), "seed": _seed(rng)}


def _run_exact(prm, workdir):
    H = population.PowerLawSpectrum(prm["alpha"], prm["v"])
    W = simulate.sample_sketch(prm["v"], prm["d"], prm["seed"])
    K = simulate.exact_population_covariance(W, H, prm["p"])
    eig = spectral.sym_eigenvalues(K)
    fit = spectral.slope_fit(eig, *SPECTRUM_FIT)
    return {"K": K, "eig": eig, "slope": fit.slope}


EXACT_SAMPLED_ENTRIES = 16


def _check_exact(prm, res):
    K, eig, d = res["K"], res["eig"], prm["d"]
    if K.shape != (d, d) or eig.shape != (d,) or not _descending(eig):
        return [f"expected a {d}x{d} kernel and {d} descending eigenvalues"]
    out = []
    W = simulate.sample_sketch(prm["v"], d, prm["seed"])
    Y = np.sqrt(oracles.power_law(prm["alpha"], prm["v"]))[:, None] * W
    pick = np.random.default_rng(prm["seed"]).integers(0, d, size=(EXACT_SAMPLED_ENTRIES, 2))
    pick[: EXACT_SAMPLED_ENTRIES // 4, 1] = pick[: EXACT_SAMPLED_ENTRIES // 4, 0]  # some diagonal
    for i, j in pick:
        want = combinatorics.kernel_pair_value(Y[:, i], Y[:, j], prm["p"]) / d
        if abs(K[i, j] - want) > 1e-10 * abs(want):
            out.append(f"K[{i},{j}] = {K[i, j]!r}, oracle {want!r}")
    tr, fro2 = float(np.trace(K)), float(np.sum(K * K))
    if abs(eig.sum() - tr) > 1e-10 * np.abs(eig).sum():
        out.append(f"sum of eigenvalues {eig.sum()!r} != trace {tr!r}")
    if abs(eig @ eig - fro2) > 1e-10 * fro2:
        out.append(f"sum of squared eigenvalues {eig @ eig!r} != squared Frobenius norm {fro2!r}")
    own = oracles.loglog_slope(eig, *SPECTRUM_FIT)
    if abs(own - res["slope"]) > 1e-9:
        out.append(f"reported slope {res['slope']} != refit {own}")
    return out


# --------------------------------------------------------------------------
# iterated population sketches (`plrf selftest` criterion 9)


def _make_iterated(rng, small):
    v, dims = (400, [200, 100, 50]) if small else (3000, [1500, 750, 375])
    return {"v": v, "dims": dims, "alpha": _alpha(rng), "seed": _seed(rng)}


def _run_iterated(prm, workdir):
    H = population.PowerLawSpectrum(prm["alpha"], prm["v"])
    return [s.eigenvalues for s in simulate.iterated_sketch(H, prm["dims"], prm["seed"])]


ITERATED_TRACE_SIGMAS = 6.0


def _check_iterated(prm, stages):
    if len(stages) != len(prm["dims"]) + 1:
        return [f"expected {len(prm['dims']) + 1} stages, got {len(stages)}"]
    out = []
    if not np.array_equal(stages[0], oracles.power_law(prm["alpha"], prm["v"])):
        out.append("stage 0 differs from H")
    for t, (prev, eig, dt) in enumerate(zip(stages, stages[1:], prm["dims"]), start=1):
        if eig.shape != (dt,) or not _descending(eig):
            out.append(f"stage {t}: expected {dt} descending eigenvalues, got shape {eig.shape}")
            continue
        nonzero = int(np.sum(eig > eig[0] * 1e-12))
        if nonzero != dt:
            out.append(f"stage {t}: {nonzero} nonzero eigenvalues, expected {dt}")
        # tr(W'MW)/d has mean tr(M) and variance 2 tr(M^2)/d for Gaussian W
        z = (eig.sum() - prev.sum()) / math.sqrt(2.0 * float(prev @ prev) / dt)
        if abs(z) > ITERATED_TRACE_SIGMAS:
            out.append(f"stage {t}: trace moved by {z:.1f} standard deviations")
    return out


# --------------------------------------------------------------------------
# multi-layer propagation (`plrf layers`)


def _make_layers(rng, small):
    v, n, w = (128, 256, 64) if small else (512, 4096, 512)
    return {"v": v, "n": n, "widths": [w] * 4, "alpha": _alpha(rng), "seed": _seed(rng)}


def _run_layers(prm, workdir):
    H = population.PowerLawSpectrum(prm["alpha"], prm["v"])
    stream = np.random.Philox(np.random.SeedSequence(prm["seed"], spawn_key=(97,)))
    X = np.random.Generator(stream).standard_normal((prm["n"], prm["v"])) * np.sqrt(H.eigenvalues)
    act = simulate.Activation("tanh")
    layers = [simulate.LayerSpec(w, act) for w in prm["widths"]]
    res = simulate.propagate_layers(X, layers, seed=prm["seed"], fit_range=LAYERS_FIT)
    return {"eig": [est.eigenvalues for est, _ in res], "slopes": [fit.slope for _, fit in res]}


LAYER_SLOPE_BAND = (-4.0, -0.5)  # a decaying power law; narrow widths decay fastest


def _check_layers(prm, res):
    out = []
    if len(res["eig"]) != len(prm["widths"]):
        return [f"expected {len(prm['widths'])} layers, got {len(res['eig'])}"]
    for t, (eig, slope, w) in enumerate(zip(res["eig"], res["slopes"], prm["widths"]), start=1):
        size = min(prm["n"], w)
        if eig.shape != (size,) or not _descending(eig):
            out.append(f"layer {t}: expected {size} descending eigenvalues, got shape {eig.shape}")
            continue
        if eig[-1] < -1e-9 * eig[0]:
            out.append(f"layer {t}: not PSD (smallest eigenvalue {eig[-1]!r})")
        if eig.sum() > w:  # tanh features lie in (-1, 1), so each variance is below 1
            out.append(f"layer {t}: trace {eig.sum()!r} exceeds the width {w}")
        own = oracles.loglog_slope(eig, LAYERS_FIT[0], min(LAYERS_FIT[1], size))
        if abs(own - slope) > 1e-9:
            out.append(f"layer {t}: reported slope {slope} != refit {own}")
        if not LAYER_SLOPE_BAND[0] <= own <= LAYER_SLOPE_BAND[1]:
            out.append(f"layer {t}: slope {own:.4f} outside {LAYER_SLOPE_BAND}")
    return out


# --------------------------------------------------------------------------
# tuple-product top-k (`plrf spectrum hpi --out`)


def _make_topk(rng, small):
    if small:
        return {"alpha": TOPK_ALPHA, "k": 2000, "cases": [(2000, (1, 1)), (300, (1, 1, 1))]}
    return {"alpha": TOPK_ALPHA, "k": 3 * 10**4, "cases": [(20000, (1, 1)), (5000, (1, 1, 1))]}


def _run_topk(prm, workdir):
    out = []
    for v, parts in prm["cases"]:
        top = population.hpi_top_k(population.PowerLawSpectrum(prm["alpha"], v), parts, prm["k"])
        est = records.SpectrumEstimate(
            eigenvalues=top.values(),
            dims=(v, len(parts)),
            samples=0,
            activation=f"tuple-product{list(parts)}",
            seed=0,
            meta={"alpha": repr(prm["alpha"]), "truncated": str(top.truncated).lower()},
        )
        path = Path(workdir) / f"hpi_{'_'.join(map(str, parts))}.csv"
        data.write_spectrum_csv(est, path)
        out.append({"top": top, "path": path})
    return out


TOPK_GUARD = 1e-9  # completeness is checked strictly above (1 + guard) * k-th value


def topk_arrays(top) -> tuple[np.ndarray, np.ndarray]:
    """(n, l) 1-based index array and value vector of a TopTuples result."""
    l = len(top[0].indices) if len(top) else 0
    flat = itertools.chain.from_iterable(e.indices for e in top)
    idx = np.fromiter(flat, dtype=np.int64, count=len(top) * l).reshape(len(top), l)
    return idx, np.fromiter((e.value for e in top), dtype=float, count=len(top))


def _check_topk(prm, res):
    out = []
    for (v, parts), case in zip(prm["cases"], res):
        top, tag = case["top"], f"pi={parts}"
        idx, vals = topk_arrays(top)
        l, total = len(parts), math.comb(v, len(parts))
        if idx.shape != (min(prm["k"], total), l) or top.truncated != (prm["k"] > total):
            out.append(f"{tag}: got {idx.shape[0]} tuples (truncated={top.truncated})")
            continue
        if np.any(idx < 1) or np.any(idx > v) or np.any(np.diff(idx, axis=1) <= 0):
            out.append(f"{tag}: an index tuple is out of range or not strictly increasing")
            continue
        h = oracles.power_law(prm["alpha"], v)
        err = _rel(vals, oracles.tuple_values(h, parts, idx))
        if err > 1e-12:
            out.append(f"{tag}: values differ from their indices' products by {err:.3g}")
        order = np.lexsort(tuple(idx[:, t] for t in reversed(range(l))) + (-vals,))
        if not np.array_equal(order, np.arange(idx.shape[0])):
            out.append(f"{tag}: not sorted by descending value, then index tuple")
        if np.any(np.all(idx[1:] == idx[:-1], axis=1)):  # sorted, so repeats would be adjacent
            out.append(f"{tag}: repeated index tuples")
        x = vals[-1] * (1.0 + TOPK_GUARD)
        want, got = oracles.tuple_count_above(h, parts, x), int(np.sum(vals > x))
        if want != got:
            out.append(f"{tag}: {want} tuples lie above {x!r} but {got} were returned")
        j, lam = oracles.read_csv_values(case["path"])
        if not (np.array_equal(j, np.arange(1, vals.size + 1)) and np.array_equal(lam, vals)):
            out.append(f"{tag}: CSV does not read back bit-identical")
    return out


# --------------------------------------------------------------------------
# theory spectra (`plrf spectrum theory`)


def _make_theory(rng, small):
    return {"alpha": _alpha(rng), "j_max": 300 if small else THEORY_J}


def _run_theory(prm, workdir):
    out = {}
    for p in (2, 3):
        curve = population.theory_curve(p, prm["alpha"])
        eps = population.predicted_spectrum(curve, curve.scale, range(1, prm["j_max"] + 1))
        out[p] = {"C": curve.scale, "eps": eps}
    return out


THEORY_RTOL = 1e-8 * (1.0 + 1e-6)  # the documented 1e-8 j, plus round-off of eps -> u


def _check_theory(prm, res):
    out = []
    j = np.arange(1, prm["j_max"] + 1, dtype=float)
    for p, r in res.items():
        eps = r["eps"]
        if eps.shape != j.shape or np.any(np.diff(eps) >= 0):
            out.append(f"p={p}: expected {j.size} strictly decreasing values")
            continue
        u = (eps / r["C"]) ** (-1.0 / prm["alpha"])
        worst = float(np.max(np.abs(oracles.counting_curve(u, p, prm["alpha"]) - j) / j))
        if worst > THEORY_RTOL:
            out.append(f"p={p}: |N(u_j) - j| reaches {worst:.3g} j")
    return out


# --------------------------------------------------------------------------
# lattice counts (`plrf lattice count`)


def _make_lattice(rng, small):
    base, jitter = (10**4, 100) if small else (LATTICE_X, LATTICE_JITTER)
    return {"X": base + int(rng.integers(-jitter, jitter + 1))}


def _run_lattice(prm, workdir):
    X = float(prm["X"])
    return {
        (1, 1, 1): lattice.count_unordered(X, (1, 1, 1)).count,
        (1, 2): lattice.count_unordered(X, (1, 2)).count,
    }


@lru_cache(maxsize=1)
def divisor_table() -> np.ndarray:
    """Divisor prefix sums up to the largest lattice X, validated against the golden counts."""
    D = oracles.divisor_prefix(LATTICE_X + LATTICE_JITTER)
    for X, want in oracles.GOLDEN_111.items():
        if oracles.count_111(X, D) != want:
            raise RuntimeError(f"divisor-sieve oracle disagrees with the golden count at X={X}")
    return D


def _check_lattice(prm, res):
    X = prm["X"]
    want = {(1, 1, 1): oracles.count_111(X, divisor_table()), (1, 2): oracles.count_12(X)}
    return [f"pi={pi}: count {res.get(pi)} != oracle {n}" for pi, n in want.items() if res.get(pi) != n]


# --------------------------------------------------------------------------

KINDS = {
    k.name: k
    for k in (
        Kind("mc_gauss_p2", _mc_maker(2, None), _run_mc, _check_mc),
        Kind("mc_gauss_p3", _mc_maker(3, None), _run_mc, _check_mc),
        Kind("mc_heavy", _mc_maker(2, HEAVY_DF), _run_mc, _check_mc),
        Kind("exact_kernel", _make_exact, _run_exact, _check_exact),
        Kind("iterated", _make_iterated, _run_iterated, _check_iterated),
        Kind("layers", _make_layers, _run_layers, _check_layers),
        Kind("topk", _make_topk, _run_topk, _check_topk),
        Kind("theory", _make_theory, _run_theory, _check_theory),
        Kind("lattice", _make_lattice, _run_lattice, _check_lattice),
    )
}

# Each workload runs its kinds round-robin; position i is reported as job{i+1}_s_p50.
WORKLOADS = {
    "mc_sampling": ("mc_gauss_p2", "mc_gauss_p3", "mc_heavy"),
    "exact_spectra": ("exact_kernel", "iterated", "layers"),
    "population_lattice": ("topk", "theory", "lattice"),
}


def make_job(workload: str, seed: int, rnd: int, slot: int, small: bool = False) -> Job:
    """Job `slot` of round `rnd`; a pure function of (workload, seed, rnd, slot, small)."""
    kind = WORKLOADS[workload][slot]
    w = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, w, rnd, slot, int(small)])
    return Job(kind, KINDS[kind].make(rng, small), rnd * len(WORKLOADS[workload]) + slot)
