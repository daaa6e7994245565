"""Population spectra of tuple-product covariances over a power-law base.

For a decreasing base spectrum H and an exponent composition (a_1, ..., a_l),
the induced diagonal operator carries one entry H_{i_1}^{a_1} ... H_{i_l}^{a_l}
per strictly increasing index tuple i_1 < ... < i_l, with a_1 applied to the
smallest index.  This module enumerates the top of that spectrum by threshold
search with branch pruning (a few counting passes, then one emit at a cutoff
extrapolated to hold 1.25 k entries, kept by a stable sort on value), counts
entries above a threshold, evaluates the
(log^(p-1)(j+1)/j)^alpha eigenvalue envelope, and builds the
zero-free-parameter counting curves N(u) for monomial degrees 1-3, whose
inversion (one array regula falsi in log-log, shared with `lattice`)
predicts eigenvalues eps_j = C u_j^(-alpha).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from . import lattice
from .combinatorics import Composition, _as_composition
from .errors import InvalidInput

__all__ = [
    "PowerLawSpectrum",
    "TupleEigenvalue",
    "TopTuples",
    "CountingCurve",
    "hpi_top_k",
    "hpi_count_above",
    "envelope",
    "theory_curve",
    "predicted_spectrum",
]

_TIE_GUARD = 1.0 - 1e-12  # values this close to the threshold count as above
_TINY = np.finfo(float).tiny  # smallest normal float; eps_j below it has underflowed
_SMALLEST = math.ulp(0.0)  # smallest positive float; a product below it is 0.0
_MIN_BLOCK = 2**15  # fewest emitted tuples merged into the kept top-k at once
MAX_TUPLE_LENGTH = 4
MAX_TOP_K = 10**7


@dataclass(frozen=True)
class PowerLawSpectrum:
    """Decreasing positive base spectrum; defaults to H_j = j^(-alpha)."""

    alpha: float
    v: int
    eigenvalues: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise InvalidInput(f"alpha > 1 required, got {self.alpha}")
        if self.v < 1:
            raise InvalidInput(f"dimension v must be >= 1, got {self.v}")
        if self.eigenvalues is None:
            eig = np.arange(1, self.v + 1, dtype=float) ** -self.alpha
        else:
            eig = np.array(self.eigenvalues, dtype=float)
            if eig.shape != (self.v,):
                raise InvalidInput(f"expected {self.v} eigenvalues, got shape {eig.shape}")
        bad = np.flatnonzero(~((eig > 0) & (eig < np.inf)))
        if bad.size:  # the default j^(-alpha) underflows to 0 for a large alpha
            j, value = int(bad[0]) + 1, float(eig[bad[0]])
            raise InvalidInput(
                f"eigenvalues must be strictly positive and finite, got H_{j} = {value!r} "
                f"(alpha = {self.alpha!r}, v = {self.v})"
            )
        if np.any(np.diff(eig) > 0):
            raise InvalidInput("eigenvalues must be nonincreasing")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)


class TupleEigenvalue(NamedTuple):
    """One diagonal entry: the index tuple and its product value."""

    indices: tuple[int, ...]
    value: float


class TopTuples(Sequence):
    """Descending tuple-product entries with a truncation marker.

    Held as an (n, l) index array and a value vector; indexing builds the
    TupleEigenvalue of one entry and `values()` returns the value vector.
    `truncated` is set when the requested k exceeded the number of tuples, in
    which case all of them are returned.
    """

    def __init__(self, entries: Iterable[TupleEigenvalue], truncated: bool = False):
        entries = list(entries)
        l = len(entries[0].indices) if entries else 0
        self._indices = np.array([e.indices for e in entries], np.int64).reshape(len(entries), l)
        self._values = np.array([e.value for e in entries], dtype=float)
        self._values.flags.writeable = False
        self.truncated = bool(truncated)

    @classmethod
    def _from_arrays(cls, indices: np.ndarray, values: np.ndarray, truncated: bool) -> TopTuples:
        top = cls.__new__(cls)
        top._indices, top._values, top.truncated = indices, values, bool(truncated)
        values.flags.writeable = False
        return top

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return TupleEigenvalue(tuple(self._indices[i].tolist()), float(self._values[i]))

    def __iter__(self):
        return map(TupleEigenvalue, map(tuple, self._indices.tolist()), self._values.tolist())

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        return self._values

    def __repr__(self) -> str:
        return f"TopTuples(n={len(self)}, truncated={self.truncated})"


def _prefix_search(
    H: PowerLawSpectrum, comp: Composition, eps: float, emit: bool, keep: int | None = None
):
    """The tuples i_1 < ... < i_l with product >= eps: their count, or with
    `emit` an (n, l) int64 index array and the float64 values.

    The outer l-1 coordinates are walked depth first in O(l) state, pruning a
    prefix when even its best completion (all remaining factors at the next
    index) falls below eps; the innermost coordinate of each prefix is one run
    [start, end], found by binary search.  Ties within relative 1e-12 of eps
    count as above.

    Emitted rows come in strictly increasing lexicographic order: prefixes
    are visited in increasing order and each run ascends.  With `keep`, only
    the `keep` largest values are returned, descending, ties in that
    lexicographic order: whenever max(4 * keep, 2**15) or more emitted tuples
    are pending (one run may overrun that), they are merged into the rows
    kept so far by one stable sort, so memory follows `keep`, not the number
    of qualifying tuples.
    """
    parts = comp.parts
    l = comp.length
    v = H.v
    eig = H.eigenvalues
    a_last = parts[-1]
    floor_eps = eps * _TIE_GUARD
    tail = [float(sum(parts[t:])) for t in range(l + 1)]  # exponent sums for the completion bound
    idx = [0] * (l - 1)
    runs = []  # (*prefix indices, prefix value, start, end) per nonempty innermost run
    count = 0  # tuples found; with `keep`, those not yet merged
    block = None if keep is None else max(4 * keep, _MIN_BLOCK)
    kept = None  # with `keep`: the (indices, values) kept so far

    def expand_runs():
        run = np.array(runs, dtype=float).reshape(-1, l + 2)
        runs.clear()
        starts = run[:, l].astype(np.int64)
        lengths = run[:, l + 1].astype(np.int64) - starts + 1
        # innermost index of every tuple: the runs start..end laid end to end
        last = np.arange(lengths.sum()) + np.repeat(starts + lengths - np.cumsum(lengths), lengths)
        # the scalar pow of the prefix loop (the array power differs in the
        # last bit), which returns H_i itself for an exponent of 1
        top = int(run[:, l + 1].max(initial=0))
        if a_last == 1:
            powers = eig[:top]
        else:
            powers = np.fromiter(map(math.pow, eig[:top].tolist(), repeat(float(a_last))), float, top)
        values = np.repeat(run[:, l - 1], lengths) * powers[last - 1]
        indices = np.column_stack((np.repeat(run[:, : l - 1].astype(np.int64), lengths, axis=0), last))
        return indices, values

    def merge_runs() -> None:
        # the kept rows precede the runs lexicographically, so a stable sort
        # by value leaves tied rows in lexicographic order
        nonlocal kept
        indices, values = expand_runs()
        if kept is not None:
            indices, values = np.concatenate((kept[0], indices)), np.concatenate((kept[1], values))
        order = np.argsort(-values, kind="stable")[:keep]
        kept = np.take(indices, order, axis=0), values[order]

    def rec(depth: int, start: int, prefix: float) -> None:
        nonlocal count
        if depth == l - 1:
            # largest end in [start, v] with prefix * H_end^a >= floor_eps, else
            # start-1; a run that qualifies up to v skips the bisection
            end, hi = (v if prefix * eig[v - 1] ** a_last >= floor_eps else start - 1), v
            while hi - end > 1:
                mid = (end + hi) // 2
                if prefix * eig[mid - 1] ** a_last >= floor_eps:
                    end = mid
                else:
                    hi = mid
            if end >= start:
                count += end - start + 1
                if emit:
                    runs.append((*idx, prefix, start, end))
                    if block is not None and count >= block:
                        merge_runs()
                        count = 0
            return
        a = parts[depth]
        for i in range(start, v - (l - 1 - depth) + 1):
            value = prefix * eig[i - 1] ** a
            if value * eig[i] ** tail[depth + 1] < floor_eps:
                break  # products only shrink as i grows
            idx[depth] = i
            rec(depth + 1, i + 1, value)

    rec(0, 1, 1.0)
    if not emit:
        return count
    if keep is None:
        return expand_runs()
    if runs or kept is None:
        merge_runs()
    return kept


def hpi_count_above(H: PowerLawSpectrum, composition, eps: float) -> int:
    """#{i_1 < ... < i_l <= v : H_{i_1}^{a_1} ... H_{i_l}^{a_l} >= eps}.

    Counts by the depth-first prefix search in O(l) memory; ties within
    relative 1e-12 of eps count as above.
    """
    if not eps > 0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    return _prefix_search(H, _as_composition(composition), eps, emit=False)


def hpi_top_k(H: PowerLawSpectrum, composition, k: int) -> TopTuples:
    """The k largest products H_{i_1}^{a_1} ... H_{i_l}^{a_l}, descending.

    Threshold search: halve a cutoff from the top product, counting, until
    k/32 entries qualify and the last two counts differ; fit log count
    against log cutoff through those two counts and emit once at the cutoff
    predicted to hold 1.25 k entries.  An emit that falls short of k fits
    again through its own count and emits again.  Tuples are emitted in
    lexicographic order, so one stable sort on value keeps the k largest
    with ties broken by lexicographic index tuple.  Equals full enumeration
    plus sort, in memory that follows k, not C(v, l).  A largest product
    that overflows, or fewer than k positive products in floating point,
    is refused.
    """
    comp = _as_composition(composition)
    if not 1 <= k <= MAX_TOP_K:
        raise InvalidInput(f"k must lie in [1, {MAX_TOP_K}], got {k}")
    l = comp.length
    if l > MAX_TUPLE_LENGTH:
        raise InvalidInput(f"composition length <= {MAX_TUPLE_LENGTH} supported, got {l}")
    if l > H.v:
        raise InvalidInput(f"need v >= {l} base entries, got v={H.v}")
    total = math.comb(H.v, l)
    k_eff = min(k, total)

    eig = H.eigenvalues
    top_val = math.prod(float(eig[t]) ** comp.parts[t] for t in range(l))
    min_val = math.prod(float(eig[H.v - l + t]) ** comp.parts[t] for t in range(l))
    if top_val == math.inf:
        raise InvalidInput(
            f"the largest tuple product overflows float range (v = {H.v}, "
            f"alpha = {H.alpha!r}, composition = {comp.parts})"
        )
    # every tuple qualifies at min_val; if that underflows, the smallest
    # positive float admits exactly the positive products
    lowest = min_val if min_val > 0 else _SMALLEST

    # halve from the top product, counting, while the count is far below k or
    # gives no slope yet; then emit where the log-log line through the last
    # two counts predicts 1.25 k tuples, extrapolating again past a shortfall
    eps = max(top_val, lowest)
    points = [(eps, hpi_count_above(H, comp, eps))]
    while True:
        eps, count = points[-1]
        if count < k_eff:
            if eps <= lowest:
                raise InvalidInput(
                    f"only {count} of the {total} tuple products are positive in floating "
                    f"point, fewer than k = {k} (v = {H.v}, alpha = {H.alpha!r}, "
                    f"composition = {comp.parts})"
                )
            if count < k_eff / 32 or len(points) < 2 or points[-2][1] == count:
                eps = max(eps / 2.0, lowest)
                points.append((eps, hpi_count_above(H, comp, eps)))
                continue
            e0, c0 = points[-2]
            slope = math.log(count / c0) / (math.log(e0) - math.log(eps))
            eps = max(eps * (count / (1.25 * k_eff)) ** (1.0 / slope), lowest)
        indices, values = _prefix_search(H, comp, eps, emit=True, keep=k_eff)
        if values.size >= k_eff:
            return TopTuples._from_arrays(indices, values, truncated=k > total)
        points.append((eps, values.size))


def envelope(j: int, alpha: float, p: int) -> float:
    """Eigenvalue envelope (log^(p-1)(j+1) / j)^alpha."""
    if j < 1:
        raise InvalidInput(f"index j must be >= 1, got {j}")
    return float((math.log(j + 1.0) ** (p - 1) / j) ** alpha)


@dataclass(frozen=True)
class CountingCurve:
    """Eigenvalue counting curve N(u) for a monomial degree p in {1, 2, 3}.

    N(u) = principal_weight * u * (log u)^(p-1) + b_theory * u, where b_theory
    sums the non-diagonal subleading weights; the diagonal term is O(u^(1/3))
    and is recorded but dropped from evaluation.  Inverting N at integer
    heights and applying eps_j = C * u_j^(-alpha) predicts the spectrum.
    """

    p: int
    alpha: float
    principal_weight: float
    subleading_terms: tuple[tuple[float, tuple[int, ...], str], ...]
    scale: float  # the anchor constant C relating thresholds to u^(-alpha)

    @property
    def b_theory(self) -> float:
        return sum(w for w, _, kind in self.subleading_terms if kind != "diagonal")

    def evaluate(self, u):
        """N(u) at a float u or elementwise over an array of u."""
        if not np.all(u > 0):
            raise InvalidInput(f"curve defined for u > 0, got {u}")
        return self.principal_weight * u * np.log(u) ** (self.p - 1) + self.b_theory * u


def theory_curve(p: int, alpha: float) -> CountingCurve:
    """Zero-free-parameter counting curve for monomial degree p.

    p=1: N(u) = u.  p=2: N(u) = u log(u) / 2 with no linear correction.
    p=3: N(u) = u log^2(u) / 12 + b u with b = zeta(2)/2^(1/alpha) + 4^(-1/alpha);
    the diagonal O(u^(1/3)) term is recorded with kind "diagonal" and dropped.
    Like PowerLawSpectrum, the curves assume alpha > 1; alpha must be finite.
    """
    if not alpha > 1.0:
        raise InvalidInput(f"alpha > 1 required, got {alpha}")
    if not math.isfinite(alpha):
        raise InvalidInput(f"alpha must be finite, got {alpha}")
    if p == 1:
        return CountingCurve(1, alpha, 1.0, (), 1.0)
    if p == 2:
        return CountingCurve(2, alpha, 0.5, (), 2.0)
    if p == 3:
        sub = (
            (lattice.zeta(2.0) / 2.0 ** (1.0 / alpha), (2, 1), "unordered"),
            (4.0 ** (-1.0 / alpha), (1,), "linear"),
            (6.0 ** (-1.0 / (3.0 * alpha)), (3,), "diagonal"),
        )
        return CountingCurve(3, alpha, 1.0 / 12.0, sub, 36.0)
    raise InvalidInput(f"theory curves are available for p in {{1, 2, 3}}, got p={p}")


def predicted_spectrum(curve: CountingCurve, C: float, j_range) -> np.ndarray:
    """Predicted eigenvalues eps_j = C * u_j^(-alpha) with N(u_j) = j.

    `j_range` is an iterable of indices in [1, 1e7] (a `range` is read as one
    array).  All u_j are solved by one masked regula falsi in log-log to
    |N(u_j) - j| <= 1e-8 j (closed form for p=1); the output is strictly
    decreasing.  C and alpha must be finite, and an eps_j outside the normal
    float range (below 2.2e-308 or infinite) is refused naming the first j
    affected.
    """
    if not C > 0:
        raise InvalidInput(f"scale C must be positive, got {C}")
    if not math.isfinite(C):
        raise InvalidInput(f"scale C must be finite, got {C}")
    if not math.isfinite(curve.alpha):
        raise InvalidInput(f"alpha must be finite, got {curve.alpha}")
    if isinstance(j_range, range):
        js = np.arange(j_range.start, j_range.stop, j_range.step, dtype=float)
    else:
        js = np.fromiter(map(int, j_range), dtype=float)
    if not js.size:
        return np.empty(0)
    if js.min() < 1 or js.max() > 10**7:
        raise InvalidInput("indices must lie within [1, 1e7]")
    if np.any(np.diff(js) <= 0):
        raise InvalidInput("j_range must be strictly increasing")

    if curve.p == 1:
        us = js
    else:
        lo = 1.0 if curve.p == 2 else 1e-9
        us = lattice._invert_increasing(curve.evaluate, js, lo, 4.0, 1e-8)
    with np.errstate(over="ignore"):
        out = C * us ** -curve.alpha
    bad = np.flatnonzero((out < _TINY) | (out == np.inf))
    if bad.size:
        j, eps = int(js[bad[0]]), out[bad[0]]
        raise InvalidInput(
            f"eps_j = C u_j^(-alpha) {'underflows' if eps < _TINY else 'overflows'} float range "
            f"from j = {j} (C = {C!r}, alpha = {curve.alpha!r}, p = {curve.p})"
        )
    if not np.all(np.diff(out) < 0):  # also fails on NaN
        raise RuntimeError("predicted spectrum is not strictly decreasing")
    return out
