"""Exact combinatorics of the monomial Gaussian kernel.

By Isserlis' theorem the population kernel entry E_z[(y_i'z)^p (y_j'z)^p]
for standard Gaussian z is a sum over perfect matchings of 2p points.
Matchings are classified by their number of cross pairs q, with

    #{matchings with q cross pairs} = C(p,q)^2 * q! * ((p-q-1)!!)^2,

so the kernel entry is an explicit polynomial in <y_i,y_i>, <y_j,y_j> and
<y_i,y_j>.  This module provides those matchings and class counts, the
Hermite expansion of monomials, Feynman-diagram multiplicities for powers of
independent Gaussians, and evaluation of Wick products via He_n identities.

All combinatorial quantities are computed in exact integer arithmetic and are
meant to serve as ground truth for the numerical modules.  Enumeration-style
operations are capped at degree 8; the closed forms have no such limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidInput

__all__ = [
    "Composition",
    "Pairing",
    "PairingClassTable",
    "HermiteExpansion",
    "OddMomentWarning",
    "double_factorial",
    "compositions",
    "iter_pairings",
    "pairing_class_counts",
    "kernel_pair_value",
    "isserlis_moment",
    "monomial_hermite_coefficients",
    "hermite_value",
    "feynman_count",
    "wick_product_value",
]

ENUMERATION_CAP = 8
HERMITE_DEGREE_CAP = 64


def double_factorial(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n < -1:
        raise InvalidInput(f"double factorial undefined for n={n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integer parts; position matters.

    A composition of q = sum(parts).  Distinct orderings of the same multiset
    are distinct compositions (never collapsed to partitions).
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise InvalidInput("composition needs at least one part")
        if any(p < 1 for p in parts):
            raise InvalidInput(f"all parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)


def _as_composition(composition) -> Composition:
    if isinstance(composition, Composition):
        return composition
    return Composition(tuple(composition))


def compositions(q: int) -> list[Composition]:
    """All 2^(q-1) compositions of q, in descending-first-part order.

    q=3 yields (3), (2,1), (1,2), (1,1,1).
    """
    if q < 1:
        raise InvalidInput(f"q must be a positive integer, got {q}")
    if q > 24:
        raise InvalidInput(f"q={q} would enumerate 2^{q - 1} compositions")

    out: list[Composition] = []
    prefix: list[int] = []

    def rec(remaining: int) -> None:
        if remaining == 0:
            out.append(Composition(tuple(prefix)))
            return
        for first in range(remaining, 0, -1):
            prefix.append(first)
            rec(remaining - first)
            prefix.pop()

    rec(q)
    return out


@dataclass(frozen=True)
class Pairing:
    """Perfect matching of {1, ..., 2p} into p unordered pairs."""

    pairs: tuple[tuple[int, int], ...]
    degree: int

    def __post_init__(self) -> None:
        pairs = tuple(tuple(sorted(pr)) for pr in self.pairs)
        pairs = tuple(sorted(pairs))
        seen: set[int] = set()
        for a, b in pairs:
            if a == b or a in seen or b in seen:
                raise InvalidInput(f"not a perfect matching: {pairs}")
            seen.update((a, b))
        if seen != set(range(1, 2 * self.degree + 1)):
            raise InvalidInput(f"pairs must cover 1..{2 * self.degree} exactly")
        object.__setattr__(self, "pairs", pairs)

    @property
    def cross_count(self) -> int:
        """Number of pairs joining {1..p} to {p+1..2p}."""
        p = self.degree
        return sum(1 for a, b in self.pairs if a <= p < b)


def _iter_matchings(vertices: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    # pair the smallest free vertex with every later one, in increasing order
    if not vertices:
        yield ()
        return
    a = vertices[0]
    rest = vertices[1:]
    for i, b in enumerate(rest):
        for tail in _iter_matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + tail


def iter_pairings(p: int) -> Iterator[Pairing]:
    """Stream the (2p-1)!! perfect matchings of {1..2p} in deterministic order.

    `p` is checked at the call, before the first matching is made.
    """
    if p < 1:
        raise InvalidInput(f"p must be >= 1, got {p}")
    if p > ENUMERATION_CAP:
        raise InvalidInput(
            f"p={p} exceeds the enumeration cap {ENUMERATION_CAP} "
            f"((2p-1)!! growth; enumeration exists for oracle checks only)"
        )
    return (Pairing(pairs, p) for pairs in _iter_matchings(tuple(range(1, 2 * p + 1))))


@dataclass(frozen=True)
class PairingClassTable:
    """For each cross-pair count q, the number of matchings of {1..2p} with q cross pairs."""

    degree: int
    counts: Mapping[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def pairing_class_counts(p: int) -> PairingClassTable:
    """Closed-form matching class counts C(p,q)^2 q! ((p-q-1)!!)^2.

    counts[q] > 0 only for q = p, p-2, p-4, ...; the table sums to (2p-1)!!.
    """
    if p < 1:
        raise InvalidInput(f"p must be >= 1, got {p}")
    counts: dict[int, int] = {}
    for q in range(p % 2, p + 1, 2):
        counts[q] = math.comb(p, q) ** 2 * math.factorial(q) * double_factorial(p - q - 1) ** 2
    return PairingClassTable(p, counts)


def kernel_pair_value(y_i: Sequence[float], y_j: Sequence[float], p: int) -> float:
    """Exact population kernel entry E_z[(y_i'z)^p (y_j'z)^p], z ~ N(0, I).

    Evaluates sum_q counts[q] * (<y_i,y_i><y_j,y_j>)^((p-q)/2) * <y_i,y_j>^q
    using the matching class counts; no Monte Carlo error.
    """
    yi = np.asarray(y_i, dtype=float)
    yj = np.asarray(y_j, dtype=float)
    if yi.ndim != 1 or yi.shape != yj.shape:
        raise InvalidInput(f"dimension mismatch: {yi.shape} vs {yj.shape}")
    if not (np.all(np.isfinite(yi)) and np.all(np.isfinite(yj))):
        raise InvalidInput("vectors must be finite")
    gii = float(yi @ yi)
    gjj = float(yj @ yj)
    gij = float(yi @ yj)
    table = pairing_class_counts(p)
    out = 0.0
    for q, n in table.counts.items():
        out += n * (gii * gjj) ** ((p - q) // 2) * gij**q
    return out


class OddMomentWarning(UserWarning):
    """An odd-size index multiset was passed; the moment is zero by symmetry."""


def isserlis_moment(indices: Sequence, covariance) -> float:
    """Mixed Gaussian moment E[g_{i_1} ... g_{i_2n}] as a sum over matchings.

    `covariance` is either a callable (a, b) -> Cov(g_a, g_b) or a 2-D array
    indexed by the labels.  Odd-size multisets return 0 with an
    OddMomentWarning.
    """
    labels = tuple(indices)
    n = len(labels)
    if n % 2:
        warnings.warn(
            "odd-size index multiset: moment is zero by symmetry", OddMomentWarning, stacklevel=2
        )
        return 0.0
    if n == 0:
        return 1.0
    if n > 16:
        raise InvalidInput(f"multiset size {n} exceeds the cap of 16")

    if callable(covariance):
        cov: Callable = covariance
    else:
        mat = np.asarray(covariance, dtype=float)

        def cov(a, b, _m=mat):
            return float(_m[a, b])

    def rec(pos: tuple[int, ...]) -> float:
        if not pos:
            return 1.0
        a = pos[0]
        rest = pos[1:]
        out = 0.0
        for i, b in enumerate(rest):
            c = cov(labels[a], labels[b])
            if c != 0.0:
                out += c * rec(rest[:i] + rest[i + 1 :])
        return out

    return rec(tuple(range(n)))


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients c_k with y^p = sum_k c_k He_k(y), k = p (mod 2)."""

    degree: int
    coefficients: Mapping[int, int]

    @property
    def parseval(self) -> int:
        """sum_k c_k^2 k!  (= E[y^(2p)] = (2p-1)!! for standard Gaussian y)."""
        return sum(c * c * math.factorial(k) for k, c in self.coefficients.items())


def monomial_hermite_coefficients(p: int) -> HermiteExpansion:
    """Expansion of y^p over probabilists' Hermite polynomials, exactly.

    c_k = p! / (k! * 2^((p-k)/2) * ((p-k)/2)!) for k = p, p-2, ..., always an
    integer (it counts partial matchings of p points leaving k unpaired).
    """
    if p < 1:
        raise InvalidInput(f"p must be >= 1, got {p}")
    coeffs: dict[int, int] = {}
    for k in range(p % 2, p + 1, 2):
        half = (p - k) // 2
        coeffs[k] = math.factorial(p) // (math.factorial(k) * 2**half * math.factorial(half))
    return HermiteExpansion(p, coeffs)


def hermite_value(k: int, y):
    """Probabilists' Hermite polynomial He_k(y) by the three-term recurrence.

    He_0 = 1, He_1 = y, He_{n+1} = y He_n - n He_{n-1}.  Accepts scalars or
    numpy arrays (applied elementwise).
    """
    if not 0 <= k <= HERMITE_DEGREE_CAP:
        raise InvalidInput(f"k must lie in [0, {HERMITE_DEGREE_CAP}], got {k}")
    arr = np.asarray(y, dtype=float)
    prev = np.ones_like(arr)
    if k == 0:
        return float(prev) if arr.ndim == 0 else prev
    cur = arr.copy()
    for n in range(1, k):
        prev, cur = cur, arr * cur - n * prev
    return float(cur) if arr.ndim == 0 else cur


def feynman_count(composition, eta: Sequence[int]) -> int:
    """Number of diagrams pairing 2*eta_j of the pi_j same-label copies at slot j.

    Equals prod_j C(pi_j, 2 eta_j) (2 eta_j - 1)!!; pairs across slots carry
    independent labels and contribute nothing.  `eta` needs one entry per
    slot, each with 0 <= 2 eta_j <= pi_j.
    """
    comp = _as_composition(composition)
    etas = tuple(int(e) for e in eta)
    if len(etas) != comp.length:
        raise InvalidInput(f"eta length {len(etas)} != composition length {comp.length}")
    out = 1
    for pi_j, eta_j in zip(comp.parts, etas):
        if eta_j < 0 or 2 * eta_j > pi_j:
            raise InvalidInput(f"eta out of range: need 0 <= 2*{eta_j} <= {pi_j}")
        out *= math.comb(pi_j, 2 * eta_j) * double_factorial(2 * eta_j - 1)
    return out


def wick_product_value(composition, gaussians):
    """Wick product :g_1^{pi_1} ... g_l^{pi_l}: at values of independent standard Gaussians.

    Uses the factorised identity :g^n: = He_n(g), so evaluation is exact and
    O(sum pi_j).  `gaussians` is a length-l vector, or an (..., l) array of
    draws evaluated elementwise along the last axis.
    """
    comp = _as_composition(composition)
    g = np.asarray(gaussians, dtype=float)
    if g.ndim == 0 or g.shape[-1] != comp.length:
        raise InvalidInput(f"need {comp.length} coordinate values, got shape {g.shape}")
    out = np.ones(g.shape[:-1])
    for j, pi_j in enumerate(comp.parts):
        out = out * hermite_value(pi_j, g[..., j])
    return float(out) if out.ndim == 0 else out
