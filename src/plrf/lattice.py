"""Lattice-point counting for product constraints s_1^{a_1} ... s_k^{a_k} <= X.

Exact counts over positive integer tuples (unordered, or strictly increasing,
optionally box-bounded), the Riemann zeta function by Euler-Maclaurin
summation, and the leading-order growth laws

    unordered:   A_k(X) ~ a_*^(1-m)/Gamma(m) * prod_{a_i > a_*} zeta(a_i/a_*)
                           * X^(1/a_*) * (log X)^(m-1)
    increasing:  N(X)   ~ a^(1-k) / (Gamma(k) Gamma(k+1)) * X^(1/a) (log X)^(k-1)
                 (equal exponents a),

where a_* is the smallest exponent and m its multiplicity.  For unequal
exponents the increasing count grows like X^theta* (log X)^(mu-1) with
theta* = max_r r / (a_k + ... + a_{k-r+1}) and mu its multiplicity;
`ordered_shape` computes that growth shape.  `invert_count_equal` solves
N(X) = N for X by the bracketed regula falsi in log-log (Illinois rule) that
`population` shares, from the bracket [e, e^2].

Exact counting replaces the innermost loop by the arithmetic count
floor((X/prefix)^(1/a_k)) and prunes prefixes whose best completion already
exceeds X.  The unordered count is symmetric in the exponents, so its loops
run over the largest exponents and the smallest one is resolved
arithmetically; two equal smallest exponents a are resolved together, since
s^a t^a <= Y exactly when s t <= floor(Y^(1/a)), by the O(sqrt) divisor sum.
Three or more unordered coordinates with exponent 1, alone or behind a larger
integer exponent, take hyperbola-method kernels: the symmetric
s_1 <= s_2 <= s_3 form in O(X^(2/3)) for three, and for four the pairs
u = s_1 s_2, w = s_3 s_4 weighted by their divisor counts, in
O(X^(3/4) log X).

The kind of the exponents alone picks the route.  Integer exponents count in
exact integer arithmetic at N, the largest integer X admits: X itself when
integer-valued (an int X as given, not rounded to a double), else floor(X)
widened by the relative 1e-12 guard band.  A prefix P leaves the bound
N // P, the innermost coordinate is an exact integer root, and the loop over
the coordinate before it is one sum of floor quotients over an array (int64
below 2^63, Python ints past it, 2^16 terms at a time), as are the divisor
sums of the hyperbola kernels.  Real exponents take the float recursion,
whose guard band resolves boundary ties toward inclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInput, _as_index

__all__ = [
    "BudgetExceededError",
    "Exponents",
    "OrderedShape",
    "CountResult",
    "count_unordered",
    "count_ordered",
    "zeta",
    "asymptotic_unordered",
    "ordered_shape",
    "asymptotic_ordered_equal",
    "invert_count_equal",
]

ITERATION_BUDGET = 10**9
COORDINATE_LIMIT = 2**53  # floats hold every integer below this, but not past it
_INCLUSION_GUARD = 1.0 + 1e-12  # boundary ties resolve toward inclusion
_EQ_RTOL = 1e-9  # exponents closer than this are treated as equal
_CHUNK = 2**16  # terms per array pass of the exact integer kernels
_INT64_END = 2**63
_ARRAY_MIN = 64  # shorter quotient sums run in Python
_INVERT_STEPS = 200  # steps before an inversion gives up
_INVERT_RTOL = 1e-9  # invert_count_equal stops at |N(X) - N| <= this * N
_FLOAT_MAX = np.finfo(float).max


class BudgetExceededError(InvalidInput):
    """Exact counting would exceed the iteration budget."""

    def __init__(self, estimate: float):
        self.estimate = estimate
        super().__init__(
            f"estimated {estimate:.3g} iterations exceeds the budget of {ITERATION_BUDGET:.0e}"
        )


@dataclass(frozen=True)
class Exponents:
    """Positive real exponents (a_1, ..., a_k) of the product constraint."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(a) for a in self.values)
        if not values:
            raise InvalidInput("need at least one exponent")
        if any(not (a > 0 and math.isfinite(a)) for a in values):
            raise InvalidInput(f"exponents must be positive and finite, got {values}")
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def pi_star(self) -> float:
        """Smallest exponent."""
        return min(self.values)

    @property
    def multiplicity(self) -> int:
        """How many exponents attain the minimum (up to relative 1e-9)."""
        lo = self.pi_star
        return sum(1 for a in self.values if math.isclose(a, lo, rel_tol=_EQ_RTOL))


def _as_exponents(exponents) -> Exponents:
    if isinstance(exponents, Exponents):
        return exponents
    return Exponents(tuple(exponents))


@dataclass(frozen=True)
class OrderedShape:
    """Growth shape X^theta* (log X)^(mu-1) of the strictly increasing count."""

    theta_star: float
    mu: int
    partial_sums: tuple[float, ...]  # tail sums a_k, a_k + a_{k-1}, ...


@dataclass(frozen=True)
class CountResult:
    count: int
    X: int | float  # an int X as given, any other X as a float
    exponents: Exponents
    ordered: bool
    bound_v: int | None = None


def _last_true(ok, n: int) -> int:
    """Largest k >= 0 with ok(k), for a predicate true at 0 and monotone; n is a guess.

    Gallops from the guess by doubling steps, then bisects, so a guess off
    by D costs about 2 log2(D) evaluations; a right guess costs two.
    """
    if ok(n + 1):
        lo, step = n + 1, 1  # ok(lo)
        while ok(lo + step):
            lo += step
            step *= 2
        hi = lo + step  # not ok(hi)
    else:
        hi, step = n + 1, 1  # not ok(hi)
        while hi - step > 0 and not ok(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)  # ok(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _max_coordinate(x: float, power: float, cap: int | None = None) -> int:
    """Largest integer n >= 0 with n**power <= x, robust at float boundaries; at most `cap`.

    Integer exponents with integer-valued x are resolved exactly; otherwise a
    relative 1e-12 guard band rounds boundary ties toward inclusion.  An x
    clearly above cap**power returns `cap` at once, with no power of x taken.
    A power past float range exceeds every x.  The search starts from
    int(x ** (1/power)) and gallops, so it takes O(log) steps however far
    rounding puts that guess.
    """
    if x * _INCLUSION_GUARD < 1.0:
        return 0
    if cap is not None:
        if math.log(x) > power * math.log(cap) + 1e-9:
            return cap
        return min(_max_coordinate(x, power), cap)
    # below 2^53 a power past 53 leaves only n <= 1, which needs no exact integers
    if power == int(power) and power <= 53 and x < 2**53 and float(x).is_integer():
        return _iroot(int(x), int(power))
    n = int(x ** (1.0 / power))
    lim = x * _INCLUSION_GUARD
    try:
        if n**power <= lim < (n + 1) ** power:
            return n
    except OverflowError:  # (n + 1)**power is past float range; the search handles it
        pass
    return _last_true(partial(_float_fits, power, lim), n)


# module-level predicates bound by `partial`: a closure in `_max_coordinate`
# would turn its locals into cell variables and slow the usual case
def _int_fits(p: int, xi: int, k: int) -> bool:
    return k**p <= xi


def _float_fits(power: float, lim: float, k: int) -> bool:
    try:
        return k**power <= lim
    except OverflowError:  # past float range, so past lim
        return False


def _pair_fits(a: int, b: int, y: int, s: int) -> bool:
    return s**a * (s + 1) ** b <= y


def _iroot(y: int, a: int) -> int:
    """floor(y ** (1/a)) for integers y >= 0 and a >= 1, exactly."""
    if a == 1:
        return y
    if a == 2:
        return math.isqrt(y)
    n = int(float(y) ** (1.0 / a))
    if n**a <= y < (n + 1) ** a:  # the usual case: the float guess is right
        return n
    return _last_true(partial(_int_fits, a, y), n)


# ---------------------------------------------------------------------------
# exact integer kernels: sums of floor quotients over int64 arrays (Python
# ints once a quotient's numerator reaches 2^63), _CHUNK terms at a time


def _int_array(values, top: int):
    """Integer `values` as int64 while `top`, their largest, is below 2^63; else as Python ints."""
    return np.asarray(values, dtype=np.int64 if top < _INT64_END else object)


def _iroot_array(q, a: int):
    """floor(q ** (1/a)) elementwise for a nonnegative int64 or Python-int array q, exactly.

    The roots must be coordinates (below 2^53), so the float guess fits int64.
    """
    if a == 1:
        return q
    n = np.floor(q.astype(float) ** (1.0 / a)).astype(np.int64).astype(q.dtype, copy=False)
    while np.any(up := _fits_array(q, n + 1, a)):
        n = np.where(up, n + 1, n)
    while np.any(down := ~_fits_array(q, n, a)):
        n = np.where(down, n - 1, n)
    return n


def _fits_array(q, m, a: int):
    """m**a <= q elementwise, by a - 1 floor divisions of q by m, so no power can overflow."""
    d = np.maximum(m, 1)
    for _ in range(a - 1):
        q = q // d
    return q >= m


def _exact_sum(v, top: int) -> int:
    """Sum of an integer array of at most 2^31 entries, each of magnitude at most `top`.

    An int64 sum that could pass 2^63 adds the high and low 32 bits apart.
    """
    if v.dtype == object or v.size * top < _INT64_END:
        return int(v.sum())
    return (int((v >> 32).sum()) << 32) + int((v & 0xFFFFFFFF).sum())


def _floor_sum(n: int, lo: int, hi: int, power: int = 1, root: int = 1) -> int:
    """sum_{b = lo}^{hi} floor((n // b**power) ** (1/root)) for hi**power <= n, exactly."""
    if hi - lo < _ARRAY_MIN and power == root == 1:  # too short to repay an array pass
        return sum(map(n.__floordiv__, range(lo, hi + 1)))
    total = 0
    for first in range(lo, hi + 1, _CHUNK):
        b = _int_array(np.arange(first, min(first + _CHUNK, hi + 1)), n)
        total += _exact_sum(_iroot_array(n // b**power, root), n)
    return total


def _segment_sum(n, lo, hi, weights=None) -> int:
    """sum_i w_i sum_{b = lo_i}^{hi_i} n_i // b over int64 arrays, exactly (w_i = 1 by default).

    Segment i runs b over lo_i..hi_i, empty when hi_i = lo_i - 1.  The terms
    are formed `_CHUNK` at a time across segment boundaries, so memory holds
    the segments and one chunk.
    """
    lengths = hi - lo + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    shift = starts - lo  # b = flat index - shift[i] in segment i
    size = int(ends[-1]) if ends.size else 0
    top = int(n.max()) * (1 if weights is None else int(weights.max())) if n.size else 0
    total = 0
    for first in range(0, size, _CHUNK):
        last = min(first + _CHUNK, size)
        i, j = np.searchsorted(ends, (first, last - 1), side="right")  # the segments in the chunk
        within = np.minimum(ends[i : j + 1], last) - np.maximum(starts[i : j + 1], first)
        seg = np.repeat(np.arange(i, j + 1), within)
        terms = n[seg] // (np.arange(first, last) - shift[seg])
        if weights is not None:
            terms *= weights[seg]
        total += _exact_sum(terms, top)
    return total


def _divisor_sum(N: int) -> int:
    """sum_{s <= N} floor(N / s), via the hyperbola method in O(sqrt N)."""
    r = math.isqrt(N)
    return 2 * _floor_sum(N, 1, r) - r * r


def _divisor_sums(N, weights=None) -> int:
    """sum_i w_i sum_{s <= N_i} floor(N_i / s) over an int64 array N, by the hyperbola method."""
    r = _iroot_array(N, 2)
    rr = r * r if weights is None else r * r * weights
    return 2 * _segment_sum(N, np.ones_like(r), r, weights) - _exact_sum(rr, int(rr.max()) if rr.size else 0)


def _divisor_triples(X: int) -> int:
    """#{(s_1, s_2, s_3) : s_1 s_2 s_3 <= X} in O(X^(2/3)), for X < 2^53.

    Symmetric hyperbola method over a <= b <= c: a triple with three equal
    coordinates counts once, one with exactly two equal three times, and one
    with distinct coordinates six times.
    """
    a = np.arange(1, _iroot(X, 3) + 1)
    n = X // a  # b c <= n, and b <= c forces b <= isqrt(n)
    m = _iroot_array(n, 2)
    # b = a: (a, a, a) once, (a, a, c > a) three times each: 1 + 3 (n // a - a);
    # b in a+1..m: (a, b, b) three times, (a, b, c > b) six times each:
    # 6 sum_b n // b - 3 (m (m + 1) - a (a + 1)) + 3 (m - a)
    ends = 1 + 3 * (n // a - m * m + a * a - a)
    return _exact_sum(ends, 7 * X) + 6 * _segment_sum(n, a + 1, m)


def _count_ones(X: int, k: int) -> int:
    """Unordered count for all exponents equal to 1 (s_1 ... s_k <= X), k = 3 or 4, X < 2^53."""
    if X <= 0:
        return 0
    if k == 3:
        return _divisor_triples(X)
    # u w <= X over u = s_1 s_2 and w = s_3 s_4, each weighted by its divisor
    # count d: by the hyperbola method at r = isqrt(X) that is
    # 2 sum_{u <= r} d(u) D(X // u) - D(r)^2, with D the divisor sum
    r = math.isqrt(X)
    d = np.zeros(r + 1, dtype=np.int64)
    for s in range(1, r + 1):
        d[s::s] += 1
    total = 0
    for first in range(1, r + 1, _CHUNK):
        u = np.arange(first, min(first + _CHUNK, r + 1))
        total += _divisor_sums(X // u, d[u])
    return 2 * total - _divisor_sum(r) ** 2


def _count_pairs(a: int, b: int, Y: int, start: int, strict: bool, bound: int | None) -> int:
    """#{(s, t) : s >= start, s^a t^b <= Y, t > s (strict) or t >= 1, s, t <= bound}, exactly.

    For each s the count of t is min(iroot(Y // s^a, b), bound), less s when
    strict: one quotient sum over the s whose root stays below the bound.
    """
    if strict:  # the last s with a completion t = s + 1
        S = _last_true(partial(_pair_fits, a, b, Y), _iroot(Y, a + b))
    else:
        S = _iroot(Y, a)
    capped = start - 1  # the s up to here have the root at or past the bound
    if bound is not None:
        S = min(S, bound - 1 if strict else bound)
        capped = max(capped, min(S, _iroot(Y // bound**b, a)))
    if S < start:
        return 0
    total = (capped - start + 1) * bound if bound is not None else 0
    total += _floor_sum(Y, capped + 1, S, a, b)
    if strict:
        total -= (S * (S + 1) - (start - 1) * start) // 2
    return total


def _count_exact(pis: tuple[int, ...], Y: int, start: int, strict: bool, bound: int | None) -> int:
    """`_count_general` in integers: the coordinates left have a product of at most Y.

    A prefix of integer coordinates with value P fits before a remainder R
    exactly when R <= Y // P, so each level passes the floor quotient down
    and no guard band is needed.
    """
    if len(pis) >= 3 and set(pis) == {1} and not strict and bound is None:
        return _count_ones(Y, len(pis))
    a, rest = pis[0], pis[1:]
    if not rest:
        n = _iroot(Y, a)
        return max(0, (n if bound is None else min(n, bound)) - start + 1)
    if rest == (a,) and not strict and bound is None:
        # s^a t^a <= Y exactly when s t <= iroot(Y, a): a divisor sum
        return _divisor_sum(_iroot(Y, a))
    if len(rest) == 1:
        return _count_pairs(a, rest[0], Y, start, strict, bound)
    if len(rest) == 2 and rest[0] == rest[1] and not strict and bound is None:
        # s^a t^b u^b <= Y: one divisor sum at iroot(Y // s^a, b) per s, _CHUNK values of s at once
        S = _iroot(Y, a)
        total = 0
        for first in range(start, S + 1, _CHUNK):
            s = _int_array(np.arange(first, min(first + _CHUNK, S + 1)), Y)
            total += _divisor_sums(_iroot_array(Y // s**a, rest[0]).astype(np.int64, copy=False))
        return total
    rest_sum = sum(rest)
    total = 0
    s = start
    s_cap = None if bound is None else (bound - len(rest) if strict else bound)
    while s_cap is None or s <= s_cap:
        value = s**a
        # best completion: remaining coords are >= s+1 (strict) or >= 1
        if value * ((s + 1) ** rest_sum if strict else 1) > Y:
            break
        total += _count_exact(rest, Y // value, s + 1 if strict else 1, strict, bound)
        s += 1
    return total


# ---------------------------------------------------------------------------
# counts at real exponents: floats and the inclusion guard


def _count_general(
    pis: tuple[float, ...], X: float, prefix: float, start: int, strict: bool, bound: int | None
) -> int:
    pi0 = pis[0]
    rest = pis[1:]
    if not rest:
        n = _max_coordinate(X / prefix, pi0, bound)
        return max(0, n - start + 1)
    if rest == (pi0,) and not strict and bound is None:
        # s^a t^a <= Y exactly when s t <= floor(Y^(1/a)): a divisor sum
        return _divisor_sum(_max_coordinate(X / prefix, pi0))
    rest_sum = sum(rest)
    lim = X * _INCLUSION_GUARD
    total = 0
    s = start
    s_cap = None if bound is None else (bound - len(rest) if strict else bound)
    while s_cap is None or s <= s_cap:
        try:
            value = prefix * s**pi0
            # best completion: remaining coords are >= s+1 (strict) or >= 1
            completion = float(s + 1) ** rest_sum if strict else 1.0
        except OverflowError:  # a power past float range exceeds X
            break
        if value * completion > lim:
            break
        total += _count_general(rest, X, value, s + 1 if strict else 1, strict, bound)
        s += 1
    return total


def _budget_or_raise(exps: Exponents, X: float, strict: bool, bound_v: int | None, exact: bool) -> None:
    """Refuse a count whose estimated steps on its route (`exact`: in integers) exceed the budget."""
    if exps.k == 1 or X <= 1.0:
        return
    logx = max(1.0, math.log(X))
    asc = sorted(exps.values)
    if strict:
        # prefix enumeration grows like the increasing count with the last
        # two exponents fused (the completion bound absorbs the final coord)
        head = exps.values[:-1]
        fused = head[:-1] + (head[-1] + exps.values[-1],)
        shape = ordered_shape(fused)
        est = X**shape.theta_star * logx ** (shape.mu - 1)
        if bound_v is not None:
            # coordinates <= bound_v: at most C(bound_v, j) increasing prefixes of each length j < k
            est = min(est, sum(math.comb(bound_v, j) for j in range(1, exps.k)))
    elif exact and exps.k >= 3 and asc[2] == 1.0:
        # three or more ones end in the hyperbola kernels: about 1.5 X^(2/3) terms
        # for the triple sum and under X^(3/4) log X for the divisor-weighted pair
        # sum; behind an a > 1, one triple sum at X / s^a per s, X^(1/a) calls of
        # together 1.5 zeta(2a/3) X^(2/3) terms
        if exps.k == 3:
            est = 1.5 * X ** (2 / 3)
        elif asc[3] == 1.0:
            est = X**0.75 * logx
        else:
            est = 1.5 * zeta(2 * asc[3] / 3) * X ** (2 / 3) + X ** (1.0 / asc[3])
    else:
        # the loops run over every exponent but the smallest (see count_unordered);
        # a repeated smallest exponent a ends them in an O(sqrt(X^(1/a))) divisor sum
        if asc[0] != asc[1]:
            est = X ** (1.0 / asc[1]) * logx ** (exps.k - 2)
        elif exps.k == 2:
            est = 2 * X ** (1.0 / (2 * asc[0]))
        else:
            est = X ** max(1.0 / (2 * asc[0]), 1.0 / asc[2]) * logx ** (exps.k - 2)
    if est > ITERATION_BUDGET:
        raise BudgetExceededError(est)


def _finite_X(X) -> float:
    try:
        Xf = float(X)
    except OverflowError:  # an int past float range; its digits may be too many to print
        raise InvalidInput(f"X is an int of {int(X).bit_length()} bits, past float range") from None
    if not math.isfinite(Xf):
        raise InvalidInput(f"X must be finite, got {X}")
    return Xf


def _count(exps: Exponents, X, strict: bool, bound_v: int | None) -> CountResult:
    """The checks and the choice of route that both orderings share.

    Strict counts loop over the exponents in the given order, unordered ones
    in descending order.  Integer exponents past 1024 count in floats: 2^a
    exceeds every finite X, so such a coordinate is 1 on either route.
    """
    if exps.k > 4:
        raise InvalidInput(f"exact counting supports k <= 4, got k={exps.k}")
    bound_v = None if bound_v is None else _as_index(bound_v, "bound_v")
    if bound_v is not None and bound_v < 1:
        raise InvalidInput(f"bound_v must be >= 1, got {bound_v}")
    Xf = _finite_X(X)
    X = X if isinstance(X, int) else Xf
    pis = exps.values if strict else tuple(sorted(exps.values, reverse=True))
    exact = all(a.is_integer() and a <= 1024 for a in pis)
    count = 0
    if Xf * _INCLUSION_GUARD >= 1.0:
        _budget_or_raise(exps, Xf, strict, bound_v, exact)
        # the largest coordinate is min(bound_v, X^(1/a)), a the exponent resolved
        # last; past 2^53 floats skip integers (compared in logs: no overflow)
        a = pis[-1]
        capped = bound_v is not None and bound_v < COORDINATE_LIMIT
        if not capped and math.log2(Xf) >= math.log2(COORDINATE_LIMIT) * a:
            raise InvalidInput(
                f"coordinate bound X^(1/a) = {Xf!r}^(1/{a!r}) reaches 2^53, "
                "past which floats skip integers; exact counts stop there"
            )
        if exact:
            N = int(X) if Xf.is_integer() else _max_coordinate(Xf, 1.0)
            count = _count_exact(tuple(map(int, pis)), N, 1, strict, bound_v)
        else:
            count = _count_general(pis, Xf, 1.0, 1, strict, bound_v)
    return CountResult(count, X, exps, ordered=strict, bound_v=bound_v)


def count_unordered(X: float, exponents) -> CountResult:
    """Exact #{(s_1,...,s_k) in N^k : s_1^{a_1} ... s_k^{a_k} <= X}.

    The count does not change when the exponents are permuted, so the loops
    run over the coordinates with the largest exponents, in descending order,
    and the coordinate with the smallest exponent is resolved arithmetically;
    when the two smallest exponents are equal, the last two coordinates are
    resolved together by a divisor sum, and three or more exponents equal to
    1 end in a hyperbola kernel.  Integer exponents count in integers at the
    largest integer X admits, real ones in floats (see the module docstring).
    """
    return _count(_as_exponents(exponents), X, strict=False, bound_v=None)


def count_ordered(X: float, exponents, bound_v: int | None = None) -> CountResult:
    """Exact #{1 <= s_1 < ... < s_k : s_1^{a_1} ... s_k^{a_k} <= X}, coords <= bound_v if given.

    Strict ordering throughout; the exponent a_1 applies to the smallest
    coordinate.  Equals the unbounded count whenever X <= bound_v.  Integer
    exponents count in integers at the largest integer X admits, real ones in
    floats (see the module docstring).
    """
    return _count(_as_exponents(exponents), X, strict=True, bound_v=bound_v)


# Euler-Maclaurin: B_{2k} / (2k)! for 2k = 2, 4, ..., 12
_EM_COEFFS = (
    1.0 / 12,
    -1.0 / 720,
    1.0 / 30240,
    -1.0 / 1209600,
    1.0 / 47900160,
    -691.0 / 1307674368000,
)
_ZETA_N = 64


def zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1 by Euler-Maclaurin summation.

    Partial sum to N-1 plus N^(1-s)/(s-1) + N^(-s)/2 plus six Bernoulli
    correction terms; truncation error far below 1e-12 for s >= 1 + 1e-6.
    """
    s = float(s)
    if not s > 1.0 + 1e-6:
        raise InvalidInput(f"zeta(s) requires s > 1 + 1e-6, got {s}")
    N = _ZETA_N
    out = sum(n ** -s for n in range(1, N))
    out += N ** (1.0 - s) / (s - 1.0) + 0.5 * N**-s
    rising = s  # s (s+1) ... (s + 2k - 2)
    power = N ** (-s - 1.0)  # N^(-s - 2k + 1)
    for i, c in enumerate(_EM_COEFFS, start=1):
        out += c * rising * power
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        power /= N * N
    return out


def _asymptotic_X(X) -> float:
    Xf = _finite_X(X)
    if Xf <= 1.0:
        raise InvalidInput(f"asymptotic defined for X > 1, got {X}")
    return Xf


def _leading_term(const: float, X: float, a: float, log_power: int) -> float:
    """const * X^(1/a) * (log X)^log_power at a float X, refused past float range."""
    try:
        out = const * X ** (1.0 / a) * math.log(X) ** log_power
    except OverflowError:
        out = math.inf
    if not out < math.inf:
        raise InvalidInput(f"asymptotic at X = {X!r} with exponent {a!r} exceeds float range")
    return out


def asymptotic_unordered(X: float, exponents) -> float:
    """Leading-order value of the unordered count A_k(X) as X grows."""
    exps = _as_exponents(exponents)
    X = _asymptotic_X(X)
    a_star = exps.pi_star
    m = exps.multiplicity
    const = a_star ** (1.0 - m) / math.exp(math.lgamma(m))
    zprod = 1.0
    for a in exps.values:
        if not math.isclose(a, a_star, rel_tol=_EQ_RTOL):
            zprod *= zeta(a / a_star)
    return _leading_term(const * zprod, X, a_star, m - 1)


def ordered_shape(exponents) -> OrderedShape:
    """Growth shape of the strictly increasing count for arbitrary exponents.

    Uses tail sums P_r = a_k + ... + a_{k-r+1}, theta_r = r / P_r,
    theta* = max_r theta_r and mu = #{r : theta_r = theta*}.
    """
    exps = _as_exponents(exponents)
    vals = exps.values
    tails: list[float] = []
    acc = 0.0
    for a in reversed(vals):
        acc += a
        tails.append(acc)
    thetas = [(r + 1) / t for r, t in enumerate(tails)]
    theta_star = max(thetas)
    mu = sum(1 for t in thetas if math.isclose(t, theta_star, rel_tol=1e-12))
    return OrderedShape(theta_star, mu, tuple(tails))


def _ordered_equal_constant(pi_common: float, k: int) -> tuple[float, float]:
    """The exponent a and the constant a^(1-k) / (Gamma(k) Gamma(k+1)), checked.

    A constant past float range (a tiny exponent at k >= 2) is refused.
    """
    k = _as_index(k, "k")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    a = float(pi_common)
    if not (a > 0 and math.isfinite(a)):
        raise InvalidInput(f"exponent must be positive and finite, got {a}")
    try:
        scale = a ** (1.0 - k)
    except OverflowError:
        raise InvalidInput(
            f"the constant a^(1-k) at exponent {a!r} and k = {k} exceeds float range"
        ) from None
    return a, scale / math.exp(math.lgamma(k) + math.lgamma(k + 1))


def asymptotic_ordered_equal(X: float, pi_common: float, k: int) -> float:
    """Leading-order strictly increasing count for k equal exponents.

    N(X) ~ a^(1-k) / (Gamma(k) Gamma(k+1)) * X^(1/a) * (log X)^(k-1).
    """
    X = _asymptotic_X(X)
    a, const = _ordered_equal_constant(pi_common, k)
    return _leading_term(const, X, a, k - 1)


def _invert_increasing(f, targets, lo: float, hi: float, rel_tol: float):
    """Solve f(x) = t for every t in `targets` by one masked regula falsi in log-log.

    `f` is increasing and maps float arrays to new float arrays.  While
    f(hi) < t the upper end becomes the lower one and is squared (doubled
    below 2, held at the largest float).  Each step then takes the point
    where the chord through (log lo, log f(lo)) and (log hi, log f(hi))
    meets log t, or the midpoint 0.5 * lo + 0.5 * hi where that point leaves
    the open bracket or is undefined (f(lo) = 0), and moves the end on its
    side there; an end left standing twice running has its log residual
    halved (the Illinois rule).  |f(x) - t| <= rel_tol * t freezes each
    element at its first such iterate, as a scalar solver would.  Raises
    RuntimeError when a bracket fails or `_INVERT_STEPS` steps do not
    converge.
    """
    t = np.asarray(targets, dtype=float)
    lo_, hi_ = np.full(t.shape, float(lo)), np.full(t.shape, float(hi))
    f_lo = f(lo_)
    for _ in range(2000):
        f_hi = f(hi_)
        short = f_hi < t
        if not np.any(short & (hi_ < _FLOAT_MAX)):
            break
        np.copyto(lo_, hi_, where=short)
        np.copyto(f_lo, f_hi, where=short)
        with np.errstate(over="ignore"):
            np.copyto(hi_, np.minimum(hi_ * np.maximum(hi_, 2.0), _FLOAT_MAX), where=short)
    if np.any(short) or np.any(f_lo > t):
        raise RuntimeError(f"inversion bracket failure from [{lo}, {hi}]")
    x = np.empty_like(t)
    # every array keeps the targets' size, so the allocations do not depend on
    # how the elements converge; a converged element keeps stepping, but x
    # holds its freezing iterate
    live = np.ones(t.size, dtype=bool)  # elements not yet converged
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf gives a NaN chord point
        # the log residuals log(f / t) of the ends, in the buffers of f(lo) and f(hi)
        g_lo = np.log(np.divide(f_lo, t, out=f_lo), out=f_lo)
        g_hi = np.log(np.divide(f_hi, t, out=f_hi), out=f_hi)
        for step in range(_INVERT_STEPS):
            # the chord meets log t at log u = log lo + w log(hi / lo), w = g_lo / (g_lo - g_hi)
            u = np.log(hi_ / lo_)
            u *= g_lo / (g_lo - g_hi)
            np.exp(u, out=u)
            u *= lo_
            off = ~((u > lo_) & (u < hi_))  # also NaN
            np.add(0.5 * lo_, 0.5 * hi_, out=u, where=off)  # halves first: hi may be the largest float
            val = f(u)
            done = live & (np.abs(val - t) <= rel_tol * t)
            np.copyto(x, u, where=done)
            live &= ~done
            if not live.any():
                return x
            below = val < t
            g = np.log(np.divide(val, t, out=val), out=val)
            if step:  # Illinois: halve the residual of an end left standing twice
                np.multiply(g_hi, 0.5, out=g_hi, where=below & was_below)
                np.multiply(g_lo, 0.5, out=g_lo, where=~(below | was_below))
            for end, new in ((lo_, u), (g_lo, g)):
                np.copyto(end, new, where=below)
            for end, new in ((hi_, u), (g_hi, g)):
                np.copyto(end, new, where=~below)
            was_below = below
    raise RuntimeError(f"inversion did not converge after {_INVERT_STEPS} steps at t={float(t[live][0])!r}")


def invert_count_equal(N: float, pi_common: float, k: int) -> float:
    """Solve asymptotic_ordered_equal(X) = N for X, to |N(X) - N| <= 1e-9 * N.

    One call of `_invert_increasing`, the solver that also inverts the theory
    curves, from the bracket [e, e^2], whose upper end it squares until the
    count there reaches N.  N must be finite and at least 3, and the root
    must lie in float range past X = e; any other N is refused.
    """
    if not 3 <= N < math.inf:
        raise InvalidInput(f"N must be finite and >= 3, got {N}")
    a, const = _ordered_equal_constant(pi_common, k)

    def f(x):  # held at the largest float where it overflows: an inf residual stalls the chord
        return np.minimum(const * x ** (1.0 / a) * np.log(x) ** (k - 1), _FLOAT_MAX)

    with np.errstate(over="ignore"):
        at_e, at_max = f(np.array([math.e, _FLOAT_MAX])).tolist()
        if at_e > N:
            raise InvalidInput(f"no solution with X > e: N={N} below the asymptotic at X=e")
        if at_max < N:
            raise InvalidInput(f"no solution in float range: N={N} above the asymptotic at the largest float")
        return float(_invert_increasing(f, [N], math.e, math.e**2, _INVERT_RTOL)[0])
