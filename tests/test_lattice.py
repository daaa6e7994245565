import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _traced_peak
from plrf import InvalidInput, lattice


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the counting engine)


def brute_unordered(X, pis):
    k = len(pis)
    count = 0
    # coordinates can never exceed X^(1/a) individually
    caps = [int(math.floor(X ** (1.0 / a) + 1e-9)) for a in pis]

    def rec(depth, prod):
        nonlocal count
        if depth == k:
            count += 1 if prod <= X * (1 + 1e-12) else 0
            return
        for s in range(1, caps[depth] + 1):
            val = prod * s ** pis[depth]
            if val > X * (1 + 1e-12):
                break
            rec(depth + 1, val)

    rec(0, 1.0)
    return count


def brute_ordered(X, pis, bound=None):
    k = len(pis)
    count = 0
    hi = bound if bound is not None else int(math.floor(X ** (1.0 / min(pis)) + 1e-9)) + 1

    def rec(depth, start, prod):
        nonlocal count
        if depth == k:
            count += 1
            return
        for s in range(start, hi + 1):
            val = prod * s ** pis[depth]
            if val > X * (1 + 1e-12):
                break
            rec(depth + 1, s + 1, val)

    rec(0, 1, 1.0)
    return count


def iroot(y, a):
    """floor(y ** (1/a)) for Python ints, stepped from the float guess."""
    n = int(round(float(y) ** (1.0 / a)))
    while n**a > y:
        n -= 1
    while (n + 1) ** a <= y:
        n += 1
    return n


def seed_count_ones(X, k):
    """The original all-ones recursion: sum over s of the (k-1)-count at X // s."""
    if k == 2:
        r = math.isqrt(X)
        return 2 * sum(X // s for s in range(1, r + 1)) - r * r
    return sum(seed_count_ones(X // s, k - 1) for s in range(1, X + 1))


# ---------------------------------------------------------------------------
# exact counting


def test_count_unordered_examples():
    assert lattice.count_unordered(4, (1, 1)).count == 8
    assert lattice.count_unordered(10, (2, 1)).count == 13
    assert lattice.count_unordered(0.5, (1, 1, 1)).count == 0


def test_count_ordered_examples():
    assert lattice.count_ordered(6, (1, 1)).count == 6
    assert lattice.count_ordered(6, (1, 1), bound_v=3).count == 3
    # X <= v: the box constraint is inactive
    assert lattice.count_ordered(6, (1, 1), bound_v=7).count == 6


def test_count_matches_bruteforce_integer_exponents():
    for pis in ((1, 1), (2, 1), (1, 2), (3, 1, 1), (1, 1, 1), (2,)):
        for X in (1, 2, 7.5, 30, 100):
            assert lattice.count_unordered(X, pis).count == brute_unordered(X, pis), (pis, X)
            assert lattice.count_ordered(X, pis).count == brute_ordered(X, pis), (pis, X)


def test_count_matches_bruteforce_real_exponents():
    for pis in ((1.5, 1.0), (2.31, 1.31), (0.7, 0.7)):
        for X in (3.0, 12.7, 64.0):
            assert lattice.count_unordered(X, pis).count == brute_unordered(X, pis), (pis, X)
            assert lattice.count_ordered(X, pis).count == brute_ordered(X, pis), (pis, X)


def test_count_bounded_matches_bruteforce():
    for pis in ((1, 1, 1), (2, 1), (1, 3), (1, 1, 1, 1), (2, 1, 3), (1, 2, 1, 1), (1.31, 1)):
        for v in (2, 3, 5, 10):
            for X in (5, 25, 60, 60.5, 400):
                got = lattice.count_ordered(X, pis, bound_v=v).count
                assert got == brute_ordered(X, pis, bound=v), (pis, v, X)


@settings(deadline=None, max_examples=150)
@given(
    X=st.floats(min_value=0.25, max_value=400.0) | st.integers(min_value=0, max_value=400),
    pis=st.lists(st.sampled_from([0.5, 1.0, 1.31, 2.0, 3.0]), min_size=1, max_size=3)
    | st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    v=st.none() | st.integers(min_value=1, max_value=30),
)
def test_count_engine_equals_bruteforce(X, pis, v):
    # real exponents count in floats, integer ones in integers at every X
    pis = tuple(pis)
    assert lattice.count_unordered(X, pis).count == brute_unordered(X, pis)
    assert lattice.count_ordered(X, pis).count == brute_ordered(X, pis)
    if v is not None:
        assert lattice.count_ordered(X, pis, bound_v=v).count == brute_ordered(X, pis, bound=v)


@pytest.mark.parametrize("count, X, pis, want", [
    (lattice.count_unordered, 1999999999999, (1, 2), 3289866068560),
    (lattice.count_unordered, 999999999999, (1, 2), 1644932606581),
    (lattice.count_unordered, 2999999999993, (1, 2), 4934799671111),
    (lattice.count_ordered, 1999999999999, (2, 1), 3289630017270),
])
def test_count_at_integer_X_past_the_guard_band_is_exact(count, X, pis, want):
    # from X = 1e12 on, the float path's 1e-12 guard band is an integer wide
    # and the parent counted 48, 48, 1 and 35 more; these are Python integer sums
    assert count(X, pis).count == want
    assert count(float(X), pis).count == want


@pytest.mark.parametrize("count, X, pis, want", [
    (lattice.count_unordered, 1999999999999.5, (1, 2), 3289866068610),
    (lattice.count_unordered, 999999999999.5, (1, 2), 1644932606630),
    (lattice.count_ordered, 1999999999999.5, (2, 1), 3289630017307),
])
def test_count_at_non_integer_X_past_1e12_runs_in_integers(within, count, X, pis, want):
    # integer exponents count the tuples the float recursion's guard band admits,
    # in integers at floor(X (1 + 1e-12)); that recursion took 1.1 s for the first
    with within(0.5):
        assert count(X, pis).count == want


def test_an_int_X_is_counted_as_given():
    # the double nearest X is 56 095 569 lower and leaves out (1001, 10001),
    # the one tuple with s^4 t^3 = X; the count is the sum of iroot(X // s^4, 3)
    X = 1001**4 * 10001**3
    result = lattice.count_unordered(X, (4, 3))
    assert (result.count, result.X, type(result.X)) == (357165121, X, int)
    assert lattice.count_unordered(X - 1, (4, 3)).count == 357165120


@pytest.mark.parametrize("call", [
    lambda X: lattice.count_unordered(X, (1,)),
    lambda X: lattice.count_ordered(X, (1,)),
    lambda X: lattice.asymptotic_unordered(X, (1,)),
    lambda X: lattice.asymptotic_ordered_equal(X, 1.0, 1),
])
def test_an_int_X_past_float_range_is_invalid_input(call):
    with pytest.raises(InvalidInput, match="X is an int of 1329 bits, past float range"):
        call(10**400)


@settings(deadline=None, max_examples=40)
@given(
    X=st.integers(min_value=1, max_value=10**6) | st.floats(min_value=1.0, max_value=1e6),
    pis=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)
def test_integer_counts_equal_the_float_recursion_below_1e12(X, pis):
    # where the guard band is under one integer both routes count the same
    # tuples, at an integer X and at floor(X (1 + 1e-12)) for a non-integer one
    pis = tuple(pis)
    if len(pis) == 3 and all(a == 1 for a in pis):
        pis = (1, 1, 2)  # the float recursion is linear in X for all-ones triples
    floats = tuple(map(float, pis))
    desc = tuple(sorted(floats, reverse=True))
    assert lattice.count_unordered(X, pis).count == lattice._count_general(desc, float(X), 1.0, 1, False, None)
    for v in (None, 50):
        got = lattice.count_ordered(X, pis, bound_v=v).count
        assert got == lattice._count_general(floats, float(X), 1.0, 1, True, v), v


@pytest.mark.parametrize("X", [2**63 - 1024, 2**63 + 2**20])
def test_count_across_the_int64_end(X):
    # the largest double below 2^63 counts in int64 arrays, 2^63 + 2^20 in Python ints
    assert float(X) == X
    S = iroot(X, 4)
    unordered = sum(iroot(X // s**4, 3) for s in range(1, S + 1))  # s^4 t^3 <= X
    assert lattice.count_unordered(X, (3, 4)).count == unordered
    assert lattice.count_unordered(X, (4, 3)).count == unordered
    # s < t with s^3 t^4 <= X; t <= 600 binds for s up to about 414 of the 510
    ordered = sum(max(0, iroot(X // s**3, 4) - s) for s in range(1, iroot(X, 7) + 2))
    bounded = sum(max(0, min(iroot(X // s**3, 4), 600) - s) for s in range(1, 600))
    assert lattice.count_ordered(X, (3, 4)).count == ordered
    assert lattice.count_ordered(X, (3, 4), bound_v=600).count == bounded


def test_count_memory_stays_within_its_chunks():
    # 4.3e7 quotient terms at X = 1e11 are 340 MB as one int64 array; the
    # kernels hold 2^16 terms and the X^(1/3) segments at a time
    lattice.count_unordered(10**3, (1, 1, 1))
    peak = _traced_peak(lambda: lattice.count_unordered(10**11, (1, 1, 1)))
    assert peak < 8 * 2**20, peak


@settings(deadline=None, max_examples=40)
@given(X=st.integers(min_value=0, max_value=10**5))
@example(X=10**5)
def test_count_ones_triples_equal_seed_recursion(X):
    assert lattice._count_ones(X, 3) == seed_count_ones(X, 3)


@settings(deadline=None, max_examples=20)
@given(X=st.integers(min_value=0, max_value=10**4))
@example(X=10**4)
def test_count_ones_quadruples_equal_seed_recursion(X):
    assert lattice._count_ones(X, 4) == seed_count_ones(X, 4)


def test_count_ones_small_cases():
    # every X up to 200 covers the a = b = c and two-equal boundaries of the kernel
    for X in range(0, 201):
        assert lattice._count_ones(X, 3) == seed_count_ones(X, 3), X
    for X in range(0, 61):
        assert lattice._count_ones(X, 4) == seed_count_ones(X, 4), X


@settings(deadline=None, max_examples=40)
@given(
    X=st.floats(min_value=0.25, max_value=2000.0).filter(lambda x: not x.is_integer()),
    k=st.integers(min_value=1, max_value=3),
)
def test_count_ones_non_integer_X_equals_bruteforce(X, k):
    assert lattice.count_unordered(X, (1,) * k).count == brute_unordered(X, (1,) * k)


@settings(deadline=None, max_examples=40)
@given(
    X=st.floats(min_value=0.5, max_value=300.0),
    pis=st.lists(st.sampled_from([1.0, 1.31, 1.5, 2.0, 2.31, 3.0]), min_size=2, max_size=3),
)
def test_count_unordered_symmetric_under_permutation(X, pis):
    want = brute_unordered(X, tuple(pis))
    for perm in set(itertools.permutations(pis)):
        assert lattice.count_unordered(X, perm).count == want, perm


def test_count_unordered_loops_over_the_largest_exponent():
    # s_1 s_2^2 <= X: the loop runs over s_2 (1e5 steps), not over s_1 (1e10)
    X = 10**10
    want = sum(X // (s * s) for s in range(1, math.isqrt(X) + 1))
    assert lattice.count_unordered(X, (1, 2)).count == want
    assert lattice.count_unordered(X, (2, 1)).count == want


@pytest.mark.parametrize("X, pis, want", [
    (10**6, (2, 1, 1), 21107131),
    (10**7, (2, 1, 1), 248928748),
    (10**7, (3, 1, 1), 189661691),
    (10**6, (1.31, 1, 1), 40407653),
])
def test_count_unordered_equal_smallest_pair_pinned(X, pis, want):
    # the last two coordinates share the smallest exponent and end in one divisor sum
    assert lattice.count_unordered(X, pis).count == want


@pytest.mark.parametrize("X, want", [(10**5, 10469183), (10**6, 151114474), (4 * 10**6, 733066092)])
def test_count_unordered_three_ones_behind_a_larger_exponent(within, X, want):
    # s^2 t u w <= X: one triple hyperbola kernel at X // s^2 per s
    with within(1.0):
        for perm in ((2, 1, 1, 1), (1, 1, 2, 1)):
            assert lattice.count_unordered(X, perm).count == want, perm


def test_count_unordered_equal_smallest_pair_is_a_divisor_sum_per_prefix():
    # s^2 t u <= X counts t u <= X // s^2 for each s
    X = 10**6
    want = sum(seed_count_ones(X // (s * s), 2) for s in range(1, math.isqrt(X) + 1))
    for perm in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
        assert lattice.count_unordered(X, perm).count == want, perm
    # s^a t^a <= X is s t <= floor(X^(1/a))
    assert lattice.count_unordered(10**6, (2, 2)).count == seed_count_ones(10**3, 2)
    for X in (3.0, 12.7, 64.0, 300.5):
        for pis in ((1.5, 1.5), (2.31, 1.31, 1.31), (2, 2, 2), (3, 2, 1, 1)):
            assert lattice.count_unordered(X, pis).count == brute_unordered(X, pis), (pis, X)


@pytest.mark.parametrize("X", [1, 2, 99, 10**5, 10**7, 10**7 + 0.5])
def test_count_all_ones_k_up_to_2(X):
    n = math.floor(X)
    assert lattice.count_unordered(X, (1,)).count == n
    assert lattice.count_unordered(X, (1, 1)).count == seed_count_ones(n, 2)


def test_count_boundary_inclusion():
    # exact boundary products must be included (ties resolve toward inclusion)
    assert lattice.count_unordered(8, (3,)).count == 2  # 1^3, 2^3 = 8
    assert lattice.count_unordered(27, (3,)).count == 3
    assert lattice.count_ordered(36, (2, 1)).count == brute_ordered(36, (2, 1))


def test_ordered_times_factorial_below_unordered():
    for pis, factor in (((1, 1), 2), ((1, 1, 1), 6)):
        for X in (10, 100, 1000, 10000):
            ordered = lattice.count_ordered(X, pis).count
            unordered = lattice.count_unordered(X, pis).count
            assert factor * ordered <= unordered


def test_count_monotone_in_X_and_v():
    prev = -1
    for X in (1, 5, 10, 50, 100, 500):
        c = lattice.count_unordered(X, (2, 1)).count
        assert c >= prev
        prev = c
    prev = -1
    for v in (1, 2, 4, 8, 16):
        c = lattice.count_ordered(100, (1, 1), bound_v=v).count
        assert c >= prev
        prev = c


def test_bounded_below_unbounded():
    for v in (2, 5, 20):
        assert (
            lattice.count_ordered(50, (1, 1), bound_v=v).count
            <= lattice.count_ordered(50, (1, 1)).count
        )


def _max_coordinate_linear_walk(x, power, cap=None):
    # the former search: step +-1 from int(x ** (1/power))
    if x * lattice._INCLUSION_GUARD < 1.0:
        return 0
    if cap is not None:
        if math.log(x) > power * math.log(cap) + 1e-9:
            return cap
        return min(_max_coordinate_linear_walk(x, power), cap)
    n = int(x ** (1.0 / power))
    if power == int(power) and power <= 53 and x < 2**53 and float(x).is_integer():
        p, xi = int(power), int(x)
        while (n + 1) ** p <= xi:
            n += 1
        while n >= 1 and n**p > xi:
            n -= 1
        return n
    lim = x * lattice._INCLUSION_GUARD
    while (n + 1) ** power <= lim:
        n += 1
    while n >= 1 and n**power > lim:
        n -= 1
    return n


_GRID_X = sorted(
    {float(x) for x in (1, 2, 3, 7, 8, 9, 10, 26, 27, 28, 99.5, 100, 1000, 4096, 10**6, 10**9 + 7, 2.0**40)}
    | {x * f for x in (8.0, 27.0, 1000.0, 1e6) for f in (1 - 1e-12, 1 + 5e-13, 1 + 2e-12)}
)
_GRID_POWER = (0.05, 0.3, 0.5, 1.0, 1.31, 2.0, 3.0, 7.0, 53.0, 60.0, 1e300)


def test_max_coordinate_matches_the_linear_walk_on_a_grid():
    for x, power, cap in itertools.product(_GRID_X, _GRID_POWER, (None, 1, 5, 1000)):
        if math.log2(x) >= 53 * power:
            continue  # past the 2^53 coordinate limit, which the counts refuse first
        try:
            want = _max_coordinate_linear_walk(x, power, cap)
        except OverflowError:  # the walk's own failure on a power past float range
            assert power == 1e300
            want = min(1, cap) if cap is not None else 1
        assert lattice._max_coordinate(x, power, cap) == want, (x, power, cap)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(1.0, 1e12),
    power=st.floats(0.05, 40.0),
    cap=st.none() | st.integers(1, 10**6),
)
def test_max_coordinate_matches_the_linear_walk(x, power, cap):
    if x ** (1.0 / power) > 1e7:
        return  # the walk is linear in its distance from the guess; keep it short
    assert lattice._max_coordinate(x, power, cap) == _max_coordinate_linear_walk(x, power, cap)


def test_last_true_finds_the_boundary_from_any_guess():
    # a guess off by D costs at most 2 log2(D + 1) + 2 evaluations, and never one below 0
    for t in range(0, 80):
        for guess in range(0, 160):
            calls = []

            def ok(k):
                calls.append(k)
                return k <= t

            assert lattice._last_true(ok, guess) == t
            assert min(calls) >= 0
            assert len(calls) <= 2 * math.log2(abs(t - guess) + 1) + 2, (t, guess, calls)


def test_max_coordinate_gallops_across_the_guard_band(within):
    # the guard band is about 1e-12 n / a steps wide: 6e7 steps for the linear walk
    with within(0.1):
        assert lattice.count_unordered(2 ** 52.5e-4, (1e-4,)).count == 6369051736225185


@pytest.mark.parametrize("ordered", [False, True])
def test_count_with_a_power_past_float_range(ordered):
    # s**a overflows for s >= 2, so only coordinates equal to 1 can take such an exponent
    count = lattice.count_ordered if ordered else lattice.count_unordered
    assert count(5, (1e300,)).count == 1
    assert count(5, (1e300, 1e300)).count == (0 if ordered else 1)
    assert count(5, (1e300, 1)).count == (4 if ordered else 5)  # (1, t) for t in 2..5, or 1..5
    assert count(5, (1, 1e300)).count == (0 if ordered else 5)
    assert count(5, (2000.0, 1, 1)).count == (0 if ordered else 10)  # 2**2000 overflows too


def test_strict_budget_counts_only_the_bounded_prefixes(within):
    # unbounded, the estimate is 1e30; below bound_v = 1000 at most 1000 prefixes exist
    with within(0.5):
        assert lattice.count_ordered(1e6, (0.1, 0.1), bound_v=1000).count == 499500
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_ordered(1e6, (0.1, 0.1))
    with pytest.raises(lattice.BudgetExceededError):  # C(10^5, 2) + 10^5 prefixes
        lattice.count_ordered(1e30, (0.1, 0.1, 0.1), bound_v=10**5)


def test_count_budget_error():
    with pytest.raises(lattice.BudgetExceededError) as err:
        lattice.count_unordered(1e18, (1, 1, 1))
    assert err.value.estimate > lattice.ITERATION_BUDGET
    # priced by the loop over the larger exponent: X^(1/1.5) = 1e10
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(1e15, (1.0, 1.5))
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(1e12, (1, 1, 1, 1))
    # three ones behind a = 2, one triple kernel per s: 1.5 zeta(4/3) X^(2/3)
    # terms and X^(1/2) calls reach 1e9 at X = 2.513e12
    lattice._budget_or_raise(lattice.Exponents((2, 1, 1, 1)), 2.51e12, False, None, True)
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(2.52e12, (2, 1, 1, 1))
    # an equal smallest pair a, a is priced X^max(1/(2a), 1/b) log(X)^(k-2), b the next exponent
    lattice.count_unordered(1e9, (2, 1, 1))
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(1e20, (2, 1, 1))
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(1e12, (1.31, 1, 1))
    with pytest.raises(lattice.BudgetExceededError):  # k = 2: 2 X^(1/(2a)) = 2e10
        lattice.count_unordered(1e10, (0.5, 0.5))
    with pytest.raises(lattice.BudgetExceededError):
        lattice.count_unordered(1e19, (1, 1))


def test_count_input_validation():
    with pytest.raises(ValueError):
        lattice.count_unordered(10, (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        lattice.count_unordered(float("inf"), (1, 1))
    with pytest.raises(ValueError):
        lattice.Exponents((1.0, -2.0))


def test_count_stops_at_a_2_to_the_53_coordinate(within):
    # past 2^53 floats skip integers, and the guard band alone is 1e-12 n / a steps
    assert lattice.count_unordered(2.0**52, (1,)).count == 2**52
    with within(5.0):
        for X, pis in (
            (2.0**53, (1,)), (100.0, (0.1,)), (1e6, (0.1,)), (1e6, (0.1, 1)), (1e10, (0.01,))
        ):
            with pytest.raises(InvalidInput, match=r"reaches 2\^53"):
                lattice.count_unordered(X, pis)
        with pytest.raises(InvalidInput, match=r"reaches 2\^53"):
            lattice.count_ordered(1e6, (0.1,))
        with pytest.raises(InvalidInput, match=r"reaches 2\^53"):
            lattice.count_ordered(1e6, (0.1,), bound_v=2**53)


def test_bounded_count_caps_coordinates_before_stepping(within):
    with within(1.0):
        assert lattice.count_ordered(1e6, (0.1,), bound_v=1000).count == 1000
        assert lattice.count_ordered(1e10, (0.01,), bound_v=7).count == 7
        assert lattice.count_ordered(1e6, (1, 0.1), bound_v=50).count == 50 * 49 // 2


# ---------------------------------------------------------------------------
# zeta


def test_zeta_known_values():
    assert lattice.zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert lattice.zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_series_oracle():
    # oracle: ten million terms plus integral tail
    N = 10**7
    n = np.arange(1, N + 1, dtype=float)
    s = 3.0
    oracle = float(np.sum(n**-s)) + float(N) ** (1 - s) / (s - 1)
    assert lattice.zeta(3.0) == pytest.approx(oracle, abs=1e-10)


def test_zeta_large_and_near_one():
    assert lattice.zeta(30.0) == pytest.approx(1.0 + 2.0**-30, rel=1e-12)
    # near the pole: zeta(s) = 1/(s-1) + gamma + O(s-1)
    s = 1.0 + 1e-5
    assert lattice.zeta(s) == pytest.approx(1.0 / (s - 1.0) + 0.5772156649015329, abs=1e-4)


def test_zeta_domain_error():
    for s in (1.0, 0.5, -2.0, 1.0 + 1e-7):
        with pytest.raises(ValueError):
            lattice.zeta(s)


# ---------------------------------------------------------------------------
# asymptotics


def test_asymptotic_unordered_equal_exponents():
    X = 1234.5
    assert lattice.asymptotic_unordered(X, (1, 1)) == pytest.approx(X * math.log(X), rel=1e-12)
    assert lattice.asymptotic_unordered(X, (2, 2)) == pytest.approx(
        0.5 * math.sqrt(X) * math.log(X), rel=1e-12
    )


def test_asymptotic_unordered_mixed():
    X = 500.0
    assert lattice.asymptotic_unordered(X, (2, 1)) == pytest.approx(
        lattice.zeta(2.0) * X, rel=1e-12
    )
    # (3, 1): zeta(3) X; minimum exponent 1 with multiplicity 1
    assert lattice.asymptotic_unordered(X, (3, 1)) == pytest.approx(
        lattice.zeta(3.0) * X, rel=1e-12
    )


def test_asymptotic_matches_exact_at_large_X():
    X = 10**6
    exact = lattice.count_unordered(X, (1, 1)).count
    asym = lattice.asymptotic_unordered(X, (1, 1))
    assert 0.8 <= exact / asym <= 1.2


@pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf])
def test_asymptotics_need_a_finite_X(X):
    with pytest.raises(InvalidInput, match="X must be finite"):
        lattice.asymptotic_unordered(X, (1, 1))
    with pytest.raises(InvalidInput, match="X must be finite"):
        lattice.asymptotic_ordered_equal(X, 1.0, 2)


@pytest.mark.parametrize("call", [
    lambda: lattice.asymptotic_unordered(1e308, (0.01, 1)),  # X^(1/a) raises OverflowError
    lambda: lattice.asymptotic_unordered(1e308, (1, 1)),  # the product rounds to inf
    lambda: lattice.asymptotic_ordered_equal(1e308, 1.0, 3),
    lambda: lattice.asymptotic_ordered_equal(100.0, 1e-300, 4),  # the constant a^(1-k) overflows
    lambda: lattice.invert_count_equal(1e6, 1e-120, 4),
])
def test_asymptotics_refuse_float_overflow(call):
    with pytest.raises(InvalidInput, match="exceeds float range"):
        call()


def test_ordered_shape_examples():
    s = lattice.ordered_shape((1, 1, 1))
    assert s.theta_star == pytest.approx(1.0)
    assert s.mu == 3
    s = lattice.ordered_shape((2, 1))
    assert s.theta_star == pytest.approx(1.0)
    assert s.mu == 1
    assert s.partial_sums == (1.0, 3.0)
    s = lattice.ordered_shape((3,))
    assert s.theta_star == pytest.approx(1.0 / 3.0)
    assert s.mu == 1


def test_asymptotic_ordered_equal_examples():
    X = 777.0
    assert lattice.asymptotic_ordered_equal(X, 1.0, 3) == pytest.approx(
        X * math.log(X) ** 2 / 12.0, rel=1e-12
    )
    assert lattice.asymptotic_ordered_equal(X, 1.0, 2) == pytest.approx(
        0.5 * X * math.log(X), rel=1e-12
    )
    assert lattice.asymptotic_ordered_equal(X, 1.0, 1) == pytest.approx(X, rel=1e-12)


def test_ordered_upper_bound_shape_is_bounded():
    # measured constants over X in [1e2, 1e6]: the ratio to X^theta* log^(mu-1) X
    # stays bounded (and modest); bands pinned from the oracle run
    for pis, cap in (((2, 1), 2.0), ((3, 1, 1), 1.5)):
        shape = lattice.ordered_shape(pis)
        for X in (100, 1000, 10**4, 10**5, 10**6):
            n = lattice.count_ordered(X, pis).count
            bound = X**shape.theta_star * math.log(X) ** (shape.mu - 1)
            assert n / bound <= cap, (pis, X, n / bound)


# ---------------------------------------------------------------------------
# inversion


def test_invert_count_equal_identity_case():
    assert lattice.invert_count_equal(100.0, 1.0, 1) == pytest.approx(100.0, rel=1e-9)


def test_invert_count_equal_round_trip():
    X0 = 1e4
    N = lattice.asymptotic_ordered_equal(X0, 1.0, 2)
    assert lattice.invert_count_equal(N, 1.0, 2) == pytest.approx(X0, rel=1e-6)


def test_invert_count_equal_forward_residual():
    X = lattice.invert_count_equal(1e5, 1.0, 3)
    forward = lattice.asymptotic_ordered_equal(X, 1.0, 3)
    assert abs(forward / 1e5 - 1.0) <= 1e-4


def test_invert_increasing_names_a_target_that_never_converges():
    # floor(x) meets t = 1 and never t = 2.5: the first freezes, and the
    # halvings run out on the second, which the message names
    with pytest.raises(RuntimeError, match=r"did not converge after 200 steps at t=2\.5"):
        lattice._invert_increasing(np.floor, [1.0, 2.5], 0.5, 4.0, 1e-9)


@pytest.mark.parametrize("N, a, k", [(1e150, 2.0, 3), (1e300, 1.0, 3)])
def test_invert_count_equal_where_a_squared_bracket_leaves_float_range(N, a, k):
    # the roots (X = 1.1e292 and 2.6e295) lie past e^512, the last squared
    # bracket end below float range, so the upper end is held at the largest float
    X = lattice.invert_count_equal(N, a, k)
    assert abs(lattice.asymptotic_ordered_equal(X, a, k) - N) <= 1e-9 * N


def test_invert_count_equal_validation():
    with pytest.raises(ValueError):
        lattice.invert_count_equal(2.0, 1.0, 2)


@pytest.mark.parametrize(
    "N, a, k",
    [
        (1e200, 2.0, 3),  # the root lies past float range
        (math.inf, 1.0, 2),
        (math.nan, 1.0, 2),
        (1e6, 1e-3, 2),  # the count at X = e overflows
    ],
)
def test_invert_count_equal_refuses_without_a_warning(N, a, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            lattice.invert_count_equal(N, a, k)


def _log_count(X, a, k):
    # log of the equal-exponent asymptotic, finite for every float X > 1
    log_const = (1 - k) * math.log(a) - math.lgamma(k) - math.lgamma(k + 1)
    return log_const + math.log(X) / a + (k - 1) * math.log(math.log(X))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.31, 2.0, 5.0])
@pytest.mark.parametrize("N", [3.5, 10.0, 1e3, 1e6, 1e12, 1e30, 1e100, 1e200, 1e300])
def test_invert_count_equal_solves_or_refuses(N, a, k, monkeypatch):
    evaluations = 0
    solve = lattice._invert_increasing

    def counting(f, *args):
        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return f(x)

        return solve(counted, *args)

    monkeypatch.setattr(lattice, "_invert_increasing", counting)
    try:
        X = lattice.invert_count_equal(N, a, k)
    except InvalidInput:
        # only a root below X = e or past the largest float is refused
        largest = np.finfo(float).max
        assert _log_count(math.e, a, k) > math.log(N) or _log_count(largest, a, k) < math.log(N)
        return
    assert abs(lattice.asymptotic_ordered_equal(X, a, k) - N) <= 1e-9 * N
    # the chord needs at most 22 evaluations here; midpoint steps would need far more
    assert evaluations <= 30


def _bisected_count_inverse(N, a, k):
    # a scalar bisection from a bracket around (N / log(N)^(k-1))^a
    def f(X):
        return lattice.asymptotic_ordered_equal(X, a, k)

    seed = (N / math.log(N) ** (k - 1)) ** a
    lo = max(math.e, seed / 4.0)
    while f(lo) > N:
        lo = max(math.e, lo / 4.0)
    hi = max(2.0 * lo, seed * 4.0)
    while f(hi) < N:
        hi *= 2.0
    for _ in range(200):
        X = 0.5 * (lo + hi)
        val = f(X)
        if abs(val - N) <= 1e-9 * N:
            return X
        lo, hi = (X, hi) if val < N else (lo, X)
    raise AssertionError(f"reference bisection did not converge at N={N}")


@settings(deadline=None, max_examples=100)
@given(
    k=st.sampled_from([1, 2, 3]),
    a=st.sampled_from([0.5, 1.0, 2.0]),
    N=st.floats(3.0, 1e12),
)
def test_invert_count_equal_meets_rel_tol(k, a, N):
    if lattice.asymptotic_ordered_equal(math.e, a, k) > N:
        with pytest.raises(ValueError, match="no solution with X > e"):
            lattice.invert_count_equal(N, a, k)
        return
    X = lattice.invert_count_equal(N, a, k)
    assert abs(lattice.asymptotic_ordered_equal(X, a, k) - N) <= 1e-9 * N
    # both answers lie within 1e-9 N of N in the count, which grows at least
    # like X^(1/a) past X = e: so within 2e-9 a of each other relative in X
    assert X == pytest.approx(_bisected_count_inverse(N, a, k), rel=2e-9 * a * (1 + 1e-6))


# ---------------------------------------------------------------------------
# types


def test_exponents_properties():
    e = lattice.Exponents((2.0, 1.0, 1.0))
    assert e.k == 3
    assert e.pi_star == 1.0
    assert e.multiplicity == 2


def test_count_result_fields():
    r = lattice.count_ordered(6, (1, 1), bound_v=3)
    assert (r.count, r.X, r.ordered, r.bound_v) == (3, 6.0, True, 3)
    assert r.exponents.values == (1.0, 1.0)
