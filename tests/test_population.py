import hashlib
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _traced_peak, golden_build_only
from plrf import InvalidInput, lattice, population
from plrf.combinatorics import Composition, compositions
from plrf.population import PowerLawSpectrum, TopTuples, TupleEigenvalue
from plrf.selfcheck import _brute_top_k as brute_top_k


# ---------------------------------------------------------------------------
# PowerLawSpectrum


def test_default_spectrum_is_inverse_power():
    H = PowerLawSpectrum(1.31, 100)
    j = np.arange(1, 101.0)
    assert np.array_equal(H.eigenvalues, j**-1.31)
    # lambda_j * j^alpha = 1 up to float rounding of the power itself
    assert np.allclose(H.eigenvalues * j**1.31, 1.0, rtol=1e-13)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        PowerLawSpectrum(1.0, 10)
    with pytest.raises(ValueError):
        PowerLawSpectrum(1.5, 0)
    with pytest.raises(ValueError):
        PowerLawSpectrum(1.5, 3, np.array([1.0, 2.0, 0.5]))  # increasing step
    with pytest.raises(ValueError):
        PowerLawSpectrum(1.5, 3, np.array([1.0, 0.5, -0.1]))
    with pytest.raises(ValueError):
        PowerLawSpectrum(1.5, 3, np.array([1.0, 0.5]))


@pytest.mark.parametrize("alpha, eigenvalues, bad", [
    (math.inf, None, "H_2 = 0.0"),  # the default j^(-alpha) underflows
    (1e6, None, "H_2 = 0.0"),
    (1.5, [math.inf, 1.0, 0.5], "H_1 = inf"),
    (1.5, [1.0, math.nan, 0.5], "H_2 = nan"),
])
def test_spectrum_eigenvalues_must_be_positive_and_finite(alpha, eigenvalues, bad):
    with pytest.raises(InvalidInput, match=f"strictly positive and finite, got {bad}"):
        PowerLawSpectrum(alpha, 3, eigenvalues)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: lattice.count_ordered(10, (1, 1), bound_v=2.5), "bound_v"),
        (lambda: lattice.asymptotic_ordered_equal(100.0, 1.0, 2.5), "k"),
        (lambda: lattice.invert_count_equal(100.0, 1.0, 2.5), "k"),
        (lambda: population.hpi_top_k(PowerLawSpectrum(1.31, 10), (1, 1), 2.5), "k"),
        (lambda: PowerLawSpectrum(1.31, 50.5), "v"),
        (lambda: PowerLawSpectrum(1.31, 50.0), "v"),
        (lambda: population.predicted_spectrum(population.theory_curve(2, 1.31), 2.0, [1.5, 2.7]), "j_range"),
        (lambda: population.predicted_spectrum(population.theory_curve(2, 1.31), 2.0, [1, math.nan]), "j_range"),
    ],
)
def test_integer_parameters_refuse_non_integers(call, name):
    with pytest.raises(InvalidInput, match=f"^{name} must (be an integer|hold integers), got"):
        call()


def test_spectrum_holds_plain_numbers():
    H = PowerLawSpectrum(np.float64(1.31), np.int64(50))
    assert type(H.alpha) is float and type(H.v) is int
    assert repr(H.alpha) == "1.31"


def test_spectrum_is_immutable():
    H = PowerLawSpectrum(1.31, 10)
    with pytest.raises(ValueError):
        H.eigenvalues[0] = 2.0


# ---------------------------------------------------------------------------
# top-k enumeration


def test_hpi_top_k_examples():
    H = PowerLawSpectrum(1.31, 50, np.arange(1, 51.0) ** -1.0)
    top = population.hpi_top_k(H, (1, 1), 3)
    assert [e.indices for e in top] == [(1, 2), (1, 3), (1, 4)]
    assert np.allclose(top.values(), [1 / 2, 1 / 3, 1 / 4], rtol=1e-14)

    top1 = population.hpi_top_k(PowerLawSpectrum(1.31, 10), (1,), 3)
    assert [e.indices for e in top1] == [(1,), (2,), (3,)]
    assert np.allclose(top1.values(), np.arange(1, 4.0) ** -1.31, rtol=1e-14)

    H1 = PowerLawSpectrum(1.31, 10, np.arange(1, 11.0) ** -1.0)
    top21 = population.hpi_top_k(H1, (2, 1), 1)
    assert top21[0].indices == (1, 2)
    assert top21[0].value == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("alpha", [1.31, 2.0])
def test_hpi_top_k_equals_bruteforce(alpha):
    for v in (12, 37, 60):
        H = PowerLawSpectrum(alpha, v)
        for q in range(1, 5):
            for comp in compositions(q):
                if comp.length > 3 or comp.length > v:
                    continue
                total = math.comb(v, comp.length)
                k = min(150, total)
                got = population.hpi_top_k(H, comp, k)
                want = brute_top_k(H, comp.parts, k)
                assert [e.indices for e in got] == [e.indices for e in want], (v, comp.parts)
                assert np.allclose(got.values(), [e.value for e in want], rtol=1e-12)


def test_hpi_top_k_pinned_near_tie():
    # 28^3 = 8 * 14^3, so (1,28) and (8,14) tie up to round-off; the scalar pow
    # of the reference puts (1,28) one ulp above, and an array power moves the bits
    H = PowerLawSpectrum(1.2138, 71)
    top = population.hpi_top_k(H, (1, 3), 200)
    order = [e.indices for e in top]
    assert order.index((8, 14)) == order.index((1, 28)) + 1
    want = brute_top_k(H, (1, 3), 200)
    assert order == [e.indices for e in want]
    assert [e.value for e in top] == [e.value for e in want]


# v <= 80 for l <= 2; shorter for l = 3, 4 so brute force stays around 1e4 tuples
_MAX_V = {1: 80, 2: 80, 3: 40, 4: 24}


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_prefix_search_and_top_k_equal_bruteforce(data):
    l = data.draw(st.integers(min_value=1, max_value=4))
    v = data.draw(st.integers(min_value=l, max_value=_MAX_V[l]))
    parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=l, max_size=l)))
    alpha = data.draw(st.floats(min_value=1.01, max_value=3.0))
    if data.draw(st.booleans()):
        H = PowerLawSpectrum(alpha, v)
    else:  # repeated dyadic entries: many products tie exactly
        pool = st.sampled_from([1.0, 0.75, 0.5, 0.375, 0.25])
        eig = sorted(data.draw(st.lists(pool, min_size=v, max_size=v)), reverse=True)
        H = PowerLawSpectrum(alpha, v, np.array(eig))
    eig = H.eigenvalues
    value = {
        idx: math.prod(float(eig[i - 1]) ** a for i, a in zip(idx, parts))
        for idx in itertools.combinations(range(1, v + 1), l)
    }
    # thresholds at a tuple value (exact boundary) and just off it
    at = data.draw(st.sampled_from(sorted(value.values())))
    for eps in (at, at * (1 + 1e-9), at * (1 - 1e-9)):
        above = sorted(idx for idx, val in value.items() if val >= eps * (1 - 1e-12))
        assert population.hpi_count_above(H, parts, eps) == len(above)
        # merged in blocks of 4 * keep: the keep largest, ties lexicographic; keep =
        # len(above) returns every qualifying tuple
        ranked = sorted(above, key=lambda idx: (-value[idx], idx))
        for keep in (len(above), data.draw(st.integers(min_value=1, max_value=len(above) + 2))):
            with mock.patch.object(population, "_MIN_BLOCK", 1):
                indices, values = population._prefix_search(H, Composition(parts), eps, keep=keep)
            want = ranked[:keep]
            assert indices.shape == (len(want), l) and values.shape == (len(want),)
            assert list(map(tuple, indices.tolist())) == want
            assert values.tolist() == [value[idx] for idx in want]  # bit-equal
    k = data.draw(st.integers(min_value=1, max_value=len(value) + 3))
    top = population.hpi_top_k(H, parts, k)
    want = brute_top_k(H, parts, k)
    assert [e.indices for e in top] == [e.indices for e in want]
    assert top.values().tolist() == [e.value for e in want]
    assert top.truncated == (k > len(value))


def test_top_tuples_from_entries_round_trip():
    # perfbench builds TopTuples from a list of entries; keep that contract
    entries = [TupleEigenvalue((1, 2), 0.5), TupleEigenvalue((1, 3), 0.25), TupleEigenvalue((2, 3), 0.125)]
    top = TopTuples(entries, truncated=True)
    assert len(top) == 3 and top.truncated
    assert top[1].indices == (1, 3) and type(top[1].indices[0]) is int
    assert top[1].value == 0.25 and type(top[1].value) is float
    assert top[-1] == entries[-1]
    assert list(top) == entries and top[:2] == entries[:2]
    assert top.values().tolist() == [0.5, 0.25, 0.125]
    again = TopTuples(list(top))
    assert list(again) == entries and not again.truncated
    empty = TopTuples([])
    assert len(empty) == 0 and empty.values().size == 0 and list(empty) == []


def test_hpi_top_k_truncation_marker():
    H = PowerLawSpectrum(1.31, 6)
    top = population.hpi_top_k(H, (1, 1), 100)
    assert top.truncated
    assert len(top) == math.comb(6, 2)
    full = population.hpi_top_k(H, (1, 1), 15)
    assert not full.truncated


def test_hpi_top_k_ties_lexicographic():
    # equal base entries make every tuple value tie; order must be lexicographic
    H = PowerLawSpectrum(1.31, 5, np.full(5, 0.5))
    top = population.hpi_top_k(H, (1, 1), 4)
    assert [e.indices for e in top] == [(1, 2), (1, 3), (1, 4), (1, 5)]


def test_hpi_top_k_validation():
    H = PowerLawSpectrum(1.31, 10)
    with pytest.raises(ValueError):
        population.hpi_top_k(H, (1, 1), 0)
    with pytest.raises(ValueError):
        population.hpi_top_k(H, (1, 1, 1, 1, 1), 3)


@pytest.fixture
def passes(monkeypatch):
    """The passes of hpi_top_k in order: ("count", eps, count) per
    hpi_count_above call and ("emit", eps, tuples emitted) per emitting pass."""
    seen = []
    count_above, search = population.hpi_count_above, population._prefix_search

    def counting(H, comp, eps):
        seen.append(("count", eps, count_above(H, comp, eps)))
        return seen[-1][2]

    def searching(H, comp, eps, keep=None):
        if keep is not None:
            seen.append(("emit", eps, search(H, comp, eps)))
        return search(H, comp, eps, keep)

    monkeypatch.setattr(population, "hpi_count_above", counting)
    monkeypatch.setattr(population, "_prefix_search", searching)
    return seen


def test_hpi_top_k_short_emit_extrapolates_again(passes):
    # the line through the counts 1 and 2 predicts 50 tuples where only 38
    # qualify; the fit through 2 and 38 then emits 45 >= k
    H = PowerLawSpectrum(1.1, 20)
    top = population.hpi_top_k(H, (2, 1), 40)
    assert [(kind, n) for kind, _, n in passes] == [("count", 1), ("count", 2), ("emit", 38), ("emit", 45)]
    assert passes[3][1] < passes[2][1]
    assert list(top) == brute_top_k(H, (2, 1), 40)


def test_hpi_top_k_overshoot_onto_plateau(passes, monkeypatch):
    # 100 equal entries below a 1/j head: the fit from counts 1 and 3 lands
    # past the plateau's edge, emitting 222 > 4k tuples, merged in blocks of 4k
    monkeypatch.setattr(population, "_MIN_BLOCK", 1)
    H = PowerLawSpectrum(1.5, 110, np.r_[np.arange(1, 11.0) ** -1.0, np.full(100, 0.09)])
    top = population.hpi_top_k(H, (1, 1), 40)
    assert [(kind, n) for kind, _, n in passes] == [("count", 1), ("count", 3), ("emit", 222)]
    want = brute_top_k(H, (1, 1), 41)
    assert want[-1].value == want[-2].value  # the cut falls inside a tie
    assert list(top) == want[:40]


def test_hpi_top_k_every_tuple_qualifies(passes):
    H = PowerLawSpectrum(1.31, 6)
    top = population.hpi_top_k(H, (1, 1), 100)
    min_val = float(H.eigenvalues[-2] * H.eigenvalues[-1])
    assert passes[-1] == ("emit", min_val, 15)
    assert top.truncated and list(top) == brute_top_k(H, (1, 1), 15)


def test_hpi_top_k_refuses_underflowed_products():
    # j^(-300): H_i H_j > 0 in floating point exactly when i j <= 11
    H = PowerLawSpectrum(300.0, 10)
    with pytest.raises(InvalidInput, match=(
        r"only 12 of the 45 tuple products are positive in floating point, fewer than "
        r"k = 45 \(v = 10, alpha = 300.0, composition = \(1, 1\)\)"
    )):
        population.hpi_top_k(H, (1, 1), 45)
    assert list(population.hpi_top_k(H, (1, 1), 12)) == brute_top_k(H, (1, 1), 12)
    with pytest.raises(InvalidInput, match="only 0 of the 45 tuple products are positive"):
        population.hpi_top_k(PowerLawSpectrum(1.5, 10, np.full(10, 1e-200)), (1, 1), 1)


def test_hpi_top_k_refuses_overflowed_products():
    H = PowerLawSpectrum(1.5, 3, np.array([1e200, 1e200, 1.0]))
    with pytest.raises(InvalidInput, match=r"largest tuple product overflows float range \(v = 3,"):
        population.hpi_top_k(H, (1, 1), 2)


@pytest.mark.parametrize("v, parts, bisection_emitted", [(20000, (1, 1), 44191), (5000, (1, 1, 1), 38405)])
def test_hpi_top_k_passes_at_benchmark_size(passes, v, parts, bisection_emitted):
    # bisection_emitted: what the former [k, 4k] window bisection emitted here
    k = 30_000
    top = population.hpi_top_k(PowerLawSpectrum(1.31, v), parts, k)
    assert len(top) == k
    kinds = [kind for kind, _, _ in passes]
    assert kinds.count("emit") == 1 and kinds[-1] == "emit"
    assert sum(n for kind, _, n in passes if kind == "count") < k
    assert k <= passes[-1][2] <= bisection_emitted


def test_hpi_top_k_plateau_memory_follows_k():
    # all C(2000, 2) products tie at 0.25 and qualify; the search keeps k
    H = PowerLawSpectrum(1.31, 2000, np.full(2000, 0.5))
    out = []
    peak = _traced_peak(lambda: out.append(population.hpi_top_k(H, (1, 1), 10)))
    top = out[0]
    assert [e.indices for e in top] == [(1, j) for j in range(2, 12)]
    assert top.values().tolist() == [0.25] * 10
    assert peak < 8 * 2**20


def test_hpi_top_k_heap_oracle_large():
    # independent oracle: a bounded max-heap sweep over all tuples
    import heapq

    alpha = 1.31
    H = PowerLawSpectrum(alpha, 300)
    eig = H.eigenvalues
    for parts in ((1, 1), (2, 1)):
        k = 2000
        heap: list = []
        for idx in itertools.combinations(range(1, 301), len(parts)):
            val = math.prod(float(eig[i - 1]) ** a for i, a in zip(idx, parts))
            item = (val, tuple(-i for i in idx))  # max-value, then lexicographic
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
        want = sorted(heap, key=lambda t: (-t[0], tuple(-i for i in t[1])))
        got = population.hpi_top_k(H, parts, k)
        assert len(got) == k
        assert [e.indices for e in got] == [tuple(-i for i in neg) for _, neg in want]


# ---------------------------------------------------------------------------
# counting above a threshold


def test_hpi_count_above_examples():
    H1 = PowerLawSpectrum(1.31, 10, np.arange(1, 11.0) ** -1.0)
    assert population.hpi_count_above(H1, (1, 1), 1 / 6) == 6
    H = PowerLawSpectrum(1.31, 5)
    assert population.hpi_count_above(H, (1, 1), 2.0) == 0  # above the max
    assert population.hpi_count_above(H, (1, 1), 1e-300) == math.comb(5, 2)


def test_hpi_count_above_matches_bounded_ordered_count():
    # cross-oracle of two independent prefix searches: on the default spectrum
    # a product is >= X^(-alpha) exactly when prod i^(a_i) <= X, so the float
    # threshold count equals the integer lattice count with coordinates <= v;
    # at every integer X up to 399 products equal to X meet both tie guards,
    # 1 - 1e-12 on the float side and 1 + 1e-12 on the lattice side
    grid = itertools.product(
        ((1, 1), (1, 1, 1), (2, 1), (1, 2), (3, 1, 1)), (50, 400), (37, 500, 3000.5), (1.31, 2.0)
    )
    ties = itertools.product(((1, 1), (1, 1, 1), (2, 1)), (60,), range(1, 400), (1.1, 1.31, 1.5, 2.0))
    for parts, v, X, alpha in itertools.chain(grid, ties):
        want = lattice.count_ordered(X, parts, bound_v=v).count
        got = population.hpi_count_above(PowerLawSpectrum(alpha, v), parts, X**-alpha)
        assert got == want, (parts, v, X, alpha)


@settings(deadline=None, max_examples=20)
@given(
    parts=st.sampled_from(((1, 1), (1, 1, 1), (2, 1), (1, 2), (3, 1, 1), (1, 1, 2))),
    v=st.integers(50, 20000),
    X=st.builds(lambda n, half: n + half, st.integers(10**6, 10**7), st.sampled_from((0.0, 0.5))),
    alpha=st.sampled_from((1.31, 2.0)),
)
def test_hpi_count_above_matches_bounded_ordered_count_at_scale(parts, v, X, alpha):
    # the same identity where counts reach 1e8: integer products differ from an
    # integer or half-integer X by far more than the 1e-12 tie tolerance
    want = lattice.count_ordered(X, parts, bound_v=v).count
    assert population.hpi_count_above(PowerLawSpectrum(alpha, v), parts, X**-alpha) == want


@settings(deadline=None, max_examples=200)
@given(
    parts=st.sampled_from(((1,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (1, 2, 1), (3, 1), (1, 1, 1, 1))),
    alpha=st.sampled_from((1.1, 1.31, 1.5, 2.0)),
    v=st.integers(1, 299),
    X=st.one_of(st.integers(1, 5 * 10**4), st.floats(1.0, 5e4)),
)
def test_hpi_count_above_is_the_lattice_count(parts, alpha, v, X):
    # the same identity, population._prefix_search against the lattice
    # counts, over drawn compositions, exponents, v and X (integer and
    # non-integer X, both counted in exact integer arithmetic)
    want = lattice.count_ordered(X, parts, bound_v=v).count
    assert population.hpi_count_above(PowerLawSpectrum(alpha, v), parts, X**-alpha) == want


def test_count_threshold_duality():
    H = PowerLawSpectrum(1.31, 30)
    for parts in ((1, 1), (2, 1), (1, 1, 1)):
        k = 20
        top = population.hpi_top_k(H, parts, k)
        lam_k = top[k - 1].value
        assert population.hpi_count_above(H, parts, lam_k) >= k
        ties = sum(1 for e in top if e.value == lam_k)
        assert population.hpi_count_above(H, parts, lam_k * (1 + 1e-9)) <= k - 1 + ties


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_hpi_count_above_rejects_nonpositive_eps(eps):
    with pytest.raises(InvalidInput, match="eps must be positive"):
        population.hpi_count_above(PowerLawSpectrum(1.31, 5), (1, 1), eps)


def test_hpi_count_above_bruteforce():
    H = PowerLawSpectrum(2.0, 25)
    eig = H.eigenvalues
    for parts in ((1, 2), (3,), (1, 1, 2)):
        values = [
            math.prod(float(eig[i - 1]) ** a for i, a in zip(idx, parts))
            for idx in itertools.combinations(range(1, 26), len(parts))
        ]
        for eps in (1e-1, 1e-3, 1e-6):
            want = sum(1 for val in values if val >= eps * (1 - 1e-12))
            assert population.hpi_count_above(H, parts, eps) == want


# ---------------------------------------------------------------------------
# envelope


def test_envelope_examples():
    assert population.envelope(1, 1.31, 1) == 1.0
    assert population.envelope(1, 2.0, 2) == pytest.approx(math.log(2.0) ** 2, rel=1e-14)
    # arbitrary-precision style recomputation via exp/log
    want = math.exp(1.31 * (2.0 * math.log(math.log(101.0)) - math.log(100.0)))
    assert population.envelope(100, 1.31, 3) == pytest.approx(want, rel=1e-12)


def test_envelope_validation():
    with pytest.raises(ValueError):
        population.envelope(0, 1.31, 2)


def test_envelope_ratio_measured_bands():
    """Regression: measured ratio bands of the tuple spectrum to the envelope.

    The sandwich constants are existential, so only the spread is theory-
    mandated; these absolute bands were measured on the default spectrum
    (v=2000, j<=500) and pinned with margin.
    """
    bands = {
        (2, 1.31): (0.25, 0.80),
        (2, 2.0): (0.14, 0.65),
        (3, 1.31): (0.019, 0.31),
        (3, 2.0): (0.0028, 0.15),
    }
    for (length, alpha), (lo, hi) in bands.items():
        H = PowerLawSpectrum(alpha, 2000)
        top = population.hpi_top_k(H, (1,) * length, 500)
        ratios = np.array(
            [e.value / population.envelope(j, alpha, length) for j, e in enumerate(top, 1)]
        )
        assert lo <= ratios.min() and ratios.max() <= hi, (length, alpha, ratios.min(), ratios.max())


def test_unequal_composition_upper_bound():
    # lambda_j stays below a bounded multiple of (log^(mu-1)(j+1)/j)^(alpha/theta*)
    alpha = 1.31
    H = PowerLawSpectrum(alpha, 2000)
    caps = {(2, 1): 2.5, (3, 1): 2.0}
    for parts, cap in caps.items():
        shape = lattice.ordered_shape(parts)
        top = population.hpi_top_k(H, parts, 1000)
        for j, entry in enumerate(top, 1):
            bound = (math.log(j + 1.0) ** (shape.mu - 1) / j) ** (alpha / shape.theta_star)
            assert entry.value / bound <= cap, (parts, j, entry.value / bound)


# ---------------------------------------------------------------------------
# theory curves


def test_theory_curve_p1():
    curve = population.theory_curve(1, 1.31)
    assert curve.evaluate(100.0) == 100.0
    assert curve.b_theory == 0.0


def test_theory_curve_p2():
    curve = population.theory_curve(2, 1.31)
    assert curve.evaluate(math.e) == pytest.approx(math.e / 2.0, rel=1e-14)
    assert curve.b_theory == 0.0


def test_theory_curve_p3_constant():
    alpha = 1.31
    curve = population.theory_curve(3, alpha)
    # independent recomputation of both terms
    z2 = math.pi**2 / 6.0
    want = z2 / math.exp(math.log(2.0) / alpha) + math.exp(-math.log(4.0) / alpha)
    assert curve.b_theory == pytest.approx(want, abs=1e-10)
    assert curve.principal_weight == pytest.approx(1.0 / 12.0)
    # the diagonal term is recorded but not part of the evaluation
    kinds = [kind for _, _, kind in curve.subleading_terms]
    assert kinds == ["unordered", "linear", "diagonal"]
    u = 50.0
    assert curve.evaluate(u) == pytest.approx(
        u * math.log(u) ** 2 / 12.0 + curve.b_theory * u, rel=1e-14
    )


def test_theory_curve_unsupported_degree():
    with pytest.raises(ValueError):
        population.theory_curve(4, 1.31)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, -1.0, float("nan")])
def test_theory_curve_requires_alpha_above_one(alpha):
    # checked before the degree, so an unsupported p with a bad alpha names alpha
    for p in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="alpha > 1 required"):
            population.theory_curve(p, alpha)


def test_theory_curve_strictly_increasing():
    for p in (1, 2, 3):
        curve = population.theory_curve(p, 1.31)
        us = np.linspace(math.e, 1e5, 200)
        vals = [curve.evaluate(u) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# predicted spectra


def test_predicted_spectrum_p1_exact():
    curve = population.theory_curve(1, 1.31)
    eps = population.predicted_spectrum(curve, 1.0, range(1, 50))
    assert np.array_equal(eps, np.arange(1, 50.0) ** -1.31)


def test_predicted_spectrum_round_trip_p2():
    curve = population.theory_curve(2, 1.31)
    js = range(1, 200, 7)
    eps = population.predicted_spectrum(curve, curve.scale, js)
    for j, e in zip(js, eps):
        u = (curve.scale / e) ** (1.0 / curve.alpha)
        assert curve.evaluate(u) == pytest.approx(j, rel=1e-7)


def test_predicted_spectrum_p3_monotone_and_tracks_tuples():
    curve = population.theory_curve(3, 1.31)
    eps = population.predicted_spectrum(curve, curve.scale, range(1, 1001))
    assert np.all(np.diff(eps) < 0)
    # consistency run against the tuple-product spectrum: after normalizing
    # both at j=10 the curve tracks the principal (1,1,1) spectrum within the
    # measured band (pinned; the curve flattens near j=1 where its linear
    # term dominates, so small j are excluded by normalizing at 10)
    H = PowerLawSpectrum(1.31, 2000)
    top = population.hpi_top_k(H, (1, 1, 1), 1000)
    lam = top.values()
    r = (lam / lam[9]) / (eps / eps[9])
    assert 0.5 <= r[9:].min() and r[9:].max() <= 4.0, (r[9:].min(), r[9:].max())


def test_predicted_spectrum_validation():
    curve = population.theory_curve(2, 1.31)
    with pytest.raises(ValueError):
        population.predicted_spectrum(curve, -1.0, range(1, 5))
    with pytest.raises(ValueError):
        population.predicted_spectrum(curve, 1.0, [3, 2, 1])
    with pytest.raises(ValueError):
        population.predicted_spectrum(curve, 1.0, [0, 1])
    assert population.predicted_spectrum(curve, 1.0, []).size == 0
    # integral floats are indices too
    want = population.predicted_spectrum(curve, 1.0, range(1, 4))
    assert np.array_equal(population.predicted_spectrum(curve, 1.0, [1.0, 2.0, 3.0]), want)


def test_theory_curves_need_finite_alpha_and_C():
    with pytest.raises(InvalidInput, match="alpha must be finite, got inf"):
        population.theory_curve(2, math.inf)
    curve = population.theory_curve(2, 1.31)
    with pytest.raises(InvalidInput, match="scale C must be finite, got inf"):
        population.predicted_spectrum(curve, math.inf, range(1, 5))
    with pytest.raises(InvalidInput, match="alpha must be finite, got inf"):
        population.predicted_spectrum(replace(curve, alpha=math.inf), 1.0, range(1, 5))


def test_predicted_spectrum_outside_float_range_names_the_first_j():
    curve = population.theory_curve(3, 400.0)
    with pytest.raises(InvalidInput, match="underflows float range from j = 18 "):
        population.predicted_spectrum(curve, curve.scale, range(1, 51))
    assert population.predicted_spectrum(curve, curve.scale, range(1, 18))[-1] > 0
    # u_1 = 0.756 for p = 3, so C u_1^(-2) passes the largest float
    with pytest.raises(InvalidInput, match="overflows float range from j = 1 "):
        population.predicted_spectrum(population.theory_curve(3, 2.0), 1.7e308, range(1, 5))


def test_predicted_spectrum_nan_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(lattice, "_invert_increasing", lambda f, t, *args: np.full(len(t), np.nan))
    with pytest.raises(RuntimeError, match="not strictly decreasing"):
        population.predicted_spectrum(population.theory_curve(2, 1.31), 2.0, range(1, 5))


# bits of the masked regula falsi, recorded with numpy 2.4 on x86-64 with
# AVX-512 (`_GOLDEN_BUILD`): sha256 of the little-endian float64 vector for
# j = 1..3000, and float.hex of eps_j at a few j.  The array log, exp and
# power go through numpy's SIMD kernels, which numpy picks by CPU, and each
# step carries the last bit of the logs into the next point, so the digests
# are compared only on that build; `_scalar_predicted_spectrum` checks the
# same step rule on whatever machine runs.
_PREDICTED_GOLDEN = {
    (2, 1.31): ("3c78883cb7835eaca43546d3664b0ab2fc1a75d078ad7d8561ff27760ae1a031",
                {1: "0x1.4f24b803c8598p-1", 100: "0x1.7cd8326fe51a3p-7", 3000: "0x1.21722a7400a53p-12"}),
    (2, 2.5): ("6166f0d9b3f6cb6f06ad76c96905d614ae5379428e52d62be0c69ce3265cb199",
               {1: "0x1.e60572b0fb60dp-3", 100: "0x1.c5f7d6e09d3dbp-14", 3000: "0x1.715e0c0304e3bp-24"}),
    (3, 1.31): ("2dd23504cc2209e783fcf8f41755254cdd8c9ff514b4d0cc927edac1447d5210",
                {1: "0x1.9f6b29ce4fc8fp+5", 100: "0x1.1f9109c8e0101p-2", 3000: "0x1.fda0d6a0c1d3ep-8"}),
    (3, 2.5): ("2ef509cf61c00cd88b89cdeb8643290da75ade94b2b57716d214b2d0e045365f",
               {1: "0x1.505fca2481cd9p+7", 100: "0x1.499f8bddf149dp-8", 3000: "0x1.2ce9564e3df84p-18"}),
}


def _scalar_predicted_spectrum(curve, C, js):
    # the step rule of lattice._invert_increasing for one j at a time.  The
    # logs and exps are numpy's on float64 scalars, which run the loops the
    # arrays run: math.log and math.exp round differently from numpy's SIMD
    # loops on some inputs, and regula falsi carries that into the bits of u_j.
    # N takes one-element arrays, since a float64 scalar squares by pow
    log, exp = np.log, np.exp

    def N(u):
        return curve.evaluate(np.array([u]))[0]

    us = np.empty(len(js))
    for pos, j in enumerate(map(float, js)):
        lo, hi = (1.0 if curve.p == 2 else 1e-9), 4.0
        f_lo = N(lo)
        while (f_hi := N(hi)) < j:
            lo, f_lo, hi = hi, f_hi, hi * max(hi, 2.0)
        g_lo, g_hi = log(f_lo / j), log(f_hi / j)  # -inf at f(lo) = 0
        was_below = None
        for _ in range(200):
            u = exp(log(hi / lo) * (g_lo / (g_lo - g_hi))) * lo
            if not lo < u < hi:  # also NaN
                u = 0.5 * lo + 0.5 * hi
            val = N(u)
            if abs(val - j) <= 1e-8 * j:
                break
            below = val < j
            if below == was_below:  # Illinois
                g_lo, g_hi = (g_lo, g_hi * 0.5) if below else (g_lo * 0.5, g_hi)
            if below:
                lo, g_lo = u, log(val / j)
            else:
                hi, g_hi = u, log(val / j)
            was_below = below
        else:
            raise AssertionError(f"reference regula falsi did not converge at j={j}")
        us[pos] = u
    return C * us ** -curve.alpha


@pytest.mark.parametrize("p, alpha", sorted(_PREDICTED_GOLDEN))
def test_predicted_spectrum_follows_the_scalar_step_rule(p, alpha):
    curve = population.theory_curve(p, alpha)
    js = range(1, 3001)
    eps = population.predicted_spectrum(curve, curve.scale, js)
    with np.errstate(divide="ignore", invalid="ignore"):  # log f(lo) = log 0 at p = 2
        expected = _scalar_predicted_spectrum(curve, curve.scale, js)
    assert eps.tobytes() == expected.tobytes()


@golden_build_only
@pytest.mark.parametrize("p, alpha", sorted(_PREDICTED_GOLDEN))
def test_predicted_spectrum_bits_pinned(p, alpha):
    digest, points = _PREDICTED_GOLDEN[p, alpha]
    curve = population.theory_curve(p, alpha)
    eps = population.predicted_spectrum(curve, curve.scale, range(1, 3001))
    assert {j: float(eps[j - 1]).hex() for j in points} == points
    assert hashlib.sha256(eps.astype("<f8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("j_max", [3000, 10**6])
@pytest.mark.parametrize("p, alpha", [(2, 1.2), (2, 1.5), (3, 1.31), (3, 4.0)])
def test_predicted_spectrum_evaluates_the_curve_at_most_16_times(monkeypatch, p, alpha, j_max):
    # 12 evaluations at j_max = 3000 and 13 at 1e6 (the bisection took 37-45);
    # a solver that falls back to halving every step needs more than 16.
    # Every evaluation covers all targets: the arrays keep their size
    sizes = []
    evaluate = population.CountingCurve.evaluate

    def counted(curve, u):
        sizes.append(u.size)
        return evaluate(curve, u)

    monkeypatch.setattr(population.CountingCurve, "evaluate", counted)
    curve = population.theory_curve(p, alpha)
    population.predicted_spectrum(curve, curve.scale, range(1, j_max + 1))
    assert len(sizes) <= 16 and set(sizes) == {j_max}


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 3]),
    alpha=st.floats(1.0, 4.0, exclude_min=True),
    js=st.sets(st.integers(1, 10**7), min_size=1, max_size=200),
)
def test_predicted_spectrum_inverts_the_curve(p, alpha, js):
    # the masked regula falsi freezes each j at its own step; every u_j must
    # still meet the documented residual (plus the round-off of eps -> u)
    curve = population.theory_curve(p, alpha)
    j = np.array(sorted(js), dtype=float)
    eps = population.predicted_spectrum(curve, curve.scale, j.astype(int))
    assert np.all(np.diff(eps) < 0)
    u = (eps / curve.scale) ** (-1.0 / alpha)
    assert np.all(np.abs(curve.evaluate(u) - j) <= 1e-8 * (1.0 + 1e-6) * j)
