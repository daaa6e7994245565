import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plrf import InvalidInput
from plrf import combinatorics as comb


# ---------------------------------------------------------------------------
# compositions


def test_compositions_of_three_exact_order():
    got = [c.parts for c in comb.compositions(3)]
    assert got == [(3,), (2, 1), (1, 2), (1, 1, 1)]


def test_compositions_base_case():
    assert [c.parts for c in comb.compositions(1)] == [(1,)]


def test_compositions_rejects_zero():
    with pytest.raises(ValueError):
        comb.compositions(0)


@given(st.integers(min_value=1, max_value=12))
def test_composition_count_and_sums(q):
    comps = comb.compositions(q)
    assert len(comps) == 2 ** (q - 1)
    assert len({c.parts for c in comps}) == len(comps)
    for c in comps:
        assert c.total == q
        assert all(p >= 1 for p in c.parts)


def test_composition_validation():
    with pytest.raises(ValueError):
        comb.Composition(())
    with pytest.raises(ValueError):
        comb.Composition((2, 0))


# ---------------------------------------------------------------------------
# pairings


def test_pairing_counts_small():
    assert len(list(comb.iter_pairings(1))) == 1
    assert list(comb.iter_pairings(1))[0].pairs == ((1, 2),)
    assert len(list(comb.iter_pairings(2))) == 3
    assert len(list(comb.iter_pairings(3))) == 15


def test_pairings_are_perfect_matchings():
    for p in (2, 3, 4):
        seen = set()
        for pairing in comb.iter_pairings(p):
            flat = [i for pr in pairing.pairs for i in pr]
            assert sorted(flat) == list(range(1, 2 * p + 1))
            seen.add(pairing.pairs)
        assert len(seen) == comb.double_factorial(2 * p - 1)


def test_pairings_deterministic_order():
    a = [p.pairs for p in comb.iter_pairings(3)]
    b = [p.pairs for p in comb.iter_pairings(3)]
    assert a == b


def test_pairing_size_cap():
    # refused at the call, before any matching is streamed
    with pytest.raises(ValueError, match="cap"):
        comb.iter_pairings(9)


def test_pairing_validation():
    with pytest.raises(ValueError):
        comb.Pairing(((1, 2), (2, 3)), 2)  # reuses vertex 2
    with pytest.raises(ValueError):
        comb.Pairing(((1, 2),), 2)  # does not cover 1..4


# ---------------------------------------------------------------------------
# pairing class counts


def test_class_counts_examples():
    assert dict(comb.pairing_class_counts(1).counts) == {1: 1}
    assert dict(comb.pairing_class_counts(2).counts) == {2: 2, 0: 1}
    assert dict(comb.pairing_class_counts(3).counts) == {3: 6, 1: 9}


@pytest.mark.parametrize("p", range(1, 7))
def test_class_counts_match_enumeration(p):
    hist = {}
    for pairing in comb.iter_pairings(p):
        q = pairing.cross_count
        hist[q] = hist.get(q, 0) + 1
    table = comb.pairing_class_counts(p)
    assert hist == dict(table.counts)
    assert table.total == comb.double_factorial(2 * p - 1)


def test_class_counts_parity_support():
    for p in range(1, 11):
        for q, n in comb.pairing_class_counts(p).counts.items():
            assert n > 0
            assert (p - q) % 2 == 0
            assert 0 <= q <= p


# ---------------------------------------------------------------------------
# kernel pair value


def test_kernel_pair_value_linear_is_inner_product():
    rng = np.random.default_rng(0)
    for _ in range(5):
        y1, y2 = rng.standard_normal((2, 7))
        assert comb.kernel_pair_value(y1, y2, 1) == pytest.approx(float(y1 @ y2), rel=1e-14)


def test_kernel_pair_value_gaussian_moments():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    assert comb.kernel_pair_value(e1, e1, 2) == pytest.approx(3.0)
    assert comb.kernel_pair_value(e1, e2, 3) == 0.0
    assert comb.kernel_pair_value(e1, e1, 3) == pytest.approx(15.0)


def test_kernel_pair_value_unit_vector_double_factorial():
    rng = np.random.default_rng(1)
    for p in range(1, 6):
        y = rng.standard_normal(9)
        y /= np.linalg.norm(y)
        want = comb.double_factorial(2 * p - 1)
        assert comb.kernel_pair_value(y, y, p) == pytest.approx(want, rel=1e-10)


def test_kernel_pair_value_matches_bruteforce_pairing_sum():
    # oracle: sum over all matchings of products of pairwise inner products
    rng = np.random.default_rng(2)
    y1, y2 = rng.standard_normal((2, 4))
    for p in (2, 3):
        ys = [y1] * p + [y2] * p
        want = 0.0
        for pairing in comb.iter_pairings(p):
            term = 1.0
            for a, b in pairing.pairs:
                term *= float(ys[a - 1] @ ys[b - 1])
            want += term
        assert comb.kernel_pair_value(y1, y2, p) == pytest.approx(want, rel=1e-12)


def test_kernel_pair_value_monte_carlo_oracle():
    # the degree-2p chaos has heavy relative variance, so the principled band
    # is 5 empirical sigma of the estimator; for p <= 2 the flat 6/sqrt(m)
    # relative band also holds
    rng = np.random.default_rng(3)
    m = 100_000
    for p in (1, 2, 3, 4):
        y1, y2 = rng.standard_normal((2, 5))
        y1 /= np.linalg.norm(y1)
        y2 /= np.linalg.norm(y2)
        z = rng.standard_normal((m, 5))
        samples = (z @ y1) ** p * (z @ y2) ** p
        est = float(samples.mean())
        exact = comb.kernel_pair_value(y1, y2, p)
        sigma = float(samples.std(ddof=1)) / math.sqrt(m)
        assert abs(est - exact) <= 5.0 * sigma
        if p <= 2:
            assert abs(est - exact) <= 6.0 / math.sqrt(m) * abs(exact)


def test_kernel_pair_value_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        comb.kernel_pair_value([1.0, 0.0], [1.0, 0.0, 0.0], 2)


# ---------------------------------------------------------------------------
# Isserlis moments


def _identity_cov(a, b):
    return 1.0 if a == b else 0.0


def test_isserlis_identity_examples():
    assert comb.isserlis_moment((1, 1), _identity_cov) == 1.0
    assert comb.isserlis_moment((1, 1, 1, 1), _identity_cov) == 3.0
    assert comb.isserlis_moment((1, 1, 2, 2), _identity_cov) == 1.0


def test_isserlis_odd_moment_warns_and_errors():
    with pytest.warns(comb.OddMomentWarning):
        assert comb.isserlis_moment((1, 1, 2), _identity_cov) == 0.0


def test_isserlis_accepts_matrix_accessor():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    # E[g_0^2 g_1^2] = c00 c11 + 2 c01^2
    want = cov[0, 0] * cov[1, 1] + 2 * cov[0, 1] ** 2
    assert comb.isserlis_moment((0, 0, 1, 1), cov) == pytest.approx(want)


def test_isserlis_consistent_with_kernel_value():
    rng = np.random.default_rng(4)
    y1, y2 = rng.standard_normal((2, 6))

    def cov(a, b):
        va = y1 if a == "i" else y2
        vb = y1 if b == "i" else y2
        return float(va @ vb)

    for p in (2, 3):
        labels = ("i",) * p + ("j",) * p
        assert comb.isserlis_moment(labels, cov) == pytest.approx(
            comb.kernel_pair_value(y1, y2, p), rel=1e-12
        )


def test_isserlis_size_cap():
    with pytest.raises(ValueError, match="cap"):
        comb.isserlis_moment((1,) * 18, _identity_cov)


# ---------------------------------------------------------------------------
# Hermite expansions of monomials


def test_hermite_expansion_examples():
    assert dict(comb.monomial_hermite_coefficients(2).coefficients) == {2: 1, 0: 1}
    assert dict(comb.monomial_hermite_coefficients(3).coefficients) == {3: 1, 1: 3}
    assert dict(comb.monomial_hermite_coefficients(4).coefficients) == {4: 1, 2: 6, 0: 3}


def test_hermite_expansion_reconstructs_monomial():
    ys = np.linspace(-3, 3, 13)
    for p in range(1, 8):
        exp = comb.monomial_hermite_coefficients(p)
        recon = sum(c * comb.hermite_value(k, ys) for k, c in exp.coefficients.items())
        assert np.allclose(recon, ys**p, rtol=1e-12, atol=1e-9)


def test_hermite_expansion_quadrature_oracle():
    # oracle: c_k = E[y^p He_k(y)] / k! by Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    norm = weights.sum()  # sqrt(2 pi)
    for p in (2, 3, 4, 6):
        exp = comb.monomial_hermite_coefficients(p)
        for k, c in exp.coefficients.items():
            he_k = comb.hermite_value(k, nodes)
            est = float((weights * nodes**p * he_k).sum() / norm / math.factorial(k))
            assert abs(est - c) < 1e-8


@given(st.integers(min_value=1, max_value=10))
def test_hermite_expansion_parseval(p):
    exp = comb.monomial_hermite_coefficients(p)
    assert exp.parseval == comb.double_factorial(2 * p - 1)
    assert exp.coefficients[p] == 1
    assert all(k <= p and (p - k) % 2 == 0 for k in exp.coefficients)


# ---------------------------------------------------------------------------
# Hermite values


def test_hermite_value_examples():
    assert comb.hermite_value(2, 0.0) == -1.0
    assert comb.hermite_value(3, 2.0) == 2.0  # y^3 - 3y at 2
    assert comb.hermite_value(0, 5.0) == 1.0
    assert comb.hermite_value(1, -2.5) == -2.5


def test_hermite_value_orthogonality_monte_carlo():
    rng = np.random.default_rng(5)
    m = 1_000_000
    g = rng.standard_normal(m)
    vals = {k: comb.hermite_value(k, g) for k in range(5)}
    for k in range(5):
        for j in range(k, 5):
            est = float(np.mean(vals[k] * vals[j]))
            want = math.factorial(k) if k == j else 0.0
            # 5 sigma band on the product's sample mean
            sigma = float(np.std(vals[k] * vals[j])) / math.sqrt(m)
            assert abs(est - want) <= 5 * sigma + 1e-12


def test_hermite_value_vectorized_matches_scalar():
    ys = np.array([-1.5, 0.0, 0.4, 2.0])
    for k in (0, 1, 2, 5):
        vec = comb.hermite_value(k, ys)
        assert vec.shape == ys.shape
        for y, val in zip(ys, vec):
            assert val == comb.hermite_value(k, float(y))


def test_hermite_value_degree_cap():
    with pytest.raises(ValueError):
        comb.hermite_value(65, 0.0)
    with pytest.raises(ValueError):
        comb.hermite_value(-1, 0.0)


# ---------------------------------------------------------------------------
# Feynman diagram multiplicities


def _brute_force_diagrams(parts, eta):
    """Count partial matchings with exactly eta_j same-slot pairs at slot j.

    Enumerates every set of vertex-disjoint pairs over the full labeled
    vertex set, discards any diagram using a cross-slot edge (independent
    labels pair to zero), and counts those matching the target eta.
    """
    slot_of = []
    for j, pj in enumerate(parts):
        slot_of.extend([j] * pj)
    targets = tuple(eta)

    def all_matchings(free):
        if not free:
            yield ()
            return
        a = free[0]
        rest = free[1:]
        for tail in all_matchings(rest):  # a unpaired
            yield tail
        for i, b in enumerate(rest):
            for tail in all_matchings(rest[:i] + rest[i + 1 :]):
                yield ((a, b),) + tail

    total = 0
    for matching in all_matchings(tuple(range(len(slot_of)))):
        per_slot = [0] * len(parts)
        ok = True
        for a, b in matching:
            if slot_of[a] != slot_of[b]:
                ok = False
                break
            per_slot[slot_of[a]] += 1
        if ok and tuple(per_slot) == targets:
            total += 1
    return total


def test_feynman_count_examples():
    assert comb.feynman_count((4, 2), (1, 1)) == 6
    assert comb.feynman_count((2,), (1,)) == 1
    assert comb.feynman_count((3,), (1,)) == 3


def test_feynman_count_matches_bruteforce():
    for q in range(1, 7):
        for c in comb.compositions(q):
            etas = itertools.product(*[range(pj // 2 + 1) for pj in c.parts])
            for eta in etas:
                assert comb.feynman_count(c, eta) == _brute_force_diagrams(c.parts, eta)


def test_feynman_count_eta_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        comb.feynman_count((2, 1), (0, 1))  # 2*1 > 1
    with pytest.raises(ValueError, match="length"):
        comb.feynman_count((2, 1), (1,))


@pytest.mark.parametrize("eta, message", [
    ((1,), "eta length 1 != composition length 2"),
    ((2, 0), r"eta out of range: need 0 <= 2\*2 <= 2"),
    ((0, -1), r"eta out of range: need 0 <= 2\*-1 <= 1"),
])
def test_feynman_count_and_assignment_share_the_eta_rule(eta, message):
    with pytest.raises(InvalidInput, match=message):
        comb.feynman_count((2, 1), eta)


# ---------------------------------------------------------------------------
# Wick product values


def test_wick_product_value_examples():
    assert comb.wick_product_value((1,), (1.7,)) == pytest.approx(1.7)
    xs = np.linspace(-2, 2, 9)
    for x in xs:
        assert comb.wick_product_value((2,), (x,)) == pytest.approx(x * x - 1.0)


def test_wick_product_value_vectorized():
    g = np.random.default_rng(6).standard_normal((100, 2))
    vals = comb.wick_product_value((2, 1), g)
    assert vals.shape == (100,)
    want = (g[:, 0] ** 2 - 1.0) * g[:, 1]
    assert np.allclose(vals, want, rtol=1e-13)


def test_wick_product_value_length_mismatch():
    with pytest.raises(ValueError):
        comb.wick_product_value((2, 1), (0.5,))


def test_double_factorial():
    assert [comb.double_factorial(n) for n in (-1, 0, 1, 2, 3, 5, 7)] == [1, 1, 1, 2, 3, 15, 105]
    with pytest.raises(ValueError):
        comb.double_factorial(-2)
