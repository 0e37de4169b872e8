import math
import random

import numpy as np
import pytest

from sdgr.dihedral import build_table
from sdgr.field import find_lambda, is_prime
from sdgr.skewring import SkewRing, SubspaceTag, gather_index

# odd and even n: for even n the reflection x^(n/2) y mirrors onto itself
ORACLE_RINGS = [(7, 1), (7, 2), (3, 3), (7, 4), (5, 6), (19, 19)]


@pytest.fixture(scope="module")
def r19():
    return SkewRing(19, 19)


def _shift_to_cny(ring, a):
    """sum a_i x^i -> sum a_i x^i y, for a supported on C_n."""
    return ring.element(np.roll(a.coeffs, ring.n, axis=0))


def test_basis_and_one(toy_ring):
    one = toy_ring.one()
    assert one.coefficient(0) == (1, 0)
    assert all(one.coefficient(i) == (0, 0) for i in range(1, 6))
    e = toy_ring.basis(4, (2, 1))
    assert e.coefficient(4) == (2, 1)


def test_one_is_identity(toy_ring, rng):
    one = toy_ring.one()
    for _ in range(50):
        a = toy_ring.sample_ring(rng)
        assert one * a == a
        assert a * one == a


def test_hand_example_ty_squared(toy_ring):
    # (t y)(t y) = t * sigma(t) * y^2 = t * (-t) = -lambda = -2 = 1 mod 3
    ty = toy_ring.basis(3, (0, 1))
    sq = ty * ty
    assert sq.coefficient(0) == (1, 0)
    assert sq.classify() is SubspaceTag.CN_ONLY


def test_hand_example_tx_times_ty(toy_ring):
    # (t x)(t y): x is a rotation so no twist; t*t = lambda = 2, group part x*y = xy
    tx = toy_ring.basis(1, (0, 1))
    ty = toy_ring.basis(3, (0, 1))
    prod = tx * ty
    assert prod.coefficient(4) == (2, 0)
    assert np.count_nonzero(prod.coeffs.any(axis=1)) == 1


def test_mul_matches_naive_oracle_toy(toy_ring, rng):
    for _ in range(500):
        a = toy_ring.sample_ring(rng)
        b = toy_ring.sample_ring(rng)
        assert toy_ring.mul(a, b) == toy_ring.naive_product(a, b)


def test_mul_matches_naive_oracle_p19(r19, rng):
    for _ in range(100):
        a = r19.sample_ring(rng)
        b = r19.sample_ring(rng)
        assert r19.mul(a, b) == r19.naive_product(a, b)


@pytest.mark.parametrize("p,n", ORACLE_RINGS)
def test_mul_matches_naive_oracle_on_every_basis_pair(p, n, rng):
    ring = SkewRing(p, n)

    def nonzero():
        while True:
            c = ring.field.sample(rng)
            if c != (0, 0):
                return c

    for i in range(ring.size):
        for j in range(ring.size):
            a, b = ring.basis(i, nonzero()), ring.basis(j, nonzero())
            assert ring.mul(a, b) == ring.naive_product(a, b), (i, j)
    for _ in range(20):
        a, b = ring.sample_ring(rng), ring.sample_ring(rng)
        assert ring.mul(a, b) == ring.naive_product(a, b)


@pytest.mark.parametrize("n", [n for _, n in ORACLE_RINGS])
def test_gather_index_inverts_cayley_rows(n):
    size = 2 * n
    g = gather_index(n)
    table = build_table(n)
    for i in range(size):
        # g_i * g_j = g_k for j = g[i, k], offset by 2n on the reflection rows
        assert g[i].tolist() == (np.argsort(table[i]) + (size if i >= n else 0)).tolist()


def test_mul_rejects_rings_beyond_exact_float64():
    with pytest.raises(ValueError):
        SkewRing(2147483647, 1)


def test_mul_is_exact_at_the_float64_bound(rng):
    # the largest prime p whose n = 2 ring passes the 2n (p-1)^2 (1+lam) < 2^53 check
    n = 2
    p = math.isqrt(2**53 // (2 * n * 3)) + 1
    while not (is_prime(p) and 2 * n * (p - 1) ** 2 * (1 + find_lambda(p)) < 2**53):
        p -= 1
    ring = SkewRing(p, n)
    top = ring.element([(p - 1, p - 1)] * ring.size)
    pairs = [(top, top)] + [(ring.sample_ring(rng), ring.sample_ring(rng)) for _ in range(20)]
    for a, b in pairs:
        assert ring.mul(a, b) == ring.naive_product(a, b)


def test_ring_axioms_random(toy_ring, rng):
    for _ in range(200):
        a = toy_ring.sample_ring(rng)
        b = toy_ring.sample_ring(rng)
        c = toy_ring.sample_ring(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a - a == toy_ring.zero()
        assert -(-a) == a


def test_noncommutative(toy_ring):
    x = toy_ring.basis(1)
    y = toy_ring.basis(3)
    assert x * y != y * x


def test_adjunct_is_involution(toy_ring, r19, rng):
    for ring in (toy_ring, r19):
        for _ in range(100):
            a = ring.sample_ring(rng)
            assert a.adjunct().adjunct() == a


def test_adjunct_anti_isomorphism(toy_ring, r19, rng):
    for ring in (toy_ring, r19):
        for _ in range(100):
            a = ring.sample_ring(rng)
            b = ring.sample_ring(rng)
            assert (a * b).adjunct() == b.adjunct() * a.adjunct()
            assert (a + b).adjunct() == a.adjunct() + b.adjunct()


def test_adjunct_on_basis(toy_ring):
    # adjunct of c*x^i is c*x^(n-i); adjunct of c*x^i y is sigma... the
    # reflection is its own inverse and picks up the twist
    e = toy_ring.basis(1, (2, 1))
    assert e.adjunct().coefficient(2) == (2, 1)
    e = toy_ring.basis(4, (2, 1))
    assert e.adjunct().coefficient(4) == (2, 2)


def test_classify(toy_ring, rng):
    assert toy_ring.zero().classify() is SubspaceTag.ZERO
    assert toy_ring.basis(2).classify() is SubspaceTag.CN_ONLY
    assert toy_ring.basis(5).classify() is SubspaceTag.CNY_ONLY
    assert (toy_ring.basis(0) + toy_ring.basis(3)).classify() is SubspaceTag.MIXED
    assert toy_ring.sample_cn(rng).classify() in (SubspaceTag.CN_ONLY, SubspaceTag.ZERO)
    cny = _shift_to_cny(toy_ring, toy_ring.sample_cn(rng))
    assert cny.classify() in (SubspaceTag.CNY_ONLY, SubspaceTag.ZERO)


def test_subspace_product_laws_on_basis(toy_ring):
    # C_n C_n -> C_n, C_n C_ny -> C_ny, C_ny C_n -> C_ny, C_ny C_ny -> C_n
    n = toy_ring.n
    for i in range(toy_ring.size):
        for j in range(toy_ring.size):
            prod = toy_ring.basis(i) * toy_ring.basis(j)
            expect_cny = (i < n) != (j < n)
            want = SubspaceTag.CNY_ONLY if expect_cny else SubspaceTag.CN_ONLY
            assert prod.classify() is want


def test_cn_is_commutative(r19, rng):
    for _ in range(100):
        a = r19.sample_cn(rng)
        b = r19.sample_cn(rng)
        assert a * b == b * a


def test_phi_roundtrip(toy_ring, rng):
    # phi(sum a_i x^i y) = sum a_i x^i
    for _ in range(50):
        a = toy_ring.sample_cn(rng)
        assert toy_ring.phi(_shift_to_cny(toy_ring, a)) == a
    with pytest.raises(ValueError):
        toy_ring.phi(toy_ring.basis(0))
    with pytest.raises(ValueError):
        toy_ring.phi(toy_ring.basis(0) + toy_ring.basis(4))


def test_reversible_membership(toy_ring, rng):
    assert toy_ring.is_reversible(toy_ring.zero())
    for _ in range(100):
        g = toy_ring.sample_gamma(rng)
        assert toy_ring.is_reversible(g)
    # palindromic on C_n y: a_1 = a_2 for n = 3
    bad = toy_ring.basis(4, (1, 0))
    assert not toy_ring.is_reversible(bad)
    assert not toy_ring.is_reversible(toy_ring.basis(1))


def test_gamma_free_count():
    assert SkewRing(3, 3).gamma_free_count() == 2
    assert SkewRing(19, 19).gamma_free_count() == 10
    assert SkewRing(41, 41).gamma_free_count() == 21


def test_gamma_from_free_roundtrip(toy_ring):
    g = toy_ring.gamma_from_free([(1, 2), (0, 1)])
    assert g.coefficient(3) == (1, 2)
    assert g.coefficient(4) == (0, 1)
    assert g.coefficient(5) == (0, 1)
    assert toy_ring.is_reversible(g)
    with pytest.raises(ValueError):
        toy_ring.gamma_from_free([(1, 0)])


def test_gamma_commutation(toy_ring, r19, rng):
    # g1 * adjunct(g2) == g2 * adjunct(g1) on the reversible subspace
    for ring in (toy_ring, r19):
        for _ in range(200):
            g1 = ring.sample_gamma(rng)
            g2 = ring.sample_gamma(rng)
            assert g1 * g2.adjunct() == g2 * g1.adjunct()


def test_two_sided_agreement_identity(r19, rng):
    # the identity the key exchange rests on:
    # a1 (a2 h g2) adjunct(g1) == a2 (a1 h g1) adjunct(g2)
    for _ in range(100):
        h = r19.sample_ring(rng)
        a1, g1 = r19.sample_cn(rng), r19.sample_gamma(rng)
        a2, g2 = r19.sample_cn(rng), r19.sample_gamma(rng)
        lhs = a1 * (a2 * h * g2) * g1.adjunct()
        rhs = a2 * (a1 * h * g1) * g2.adjunct()
        assert lhs == rhs


def test_iter_cn_count():
    ring = SkewRing(3, 1)
    elems = list(ring.iter_cn())
    assert len(elems) == 9  # (p^2)^n with n = 1
    assert len(set(elems)) == 9


def test_iter_gamma_count(toy_ring):
    elems = list(toy_ring.iter_gamma())
    assert len(elems) == 81  # (p^2)^(floor(n/2)+1)
    assert len(set(elems)) == 81
    assert all(toy_ring.is_reversible(g) for g in elems)


def test_gen_public_element_is_mixed(toy_ring):
    rng = random.Random(3)
    for _ in range(20):
        h = toy_ring.gen_public_element(rng)
        assert h.classify() is SubspaceTag.MIXED


def test_elements_are_immutable(toy_ring):
    a = toy_ring.one()
    with pytest.raises(ValueError):
        a.coeffs[0, 0] = 2


def test_cross_ring_rejected(toy_ring):
    other = SkewRing(3, 3)
    with pytest.raises(ValueError):
        toy_ring.add(toy_ring.one(), other.one())


def test_element_equality_and_hash(toy_ring):
    a = toy_ring.basis(2, (1, 1))
    b = toy_ring.basis(2, (1, 1))
    assert a == b and hash(a) == hash(b)
    assert a != toy_ring.basis(2, (1, 2))


def test_element_coefficient_reduction(toy_ring):
    e = toy_ring.element([(4, -1)] + [(0, 0)] * 5)
    assert e.coefficient(0) == (1, 2)


def test_sample_ring_in_range(r19, rng):
    a = r19.sample_ring(rng)
    assert a.coeffs.shape == (38, 2)
    assert np.all(a.coeffs >= 0) and np.all(a.coeffs < 19)
