import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgr.dihedral import inverse
from sdgr.field import find_lambda, is_prime
from sdgr.kex import SecretPair
from sdgr.params import PARAM_SETS
from sdgr.pke import encrypt
from sdgr.skewring import RingElement, SkewRing, SubspaceTag

from oracles import (
    cross_operands_oracle,
    cross_oracle,
    halves,
    reduced,
    reference_predicates,
    sample_pair,
    shift_to_cny,
)


def _chain_bound(p, n):
    """The constructor's bound on a product by pair_rows' rows."""
    return n * n * (p - 1) ** 3 * (1 + find_lambda(p)) ** 2


def _largest_prime(n):
    """The largest prime p whose SkewRing(p, n) passes the chain bound
    n^2 (p-1)^3 (1+lam)^2 < 2^53, searched down from where it fails for
    every lam >= 2."""
    p = int((2**53 / (9 * n * n)) ** (1 / 3)) + 2
    while not (is_prime(p) and _chain_bound(p, n) < 2**53):
        p -= 1
    return p


# odd and even n: for even n the reflection x^(n/2) y mirrors onto itself
ORACLE_RINGS = [(7, 1), (7, 2), (3, 3), (7, 4), (5, 6), (19, 19)]
# the largest primes the chain bound accepts, where the float64 sums come
# closest to 2^53
EDGE_RINGS = [(_largest_prime(1), 1), (_largest_prime(2), 2)]


@pytest.fixture(scope="module")
def r19():
    return SkewRing(19, 19)


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


def test_ring_writes_no_attribute_after_init(rng):
    # an attribute first written to a ring after __init__ slowed every later
    # attribute read on it on CPython 3.11 (a toy DSDP trial by 4%)
    ring = SkewRing(19, 19)
    before = dict(vars(ring))
    a, b = ring.sample_ring(rng), ring.sample_ring(rng)
    ring.mul(a, b)
    ring.cross_mul(a.coeffs.reshape(2, 1, ring.size), b)
    ring.pair_rows(ring.sample_pair_values(rng, 2))
    ring.circulant(a)
    ring.adjunct(a)
    ring.sample_cn(rng)
    ring.sample_gamma(rng)
    after = vars(ring)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("p,n", ORACLE_RINGS)
def test_circulant_rows_are_basis_products(p, n, rng):
    # row (i, s) of the block of z is the F_p parts of t^s x^i * z in C_n, for
    # z = b_Y and b_C (the kept circulants); pair_rows' rows for a = t^s x^i
    # are row (i, s) of the matrices of sigma(G) and G, though it gathers
    # neither: it multiplies the rows [sigma(G); G] by a's one matrix
    ring = SkewRing(p, n)
    units = [ring.basis(i, unit) for i in range(n) for unit in ((1, 0), (0, 1))]
    for b in (ring.sample_ring(rng), ring.sample_gamma(rng)):
        b_c, b_y = halves(ring, b)
        sigma_b_y = ring.element([(c0, -c1) for c0, c1 in b_y.coeffs.tolist()])
        op = b.circulant
        assert op.shape == (2, ring.size, ring.size)
        assert np.abs(op).max() <= ring.field.lam * (p - 1)
        layouts = [(op, (b_y, b_c))]
        if ring.is_reversible(b):
            rows = ring.pair_rows(np.stack([ring.pair_values(x, b) for x in units]))
            layouts.append((rows[:, :, 0].transpose(1, 0, 2), (sigma_b_y, b_y)))
        for blocks, zs in layouts:
            for block, z in zip(blocks, zs):
                for row, x in zip(block, units):
                    expected = ring.naive_product(x, z).coeffs[:n]
                    assert (row % p).tolist() == expected.ravel().tolist()


@pytest.mark.parametrize("p,n", ORACLE_RINGS)
def test_adjunct_permutation_is_dihedral_inverse(p, n):
    perm = SkewRing(p, n)._inv_perm
    assert perm.dtype == np.int64
    assert perm.tolist() == [inverse(n, k) for k in range(2 * n)]


def test_mul_rejects_rings_beyond_exact_float64():
    with pytest.raises(ValueError):
        SkewRing(2147483647, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_the_next_prime_past_the_chain_bound_is_refused(n):
    # the old bound 2n (p-1)^2 (1+lam) < 2^53 accepted it, though a product
    # by its pair rows can leave the exact float64 integers
    p = _largest_prime(n) + 1
    while not is_prime(p):
        p += 1
    assert _chain_bound(p, n) >= 2**53 > 2 * n * (p - 1) ** 2 * (1 + find_lambda(p))
    with pytest.raises(ValueError, match=r"n\^2 \(p-1\)\^3 \(1\+lam\)\^2 >= 2\^53"):
        SkewRing(p, n)


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
    cny = shift_to_cny(toy_ring, toy_ring.sample_cn(rng))
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


def test_reversible_membership(toy_ring, rng):
    assert toy_ring.is_reversible(toy_ring.zero())
    for _ in range(100):
        g = toy_ring.sample_gamma(rng)
        assert toy_ring.is_reversible(g)
    # palindromic on C_n y: a_1 = a_2 for n = 3
    bad = toy_ring.basis(4, (1, 0))
    assert not toy_ring.is_reversible(bad)
    assert not toy_ring.is_reversible(toy_ring.basis(1))


def _predicate_inputs(ring, rng):
    yield ring.zero()
    for k in range(ring.size):
        yield ring.basis(k, (1, 0))
        yield ring.basis(k, (0, 1))
    for _ in range(10):
        yield ring.sample_cn(rng)
        yield shift_to_cny(ring, ring.sample_cn(rng))
        gamma = ring.sample_gamma(rng)
        yield gamma
        # gamma with the palindrome broken at x y in one F_p part
        c = gamma.coeffs.copy()
        c[ring.n + 1, 1] += 1
        yield ring.element(c)
        yield ring.gen_public_element(rng)
        yield ring.sample_ring(rng)


@pytest.mark.parametrize("name", ["toy", "p19", "p41"])
def test_predicates_match_any_and_array_equal(name, rng):
    ring = SkewRing(*PARAM_SETS[name])
    elems = list(_predicate_inputs(ring, rng))
    for a in elems:
        zero, tag, reversible = reference_predicates(ring, a)
        assert a.is_zero() == zero
        assert ring.classify(a) is tag
        assert ring.is_reversible(a) == reversible
    for a in elems[:60]:
        assert a == ring.element(a.coeffs.tolist())
        for b in elems[:60]:
            assert (a == b) == np.array_equal(a.coeffs, b.coeffs)
    # shapes that broadcast against (2n, 2) must not compare equal
    for shape in ((1, 2), (ring.size, 1), (ring.size - 1, 2), (2 * ring.size, 2)):
        bad = RingElement(ring, np.zeros(shape, dtype=np.int64))
        assert bad != ring.zero() and ring.zero() != bad
        assert not np.array_equal(bad.coeffs, ring.zero().coeffs)
        with pytest.raises(ValueError):
            ring.classify(bad)


def test_gamma_free_count():
    assert SkewRing(3, 3).gamma_free_count() == 2
    assert SkewRing(19, 19).gamma_free_count() == 10
    assert SkewRing(41, 41).gamma_free_count() == 21


def test_construction_refuses_a_wrong_shape(toy_ring):
    # a flat list of gamma_free_count values used to broadcast into every
    # free coordinate, and a flat element to fail only in a later _check
    count = toy_ring.gamma_free_count()
    for free in ([1] * count, [(1, 2)] * (count + 1), [(1, 2, 0)] * count, [[(1, 2)]] * count):
        with pytest.raises(ValueError, match="shape"):
            toy_ring.gamma_from_free(free)
    for coeffs in ([1] * toy_ring.size, [(1, 2)] * (toy_ring.size - 1), [(1, 2, 0)] * toy_ring.size):
        with pytest.raises(ValueError, match="shape"):
            toy_ring.element(coeffs)


def test_check_refuses_a_wrong_length(toy_ring, rng):
    # a RingElement built directly, past element's shape check, with one
    # coefficient too many or one F_p part per coefficient
    good = toy_ring.sample_ring(rng)
    rows = good.coeffs.reshape(2, 1, toy_ring.size)
    for shape in ((toy_ring.size + 1, 2), (toy_ring.size, 1)):
        bad = RingElement(toy_ring, np.ones(shape, dtype=np.int64))
        for call in (
            lambda: toy_ring.add(good, bad),
            lambda: toy_ring.add(bad, good),
            lambda: toy_ring.cross_mul(rows, bad),
            lambda: toy_ring.circulant(bad),
        ):
            with pytest.raises(ValueError, match="coefficient vector has the wrong length"):
                call()


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
    assert a._circulant is None  # set by __init__, so the first read raises nothing
    op = a.circulant
    assert a.circulant is op and a._circulant is op  # kept in its slot by the first use
    for name in ("ring", "coeffs", "circulant", "_circulant", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a.circulant is op and a == toy_ring.one()


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


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_draw_is_the_randrange_loop(name):
    ring = SkewRing(*PARAM_SETS[name])
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        for k in (2, 6, 38, 164):
            assert ring._draw(ours, k).ravel().tolist() == [ref.randrange(ring.p) for _ in range(k)]
            assert ours.getstate() == ref.getstate()


# the byte path at every width from 2 to 8 bits (251: no shift), then the
# loop that primes wider than a byte take
@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 61, 127, 131, 251, 257, 65537])
def test_draw_is_the_randrange_loop_at_every_width(p):
    ring = SkewRing(p, 1)
    assert (ring._byte_tables is None) == (p > 255)
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for k in (2, 6, 1000):  # 1000 values take several rounds
            assert ring._draw(ours, k).ravel().tolist() == [ref.randrange(p) for _ in range(k)]
            assert ours.getstate() == ref.getstate()
    values = ring._draw(random.SystemRandom(), 1000)
    assert values.dtype == np.int64 and values.shape == (500, 2)
    assert values.min() >= 0 and values.max() < p
    assert values.flags.writeable  # kex.sample_secret_pair's zero-gamma redraw writes into it


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_sample_pair_is_sample_cn_then_sample_gamma(name):
    ring = SkewRing(*PARAM_SETS[name])
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        a, gamma = ring.pair_from_values(ring.sample_pair_values(ours)[0])
        assert a == ring.sample_cn(ref) and gamma == ring.sample_gamma(ref)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_pair_from_values(name, rng):
    ring = SkewRing(*PARAM_SETS[name])
    n = ring.n
    values = ring._draw(rng, 2 * (n + ring.gamma_free_count()))
    a, gamma = ring.pair_from_values(values)
    assert a.classify() in (SubspaceTag.CN_ONLY, SubspaceTag.ZERO)
    assert a.coeffs[:n].tolist() == values[:n].tolist()
    assert gamma == ring.gamma_from_free(values[n:].tolist())
    assert ring.is_reversible(gamma)
    assert ring.pair_values(a, gamma).tolist() == values.tolist()


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_sample_pair_values_is_m_sample_pairs(name):
    # one draw for m pairs: the values and generator state of m reference pairs
    ring = SkewRing(*PARAM_SETS[name])
    for seed in range(10):
        for m in (1, 2, 3, 5):
            ours, ref = random.Random(seed), random.Random(seed)
            values = ring.sample_pair_values(ours, m)
            assert values.shape == (m, ring.n + ring.gamma_free_count(), 2)
            assert values.tolist() == [sample_pair(ring, ref).tolist() for _ in range(m)]
            assert ours.getstate() == ref.getstate()


def test_samplers_take_system_random(r19):
    rng = random.SystemRandom()
    n = r19.n
    for element in (r19.sample_ring(rng), r19.sample_cn(rng), r19.sample_gamma(rng)):
        assert element.coeffs.shape == (2 * n, 2)
        assert np.all(element.coeffs >= 0) and np.all(element.coeffs < 19)
    assert not r19.sample_cn(rng).coeffs[n:].any()
    assert r19.is_reversible(r19.sample_gamma(rng))


def test_reused_right_operand_is_built_once(r19, rng, operator_builds):
    b = r19.sample_ring(rng)
    for _ in range(5):
        a = r19.sample_ring(rng)
        assert r19.mul(a, b) == r19.naive_product(a, b)
    assert operator_builds == [("circulant", b)]
    assert not b.circulant.flags.writeable


def test_cross_ring_product_builds_no_operator(r19, rng, operator_builds):
    mine, other = r19.sample_ring(rng), SkewRing(19, 19).sample_ring(rng)
    for a, b in ((mine, other), (other, mine)):
        with pytest.raises(ValueError):
            r19.mul(a, b)
    assert operator_builds == []


# -- the product kernels against the naive product, over one case table ---------

# ORACLE_RINGS, n = 2p, n = 30 != p, every parameter set, the p257 test ring
# and EDGE_RINGS, then rings hypothesis draws; the small ones also run every
# basis pair
SMALL_RINGS = ORACLE_RINGS + EDGE_RINGS
TABLE_RINGS = ORACLE_RINGS + [(5, 10), (23, 23), (13, 30), (31, 31), (41, 41), (257, 257)] + EDGE_RINGS
KERNEL_CASES = [pytest.param(p, n, id=f"{p}-{n}") for p, n in TABLE_RINGS] + [pytest.param(None, None, id="random")]
PRIMES = [p for p in range(3, 258) if is_prime(p)]


def _on_case(p, n, check):
    """check(ring, rng, small) on the table's ring (p, n), or, for the random
    case, on rings hypothesis draws: p prime <= 257, n <= 12."""
    if p is not None:
        check(SkewRing(p, n), random.Random(1000 * p + n), (p, n) in SMALL_RINGS)
        return

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 12))
    def drawn(p, n):
        check(SkewRing(p, n), random.Random(1000 * p + n), False)

    drawn()


def _top(ring):
    """The all p - 1 element."""
    return ring.element([(ring.p - 1, ring.p - 1)] * ring.size)


def _operands(ring, rng, basis):
    """Element pairs: every basis pair with random non-zero coefficients if
    basis, zero against a random element both ways, the all p - 1 element
    with itself and with a random one, and random pairs.  On p257, where
    one naive product takes a third of a second, one random pair and the
    all p - 1 pair."""
    x, top = ring.sample_ring(rng), _top(ring)
    if ring.size > 100:
        return [(x, ring.sample_ring(rng)), (top, top)]

    def nonzero():
        while True:
            c = (rng.randrange(ring.p), rng.randrange(ring.p))
            if c != (0, 0):
                return c

    indices = range(ring.size) if basis else ()
    pairs = [(ring.basis(i, nonzero()), ring.basis(j, nonzero())) for i in indices for j in indices]
    pairs += [(ring.zero(), x), (x, ring.zero()), (top, top), (top, x), (x, top)]
    return pairs + [(ring.sample_ring(rng), ring.sample_ring(rng)) for _ in range(8)]


def _pair_cases(ring, rng):
    """Pair values: random, zero a, zero free coordinates, both zero, and
    all p - 1 last; on p257 one random pair and the all p - 1 one."""
    n, k = ring.n, ring.n + ring.gamma_free_count()
    top = np.full((k, 2), ring.p - 1, dtype=np.int64)
    if ring.size > 100:
        return [ring.sample_pair_values(rng)[0], top]
    cases = [ring.sample_pair_values(rng)[0] for _ in range(4)]
    for lo, hi in ((0, n), (n, k), (0, k)):
        values = ring.sample_pair_values(rng)[0]
        values[lo:hi] = 0
        cases.append(values)
    return cases + [top]


def _rows(ring, w):
    """w's raw rows [w_C; w_Y], the (2, 1, 2n) operand of cross_mul."""
    return w.coeffs.reshape(2, 1, ring.size)


def _mul_check(ring, rng, small):
    # every basis pair on the small rings, and zero, random and all p - 1
    # operands on every ring: all p - 1 reaches mul's 2n(p-1)^2(1+lam)
    for a, b in _operands(ring, rng, basis=small):
        assert ring.mul(a, b) == ring.naive_product(a, b)


def _cross_mul_stacks(ring, rng):
    # _pair_cases' unreduced pair rows [v; u] by the all p - 1 element, as an
    # (m, 2, 1, 2n) stack and a (2, m/2, 2, 1, 2n) one, row by row
    top = _top(ring)
    rows = ring.pair_rows(np.stack(_pair_cases(ring, rng)))
    batch = ring.cross_mul(rows, top)
    assert batch.shape == (len(rows), ring.size, 2)
    assert batch.tolist() == [ring.cross_mul(r, top).tolist() for r in rows]
    nested = ring.cross_mul(rows.reshape(2, -1, *rows.shape[1:]), top)
    assert nested.reshape(batch.shape).tolist() == batch.tolist()


def _cross_mul_cases(ring, rng, small):
    # the rows of elements, every basis pair on the small rings up to n = 6,
    # _pair_cases' pair rows and the all p - 1 pair's [u; v], which reach the
    # chain bound, each against the oracle and through pke.encrypt (h = pk = x
    # on a stand-in, as Params insists on p | n).  On p257 the oracle runs on
    # the last case only
    top = _top(ring)
    rows = ring.pair_rows(np.stack(_pair_cases(ring, rng)))
    cases = [(_rows(ring, w), w, x) for w, x in _operands(ring, rng, basis=small and ring.n <= 6)]
    cases += [(r, RingElement(ring, reduced(ring, r).reshape(ring.size, 2)), top) for r in (*rows, rows[-1, ::-1])]
    m = ring.sample_ring(rng)
    for r, w, x in cases[-1:] if ring.size > 100 else cases:
        c = ring.cross_mul(r, x)
        assert c.shape == (ring.size, 2) and c.dtype == np.int64
        assert RingElement(ring, c) == cross_oracle(ring, w, x)
        c1, c2 = encrypt(m.coeffs, x, r, SimpleNamespace(ring=ring, h=x))
        assert c1.tolist() == c.tolist()
        assert RingElement(ring, c2) == m + RingElement(ring, ring.cross_mul(r[::-1], x))


def _pair_rows_oracle(ring, rng, secret=True):
    # [v; u] for u = a G and v = a sigma(G), pair by pair, against the oracle,
    # and, if secret, kept read-only by a secret pair with w = u + v y built
    # once; at even n, G's middle coordinate n/2 is its own mirror
    for values in _pair_cases(ring, rng):
        raw = ring.pair_rows(values)
        rows = reduced(ring, raw)
        assert rows.shape == (2, 1, ring.size)
        a, g = ring.pair_from_values(values)
        wrapped = tuple(RingElement(ring, r.reshape(ring.size, 2)) for r in (rows[::-1], rows))
        assert wrapped == cross_operands_oracle(ring, a, g)
        if secret and not (a.is_zero() or g.is_zero()):
            sk = SecretPair(a, g)
            assert sk.rows.tolist() == raw.tolist() and not sk.rows.flags.writeable
            assert sk.w == wrapped[0] and sk.w is sk.w


def _pair_rows_exact(ring, rng):
    # unreduced exact float64 integers, all p - 1 last, reaching n(p-1)^2(1+lam),
    # the same in (m, ...) and (2, m/2, ...) stacks as pair by pair
    cases = _pair_cases(ring, rng)
    stack = np.stack(cases)
    batch = ring.pair_rows(stack)
    assert batch.shape == (len(cases), 2, 1, ring.size) and batch.dtype == np.float64
    assert batch.tolist() == [ring.pair_rows(values).tolist() for values in cases]
    assert np.abs(batch[-1]).max() == ring.n * (ring.p - 1) ** 2 * (1 + ring.field.lam)
    nested = ring.pair_rows(stack.reshape(2, len(cases) // 2, *stack.shape[1:]))
    assert nested.reshape(batch.shape).tolist() == batch.tolist()


@pytest.mark.parametrize("p,n", KERNEL_CASES)
def test_mul_matches_naive_oracle_on_every_basis_pair(p, n):
    _on_case(p, n, _mul_check)


@pytest.mark.parametrize("p,n", KERNEL_CASES)
def test_cross_mul_basis_pairs(p, n):
    _on_case(p, n, lambda ring, rng, small: (_cross_mul_stacks(ring, rng), _cross_mul_cases(ring, rng, small)))


@pytest.mark.parametrize("p,n", KERNEL_CASES)
def test_pair_rows_match_the_naive_product(p, n):
    _on_case(p, n, lambda ring, rng, small: (_pair_rows_oracle(ring, rng), _pair_rows_exact(ring, rng)))


# one part of a kernel check above, on its own, on a ring of the table


def test_mul_matches_naive_oracle_toy(toy_ring, rng):
    _mul_check(toy_ring, rng, small=False)


def test_mul_matches_naive_oracle_p19(r19, rng):
    _mul_check(r19, rng, small=False)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_mul_random_and_all_p_minus_one(p):
    _cross_mul_cases(SkewRing(p, p), random.Random(p), small=False)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_mul_batched_matches_row_by_row(p):
    _cross_mul_stacks(SkewRing(p, p), random.Random(p))


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_operands_are_a_g_and_a_sigma_g(p):
    _pair_rows_oracle(SkewRing(p, p), random.Random(p), secret=False)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_operands_wrap_cross_rows(p):
    _pair_rows_oracle(SkewRing(p, p), random.Random(p))


@pytest.mark.parametrize("name", ["toy", "p19", "p41"])
def test_secret_pair_rows_are_exact_unreduced_products(name):
    _pair_rows_exact(SkewRing(*PARAM_SETS[name]), random.Random(name))


def test_reused_cross_operand_is_built_once(r19, rng, operator_builds):
    x = r19.sample_ring(rng)
    for _ in range(5):
        w = r19.sample_ring(rng)
        assert RingElement(r19, r19.cross_mul(_rows(r19, w), x)) == cross_oracle(r19, w, x)
    assert operator_builds == [("circulant", x)]
    assert x.circulant.shape == (2, 2 * r19.n, 2 * r19.n)
    assert not x.circulant.flags.writeable


def test_cross_ring_cross_mul_builds_no_circulant(r19, rng, operator_builds):
    mine, other = r19.sample_ring(rng), SkewRing(19, 19).sample_ring(rng)
    with pytest.raises(ValueError, match="different ring"):
        r19.cross_mul(_rows(r19, mine), other)
    # raw values carry no ring: the check is where elements become values
    for a, g in ((r19.sample_cn(rng), other.ring.sample_gamma(rng)), (other.ring.sample_cn(rng), r19.sample_gamma(rng))):
        with pytest.raises(ValueError, match="different ring"):
            r19.pair_values(a, g)
        with pytest.raises(ValueError, match="different ring"):
            SecretPair(a, g)
    assert operator_builds == []
