import random
from types import SimpleNamespace

import numpy as np
import pytest

from sdgr.dihedral import inverse
from sdgr.field import find_lambda, is_prime
from sdgr.kex import SecretPair
from sdgr.params import PARAM_SETS
from sdgr.pke import encrypt
from sdgr.skewring import RingElement, SkewRing, SubspaceTag

# odd and even n: for even n the reflection x^(n/2) y mirrors onto itself
ORACLE_RINGS = [(7, 1), (7, 2), (3, 3), (7, 4), (5, 6), (19, 19)]


@pytest.fixture(scope="module")
def r19():
    return SkewRing(19, 19)


def _shift_to_cny(ring, a):
    """sum a_i x^i -> sum a_i x^i y, for a supported on C_n."""
    return ring.element(np.roll(a.coeffs, ring.n, axis=0))


def _cn_part(ring, a):
    """a with its C_n y part dropped."""
    c = a.coeffs.copy()
    c[ring.n :] = 0
    return ring.element(c)


def _cny_part(ring, a):
    """a with its C_n part dropped."""
    c = a.coeffs.copy()
    c[: ring.n] = 0
    return ring.element(c)


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


@pytest.mark.parametrize("name", ["p41", "p257"])
def test_mul_matches_naive_oracle_on_full_and_all_p_minus_one_pairs(name, p257_params, rng):
    # general operands at n > 19; all p - 1 reaches mul's 2n(p-1)^2(1+lam)
    ring = p257_params.ring if name == "p257" else SkewRing(*PARAM_SETS[name])
    top = ring.element([(ring.p - 1, ring.p - 1)] * ring.size)
    pairs = [(ring.sample_ring(rng), ring.sample_ring(rng)) for _ in range(2)] + [(top, top)]
    for a, b in pairs:
        assert ring.mul(a, b) == ring.naive_product(a, b)


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
def test_mul_matches_naive_oracle_on_every_basis_pair(p, n, rng):
    ring = SkewRing(p, n)

    def nonzero():
        while True:
            c = (rng.randrange(p), rng.randrange(p))
            if c != (0, 0):
                return c

    for i in range(ring.size):
        for j in range(ring.size):
            a, b = ring.basis(i, nonzero()), ring.basis(j, nonzero())
            assert ring.mul(a, b) == ring.naive_product(a, b), (i, j)
    for _ in range(20):
        a, b = ring.sample_ring(rng), ring.sample_ring(rng)
        assert ring.mul(a, b) == ring.naive_product(a, b)


@pytest.mark.parametrize("p,n", ORACLE_RINGS)
def test_circulant_rows_are_basis_products(p, n, rng):
    # row (i, s) of the block of z is the F_p parts of t^s x^i * z in C_n, for
    # z = b_Y and b_C (the kept circulants); pair_rows' rows for a = t^s x^i
    # are row (i, s) of the matrices of sigma(G) and G, though it gathers
    # neither: it multiplies the rows [sigma(G); G] by a's one matrix
    ring = SkewRing(p, n)
    units = [ring.basis(i, unit) for i in range(n) for unit in ((1, 0), (0, 1))]
    for b in (ring.sample_ring(rng), ring.sample_gamma(rng)):
        b_y = ring.phi(_cny_part(ring, b))
        sigma_b_y = ring.element([(c0, -c1) for c0, c1 in b_y.coeffs.tolist()])
        op = b.circulant
        assert op.shape == (2, ring.size, ring.size)
        assert np.abs(op).max() <= ring.field.lam * (p - 1)
        layouts = [(op, (b_y, _cn_part(ring, b)))]
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


def _cross_operands_oracle(ring, a, g):
    """(u + v y, v + u y) for u = a G and v = a sigma(G), g = G y, through the naive product."""
    u = ring.naive_product(a, ring.phi(g))
    v = ring.naive_product(a, ring.phi(g.adjunct()))
    return u + _shift_to_cny(ring, v), v + _shift_to_cny(ring, u)


def _reduced(ring, rows):
    """pair_rows' unreduced rows, checked to be float64 integers within
    n(p-1)^2(1+lam), as canonical int64 coefficients in [0, p)."""
    assert rows.dtype == np.float64
    assert np.abs(rows).max() <= ring.n * (ring.p - 1) ** 2 * (1 + ring.field.lam)
    assert not np.count_nonzero(rows != np.rint(rows))
    return rows.astype(np.int64) % ring.p


def _cross_operands(ring, a, g):
    """(u + v y, v + u y) wrapped from pair_rows' rows [v; u], reduced."""
    rows = _reduced(ring, ring.pair_rows(ring.pair_values(a, g)))
    return tuple(RingElement(ring, r.reshape(ring.size, 2)) for r in (rows[::-1], rows))


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


def test_mul_is_exact_at_the_float64_bound(rng):
    # the largest prime p whose n = 2 ring passes the chain bound, which
    # implies mul's own 2n (p-1)^2 (1+lam) < 2^53
    n = 2
    p = _largest_prime(n)
    ring = SkewRing(p, n)
    top = ring.element([(p - 1, p - 1)] * ring.size)
    pairs = [(top, top)] + [(ring.sample_ring(rng), ring.sample_ring(rng)) for _ in range(20)]
    for a, b in pairs:
        assert ring.mul(a, b) == ring.naive_product(a, b)
    # pair_rows' rows [sigma(G); G] have negative entries, so its partial sums are signed
    top_gamma = ring.gamma_from_free([(p - 1, p - 1)] * ring.gamma_free_count())
    cases = [(ring.sample_cn(rng), ring.sample_gamma(rng)) for _ in range(20)]
    cases += [(_cn_part(ring, top), g) for g in (top_gamma, ring.sample_gamma(rng))]
    cases.append((ring.sample_cn(rng), top_gamma))
    for a, g in cases:
        assert _cross_operands(ring, a, g) == _cross_operands_oracle(ring, a, g)
    # cross_mul on an element's kept circulants, batched and row by row, and
    # pke.encrypt with h = pk = top (Params insists on p | n, so it gets a
    # stand-in), on canonical rows; test_pair_products_are_exact_at_the_chain_bound
    # runs them on pair_rows' unreduced rows
    ws = [top, ring.sample_ring(rng)]
    batch = ring.cross_mul(np.stack([_rows(ring, w) for w in ws]), top)
    for w, c in zip(ws, batch):
        assert _cross(ring, w, top) == RingElement(ring, c) == _cross_oracle(ring, w, top)
    rows = top.coeffs.reshape(2, 1, ring.size)  # [v; u], both all p - 1
    c1, c2 = encrypt(top.coeffs, top, rows, SimpleNamespace(ring=ring, h=top))
    assert RingElement(ring, c1) == _cross_oracle(ring, top, top)
    assert RingElement(ring, c2) == top + _cross_oracle(ring, top, top)


@pytest.mark.parametrize("n", [1, 2])
def test_pair_products_are_exact_at_the_chain_bound(n):
    # at the largest prime the chain bound accepts, the all p - 1 pair's
    # unreduced rows, reaching n(p-1)^2(1+lam), times the all p - 1 operand:
    # a h gamma and a h adjunct(gamma) through cross_mul, [c1; c2] through
    # pke.encrypt (h = pk = top on a stand-in, as above) and the pair's w
    p = _largest_prime(n)
    ring = SkewRing(p, n)
    top = ring.element([(p - 1, p - 1)] * ring.size)
    values = np.full((n + ring.gamma_free_count(), 2), p - 1, dtype=np.int64)
    sk = SecretPair.from_values(ring, values)
    a, g = sk.a, sk.gamma
    assert np.abs(sk.rows).max() == n * (p - 1) ** 2 * (1 + ring.field.lam)
    a_top = ring.naive_product(a, top)
    pk = ring.naive_product(a_top, g)
    key = ring.naive_product(a_top, g.adjunct())
    assert RingElement(ring, ring.cross_mul(sk.rows, top)) == pk
    assert RingElement(ring, ring.cross_mul(sk.rows[::-1], top)) == key
    c1, c2 = encrypt(top.coeffs, top, sk.rows, SimpleNamespace(ring=ring, h=top))
    assert RingElement(ring, c1) == pk and RingElement(ring, c2) == top + key
    assert sk.w == _cross_operands_oracle(ring, a, g)[0]


@pytest.mark.parametrize("p,n", [*PARAM_SETS.values(), (257, 257)], ids=[*PARAM_SETS, "p257"])
def test_secret_pair_rows_are_exact_unreduced_products(p, n, rng):
    # drawn pairs and the all p - 1 pair keep float64 integer rows within
    # n(p-1)^2(1+lam), congruent to [v; u] = [a sigma(G); a G]
    ring = SkewRing(p, n)
    cases = [ring.sample_pair_values(rng)[0], np.full((n + ring.gamma_free_count(), 2), p - 1, dtype=np.int64)]
    for values in cases:
        sk = SecretPair.from_values(ring, values)
        assert sk.rows.shape == (2, 1, ring.size) and not sk.rows.flags.writeable
        u, v = _cross_operands_oracle(ring, sk.a, sk.gamma)[0].coeffs.reshape(2, ring.size)
        assert _reduced(ring, sk.rows).reshape(2, ring.size).tolist() == [v.tolist(), u.tolist()]


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


def _reference_predicates(ring, a):
    """(is_zero, classify, is_reversible) in the ndarray.any and
    np.array_equal forms the ring's count_nonzero predicates replaced."""
    c = a.coeffs
    has_cn, has_cny = bool(c[: ring.n].any()), bool(c[ring.n :].any())
    tags = {
        (False, False): SubspaceTag.ZERO,
        (True, False): SubspaceTag.CN_ONLY,
        (False, True): SubspaceTag.CNY_ONLY,
        (True, True): SubspaceTag.MIXED,
    }
    tail = c[ring.n + 1 :]
    return not c.any(), tags[has_cn, has_cny], not has_cn and np.array_equal(tail, tail[::-1])


def _predicate_inputs(ring, rng):
    yield ring.zero()
    for k in range(ring.size):
        yield ring.basis(k, (1, 0))
        yield ring.basis(k, (0, 1))
    for _ in range(10):
        yield ring.sample_cn(rng)
        yield _shift_to_cny(ring, ring.sample_cn(rng))
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
        zero, tag, reversible = _reference_predicates(ring, a)
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


def sample_pair(ring, rng) -> np.ndarray:
    """The reference for sample_pair_values: one pair's values, drawn as
    sample_cn then sample_gamma."""
    return ring.pair_values(ring.sample_cn(rng), ring.sample_gamma(rng))


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


# -- products in F_{q^2}[C_n] ----------------------------------------------------


def _halves(ring, z):
    """(z_C, z_Y) as elements of C_n, for z = z_C + z_Y y."""
    return _cn_part(ring, z), ring.phi(_cny_part(ring, z))


def _cross_oracle(ring, w, x):
    """w_C * x_Y + (w_Y * x_C) y through the naive product."""
    (w_c, w_y), (x_c, x_y) = _halves(ring, w), _halves(ring, x)
    return ring.naive_product(w_c, x_y) + _shift_to_cny(ring, ring.naive_product(w_y, x_c))


def _rows(ring, w):
    """w's raw rows [w_C; w_Y], the (2, 1, 2n) operand of cross_mul."""
    return w.coeffs.reshape(2, 1, ring.size)


def _cross(ring, w, x):
    """cross_mul on one w, wrapped as an element."""
    return RingElement(ring, ring.cross_mul(_rows(ring, w), x))


@pytest.mark.parametrize("p,n", ORACLE_RINGS[:-1])
def test_cross_mul_basis_pairs(p, n):
    ring = SkewRing(p, n)
    for i in range(ring.size):
        for j in range(ring.size):
            w, x = ring.basis(i, (1, 2)), ring.basis(j, (2, 1))
            assert _cross(ring, w, x) == _cross_oracle(ring, w, x), (i, j)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_mul_random_and_all_p_minus_one(p, rng):
    # all p - 1 reaches the bound n*(p-1)^2*(1+lam) on every partial sum
    ring = SkewRing(p, p)
    top = ring.element([(p - 1, p - 1)] * ring.size)
    pairs = [(top, top)] + [(ring.sample_ring(rng), ring.sample_ring(rng)) for _ in range(5)]
    for w, x in pairs:
        c = ring.cross_mul(_rows(ring, w), x)
        assert c.shape == (ring.size, 2) and c.dtype == np.int64
        assert RingElement(ring, c) == _cross_oracle(ring, w, x)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_mul_batched_matches_row_by_row(p, rng):
    # an (m, 2, 1, 2n) stack, all-(p - 1) rows among them, against one x;
    # a (k, m, 2, 1, 2n) stack keeps both leading axes
    ring = SkewRing(p, p)
    top = ring.element([(p - 1, p - 1)] * ring.size)
    ws = [top] + [ring.sample_ring(rng) for _ in range(4)] + [top]
    rows = np.stack([_rows(ring, w) for w in ws])
    for x in (top, ring.sample_ring(rng)):
        batch = ring.cross_mul(rows, x)
        assert batch.shape == (len(ws), ring.size, 2) and batch.dtype == np.int64
        for w, c in zip(ws, batch):
            assert RingElement(ring, c) == _cross(ring, w, x) == _cross_oracle(ring, w, x)
        nested = ring.cross_mul(rows.reshape(2, 3, 2, 1, ring.size), x)
        assert nested.shape == (2, 3, ring.size, 2)
        assert nested.reshape(batch.shape).tolist() == batch.tolist()


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_operands_are_a_g_and_a_sigma_g(p, rng):
    # pair_rows' [v; u] as the elements u + v y and v + u y
    ring = SkewRing(p, p)
    top = (p - 1, p - 1)
    cases = [(ring.sample_cn(rng), ring.sample_gamma(rng)) for _ in range(5)]
    cases.append((ring.element([top] * p + [(0, 0)] * p), ring.gamma_from_free([top] * ring.gamma_free_count())))
    for a, g in cases:
        assert _cross_operands(ring, a, g) == _cross_operands_oracle(ring, a, g)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_cross_operands_wrap_cross_rows(p, rng):
    # a secret pair keeps the unreduced rows [v; u] of one matmul on its
    # values, read-only, and builds u + v y, their reverse reduced, on first use
    ring = SkewRing(p, p)
    a, g = ring.sample_cn(rng), ring.sample_gamma(rng)
    rows = ring.pair_rows(ring.pair_values(a, g))
    assert rows.shape == (2, 1, ring.size)
    sk = SecretPair(a, g)
    assert sk.rows.tolist() == rows.tolist() and not sk.rows.flags.writeable
    assert sk.w == _cross_operands_oracle(ring, a, g)[0]
    assert sk.w.coeffs.ravel().tolist() == _reduced(ring, rows)[::-1].ravel().tolist()
    assert sk.w is sk.w


def _pair_cases(ring, rng):
    """Pair values: random, zero a, zero free coordinates, both zero, all p - 1."""
    n, k = ring.n, ring.n + ring.gamma_free_count()
    cases = [ring.sample_pair_values(rng)[0] for _ in range(4)]
    for lo, hi in ((0, n), (n, k), (0, k)):
        values = ring.sample_pair_values(rng)[0]
        values[lo:hi] = 0
        cases.append(values)
    cases.append(np.full((k, 2), ring.p - 1, dtype=np.int64))
    return cases


@pytest.mark.parametrize("p,n", ORACLE_RINGS + [(5, 10), (13, 30), (41, 41)])
def test_pair_rows_match_the_naive_product(p, n, rng):
    # one pair and stacks of them, zero a and zero gamma among them, against
    # u = a G and v = a sigma(G) through the naive product, and pair by pair;
    # at even n, G's middle coordinate n/2 is its own mirror
    ring = SkewRing(p, n)
    cases = _pair_cases(ring, rng)
    for values in cases:
        rows = _reduced(ring, ring.pair_rows(values))
        assert rows.shape == (2, 1, ring.size)
        a, g = ring.pair_from_values(values)
        wrapped = tuple(RingElement(ring, r.reshape(ring.size, 2)) for r in (rows[::-1], rows))
        assert wrapped == _cross_operands_oracle(ring, a, g)
    stack = np.stack(cases)
    batch = ring.pair_rows(stack)
    assert batch.shape == (len(cases), 2, 1, ring.size) and batch.dtype == np.float64
    assert batch.tolist() == [ring.pair_rows(values).tolist() for values in cases]
    nested = ring.pair_rows(stack.reshape(2, len(cases) // 2, *stack.shape[1:]))
    assert nested.reshape(batch.shape).tolist() == batch.tolist()


def test_reused_cross_operand_is_built_once(r19, rng, operator_builds):
    x = r19.sample_ring(rng)
    for _ in range(5):
        w = r19.sample_ring(rng)
        assert _cross(r19, w, x) == _cross_oracle(r19, w, x)
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
