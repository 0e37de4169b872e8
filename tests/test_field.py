import random
from collections import Counter

import pytest

from sdgr.field import QuadraticField, find_lambda, is_prime
from sdgr.skewring import SkewRing


def _sample(f, rng):
    """Uniform element of F_{p^2}: two rng.randrange(p) draws."""
    return (rng.randrange(f.p), rng.randrange(f.p))


def test_find_lambda_examples():
    assert find_lambda(19) == 2
    assert find_lambda(23) == 5
    assert find_lambda(3) == 2


def test_find_lambda_rejects_bad_p():
    with pytest.raises(ValueError):
        find_lambda(2)
    with pytest.raises(ValueError):
        find_lambda(21)


def frobenius_ladder(f: QuadraticField, a):
    """a -> a^p by square-and-multiply over the binary digits of p: the slow
    generic route that the conjugation fast path is cross-checked against."""
    r = f.one
    for bit in bin(f.p)[2:]:
        r = f.mul(r, r)
        if bit == "1":
            r = f.mul(r, a)
    return r


def test_field_params_validation():
    with pytest.raises(ValueError):
        QuadraticField(20)  # 20 is not prime
    with pytest.raises(ValueError):
        QuadraticField(2)  # t^2 - lambda needs an odd p to be irreducible
    assert QuadraticField(19).lam == 2  # the smallest non-residue mod 19


def test_add_examples():
    f = QuadraticField(19)
    assert f.add((0, 0), (7, 11)) == (7, 11)
    assert f.add((18, 5), (1, 14)) == (0, 0)
    f3 = QuadraticField(3)
    assert f3.add((1, 2), (2, 2)) == (0, 1)


def test_mul_examples():
    f3 = QuadraticField(3)
    assert f3.mul((1, 0), (2, 1)) == (2, 1)
    assert f3.mul((0, 1), (0, 1)) == (2, 0)  # t*t = lambda = 2
    f19 = QuadraticField(19)
    assert f19.mul((3, 4), (5, 6)) == (6, 0)


@pytest.mark.parametrize("p", [3, 19, 23, 31, 41])
def test_inverse_property(p):
    # no zero divisors: for a != 0, b -> a*b is injective on F_{p^2}, so it
    # is a bijection and some b is a's inverse
    f = QuadraticField(p)
    elems = list(f.elements())
    rng = random.Random(p)
    for a in elems if p == 3 else [_sample(f, rng) for _ in range(20)]:
        if a != f.zero:
            assert len({f.mul(a, b) for b in elems}) == f.order, a


def test_frobenius_fixes_base_field_and_has_order_two():
    f = QuadraticField(19)
    assert f.frobenius((7, 0)) == (7, 0)
    rng = random.Random(9)
    for _ in range(200):
        a = _sample(f, rng)
        assert f.frobenius(f.frobenius(a)) == a


def test_frobenius_example_p3():
    f = QuadraticField(3)
    assert f.frobenius((0, 1)) == (0, 2)  # t^3 = lambda*t = 2t


@pytest.mark.parametrize("p", [3, 19, 23, 31, 41])
def test_frobenius_matches_ladder(p):
    f = QuadraticField(p)
    if p == 3:
        elems = list(f.elements())
    else:
        rng = random.Random(p)
        elems = [_sample(f, rng) for _ in range(200)]
    for a in elems:
        assert f.frobenius(a) == frobenius_ladder(f, a)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_frobenius_is_automorphism(p):
    f = QuadraticField(p)
    rng = random.Random(100 + p)
    for _ in range(300):
        a, b = _sample(f, rng), _sample(f, rng)
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


@pytest.mark.parametrize("p", [3, 19, 23, 31, 41])
def test_field_axioms_random_triples(p):
    f = QuadraticField(p)
    rng = random.Random(200 + p)
    for _ in range(2000):
        a, b, c = _sample(f, rng), _sample(f, rng), _sample(f, rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_sample_is_uniform_enough():
    # the F_{p^2} coefficients the ring's samplers draw
    ring = SkewRing(3, 3)
    rng = random.Random(77)
    draws = [tuple(c) for _ in range(3334) for c in ring.sample_ring(rng).coeffs.tolist()]
    counts = Counter(draws)
    assert len(counts) == 9 and all(0 <= c0 < 3 and 0 <= c1 < 3 for c0, c1 in counts)
    expected = len(draws) / 9
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 26  # ~5 sigma for 8 degrees of freedom


def test_sample_is_deterministic_under_seed():
    # a seed fixes the ring's coefficient draws, which are _sample's draws
    ring = SkewRing(19, 19)
    r1, r2, r3 = random.Random(5), random.Random(5), random.Random(5)
    for _ in range(3):
        a, b = ring.sample_ring(r1), ring.sample_ring(r2)
        assert a == b
        assert [tuple(c) for c in a.coeffs.tolist()] == [_sample(ring.field, r3) for _ in range(ring.size)]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_coeff_bits():
    assert QuadraticField(3).coeff_bits == 2
    assert QuadraticField(19).coeff_bits == 5
    assert QuadraticField(41).coeff_bits == 6
