import random

import pytest

from sdgr.field import FieldParams, QuadraticField, find_lambda, is_prime


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
        FieldParams(p=19, lam=4)  # 4 = 2^2 is a residue
    with pytest.raises(ValueError):
        FieldParams(p=20, lam=3)


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


def test_inv_examples():
    f3 = QuadraticField(3)
    assert f3.inv((1, 0)) == (1, 0)
    assert f3.inv((0, 1)) == (0, 2)
    with pytest.raises(ZeroDivisionError):
        f3.inv((0, 0))


@pytest.mark.parametrize("p", [3, 19, 23, 31, 41])
def test_inverse_property(p):
    f = QuadraticField(p)
    rng = random.Random(p)
    for _ in range(300):
        a = f.sample(rng)
        if a == f.zero:
            continue
        assert f.mul(a, f.inv(a)) == f.one


def test_frobenius_fixes_base_field_and_has_order_two():
    f = QuadraticField(19)
    assert f.frobenius((7, 0)) == (7, 0)
    rng = random.Random(9)
    for _ in range(200):
        a = f.sample(rng)
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
        elems = [f.sample(rng) for _ in range(200)]
    for a in elems:
        assert f.frobenius(a) == frobenius_ladder(f, a)


@pytest.mark.parametrize("p", [3, 19, 41])
def test_frobenius_is_automorphism(p):
    f = QuadraticField(p)
    rng = random.Random(100 + p)
    for _ in range(300):
        a, b = f.sample(rng), f.sample(rng)
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


@pytest.mark.parametrize("p", [3, 19, 23, 31, 41])
def test_field_axioms_random_triples(p):
    f = QuadraticField(p)
    rng = random.Random(200 + p)
    for _ in range(2000):
        a, b, c = f.sample(rng), f.sample(rng), f.sample(rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_sample_is_uniform_enough():
    f = QuadraticField(3)
    rng = random.Random(77)
    counts = {}
    draws = 20000
    for _ in range(draws):
        a = f.sample(rng)
        assert 0 <= a[0] < 3 and 0 <= a[1] < 3
        counts[a] = counts.get(a, 0) + 1
    assert len(counts) == 9
    expected = draws / 9
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 26  # ~5 sigma for 8 degrees of freedom


def test_sample_is_deterministic_under_seed():
    f = QuadraticField(19)
    seq1 = [f.sample(random.Random(5)) for _ in range(1)]
    a = [f.sample(random.Random(5)) for _ in range(1)]
    assert seq1 == a
    r1, r2 = random.Random(5), random.Random(5)
    assert [f.sample(r1) for _ in range(50)] == [f.sample(r2) for _ in range(50)]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_coeff_bits():
    assert QuadraticField(3).coeff_bits == 2
    assert QuadraticField(19).coeff_bits == 5
    assert QuadraticField(41).coeff_bits == 6
