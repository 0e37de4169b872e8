import random

import pytest

from sdgr.costmodel import (
    CountingField,
    OpCount,
    addition_cost_model,
    adjunct_cost_model,
    counted_addition,
    counted_adjunct,
    counted_product,
    frobenius_mul_cost,
    product_cost_model,
)
from sdgr.skewring import SkewRing


def test_frobenius_is_free_with_conjugation():
    ring = SkewRing(19, 19)
    assert frobenius_mul_cost(ring.field) == 0


def test_product_count_matches_model():
    for p, n in ((3, 3), (19, 19)):
        ring = SkewRing(p, n)
        rng = random.Random(n)
        f = frobenius_mul_cost(ring.field)
        cf = CountingField(ring.field)
        a = ring.sample_ring(rng)
        b = ring.sample_ring(rng)
        counted_product(ring, cf, a, b)
        adds, muls = product_cost_model(n, f)
        assert cf.count.adds == adds == 4 * n * n
        assert cf.count.muls == muls == 4 * n * n * (1 + f)


def test_counted_product_is_correct():
    ring = SkewRing(19, 19)
    rng = random.Random(8)
    cf = CountingField(ring.field)
    for _ in range(10):
        a = ring.sample_ring(rng)
        b = ring.sample_ring(rng)
        assert counted_product(ring, cf, a, b) == ring.mul(a, b)


def test_adjunct_count_matches_model():
    ring = SkewRing(19, 19)
    rng = random.Random(9)
    f = frobenius_mul_cost(ring.field)
    cf = CountingField(ring.field)
    a = ring.sample_ring(rng)
    out = counted_adjunct(ring, cf, a)
    assert out == ring.adjunct(a)
    assert cf.count.muls == adjunct_cost_model(ring.n, f) == 0


def test_addition_count_matches_model():
    ring = SkewRing(19, 19)
    rng = random.Random(10)
    cf = CountingField(ring.field)
    a = ring.sample_ring(rng)
    b = ring.sample_ring(rng)
    out = counted_addition(ring, cf, a, b)
    assert out == ring.add(a, b)
    assert cf.count.adds == addition_cost_model(ring.n) == 2 * ring.n


def test_opcount_reset():
    c = OpCount(adds=3, muls=4)
    c.reset()
    assert c.adds == 0 and c.muls == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 19, 41])
def test_production_kernel_gathers_what_the_model_counts(n):
    # the circulants every product by b multiplies by hold the two F_p
    # parts of each of the 4n^2 basis pairs the model counts
    ring = SkewRing(3, n)
    b = ring.sample_ring(random.Random(n))
    assert b.circulant.size == 2 * product_cost_model(n, 0)[1]


@pytest.mark.parametrize("p,n", [(3, 3), (19, 19)])
def test_counted_product_counts_every_pair_of_sparse_inputs(p, n):
    # two basis elements: all but one pair of terms multiply a zero, and the
    # loop shared with the oracle must still count them
    ring = SkewRing(p, n)
    a, b = ring.basis(1, (2, 1)), ring.basis(n + 1, (1, 1))
    cf = CountingField(ring.field)
    assert counted_product(ring, cf, a, b) == ring.mul(a, b)
    adds, muls = product_cost_model(n, frobenius_mul_cost(ring.field))
    assert cf.count.adds == adds == 4 * n * n
    assert cf.count.muls == muls
