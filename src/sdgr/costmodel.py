"""Instrumented scalar ring operations for validating the operation-count model.

These walk every pair of basis terms, as the definition of each operation
does, and route every field operation through a counter, so the cost model
can be checked exactly: addition takes 2n field additions, the product 4n^2
additions and 4n^2*(1+f) multiplications, the adjunct 2n*f multiplications,
where f is the number of field multiplications in one application of the
twist.  With the conjugation-based Frobenius, f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import inverse
from .field import Fq2, QuadraticField
from .skewring import RingElement, SkewRing, pair_product


@dataclass
class OpCount:
    adds: int = 0
    muls: int = 0

    def reset(self) -> None:
        self.adds = 0
        self.muls = 0


class CountingField:
    """Wraps a QuadraticField and tallies F_{q^2} additions/multiplications."""

    def __init__(self, base: QuadraticField):
        self.base = base
        self.count = OpCount()

    def add(self, a: Fq2, b: Fq2) -> Fq2:
        self.count.adds += 1
        return self.base.add(a, b)

    def mul(self, a: Fq2, b: Fq2) -> Fq2:
        self.count.muls += 1
        return self.base.mul(a, b)

    def frobenius(self, a: Fq2) -> Fq2:
        # conjugation: coefficient negation, no field multiplications
        return self.base.frobenius(a)


def frobenius_mul_cost(field: QuadraticField) -> int:
    """f: field multiplications per twist application (0 for conjugation)."""
    cf = CountingField(field)
    cf.frobenius((1, 1))
    return cf.count.muls


def counted_addition(ring: SkewRing, cf: CountingField, a: RingElement, b: RingElement) -> RingElement:
    out = []
    for i in range(ring.size):
        out.append(cf.add(a.coefficient(i), b.coefficient(i)))
    return ring.element(out)


def counted_product(ring: SkewRing, cf: CountingField, a: RingElement, b: RingElement) -> RingElement:
    """The oracle's basis-pair loop, one add and one (1+f)-mul per pair."""
    return pair_product(ring, cf, a, b)


def counted_adjunct(ring: SkewRing, cf: CountingField, a: RingElement) -> RingElement:
    out = [(0, 0)] * ring.size
    for i in range(ring.size):
        j = inverse(ring.n, i)
        c = a.coefficient(i)
        if j >= ring.n:
            c = cf.frobenius(c)
        out[j] = c
    return ring.element(out)


def product_cost_model(n: int, f: int) -> tuple[int, int]:
    """(field additions, field multiplications) for one ring product."""
    return 4 * n * n, 4 * n * n * (1 + f)


def adjunct_cost_model(n: int, f: int) -> int:
    """Field multiplications for one adjunct."""
    return 2 * n * f


def addition_cost_model(n: int) -> int:
    """Field additions for one ring addition."""
    return 2 * n
