"""The skew group ring F_{q^2}^theta D_2n.

A ring element is a dense length-2n coefficient vector over F_{q^2}: index
i < n holds the coefficient of x^i, index n+i the coefficient of x^i y.
Coefficients are stored as an (2n, 2) int64 numpy array so that the skew
product (the hot loop of every scheme) is one gather and one float64 matmul;
a naive triple-loop product that works directly on formal sums is kept as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .dihedral import inverse, mul_index
from .field import Fq2, QuadraticField


class SubspaceTag(Enum):
    ZERO = "zero"
    CN_ONLY = "cn"
    CNY_ONLY = "cny"
    MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class RingElement:
    """Immutable element of F_{q^2}^theta D_2n."""

    ring: "SkewRing"
    coeffs: np.ndarray  # shape (2n, 2), int64, entries in [0, p)

    def __post_init__(self) -> None:
        self.coeffs.setflags(write=False)

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.sub(self, other)

    def __neg__(self) -> "RingElement":
        return self.ring.neg(self)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.mul(self, other)

    def adjunct(self) -> "RingElement":
        return self.ring.adjunct(self)

    def classify(self) -> SubspaceTag:
        return self.ring.classify(self)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coefficient(self, i: int) -> Fq2:
        return (int(self.coeffs[i, 0]), int(self.coeffs[i, 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:  # pragma: no cover
        return f"RingElement(n={self.ring.n}, coeffs={[tuple(c) for c in self.coeffs.tolist()]})"


def gather_index(n: int) -> np.ndarray:
    """G[i, k] = j such that g_i * g_j = g_k, plus 2n on the reflection rows.

    From the dihedral relations: a rotation x^i reaches x^k (or x^k y) from
    x^(k-i) (or x^(k-i) y); a reflection x^i y reaches x^k from x^(i-k) y and
    x^k y from x^(i-k).  The 2n offset points reflection rows at sigma(b) in
    the stacked vector [b; sigma(b)] that the product gathers from.
    """
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    rot = (k - i) % n
    ref = (i - k) % n + 2 * n
    return np.block([[rot, rot + n], [ref + n, ref]])


class SkewRing:
    """F_{q^2}^theta D_2n with theta sending reflections to the Frobenius."""

    def __init__(self, p: int, n: int, lam: int | None = None):
        self.field = QuadraticField(p, lam=lam)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if 2 * n * (p - 1) ** 2 * (1 + self.field.lam) >= 2**53:
            raise ValueError(f"p={p}, n={n} is too large for exact float64 products")
        self.p = p
        self.n = n
        self.size = 2 * n
        # index into the flattened (4n, 2) stack [b; sigma(b)]: entry
        # (i, v*2n + k) is F_p part v of the coefficient a_i multiplies in c_k
        g = gather_index(n)
        self._gather = np.concatenate([2 * g, 2 * g + 1], axis=1)
        self._inv_perm = np.array([inverse(n, k) for k in range(self.size)], dtype=np.int64)

    # -- construction ------------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement(self, np.zeros((self.size, 2), dtype=np.int64))

    def one(self) -> RingElement:
        return self.basis(0)

    def basis(self, k: int, coeff: Fq2 = (1, 0)) -> RingElement:
        """coeff times the basis group element with index k."""
        if not 0 <= k < self.size:
            raise IndexError(f"basis index {k} out of range")
        c = np.zeros((self.size, 2), dtype=np.int64)
        c[k, 0] = coeff[0] % self.p
        c[k, 1] = coeff[1] % self.p
        return RingElement(self, c)

    def element(self, coeffs: Sequence[Fq2]) -> RingElement:
        if len(coeffs) != self.size:
            raise ValueError(f"expected {self.size} coefficients, got {len(coeffs)}")
        arr = np.array(coeffs, dtype=np.int64) % self.p
        return RingElement(self, arr)

    def _wrap(self, arr: np.ndarray) -> RingElement:
        return RingElement(self, arr)

    def _check(self, *elems: RingElement) -> None:
        for e in elems:
            if e.ring is not self:
                raise ValueError("ring element belongs to a different ring")
            if e.coeffs.shape != (self.size, 2):
                raise ValueError("coefficient vector has the wrong length")

    # -- linear structure ---------------------------------------------------

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a, b)
        return self._wrap((a.coeffs + b.coeffs) % self.p)

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a, b)
        return self._wrap((a.coeffs - b.coeffs) % self.p)

    def neg(self, a: RingElement) -> RingElement:
        self._check(a)
        return self._wrap((-a.coeffs) % self.p)

    # -- skew product --------------------------------------------------------

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        """Skew product: c_k = sum_i a_i * theta(g_i)(b_j) with g_i g_j = g_k.

        One gather from the stacked [b; sigma(b)] gives, for every (i, k),
        the two parts of the b_j that a_i meets; one float64 matmul with
        (a0, a1) then forms a0*B0, a1*B1, a0*B1 and a1*B0, and
        c = (a0*B0 + lam*a1*B1) + (a0*B1 + a1*B0) t.  Every partial sum is an
        integer at most 2n*(p-1)^2*(1+lam), which the constructor keeps below
        2^53, so the float64 arithmetic is exact.
        """
        self._check(a, b)
        p, size = self.p, self.size
        stack = np.empty((2 * size, 2))
        stack[:size] = b.coeffs
        stack[size:, 0] = b.coeffs[:, 0]
        stack[size:, 1] = (p - b.coeffs[:, 1]) % p
        r = a.coeffs.T.astype(np.float64) @ stack.ravel()[self._gather]
        out = np.empty((size, 2), dtype=np.int64)
        out[:, 0] = (r[0, :size] + self.field.lam * r[1, size:]) % p
        out[:, 1] = (r[0, size:] + r[1, :size]) % p
        return self._wrap(out)

    def naive_product(self, a: RingElement, b: RingElement) -> RingElement:
        """Independent oracle: formal-sum product with no precomputed table.

        Walks every pair of basis terms, applies theta via the reflection
        flag, and multiplies group elements through the closed-form dihedral
        relations.
        """
        self._check(a, b)
        f, n = self.field, self.n
        out = [f.zero] * self.size
        for i in range(self.size):
            ai = a.coefficient(i)
            if ai == (0, 0):
                continue
            twist = i >= n
            for j in range(self.size):
                bj = b.coefficient(j)
                if bj == (0, 0):
                    continue
                if twist:
                    bj = f.frobenius(bj)
                k = mul_index(n, i, j)
                out[k] = f.add(out[k], f.mul(ai, bj))
        return self.element(out)

    def adjunct(self, a: RingElement) -> RingElement:
        """Anti-isomorphism: sum a_g g -> sum theta(g^-1)(a_g) g^-1."""
        self._check(a)
        tmp = a.coeffs.copy()
        # reflections are involutions, their theta is sigma; rotations move to n-i
        tmp[self.n :, 1] = (self.p - tmp[self.n :, 1]) % self.p
        out = np.empty_like(tmp)
        out[self._inv_perm] = tmp
        return self._wrap(out)

    # -- subspace structure --------------------------------------------------

    def classify(self, a: RingElement) -> SubspaceTag:
        self._check(a)
        has_cn = bool(a.coeffs[: self.n].any())
        has_cny = bool(a.coeffs[self.n :].any())
        if has_cn and has_cny:
            return SubspaceTag.MIXED
        if has_cn:
            return SubspaceTag.CN_ONLY
        if has_cny:
            return SubspaceTag.CNY_ONLY
        return SubspaceTag.ZERO

    def phi(self, a: RingElement) -> RingElement:
        """Coefficient transport C_n y -> C_n: sum a_i x^i y -> sum a_i x^i."""
        if self.classify(a) not in (SubspaceTag.CNY_ONLY, SubspaceTag.ZERO):
            raise ValueError("phi is defined on elements supported on C_n y")
        out = np.zeros_like(a.coeffs)
        out[: self.n] = a.coeffs[self.n :]
        return self._wrap(out)

    def is_reversible(self, a: RingElement) -> bool:
        """Membership in Gamma_theta: C_n y support, and the coefficients of
        x^i y for i = 1 .. n-1 read the same backwards."""
        self._check(a)
        tail = a.coeffs[self.n + 1 :]
        return not a.coeffs[: self.n].any() and np.array_equal(tail, tail[::-1])

    # -- samplers ------------------------------------------------------------

    def _draw(self, rng, k: int) -> np.ndarray:
        """k values rng.randrange(p), in draw order, as a (k/2, 2) array of
        coefficients; every sampler draws through here, so a seed fixes them."""
        return np.array([rng.randrange(self.p) for _ in range(k)], dtype=np.int64).reshape(-1, 2)

    def sample_ring(self, rng) -> RingElement:
        return self._wrap(self._draw(rng, 2 * self.size))

    def sample_cn(self, rng) -> RingElement:
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[: self.n] = self._draw(rng, 2 * self.n)
        return self._wrap(out)

    def sample_gamma(self, rng) -> RingElement:
        """Uniform element of Gamma_theta, drawn as its free coordinates."""
        return self.gamma_from_free(self._draw(rng, 2 * self.gamma_free_count()))

    def gamma_from_free(self, free: Sequence[Fq2]) -> RingElement:
        """Build a Gamma_theta element from its free coordinates
        (index n first, then n+1 .. n+floor(n/2))."""
        n = self.n
        expected = n // 2 + 1
        if len(free) != expected:
            raise ValueError(f"expected {expected} free coefficients, got {len(free)}")
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[n : n + expected] = np.asarray(free, dtype=np.int64) % self.p
        out[self.size - n // 2 :] = out[n + 1 : n + expected][::-1]
        return self._wrap(out)

    def gamma_free_count(self) -> int:
        return self.n // 2 + 1

    def gen_public_element(self, rng) -> RingElement:
        """Public h = h1 + h2 with both halves non-zero, by rejection sampling."""
        while True:
            a = self.sample_ring(rng)
            if a.coeffs[: self.n].any() and a.coeffs[self.n :].any():
                return a

    # -- enumeration (desk-scale solvers) ------------------------------------

    def iter_cn(self) -> Iterator[RingElement]:
        """All p^(2n) elements of F_{q^2}^theta C_n, last coefficient fastest.
        Desk scale only."""
        f = self.field
        for coords in product(f.elements(), repeat=self.n):
            yield self.element(list(coords) + [f.zero] * self.n)

    def iter_gamma(self) -> Iterator[RingElement]:
        """All elements of Gamma_theta, last free coordinate fastest.  Desk scale only."""
        for free in product(self.field.elements(), repeat=self.gamma_free_count()):
            yield self.gamma_from_free(free)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SkewRing(p={self.p}, n={self.n}, lam={self.field.lam})"
