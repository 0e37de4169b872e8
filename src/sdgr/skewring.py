"""The skew group ring F_{q^2}^theta D_2n.

A ring element is a dense length-2n coefficient vector over F_{q^2}: index
i < n holds the coefficient of x^i, index n+i the coefficient of x^i y.
Coefficients are stored as an (2n, 2) int64 numpy array so that a skew
product is one float64 matmul: a (2, 4n) left matrix built from a carries
the F_{q^2} arithmetic, and the (4n, 2n) operator it multiplies is gathered
once per right operand and kept on it.  Flipping the sign of the left
matrix's second half gives a * sigma(b) on the same operator, which is
a * adjunct(b) for b on C_n y.  The schemes need only products in the
commutative F_{q^2}[C_n] of an element's two halves (cross_mul): one batched
matmul of the same left matrices with the (2, 2n, n) circulants kept on the
right operand, or with several elements' circulants side by side in an
operator the caller keeps.  Every predicate on
coefficients (zero, equal, support, palindrome) is one np.count_nonzero, a
direct C call: on arrays this small, the Python-level wrappers behind
ndarray.any and whole-array equality cost several times more.  A naive loop
over pairs of basis terms that works directly on formal sums is kept as an
independent oracle, and the cost model counts that same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.mul(self, other)

    def adjunct(self) -> "RingElement":
        return self.ring.adjunct(self)

    @cached_property
    def right_operator(self) -> np.ndarray:
        """The operator of x -> x * self, built on first use and kept."""
        return self.ring.right_operator(self)

    @cached_property
    def circulant(self) -> np.ndarray:
        """The circulants of this element's C_n halves, built on first use
        and kept: the operator of cross_mul(w, self)."""
        return self.ring.circulant(self)

    def classify(self) -> SubspaceTag:
        return self.ring.classify(self)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.coeffs)

    def coefficient(self, i: int) -> Fq2:
        return (int(self.coeffs[i, 0]), int(self.coeffs[i, 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.coeffs.shape == other.coeffs.shape
            and not np.count_nonzero(self.coeffs != other.coeffs)
        )

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

    def __init__(self, p: int, n: int):
        self.field = QuadraticField(p)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if 2 * n * (p - 1) ** 2 * (1 + self.field.lam) >= 2**53:
            raise ValueError(f"p={p}, n={n} is too large for exact float64 products")
        self.p = p
        self.n = n
        self.size = 2 * n
        # index into the flattened (4n, 2) stack [b; sigma(b)]: entry
        # (v*2n + i, k) is F_p part v of the coefficient a_i multiplies in c_k
        g = gather_index(n)
        self._gather = np.concatenate([2 * g, 2 * g + 1], axis=0)
        # by sign: the factors on (a1, a0) in the left matrix's second half
        self._twist = {s: s * np.array([[self.field.lam], [1.0]]) for s in (1, -1)}
        self._twists = np.stack([self._twist[1], self._twist[-1]])
        # index into the flattened (2n, 2) coefficients: entry (h, v*n + i, k)
        # is F_p part v of the coefficient of x^(k-i) in the C_n y half (h = 0)
        # or in the C_n half (h = 1)
        rot = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        half = np.array([n, 0])[:, None, None, None]
        part = np.arange(2)[None, :, None, None]
        self._circ = (2 * (half + rot) + part).reshape(2, 2 * n, n)
        self._conj = np.array([1, -1])
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

    def _check(self, *elems: RingElement) -> None:
        for e in elems:
            if e.ring is not self:
                raise ValueError("ring element belongs to a different ring")
            if e.coeffs.shape != (self.size, 2):
                raise ValueError("coefficient vector has the wrong length")

    # -- linear structure ---------------------------------------------------

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a, b)
        return RingElement(self, (a.coeffs + b.coeffs) % self.p)

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a, b)
        return RingElement(self, (a.coeffs - b.coeffs) % self.p)

    # -- skew product --------------------------------------------------------

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        """Skew product: c_k = sum_i a_i * theta(g_i)(b_j) with g_i g_j = g_k.

        With B0, B1 the F_p parts of b's kept (4n, 2n) operator [B0; B1] (see
        right_operator), c = (a0*B0 + lam*a1*B1) + (a1*B0 + a0*B1) t: one
        float64 matmul of the (2, 4n) left matrix [[a0, lam*a1], [a1, a0]]
        with the operator, cast to int64 and reduced mod p.  Every partial
        sum is an integer of absolute value at most 2n*(p-1)^2*(1+lam), which
        the constructor keeps below 2^53, so the matmul and the cast are exact.
        """
        return self._product(a, b, 1)

    def mul_adjunct(self, x: RingElement, g: RingElement) -> RingElement:
        """x * adjunct(g) for g on C_n y, where adjunct(g) = sigma(g)
        coefficient-wise (reflections are involutions with theta = sigma).
        sigma(g) has operator parts (B0, -B1), so this is mul's matmul on g's
        kept operator with the left matrix's second half negated; its signed
        sums keep mul's bound, and the int64 % maps them into [0, p)."""
        if np.count_nonzero(g.coeffs[: self.n]):
            raise ValueError("mul_adjunct needs g supported on C_n y")
        return self._product(x, g, -1)

    def _product(self, a: RingElement, b: RingElement, sign: int) -> RingElement:
        """a * b for sign 1, a * sigma(b) for sign -1: the one kernel of mul
        and mul_adjunct."""
        self._check(a, b)
        c = (self._left(a.coeffs.T, self._twist[sign], (2, 2 * self.size)) @ b.right_operator).T
        c = c.astype(np.int64, order="C")
        c %= self.p
        return RingElement(self, c)

    @staticmethod
    def _left(a_t: np.ndarray, twist: np.ndarray, shape: tuple) -> np.ndarray:
        """The float64 left matrix [[a0, lam*a1], [a1, a0]] of the F_p parts
        a_t = [a0; a1] of m coefficients, its second half times the twist's
        sign, in a new array of shape (..., 2, 2m): for a stack of blocks a_t
        (..., 2, m), or for one block under the stack of twists (2, 2, 1).
        The callers pass the shape, which costs less than deriving it."""
        m = shape[-1] // 2
        left = np.empty(shape)
        left[..., :m] = a_t
        np.multiply(a_t[..., ::-1, :], twist, out=left[..., m:])
        return left

    def cross_mul(self, w: RingElement, x: RingElement | np.ndarray) -> RingElement | np.ndarray:
        """The element with C_n half w_C * x_Y and C_n y half w_Y * x_C.

        z_C and z_Y are the C_n coefficient blocks of z's two halves, z =
        z_C + z_Y y, and the products are in the commutative F_{q^2}[C_n].
        This is one batched float64 matmul: the (2, 2, 2n) left matrices of
        w's halves, built as mul builds its own, with x's kept (2, 2n, n)
        circulants.  Every partial sum is at most n*(p-1)^2*(1+lam), inside
        mul's bound, so the matmul and the cast are exact.

        x may instead be an operator the caller keeps: k elements'
        circulants side by side, (2, 2n, kn).  The result is then the
        (2, kn, 2) coefficients of w_C's products with the first circulants
        and of w_Y's with the second, from which the caller takes its
        elements; the same bound holds.
        """
        if isinstance(x, RingElement):
            self._check(w, x)
            op = x.circulant
        else:
            self._check(w)
            op = x
        halves = w.coeffs.reshape(2, self.n, 2).transpose(0, 2, 1)
        c = (self._left(halves, self._twist[1], (2, 2, self.size)) @ op).transpose(0, 2, 1)
        c = c.astype(np.int64, order="C")
        c %= self.p
        return c if op is x else RingElement(self, c.reshape(self.size, 2))

    def cross_operands(self, a: RingElement, g: RingElement) -> tuple[RingElement, RingElement]:
        """(u + v y, v + u y) for u = a_C * G and v = a_C * sigma(G) in
        F_{q^2}[C_n], with a_C the C_n half of a and G the C_n y block of g:
        the w that cross_mul takes for a * x * sigma(g) and a * x * g when g
        is reversible (see sdgr.kex).  One matmul of a_C's left matrix under
        both signs, stacked, with G's (2n, n) circulant; the signed sums keep
        cross_mul's bound, and the int64 % maps them into [0, p)."""
        self._check(a, g)
        n, size = self.n, self.size
        left = self._left(a.coeffs[:n].T, self._twists, (2, 2, size)).reshape(4, size)
        uv = (left @ self.circulant(g, 0)).reshape(2, 2, n).transpose(0, 2, 1)
        uv = uv.astype(np.int64, order="C")
        uv %= self.p
        return RingElement(self, uv.reshape(size, 2)), RingElement(self, uv[::-1].reshape(size, 2))

    def circulant(self, b: RingElement, half: int | slice = slice(None)) -> np.ndarray:
        """The read-only float64 circulants of b's C_n y block (half 0) and
        C_n block (half 1), stacked (2, 2n, n) and kept by
        RingElement.circulant, or the one `half` picks.  Circulant h is the
        operator of w -> w * z in F_{q^2}[C_n] for mul's left matrix of w,
        with z block h: the F_p parts [Z0; Z1], Z_v[i, k] part v of z_{k-i}.
        One gather from b's coefficients, 2n^2 entries per half."""
        self._check(b)
        op = b.coeffs.astype(np.float64).ravel()[self._circ[half]]
        op.setflags(write=False)
        return op

    def right_operator(self, b: RingElement) -> np.ndarray:
        """The read-only (4n, 2n) float64 operator of x -> x * b, kept by
        RingElement.right_operator: the F_p parts [B0; B1] stacked, one gather
        from the stacked [b; sigma(b)] putting part v of the b_j that a_i
        meets in c_k at (v*2n + i, k).  The F_p matrix of x -> x * b is
        [[B0, B1], [lam*B1, B0]]."""
        self._check(b)
        p, size = self.p, self.size
        stack = np.empty((2 * size, 2))
        stack[:size] = b.coeffs
        stack[size:, 0] = b.coeffs[:, 0]
        stack[size:, 1] = (p - b.coeffs[:, 1]) % p
        op = stack.ravel()[self._gather]
        op.setflags(write=False)
        return op

    def naive_product(self, a: RingElement, b: RingElement) -> RingElement:
        """Independent oracle: the formal-sum product, with no precomputed index."""
        return pair_product(self, self.field, a, b)

    def adjunct(self, a: RingElement) -> RingElement:
        """Anti-isomorphism: sum a_g g -> sum theta(g^-1)(a_g) g^-1."""
        self._check(a)
        # rotations move to n-i; reflections are involutions, their theta is sigma
        out = np.empty_like(a.coeffs)
        out[self._inv_perm] = a.coeffs
        out[self.n :] = out[self.n :] * self._conj % self.p
        return RingElement(self, out)

    # -- subspace structure --------------------------------------------------

    def classify(self, a: RingElement) -> SubspaceTag:
        self._check(a)
        has_cn = np.count_nonzero(a.coeffs[: self.n])
        has_cny = np.count_nonzero(a.coeffs[self.n :])
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
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[: self.n] = a.coeffs[self.n :]
        return RingElement(self, out)

    def is_reversible(self, a: RingElement) -> bool:
        """Membership in Gamma_theta: C_n y support, and the coefficients of
        x^i y for i = 1 .. n-1 read the same backwards."""
        self._check(a)
        if np.count_nonzero(a.coeffs[: self.n]):
            return False
        tail = a.coeffs[self.n + 1 :]
        return not np.count_nonzero(tail != tail[::-1])

    # -- samplers ------------------------------------------------------------

    def _draw(self, rng, k: int) -> np.ndarray:
        """k values below p, in draw order, as a (k/2, 2) array of
        coefficients; every sampler draws through here, so a seed fixes them.
        Each value is rng.getrandbits(p.bit_length()), redrawn while >= p: the
        loop CPython's rng.randrange(p) runs, so values and generator state
        match k randrange(p) calls."""
        p, w, bits = self.p, self.p.bit_length(), rng.getrandbits
        out = []
        while len(out) < k:
            v = bits(w)
            if v < p:
                out.append(v)
        return np.array(out, dtype=np.int64).reshape(-1, 2)

    def sample_ring(self, rng) -> RingElement:
        return RingElement(self, self._draw(rng, 2 * self.size))

    def sample_cn(self, rng) -> RingElement:
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[: self.n] = self._draw(rng, 2 * self.n)
        return RingElement(self, out)

    def sample_gamma(self, rng) -> RingElement:
        """Uniform element of Gamma_theta, drawn as its free coordinates."""
        return self.gamma_from_free(self._draw(rng, 2 * self.gamma_free_count()))

    def gamma_from_free(self, free: Sequence[Fq2]) -> RingElement:
        """Build a Gamma_theta element from its free coordinates
        (index n first, then n+1 .. n+floor(n/2))."""
        n = self.n
        expected = self.gamma_free_count()
        if len(free) != expected:
            raise ValueError(f"expected {expected} free coefficients, got {len(free)}")
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[n : n + expected] = np.asarray(free, dtype=np.int64) % self.p
        out[self.size - n // 2 :] = out[n + 1 : n + expected][::-1]
        return RingElement(self, out)

    def gamma_free_count(self) -> int:
        return self.n // 2 + 1

    def gen_public_element(self, rng) -> RingElement:
        """Public h = h1 + h2 with both halves non-zero, by rejection sampling."""
        while True:
            a = self.sample_ring(rng)
            if self.classify(a) is SubspaceTag.MIXED:
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


def pair_product(ring: SkewRing, field, a: RingElement, b: RingElement) -> RingElement:
    """The skew product by its definition, over every pair of basis terms.

    Each pair (i, j) costs one field multiplication a_i * theta(g_i)(b_j),
    with theta applied through the reflection flag, and one field addition
    into c_k, where g_i g_j = g_k by the closed-form dihedral relations.
    `field` supplies add, mul and frobenius: the ring's own field for the
    oracle, a counting wrapper for the cost model, which is why no pair is
    skipped, zero or not.
    """
    ring._check(a, b)
    n = ring.n
    a_list, b_list = a.coeffs.tolist(), b.coeffs.tolist()
    out = [(0, 0)] * ring.size
    for i, ai in enumerate(a_list):
        for j, bj in enumerate(b_list):
            if i >= n:
                bj = field.frobenius(bj)
            k = mul_index(n, i, j)
            out[k] = field.add(out[k], field.mul(ai, bj))
    return ring.element(out)
