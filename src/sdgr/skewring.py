"""The skew group ring F_{q^2}^theta D_2n.

A ring element is a dense length-2n coefficient vector over F_{q^2}: index
i < n holds the coefficient of x^i, index n+i the coefficient of x^i y.
Coefficients are stored as an (2n, 2) int64 numpy array, whose ravel() is
the element's raw F_p coefficients.  Every product runs one kernel: a
float64 matmul of raw coefficient rows with the (2n, 2n) F_p matrices of
w -> w * z in the commutative F_{q^2}[C_n], gathered once per right operand
with lam and sigma's signs in their entries and kept on it (circulant).
Write z = z_C + z_Y y with z_C and z_Y in F_{q^2}[C_n].  The schemes and
the game challengers run no skew product: they multiply raw rows [w_C;
w_Y], any number of w, each one row against x's kept matrix of x_Y or x_C,
through cross_mul, or, in pke.encrypt and pke.decrypt, through their own
matmuls on the same kept circulants; the rows [a sigma(G); a G] of a
secret pair (a, G y) are [sigma(G); G] times a's one matrix, gathered with
them from the pair's draw values (pair_rows), and stay unreduced: exact
float64 integers congruent to them, |entry| <= n(p-1)^2(1+lam).  A product
by them then reaches n^2(p-1)^3(1+lam)^2, the chain bound the constructor
keeps below 2^53, which implies mul's.  The skew product needs
y z = rho(z) y, where rho(z)(x) = sigma(z)(x^-1) is an involutive
automorphism of F_{q^2}[C_n] and, on raw coefficients, a signed permutation, so

    a*b = (a_C*b_C + rho(rho(a_Y)*b_Y)) + (a_C*b_Y + rho(rho(a_Y)*b_C)) y:

the rows [a_C; rho(a_Y)] times the same two matrices b keeps for
cross_mul, each rho one take and a sign the ring builds once.
Every predicate on coefficients (zero, equal, support, palindrome) is one
np.count_nonzero, a direct C call: on arrays this small, the Python-level
wrappers behind ndarray.any and whole-array equality cost several times
more.  A naive loop over pairs of basis terms that works directly on
formal sums is kept as an independent oracle, and the cost model counts
that same loop.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .field import Fq2, QuadraticField


_set = object.__setattr__  # a Frozen object's own writes, past its __setattr__


class Frozen:
    """Base of the library's immutable objects: setting or deleting any
    attribute raises AttributeError, and a subclass writes its own
    attributes with _set.  It adds no slot and no __dict__."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class SubspaceTag(Enum):
    ZERO = "zero"
    CN_ONLY = "cn"
    CNY_ONLY = "cny"
    MIXED = "mixed"


class RingElement(Frozen):
    """Immutable element of F_{q^2}^theta D_2n, in declared slots: with the
    circulant kept in an instance __dict__ instead, every attribute read was
    slower on CPython 3.11 (four reads of a p19 element: 96 against 45 ns)."""

    __slots__ = ("ring", "coeffs", "_circulant")

    def __init__(self, ring: "SkewRing", coeffs: np.ndarray) -> None:
        coeffs.setflags(write=False)  # shape (2n, 2), int64, entries in [0, p)
        _set(self, "ring", ring)
        _set(self, "coeffs", coeffs)
        _set(self, "_circulant", None)  # until the first product by this element

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.sub(self, other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.mul(self, other)

    def adjunct(self) -> "RingElement":
        return self.ring.adjunct(self)

    @property
    def circulant(self) -> np.ndarray:
        """The (2, 2n, 2n) F_p matrices of w -> w * z for this element's C_n
        y block and C_n block z, built on first use and kept in a slot: the
        operator every product by this element multiplies by, cross_mul(rows,
        self) and w * self."""
        op = self._circulant
        if op is None:
            op = self.ring.circulant(self)
            _set(self, "_circulant", op)
        return op

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


class SkewRing:
    """F_{q^2}^theta D_2n with theta sending reflections to the Frobenius."""

    def __init__(self, p: int, n: int):
        self.field = QuadraticField(p)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n * n * (p - 1) ** 3 * (1 + self.field.lam) ** 2 >= 2**53:
            raise ValueError(f"p={p}, n={n} is too large for exact float64 products: n^2 (p-1)^3 (1+lam)^2 >= 2^53")
        self.p = p
        self.n = n
        self.size = 2 * n
        # the gathers' tables: [1, lam, -1] (x) pair values or coeffs
        self._factors = np.array([1.0, self.field.lam, -1.0])[:, None, None]
        self._g_index, self._a_index, self._circ = self._circulant_index(n)
        self._conj = np.array([1, -1])
        self._inv_perm = np.concatenate(((-np.arange(n)) % n, np.arange(n, 2 * n)))  # dihedral.inverse
        # rho on a raw C_n row: rho(z)[j] = (-1)^t z[rho[j]] for j = 2i + t, rho[j] = 2(-i mod n) + t
        j = np.arange(2 * n)
        self._rho, self._rho_sign = 2 * ((-(j >> 1)) % n) + (j & 1), 1 - 2 * (j & 1)
        # _draw's translate tables while a value fits in a byte: each top
        # byte of a 32-bit output to its top w bits, and the bytes to reject,
        # those whose top w bits are >= p
        self._byte_tables = None
        if p < 256:
            s = 8 - p.bit_length()
            self._byte_tables = (np.arange(256, dtype=np.uint8) >> s).tobytes(), bytes(range(p << s, 256))

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
        arr = np.array(coeffs, dtype=np.int64) % self.p
        if arr.shape != (self.size, 2):
            raise ValueError(f"coefficients must have shape ({self.size}, 2), got {arr.shape}")
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

        By the module docstring's identity, one batched float64 matmul of
        the raw rows [a_C; rho(a_Y)] with b's kept circulants gives out[k,
        r], row r times b_Y (k = 0) or b_C (k = 1), and a*b is out[::-1, 0]
        + rho(out[:, 1]), each rho one take and a sign.  Each sum is at most
        2n*(p-1)^2*(1+lam), twice cross_mul's bound on rows in [0, p), below
        the constructor's chain bound and so below 2^53: the matmul, the sum
        and the cast are exact, and the int64 % maps the signed sums into [0, p).
        """
        self._check(a, b)
        a_c, a_y = a.coeffs.reshape(2, self.size)
        out = np.array((a_c, a_y.take(self._rho) * self._rho_sign)) @ b.circulant
        c = (out[::-1, 0] + out[:, 1].take(self._rho, axis=-1) * self._rho_sign).astype(np.int64)
        c %= self.p
        return RingElement(self, c.reshape(self.size, 2))

    def cross_mul(self, rows: np.ndarray, x: RingElement) -> np.ndarray:
        """The raw coefficients, (..., 2n, 2) in [0, p), of the elements with
        C_n half w_C * x_Y and C_n y half w_Y * x_C, for the raw rows
        [w_C; w_Y], (..., 2, 1, 2n), of any number of w: coefficients in
        [0, p), or pair_rows' exact float64 integers congruent to them.

        z_C and z_Y are the C_n coefficient blocks of z's two halves, z =
        z_C + z_Y y, and the products are in the commutative F_{q^2}[C_n].
        This is one broadcast float64 matmul of the rows with x's kept
        (2, 2n, 2n) circulants, which carry the F_{q^2} arithmetic (see
        circulant).  Their entries have |entry| <= lam*(p-1), so every
        partial sum is at most n*(p-1)^2*(1+lam) on rows in [0, p), and
        n^2*(p-1)^3*(1+lam)^2 on pair_rows' rows, the constructor's chain
        bound: the matmul and the cast are exact, and % reduces once.
        """
        self._check(x)
        c = (rows @ x.circulant).astype(np.int64)
        c %= self.p
        return c.reshape(rows.shape[:-3] + (self.size, 2))

    def pair_rows(self, values: np.ndarray) -> np.ndarray:
        """The raw rows [v; u], (..., 2, 1, 2n), of u = a_C * G and v = a_C *
        sigma(G) for pairs (a, G y) as values (..., n + n//2 + 1, 2) (see
        pair_from_values): cross_mul's rows for a x gamma, reversed for a x
        sigma(gamma) (see sdgr.kex).  R is commutative, so these are the raw
        rows [sigma(G); G] times a_C's one matrix: two takes out of one table
        and one broadcast matmul.  The result is left unreduced: exact float64
        integers congruent to [v; u] mod p, |entry| <= n(p-1)^2(1+lam), which
        every product by them reduces once at its end (see cross_mul)."""
        table = (self._factors * values[..., None, :, :]).reshape(values.shape[:-2] + (-1,))
        return table.take(self._g_index, axis=-1) @ table.take(self._a_index, axis=-1)

    def circulant(self, b: RingElement) -> np.ndarray:
        """The read-only (2, 2n, 2n) float64 operators of w -> w * z in
        F_{q^2}[C_n] on w's raw coefficients, for z = b_Y and b_C, b's C_n y
        block and C_n block: the circulants RingElement.circulant keeps.
        Row (i, s) and column (k, t), the order of coeffs.ravel(), hold part
        s^t of z_{k-i}, times lam when (s, t) = (1, 0): one take out of
        [1, lam, -1] (x) b.coeffs, 4n^2 entries per block."""
        self._check(b)
        op = (self._factors * b.coeffs).take(self._circ)
        op.setflags(write=False)
        return op

    @staticmethod
    def _circulant_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """pair_rows' (2, 1, 2n) index of the rows [sigma(G); G] and (1, 2n,
        2n) index of a_C's matrix into the (3, 2(n + n//2 + 1)) table of pair
        values, and circulant's (2, 2n, 2n) index of z_Y and z_C into the (3,
        4n) table of coeffs.ravel().  G_i is free coordinate min(i, n-i), and
        sigma negates part 1 through factor -1.  Matrix entry ((i, s), (k,
        t)) depends on i and k only through j = 2(k-i) + t mod 2n: it is d[s,
        j], where q = j ^ s is the position of part s^t of z_{k-i} in z's
        block, offset by 2n for z_Y, plus the table's width times the factor
        f = s where s^t = 1: lam at (1, 0).  Row i is d's window at 2n - 2i,
        so the matrices are one copy of a strided view of the (3, 2, 4n) d."""
        w, j = 2 * (n + n // 2 + 1), np.arange(2 * n)
        g = 2 * n + 2 * np.minimum(j >> 1, n - (j >> 1)) + (j & 1)
        s = np.arange(2)[:, None]
        q = (np.arange(4 * n) ^ s) % (2 * n)
        d = np.stack((q, q + 2 * n, q)) + (q & 1) * s * np.array([w, 4 * n, 4 * n])[:, None, None]
        st = d.strides
        rows = as_strided(d[:, :, 2 * n :], (3, n, 2, 2 * n), (st[0], -2 * st[2], st[1], st[2]))
        ops = rows.reshape(3, 2 * n, 2 * n)
        return np.stack((g + (j & 1) * 2 * w, g))[:, None], ops[:1], ops[1:]

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
        Each value is rng.getrandbits(w), w = p.bit_length(), redrawn while
        >= p: the loop CPython's rng.randrange(p) runs, so values and
        generator state match k randrange(p) calls.

        For p < 256 the draw runs in rounds of C-level bytes operations.  A
        round asks for the r values still missing as getrandbits(32 r): r
        successive 32-bit outputs, the first in the least-significant word,
        where getrandbits(w) is the top w bits of one output.  So the
        round's little-endian bytes [3::4] are the outputs' top bytes, and
        one translate drops those whose top w bits are >= p and maps the
        rest to those bits.  Each output gives at most one value, so no
        round over-draws.  Wider primes make the randrange(p) calls."""
        if self._byte_tables is None:
            return np.array([rng.randrange(self.p) for _ in range(k)], dtype=np.int64).reshape(-1, 2)
        top, reject = self._byte_tables
        out = b""
        while len(out) < k:
            r = k - len(out)
            out += rng.getrandbits(32 * r).to_bytes(4 * r, "little")[3::4].translate(top, reject)
        return np.frombuffer(out, np.uint8).astype(np.int64).reshape(-1, 2)

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
        free = np.asarray(free, dtype=np.int64)
        if free.shape != (expected, 2):
            raise ValueError(f"free coefficients must have shape ({expected}, 2), got {free.shape}")
        out = np.zeros((self.size, 2), dtype=np.int64)
        out[n : n + expected] = free % self.p
        out[self.size - n // 2 :] = out[n + 1 : n + expected][::-1]
        return RingElement(self, out)

    def gamma_free_count(self) -> int:
        return self.n // 2 + 1

    def sample_pair_values(self, rng, m: int = 1) -> np.ndarray:
        """The values (m, n + n//2 + 1, 2) of m pairs (see pair_from_values) in
        one draw, with the values and generator state of m calls of sample_cn
        then sample_gamma, zero a and gamma included."""
        k = self.n + self.gamma_free_count()
        return self._draw(rng, 2 * m * k).reshape(m, k, 2)

    def pair_from_values(self, values: np.ndarray) -> tuple[RingElement, RingElement]:
        """(a, gamma) from n + n//2 + 1 coefficients in [0, p): a on C_n
        holds the first n, gamma the rest as its free coordinates (see
        gamma_from_free)."""
        a = np.zeros((self.size, 2), dtype=np.int64)
        a[: self.n] = values[: self.n]
        return RingElement(self, a), self.gamma_from_free(values[self.n :])

    def pair_values(self, a: RingElement, gamma: RingElement) -> np.ndarray:
        """pair_from_values' inverse for a on C_n and a reversible gamma."""
        self._check(a, gamma)
        return np.concatenate((a.coeffs[: self.n], gamma.coeffs[self.n : self.n + self.gamma_free_count()]))

    def gen_public_element(self, rng) -> RingElement:
        """Public h = h1 + h2 with both halves non-zero, by rejection sampling."""
        while True:
            a = self.sample_ring(rng)
            if self.classify(a) is SubspaceTag.MIXED:
                return a

    # -- enumeration (desk-scale solvers) ------------------------------------

    def iter_cn(self) -> Iterator[RingElement]:
        """All p^(2n) elements of F_{q^2}^theta C_n, last coefficient fastest.
        Desk scale only.  No src/ code calls it; it stays only because
        perfbench/workloads.py:layer_targets wraps it (ROADMAP items 10 and 11)."""
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
    from .dihedral import mul_index  # imported here: only the oracle and the cost model use it

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
