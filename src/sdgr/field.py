"""Arithmetic in F_p and its quadratic extension F_{p^2} = F_p[t]/(t^2 - lambda).

Elements of the quadratic field are plain ``(c0, c1)`` integer pairs
representing ``c0 + c1*t``, with both coefficients reduced mod p.  All
operations live on :class:`QuadraticField` so that elements stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

Fq2 = Tuple[int, int]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for the small p used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def find_lambda(p: int) -> int:
    """Smallest quadratic non-residue lambda >= 2 mod p (Euler criterion scan).

    Deterministic for a fixed p, so two parties always agree on the field
    representation t^2 = lambda.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    for lam in range(2, p):
        if pow(lam, (p - 1) // 2, p) == p - 1:
            return lam
    raise ValueError(f"no quadratic non-residue found for p={p}")  # unreachable for odd prime


@dataclass(frozen=True)
class FieldParams:
    """Constants defining F_{p^2}: prime p and the non-residue lambda."""

    p: int
    lam: int

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be a prime >= 3, got {self.p}")
        if pow(self.lam, (self.p - 1) // 2, self.p) != self.p - 1:
            raise ValueError(f"lambda={self.lam} is a quadratic residue mod {self.p}")


class QuadraticField:
    """F_{p^2} as F_p[t]/(t^2 - lambda) with the Frobenius map a -> a^p,
    which is coefficient conjugation (c0, c1) -> (c0, -c1)."""

    def __init__(self, p: int, lam: int | None = None):
        if lam is None:
            lam = find_lambda(p)
        self.params = FieldParams(p=p, lam=lam)
        self.p = p
        self.lam = lam

    # -- constants ---------------------------------------------------------

    @property
    def zero(self) -> Fq2:
        return (0, 0)

    @property
    def one(self) -> Fq2:
        return (1, 0)

    @property
    def order(self) -> int:
        return self.p * self.p

    @property
    def coeff_bits(self) -> int:
        """Bits needed for one F_p coefficient: ceil(log2 p)."""
        return (self.p - 1).bit_length()

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Fq2, b: Fq2) -> Fq2:
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a: Fq2, b: Fq2) -> Fq2:
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a: Fq2) -> Fq2:
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def mul(self, a: Fq2, b: Fq2) -> Fq2:
        # (a0 + a1 t)(b0 + b1 t) = (a0 b0 + lam a1 b1) + (a0 b1 + a1 b0) t
        p = self.p
        return (
            (a[0] * b[0] + self.lam * a[1] * b[1]) % p,
            (a[0] * b[1] + a[1] * b[0]) % p,
        )

    def inv(self, a: Fq2) -> Fq2:
        """Inverse via the norm: 1/a = (c0 - c1 t) / (c0^2 - lam c1^2)."""
        if a == (0, 0):
            raise ZeroDivisionError("inverse of zero in F_{p^2}")
        p = self.p
        norm = (a[0] * a[0] - self.lam * a[1] * a[1]) % p
        ninv = pow(norm, p - 2, p)
        return ((a[0] * ninv) % p, ((-a[1]) * ninv) % p)

    def frobenius(self, a: Fq2) -> Fq2:
        """a -> a^p, which is conjugation: t -> -t."""
        return (a[0], (-a[1]) % self.p)

    # -- sampling / enumeration -------------------------------------------

    def sample(self, rng) -> Fq2:
        """Uniform element of F_{p^2}; rng is any object with randrange()."""
        return (rng.randrange(self.p), rng.randrange(self.p))

    def elements(self) -> Iterator[Fq2]:
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield (c0, c1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadraticField(p={self.p}, lam={self.lam})"
