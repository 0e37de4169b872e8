"""The dihedral group D_2n = <x, y : x^n = y^2 = 1, y x y^-1 = x^-1>.

Elements x^i y^j are encoded as the integer k = j*n + i.  The closed-form
product index serves pair_product (the ring's oracle and the cost model),
not the vectorized kernels; the 2n x 2n Cayley table of ``build_table`` is
a reference the formulas are tested against.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class AutomorphismTag(Enum):
    """Which field automorphism theta assigns to a group element."""

    IDENTITY = 0
    SIGMA = 1


def _check_index(n: int, k: int) -> None:
    if not 0 <= k < 2 * n:
        raise IndexError(f"group index {k} out of range for D_{{{2 * n}}}")


def mul_index(n: int, k1: int, k2: int) -> int:
    """Closed-form product index, straight from the dihedral relations.

    x^i1 * x^i2 = x^(i1+i2), x^i1 * x^i2 y = x^(i1+i2) y,
    x^i1 y * x^i2 = x^(i1-i2) y, x^i1 y * x^i2 y = x^(i1-i2).
    """
    _check_index(n, k1)
    _check_index(n, k2)
    i1, j1 = k1 % n, k1 // n
    i2, j2 = k2 % n, k2 // n
    if j1 == 0:
        return j2 * n + (i1 + i2) % n
    return (1 - j2) * n + (i1 - i2) % n


def build_table(n: int) -> np.ndarray:
    """The 2n x 2n Cayley table of D_2n.  No src/ code calls it; it stays only
    because perfbench/workloads.py:layer_targets wraps it (ROADMAP items 10
    and 11)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    size = 2 * n
    table = np.empty((size, size), dtype=np.int64)
    for k1 in range(size):
        for k2 in range(size):
            table[k1, k2] = mul_index(n, k1, k2)
    return table


def inverse(n: int, k: int) -> int:
    """Inverse index: 0 -> 0; rotations x^i -> x^(n-i); reflections are involutions."""
    _check_index(n, k)
    if k == 0:
        return 0
    if k < n:
        return n - k
    return k


def theta(n: int, k: int) -> AutomorphismTag:
    """theta_sigma: reflections x^i y map to sigma, rotations to the identity."""
    _check_index(n, k)
    return AutomorphismTag.SIGMA if k >= n else AutomorphismTag.IDENTITY


def compose_tags(t1: AutomorphismTag, t2: AutomorphismTag) -> AutomorphismTag:
    # sigma has order 2
    if t1 == t2:
        return AutomorphismTag.IDENTITY
    return AutomorphismTag.SIGMA
