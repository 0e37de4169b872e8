"""Public parameter sets and setup.

The proposed sets all have n = p (so p divides n, as the setup requires),
the field F_{p^2} (extension degree m = 1), and a public mixed element
h = h1 + h2 generated per instance.  The ``toy`` set (p = 3, n = 3) exists
only for the attack-game harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .skewring import RingElement, SkewRing, SubspaceTag

VALID_L1 = (128, 192, 256)

#: name -> (p, n)
PARAM_SETS: dict[str, tuple[int, int]] = {
    "toy": (3, 3),
    "p19": (19, 19),
    "p23": (23, 23),
    "p31": (31, 31),
    "p41": (41, 41),
}


@dataclass(frozen=True, eq=False)
class Params:
    """Field/group constants plus the public ring element h."""

    p: int
    n: int
    lam: int
    ring: SkewRing = field(repr=False)
    h: RingElement = field(repr=False)
    name: str = ""

    def __post_init__(self) -> None:
        if self.n % self.p != 0:
            raise ValueError(f"p must divide n, got p={self.p}, n={self.n}")
        if self.ring.classify(self.h) is not SubspaceTag.MIXED:
            raise ValueError("public element h must have both C_n and C_n y parts non-zero")


def make_params(
    name: str,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Params:
    """Instantiate a named parameter set, generating a fresh public h."""
    if name not in PARAM_SETS:
        raise KeyError(f"unknown parameter set {name!r}; choose from {sorted(PARAM_SETS)}")
    p, n = PARAM_SETS[name]
    ring = SkewRing(p, n)
    if rng is None:
        rng = random.Random(seed) if seed is not None else random.SystemRandom()
    h = ring.gen_public_element(rng)
    return Params(p=p, n=n, lam=ring.field.lam, ring=ring, h=h, name=name)
