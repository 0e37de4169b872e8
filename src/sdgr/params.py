"""Public parameter sets and setup.

The proposed sets all have n = p (so p divides n, as the setup requires),
the field F_{p^2} (extension degree m = 1), and a public mixed element
h = h1 + h2 generated per instance.  The ``toy`` set (p = 3, n = 3) exists
only for the attack-game harness.
"""

from __future__ import annotations

import random

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


_set = object.__setattr__  # Params' own writes, past its __setattr__


class Params:
    """The ring plus the public ring element h; p, n and lambda belong to the
    ring.  Immutable, in declared slots; equal and hashed by identity, which
    kem.encaps_key's cache keys on."""

    __slots__ = ("ring", "h")

    def __init__(self, ring: SkewRing, h: RingElement) -> None:
        if ring.n % ring.p != 0:
            raise ValueError(f"p must divide n, got p={ring.p}, n={ring.n}")
        if ring.classify(h) is not SubspaceTag.MIXED:
            raise ValueError("public element h must have both C_n and C_n y parts non-zero")
        _set(self, "ring", ring)
        _set(self, "h", h)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Params is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Params is immutable: cannot delete {name!r}")

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def lam(self) -> int:
        return self.ring.field.lam


def make_params(
    name: str,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Params:
    """Instantiate a named parameter set, generating a fresh public h."""
    if name not in PARAM_SETS:
        raise KeyError(f"unknown parameter set {name!r}; choose from {sorted(PARAM_SETS)}")
    ring = SkewRing(*PARAM_SETS[name])
    if rng is None:
        rng = random.Random(seed) if seed is not None else random.SystemRandom()
    h = ring.gen_public_element(rng)
    return Params(ring=ring, h=h)
