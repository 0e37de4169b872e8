"""Public parameter sets and setup.

The proposed sets all have n = p (so p divides n, as the setup requires),
the field F_{p^2} (extension degree m = 1), and a public mixed element
h = h1 + h2 generated per instance.  The ``toy`` set (p = 3, n = 3) exists
only for the attack-game harness.
"""

from __future__ import annotations

import random

from .skewring import Frozen, RingElement, SkewRing, SubspaceTag, _set

VALID_L1 = (128, 192, 256)

#: name -> (p, n)
PARAM_SETS: dict[str, tuple[int, int]] = {
    "toy": (3, 3),
    "p19": (19, 19),
    "p23": (23, 23),
    "p31": (31, 31),
    "p41": (41, 41),
}


class GameParams(Frozen):
    """The ring plus a public ring element h, unchecked: an attack game may
    take any ring and a degenerate h (one summand zero), so that the
    trivial-win remark can be exercised; h_tag, h's SubspaceTag, is found
    here, a ValueError unless h is ring's.  Immutable, in declared slots;
    equal and hashed by identity, which kem.encaps_key's cache keys on."""

    __slots__ = ("ring", "h", "h_tag")

    def __init__(self, ring: SkewRing, h: RingElement) -> None:
        _set(self, "ring", ring)
        _set(self, "h", h)
        _set(self, "h_tag", ring.classify(h))


class Params(GameParams):
    """Scheme parameters: a GameParams whose p divides n and whose h is
    mixed; p, n and lambda belong to the ring."""

    __slots__ = ()

    def __init__(self, ring: SkewRing, h: RingElement) -> None:
        if ring.n % ring.p != 0:
            raise ValueError(f"p must divide n, got p={ring.p}, n={ring.n}")
        super().__init__(ring, h)
        if self.h_tag is not SubspaceTag.MIXED:
            raise ValueError("public element h must have both C_n and C_n y parts non-zero")


def make_rng(seed: int | None) -> random.Random:
    """The generator of one seed, or of system entropy without one."""
    return random.Random(seed) if seed is not None else random.SystemRandom()


def make_params(
    name: str,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Params:
    """Instantiate a named parameter set, generating a fresh public h from
    rng, or from the generator of seed (make_rng); not from both."""
    if seed is not None and rng is not None:
        raise ValueError("make_params takes a seed or an rng, not both")
    if name not in PARAM_SETS:
        raise KeyError(f"unknown parameter set {name!r}; choose from {sorted(PARAM_SETS)}")
    ring = SkewRing(*PARAM_SETS[name])
    h = ring.gen_public_element(rng if rng is not None else make_rng(seed))
    return Params(ring=ring, h=h)
