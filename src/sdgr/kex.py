"""Two-sided key exchange over the skew dihedral group ring.

Each party holds a secret pair (a, gamma) with a supported on C_n and gamma
in the reversible subspace, publishes pk = a * h * gamma, and derives
k = a * peer_pk * adjunct(gamma).  Both sides agree because the C_n part is
commutative and gamma_1 * adjunct(gamma_2) = gamma_2 * adjunct(gamma_1) on
the reversible subspace.

Both values are products in the commutative R = F_{q^2}[C_n].  Write
gamma = G y and any z = z_C + z_Y y with G, z_C, z_Y in R.  Reversibility
says G(x^-1) = G, so y G y = sigma(G) and y sigma(G) y = G, where sigma acts
on coefficients; adjunct(gamma) = sigma(G) y.  With u = a G and v = a sigma(G),

    pk = a * h * gamma          = v h_Y + (u h_C) y,
    k  = a * P * adjunct(gamma) = u P_Y + (v P_C) y.

A SecretPair keeps the raw rows [v; u] (SkewRing.pair_rows on the values
the KEX drew: one matmul of a's raw coefficients with the F_p matrices of
products by sigma(G) and G, with lam and sigma's signs), and each value is one
SkewRing.cross_mul of those rows, or of [u; v], with the matrices kept on h
or on the peer's P: no skew product and no adjunct is formed.  pk is linear in
(u, v), and an honest peer's P has P_Y = u_2 h_C and P_C = v_2 h_Y, so any
(u', v') with u' h_C = u h_C and v' h_Y = v h_Y gives the same key with
every honest peer, whether or not it comes from a secret pair.  Finding one
from pk is linear algebra over F_p: the attack of ROADMAP item 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import Params
from .skewring import RingElement, SubspaceTag


@dataclass(frozen=True)
class SecretPair:
    """(a, gamma) with a != 0 on C_n and gamma != 0 reversible, and the
    values they were drawn as, if kept (see SkewRing.pair_from_values)."""

    a: RingElement
    gamma: RingElement
    values: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ring = self.a.ring
        if ring.classify(self.a) not in (SubspaceTag.CN_ONLY,):
            raise ValueError("secret a must be non-zero and supported on C_n")
        if not ring.is_reversible(self.gamma) or self.gamma.is_zero():
            raise ValueError("secret gamma must be a non-zero reversible element")

    @classmethod
    def unchecked(cls, a: RingElement, gamma: RingElement, values: np.ndarray | None = None) -> "SecretPair":
        """The pair of an a and a gamma that are valid by construction, built
        without the check, keeping their draw values if the caller has them."""
        pair = object.__new__(cls)
        vars(pair).update(a=a, gamma=gamma, values=values)
        return pair

    @cached_property
    def rows(self) -> np.ndarray:
        """The read-only raw rows [v; u] of u = a G, v = a sigma(G) for gamma = G y."""
        ring = self.a.ring
        rows = ring.pair_rows(ring.pair_values(self.a, self.gamma) if self.values is None else self.values)
        rows.setflags(write=False)
        return rows

    @cached_property
    def w(self) -> RingElement:
        """u + v y, whose kept circulants pke.decrypt multiplies c1 by."""
        return RingElement(self.a.ring, self.rows[::-1].reshape(self.a.ring.size, 2))


@dataclass(frozen=True)
class KexMessage:
    party_id: bytes
    session_id: bytes
    pk: RingElement


def sample_secret_pair(params: Params, rng) -> SecretPair:
    """Uniform secret pair, resampling the (negligible) zero draws: one
    draw, valid by construction, whose values the pair keeps for its rows."""
    values = params.ring.sample_pair_values(rng, nonzero=True)[0]
    return SecretPair.unchecked(*params.ring.pair_from_values(values), values)


def public_value(params: Params, sk: SecretPair) -> RingElement:
    """pk = a * h * gamma = v h_Y + (u h_C) y, on h's kept circulants."""
    ring = params.ring
    ring._check(sk.a)
    return RingElement(ring, ring.cross_mul(sk.rows, params.h))


def kex_keygen(params: Params, rng) -> tuple[SecretPair, RingElement]:
    sk = sample_secret_pair(params, rng)
    return sk, public_value(params, sk)


def kex_shared(sk: SecretPair, peer_pk: RingElement) -> RingElement:
    """k = a * peer_pk * adjunct(gamma) = u P_Y + (v P_C) y for P = peer_pk."""
    ring = sk.a.ring
    return RingElement(ring, ring.cross_mul(sk.rows[::-1], peer_pk))


class KexSession:
    """One protocol run for one party; erases the secret after key derivation."""

    def __init__(self, params: Params, party_id: bytes, session_id: bytes, rng):
        self.params = params
        self.party_id = party_id
        self.session_id = session_id
        self._secret, self._pk = kex_keygen(params, rng)

    @property
    def message(self) -> KexMessage:
        return KexMessage(party_id=self.party_id, session_id=self.session_id, pk=self._pk)

    @property
    def has_secret(self) -> bool:
        return self._secret is not None

    def derive(self, peer: KexMessage) -> RingElement:
        """Derive the session key and erase the secret pair."""
        if self._secret is None:
            raise RuntimeError("secret pair already erased for this session")
        if peer.session_id != self.session_id:
            raise ValueError("session-id mismatch")
        key = kex_shared(self._secret, peer.pk)
        self._secret = None
        return key

