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

A SecretPair is kept as the values it was drawn as (a's n coefficients, then
gamma's free coordinates) and the raw rows [v; u] that one SkewRing.pair_rows
call makes of them when the pair is built: R is commutative, so it is one
matmul of the raw rows [sigma(G); G] with the F_p matrix of products by a,
with lam in its entries.  The rows are left unreduced, exact float64
integers congruent to [v; u] with |entry| <= n(p-1)^2(1+lam), so a product
by them stays within n^2(p-1)^3(1+lam)^2, the chain bound SkewRing's
constructor keeps below 2^53, and reduces once at its end.  Each value is
one SkewRing.cross_mul of those rows, or of [u; v], with the matrices kept
on h or on the peer's P: no ring element of a or gamma, no skew product and
no adjunct is formed.  pk is linear in (u, v), and an honest peer's P has
P_Y = u_2 h_C and P_C = v_2 h_Y, so any (u', v') with u' h_C = u h_C and
v' h_Y = v h_Y gives the same key with every honest peer, whether or not it
comes from a secret pair.  Finding one from pk is linear algebra over F_p:
the attack of ROADMAP item 1, which
tests/test_kex.py::test_toy_key_recovery_from_pk_alone runs exhaustively at
toy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import Params
from .skewring import Frozen, RingElement, SkewRing, SubspaceTag, _set


class SecretPair(Frozen):
    """A secret pair (a, gamma), a != 0 on C_n and gamma != 0 reversible, kept
    as its ring, its read-only values (n + n//2 + 1, 2) (see
    SkewRing.pair_from_values) and its read-only rows, (2, 1, 2n): exact
    float64 integers congruent to the raw rows [v; u] of u = G a and v =
    sigma(G) a for gamma = G y, |entry| <= n(p-1)^2(1+lam), unreduced
    (SkewRing.pair_rows), in declared slots as RingElement keeps its own.
    The schemes read only the rows and w; a and gamma are built from the
    values on each read."""

    __slots__ = ("ring", "values", "rows", "_w")

    def __init__(self, a: RingElement, gamma: RingElement) -> None:
        ring = a.ring
        if ring.classify(a) not in (SubspaceTag.CN_ONLY,):
            raise ValueError("secret a must be non-zero and supported on C_n")
        if not ring.is_reversible(gamma) or gamma.is_zero():
            raise ValueError("secret gamma must be a non-zero reversible element")
        self._keep(ring, ring.pair_values(a, gamma))

    @classmethod
    def from_values(cls, ring: SkewRing, values: np.ndarray) -> "SecretPair":
        """The pair of values in [0, p) whose a and gamma are non-zero by
        construction, built without the check; values becomes read-only."""
        pair = object.__new__(cls)
        pair._keep(ring, values)
        return pair

    def _keep(self, ring: SkewRing, values: np.ndarray) -> None:
        values.setflags(write=False)
        rows = ring.pair_rows(values)
        rows.setflags(write=False)
        _set(self, "ring", ring)
        _set(self, "values", values)
        _set(self, "rows", rows)
        _set(self, "_w", None)  # until the first use of w

    @property
    def a(self) -> RingElement:
        return self.ring.pair_from_values(self.values)[0]

    @property
    def gamma(self) -> RingElement:
        return self.ring.pair_from_values(self.values)[1]

    @property
    def w(self) -> RingElement:
        """u + v y, whose kept circulants pke.decrypt multiplies c1 by, built
        on first use from the reversed rows, reduced once, and kept in a slot."""
        w = self._w
        if w is None:
            c = self.rows[::-1].astype(np.int64)
            c %= self.ring.p
            w = RingElement(self.ring, c.reshape(self.ring.size, 2))
            _set(self, "_w", w)
        return w


class KexMessage(NamedTuple):
    party_id: bytes
    session_id: bytes
    pk: RingElement


def sample_secret_pair(params: Params, rng) -> SecretPair:
    """Uniform secret pair, kept as one sample_pair_values draw whose
    (negligible) zero a, then zero free coordinates of gamma, are redrawn
    from the stream as loops of sample_cn then sample_gamma would."""
    ring, n = params.ring, params.ring.n
    values = ring.sample_pair_values(rng)[0]
    while not np.count_nonzero(values[:n]):
        values = np.concatenate((values[n:], ring.sample_cn(rng).coeffs[:n]))
    while not np.count_nonzero(values[n:]):
        values[n:] = ring.sample_gamma(rng).coeffs[n : len(values)]
    return SecretPair.from_values(ring, values)


def public_value(params: Params, sk: SecretPair) -> RingElement:
    """pk = a * h * gamma = v h_Y + (u h_C) y, on h's kept circulants."""
    ring = params.ring
    if sk.ring is not ring:
        raise ValueError("secret pair belongs to a different ring")
    return RingElement(ring, ring.cross_mul(sk.rows, params.h))


def kex_keygen(params: Params, rng) -> tuple[SecretPair, RingElement]:
    sk = sample_secret_pair(params, rng)
    return sk, public_value(params, sk)


def kex_shared(sk: SecretPair, peer_pk: RingElement) -> RingElement:
    """k = a * peer_pk * adjunct(gamma) = u P_Y + (v P_C) y for P = peer_pk."""
    ring = sk.ring
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

