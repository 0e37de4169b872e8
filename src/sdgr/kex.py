"""Two-sided key exchange over the skew dihedral group ring.

Each party holds a secret pair (a, gamma) with a supported on C_n and gamma
in the reversible subspace, publishes pk = a * h * gamma, and derives
k = a * peer_pk * adjunct(gamma).  Both sides agree because the C_n part is
commutative and gamma_1 * adjunct(gamma_2) = gamma_2 * adjunct(gamma_1) on
the reversible subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import Params
from .skewring import RingElement, SubspaceTag


@dataclass(frozen=True)
class SecretPair:
    """(a, gamma) with a != 0 on C_n and gamma != 0 reversible."""

    a: RingElement
    gamma: RingElement

    def __post_init__(self) -> None:
        ring = self.a.ring
        if ring.classify(self.a) not in (SubspaceTag.CN_ONLY,):
            raise ValueError("secret a must be non-zero and supported on C_n")
        if not ring.is_reversible(self.gamma) or self.gamma.is_zero():
            raise ValueError("secret gamma must be a non-zero reversible element")


@dataclass(frozen=True)
class KexMessage:
    party_id: bytes
    session_id: bytes
    pk: RingElement


def sample_secret_pair(params: Params, rng) -> SecretPair:
    """Uniform secret pair, resampling the (negligible) zero draws."""
    ring = params.ring
    while True:
        a = ring.sample_cn(rng)
        if not a.is_zero():
            break
    while True:
        gamma = ring.sample_gamma(rng)
        if not gamma.is_zero():
            break
    return SecretPair(a=a, gamma=gamma)


def public_value(params: Params, sk: SecretPair) -> RingElement:
    return sk.a * params.h * sk.gamma


def kex_keygen(params: Params, rng) -> tuple[SecretPair, RingElement]:
    sk = sample_secret_pair(params, rng)
    return sk, public_value(params, sk)


def kex_shared(sk: SecretPair, peer_pk: RingElement) -> RingElement:
    """k = a * peer_pk * adjunct(gamma)."""
    return sk.a * peer_pk * sk.gamma.adjunct()


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

