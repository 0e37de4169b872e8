"""Probabilistic public-key encryption built from the key exchange.

Gen:  the KEX key pair, sk = (a1, gamma1) and pk = a1 h gamma1.
Enc:  c1 = public_value(r2) = a2 h gamma2, c2 = m + kex_shared(r2, pk), with
      the randomness r2 = (a2, gamma2) passed in explicitly (the KEM
      re-encryption check needs Enc to be a deterministic function of (m, pk, r2)).
Dec:  m = c2 - kex_shared(sk, c1) = c2 - a1 c1 adjunct(gamma1).
c1 is a KEX public value and both masks are KEX keys a X adjunct(gamma),
each one SkewRing.cross_mul of the pair's kept (u, v) with the circulants
kept on h, pk or c1 (see sdgr.kex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kex import SecretPair, kex_keygen, kex_shared, public_value, sample_secret_pair
from .params import Params
from .skewring import RingElement


@dataclass(frozen=True)
class PkeKeypair:
    pk: RingElement
    sk: SecretPair


@dataclass(frozen=True)
class Ciphertext:
    c1: RingElement
    c2: RingElement


def pke_gen(params: Params, rng) -> PkeKeypair:
    sk, pk = kex_keygen(params, rng)
    return PkeKeypair(pk=pk, sk=sk)


def pke_enc(m: RingElement, pk: RingElement, r2: SecretPair, params: Params) -> Ciphertext:
    return Ciphertext(c1=public_value(params, r2), c2=m + kex_shared(r2, pk))


def pke_dec(c: Ciphertext, sk: SecretPair) -> RingElement:
    return c.c2 - kex_shared(sk, c.c1)


def sample_message(params: Params, rng) -> RingElement:
    """Uniform message; the message space is the whole ring."""
    return params.ring.sample_ring(rng)


def sample_randomness(params: Params, rng) -> SecretPair:
    return sample_secret_pair(params, rng)
