"""Probabilistic public-key encryption built from the key exchange.

Gen:  the KEX key pair, sk = (a1, gamma1) and pk = a1 h gamma1.
Enc:  c1 = public_value(r2) = a2 h gamma2, c2 = m + kex_shared(r2, pk), with
      the randomness r2 = (a2, gamma2) passed in explicitly (the KEM
      re-encryption check needs Enc to be a deterministic function of (m, pk, r2)).
Dec:  m = c2 - kex_shared(sk, c1) = c2 - a1 c1 adjunct(gamma1).

In R = F_{q^2}[C_n] (see sdgr.kex), with r2's w = u + v y,

    c1   = v h_Y + (u h_C) y,
    mask = u pk_Y + (v pk_C) y,

so Enc is one SkewRing.cross_mul of w's raw coefficients with pk's
(2n, 2n) F_p product matrices beside h's, h's halves swapped (enc_operator,
(2, 2n, 4n), which the KEM keeps per key): u's row gives [mask_C | c1_Y]
and v's row [mask_Y | c1_C].  Dec is one cross_mul of c1 with the matrices
kept on the secret's own w: c1_C meets v and c1_Y meets u, so
kex_shared(sk, c1) is the result with its halves swapped, and no operator
of c1 is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kex import SecretPair, kex_keygen, sample_secret_pair
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


def enc_operator(params: Params, pk: RingElement) -> np.ndarray:
    """The read-only (2, 2n, 4n) operator of Enc under pk: pk's (2, 2n, 2n)
    product matrices (see SkewRing.circulant) beside h's, h's halves swapped."""
    op = np.concatenate([params.ring.circulant(pk), params.h.circulant[::-1]], axis=2)
    op.setflags(write=False)
    return op


def encrypt(m: RingElement, op: np.ndarray, r2: SecretPair, params: Params) -> Ciphertext:
    """Enc(pk, m; r2) on pk's enc_operator."""
    ring, n = params.ring, params.n
    c = ring.cross_mul(r2.cross_operands[0], op)
    mask = RingElement(ring, c[:, :n].reshape(ring.size, 2))
    return Ciphertext(c1=RingElement(ring, c[::-1, n:].reshape(ring.size, 2)), c2=m + mask)


def pke_enc(m: RingElement, pk: RingElement, r2: SecretPair, params: Params) -> Ciphertext:
    return encrypt(m, enc_operator(params, pk), r2, params)


def pke_dec(c: Ciphertext, sk: SecretPair) -> RingElement:
    ring = sk.a.ring
    k = ring.cross_mul(c.c1, sk.cross_operands[0].circulant)
    return c.c2 - RingElement(ring, k[::-1].reshape(ring.size, 2))


def sample_message(params: Params, rng) -> RingElement:
    """Uniform message; the message space is the whole ring."""
    return params.ring.sample_ring(rng)


def sample_randomness(params: Params, rng) -> SecretPair:
    return sample_secret_pair(params, rng)
