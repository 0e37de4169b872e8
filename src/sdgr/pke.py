"""Probabilistic public-key encryption built from the key exchange.

Gen:  the KEX key pair, sk = (a1, gamma1) and pk = a1 h gamma1.
Enc:  c1 = public_value(r2) = a2 h gamma2, c2 = m + kex_shared(r2, pk), for
      randomness r2 = (a2, gamma2) passed in: the KEM derives it from (m, pk).
Dec:  m = c2 - kex_shared(sk, c1) = c2 - a1 c1 adjunct(gamma1).

In R = F_{q^2}[C_n] (see sdgr.kex), with r2's w = u + v y,

    c1   = v h_Y + (u h_C) y,
    mask = u pk_Y + (v pk_C) y,

so Enc multiplies r2's rows [v; u] (SecretPair.rows, from
SkewRing.pair_rows: unreduced exact float64 integers, |entry| <=
n(p-1)^2(1+lam)) by h's kept circulants and [u; v] by pk's, as kex does,
within the chain bound n^2(p-1)^3(1+lam)^2 < 2^53 SkewRing checks.
Dec multiplies c1's raw rows by the circulants kept on the secret's own w
(SecretPair.w): c1_C meets v and c1_Y meets u, so kex_shared(sk, c1) is the
result, halves swapped.  Each reduces once, m added or taken away, so not
through SkewRing.cross_mul, and runs on raw (2n, 2) arrays, as the KEM does;
pke_enc and pke_dec check their operands' ring and wrap the arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kex import SecretPair, kex_keygen, sample_secret_pair
from .params import Params
from .skewring import RingElement


class PkeKeypair(NamedTuple):
    pk: RingElement
    sk: SecretPair


class Ciphertext(NamedTuple):
    c1: RingElement
    c2: RingElement


def pke_gen(params: Params, rng) -> PkeKeypair:
    sk, pk = kex_keygen(params, rng)
    return PkeKeypair(pk=pk, sk=sk)


def encrypt(m: np.ndarray, pk: RingElement, rows: np.ndarray, params: Params) -> np.ndarray:
    """Enc(pk, m; r2) on raw coefficients: m's (2n, 2) array, pk and r2's
    rows [v; u] give [c1; c2], (2, 2n, 2), in [0, p).  The rows are
    pair_rows' unreduced float64 integers (or coefficients in [0, p)), so
    every sum stays within the chain bound n^2(p-1)^3(1+lam)^2 < 2^53: the
    matmuls and the cast are exact, m is added to the int64 mask, and one %
    reduces both."""
    c = np.empty((2, 2, 1, m.shape[0]))
    np.matmul(rows, params.h.circulant, out=c[0])  # c1 = [v h_Y; u h_C]
    np.matmul(rows[::-1], pk.circulant, out=c[1])  # mask = [u pk_Y; v pk_C]
    out = c.astype(np.int64).reshape(2, -1, 2)
    out[1] += m
    out %= params.ring.p
    return out


def decrypt(c: np.ndarray, w: RingElement) -> np.ndarray:
    """Dec(sk, c) = c2 - kex_shared(sk, c1) on raw [c1; c2], (2, 2n, 2), and
    the circulants kept on the secret's w (SecretPair.w), as m's (2n, 2)
    array.  Raw chunks < 2^coeff_bits <= 2(p-1) may stand in c: every sum
    stays within mul's bound 2n(p-1)^2(1+lam) < 2^53, so m is exact."""
    ring = w.ring
    k = c[0].reshape(2, 1, ring.size) @ w.circulant
    m = (c[1].reshape(2, ring.size) - k[::-1, 0]).astype(np.int64)
    m %= ring.p
    return m.reshape(ring.size, 2)


def pke_enc(m: RingElement, pk: RingElement, r2: SecretPair, params: Params) -> Ciphertext:
    ring = params.ring
    ring._check(m, pk)
    if r2.ring is not ring:
        raise ValueError("secret pair belongs to a different ring")
    c = encrypt(m.coeffs, pk, r2.rows, params)
    return Ciphertext(c1=RingElement(ring, c[0]), c2=RingElement(ring, c[1]))


def pke_dec(c: Ciphertext, sk: SecretPair) -> RingElement:
    ring = sk.ring
    ring._check(c.c1, c.c2)
    return RingElement(ring, decrypt(np.stack((c.c1.coeffs, c.c2.coeffs)), sk.w))


def sample_message(params: Params, rng) -> RingElement:
    """Uniform message; the message space is the whole ring."""
    return params.ring.sample_ring(rng)


def sample_randomness(params: Params, rng) -> SecretPair:
    return sample_secret_pair(params, rng)
