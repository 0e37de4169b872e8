"""CCA-targeted KEM: the implicit-rejection FO-style transform of the PKE.

Hash functions are SHAKE256 (FIPS 202).  H1 maps a byte string to a secret
pair by chunking an o-bit XOF stream, o = ceil(log2 p) * 2m * (n + ceil((n+1)/2)),
into ceil(log2 p)-bit integers reduced mod p.  H2 prepends the domain byte
0x02 and truncates to the session-key length.  rep() is the canonical
fixed-width big-endian MSB-first bit packing of a coefficient vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kex import SecretPair
from .params import VALID_L1, Params
from .pke import Ciphertext, PkeKeypair, pke_dec, pke_enc, pke_gen, sample_message
from .skewring import RingElement, SkewRing

H2_PREFIX = b"\x02"


# -- bit packing --------------------------------------------------------------


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack fixed-width unsigned integers into an MSB-first bitstream,
    zero-padding the final byte."""
    v = np.asarray(values)
    if v.size and (v.min() < 0 or v.max() >= 1 << width):
        raise ValueError(f"values must fit in {width} bits, got {v.min()} .. {v.max()}")
    shifts = np.arange(width - 1, -1, -1)
    bits = (v.astype(np.int64, copy=False)[:, None] >> shifts).astype(np.uint8) & 1
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Read `count` fixed-width integers from an MSB-first bitstream."""
    if len(data) * 8 < width * count:
        raise ValueError("bitstream too short")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=width * count)
    return bits.reshape(count, width) @ (1 << np.arange(width - 1, -1, -1))


# -- canonical serialization ---------------------------------------------------


def rep_len(ring: SkewRing) -> int:
    bits = ring.size * 2 * ring.field.coeff_bits
    return (bits + 7) // 8


def rep_ring(a: RingElement) -> bytes:
    """Canonical encoding: coefficients in index order, c0 then c1, each as a
    ceil(log2 p)-bit big-endian integer, MSB-first packed."""
    return pack_bits(a.coeffs.ravel(), a.ring.field.coeff_bits)


def decode_ring(ring: SkewRing, data: bytes) -> RingElement:
    """Inverse of rep_ring.  Out-of-range chunks are reduced mod p, so decoding
    never rejects; non-canonical streams fail the re-encoding comparison."""
    if len(data) != rep_len(ring):
        raise ValueError(f"expected {rep_len(ring)} bytes, got {len(data)}")
    values = unpack_bits(data, ring.field.coeff_bits, ring.size * 2)
    return ring.element(values.reshape(ring.size, 2))


def rep_ciphertext(c: Ciphertext) -> bytes:
    return rep_ring(c.c1) + rep_ring(c.c2)


def decode_ciphertext(ring: SkewRing, data: bytes) -> Ciphertext:
    half = rep_len(ring)
    if len(data) != 2 * half:
        raise ValueError(f"expected {2 * half} bytes, got {len(data)}")
    return Ciphertext(c1=decode_ring(ring, data[:half]), c2=decode_ring(ring, data[half:]))


# -- hash functions ------------------------------------------------------------


def h1_output_bits(p: int, m: int, n: int) -> int:
    """o = ceil(log2 p) * 2m * (n + ceil((n+1)/2))."""
    w = (p - 1).bit_length()
    return w * 2 * m * (n + (n + 2) // 2)


def h1(data: bytes, params: Params) -> SecretPair:
    """Derive a secret pair from an o-bit SHAKE256 stream.

    Chunks are reduced mod p; the first n field elements form a, the next
    ceil((n+1)/2) fill gamma's free coordinates.  A zero a or gamma triggers a
    deterministic retry with a 0x00 byte appended, so the map stays a function.
    """
    ring = params.ring
    n = ring.n
    w = ring.field.coeff_bits
    coeff_count = 2 * (n + ring.gamma_free_count())
    nbytes = (h1_output_bits(params.p, 1, n) + 7) // 8
    buf = data
    while True:
        stream = hashlib.shake_256(buf).digest(nbytes)
        values = unpack_bits(stream, w, coeff_count).reshape(-1, 2) % params.p
        a_coeffs, free = values[:n], values[n:]
        if a_coeffs.any() and free.any():
            break
        buf = buf + b"\x00"
    a = ring.element(np.concatenate([a_coeffs, np.zeros_like(a_coeffs)]))
    gamma = ring.gamma_from_free(free)
    return SecretPair(a=a, gamma=gamma)


def h2(data: bytes, l1: int) -> bytes:
    """Session key: SHAKE256(0x02 || data) truncated to l1 bits."""
    if l1 not in VALID_L1:
        raise ValueError(f"l1 must be one of {VALID_L1}, got {l1}")
    return hashlib.shake_256(H2_PREFIX + data).digest(l1 // 8)


# -- KEM ----------------------------------------------------------------------


@dataclass(frozen=True)
class KemPrivate:
    """Decapsulation state: implicit-rejection seed s, PKE secret, and pk."""

    s: RingElement
    sk: SecretPair
    pk: RingElement


def kem_keygen(params: Params, rng) -> tuple[KemPrivate, bytes]:
    kp: PkeKeypair = pke_gen(params, rng)
    s = sample_message(params, rng)
    return KemPrivate(s=s, sk=kp.sk, pk=kp.pk), rep_ring(kp.pk)


def kem_encaps(pk_bytes: bytes, params: Params, rng, l1: int = 128) -> tuple[bytes, bytes]:
    """Returns (ciphertext bytes, session key)."""
    pk = decode_ring(params.ring, pk_bytes)
    m = sample_message(params, rng)
    r = h1(rep_ring(m) + rep_ring(pk), params)
    c = pke_enc(m, pk, r, params)
    c_bytes = rep_ciphertext(c)
    key = h2(rep_ring(m) + c_bytes, l1)
    return c_bytes, key


def kem_decaps(priv: KemPrivate, c_bytes: bytes, params: Params, l1: int = 128) -> bytes:
    """Implicit rejection: a failed re-encryption check yields the key
    H2(rep(s) || c) instead of an error."""
    ring = params.ring
    try:
        c = decode_ciphertext(ring, c_bytes)
    except ValueError:
        return h2(rep_ring(priv.s) + c_bytes, l1)
    m = pke_dec(c, priv.sk)
    r = h1(rep_ring(m) + rep_ring(priv.pk), params)
    c_prime = pke_enc(m, priv.pk, r, params)
    if rep_ciphertext(c_prime) == c_bytes:
        return h2(rep_ring(m) + c_bytes, l1)
    return h2(rep_ring(priv.s) + c_bytes, l1)
