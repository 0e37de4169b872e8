"""CCA-targeted KEM: the implicit-rejection FO-style transform of the PKE.

Hash functions are SHAKE256 (FIPS 202).  H1 maps a byte string to a secret
pair by chunking an o-bit XOF stream, o = ceil(log2 p) * 2m * (n + ceil((n+1)/2)),
into ceil(log2 p)-bit integers reduced mod p.  H2 prepends the domain byte
0x02 and truncates to the session-key length.  rep() is the canonical
fixed-width big-endian MSB-first bit packing of a coefficient vector.

Encaps sends c = Enc(pk, m; H1(rep(m) || rep(pk))), and decaps decrypts,
re-encrypts and compares.  Both encrypt with one product on pk's
enc_operator, which encaps_key keeps per params and key bytes; decaps finds
the same entry through rep(pk).  Decaps unpacks c once: it decrypts the
chunks reduced mod p, and accepts only if the raw chunks are the
coefficients of the re-encryption c' and no padding bit is set.  That is
rep(c') == c without packing c', since a chunk >= p never equals a
coefficient and rep pads with zeros.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .kex import SecretPair
from .params import VALID_L1, Params
from .pke import Ciphertext, PkeKeypair, enc_operator, encrypt, pke_dec, pke_gen, sample_message
from .skewring import RingElement, SkewRing

H2_PREFIX = b"\x02"


# -- bit packing --------------------------------------------------------------


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack fixed-width unsigned integers into an MSB-first bitstream,
    zero-padding the final byte."""
    v = np.asarray(values)
    # v >> width is non-zero exactly for the values outside [0, 2^width); the
    # size test keeps an empty input, which asarray makes float64, off the shift
    if v.size and np.count_nonzero(v >> width):
        raise ValueError(f"values must fit in {width} bits, got {v.min()} .. {v.max()}")
    shifts = np.arange(width - 1, -1, -1)
    bits = (v.astype(np.int64, copy=False)[:, None] >> shifts).astype(np.uint8) & 1
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes | np.ndarray, width: int, count: int) -> np.ndarray:
    """Read `count` fixed-width integers from an MSB-first bitstream, or from
    each row of a 2-D uint8 array of equal-length streams."""
    stream = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    if stream.shape[-1] * 8 < width * count:
        raise ValueError("bitstream too short")
    bits = np.unpackbits(stream, axis=-1, count=width * count)
    return bits.reshape(*stream.shape[:-1], count, width) @ (1 << np.arange(width - 1, -1, -1))


# -- canonical serialization ---------------------------------------------------


def rep_len(ring: SkewRing) -> int:
    bits = ring.size * 2 * ring.field.coeff_bits
    return (bits + 7) // 8


def rep_ring(a: RingElement) -> bytes:
    """Canonical encoding: coefficients in index order, c0 then c1, each as a
    ceil(log2 p)-bit big-endian integer, MSB-first packed."""
    return pack_bits(a.coeffs.ravel(), a.ring.field.coeff_bits)


def rep_ciphertext(c: Ciphertext) -> bytes:
    return rep_ring(c.c1) + rep_ring(c.c2)


def unpack_elements(ring: SkewRing, data: bytes, count: int) -> tuple[np.ndarray, bool]:
    """The raw chunks of `count` concatenated rep_ring encodings, (count, 2n,
    2), and whether every padding bit is zero: data is the encoding of its
    elements iff it is and every chunk is below p.  Raises ValueError unless
    data is exactly that long."""
    size = rep_len(ring)
    if len(data) != count * size:
        raise ValueError(f"expected {count * size} bytes, got {len(data)}")
    width = ring.field.coeff_bits
    streams = np.frombuffer(data, dtype=np.uint8).reshape(count, size)
    chunks = unpack_bits(streams, width, 2 * ring.size).reshape(count, ring.size, 2)
    padding = (1 << (8 * size - 2 * ring.size * width)) - 1
    return chunks, not np.count_nonzero(streams[:, -1] & padding)


def decode_elements(ring: SkewRing, data: bytes, count: int) -> list[RingElement]:
    """Inverse of concatenating `count` rep_ring encodings, reducing chunks
    mod p; raises ValueError unless data is exactly that long."""
    return [RingElement(ring, chunk % ring.p) for chunk in unpack_elements(ring, data, count)[0]]


def decode_ring(ring: SkewRing, data: bytes) -> RingElement:
    """Inverse of rep_ring.  Out-of-range chunks are reduced mod p, so decoding
    never rejects; kem_decaps rejects non-canonical ciphertexts itself."""
    return decode_elements(ring, data, 1)[0]


def decode_ciphertext(ring: SkewRing, data: bytes) -> tuple[Ciphertext, np.ndarray, bool]:
    """(c, chunks, padded): c decoded as decode_elements does, with the raw
    chunks and the padding flag of unpack_elements."""
    chunks, padded = unpack_elements(ring, data, 2)
    c1, c2 = (RingElement(ring, chunk % ring.p) for chunk in chunks)
    return Ciphertext(c1=c1, c2=c2), chunks, padded


# -- hash functions ------------------------------------------------------------


def h1_output_bits(p: int, m: int, n: int) -> int:
    """o = ceil(log2 p) * 2m * (n + ceil((n+1)/2))."""
    w = (p - 1).bit_length()
    return w * 2 * m * (n + (n + 2) // 2)


def h1(data: bytes, params: Params) -> SecretPair:
    """Derive a secret pair from an o-bit SHAKE256 stream.

    Chunks are reduced mod p; the first n field elements form a, the next
    ceil((n+1)/2) fill gamma's free coordinates.  A zero a or gamma triggers a
    deterministic retry with a 0x00 byte appended, so the map stays a function,
    and its pairs are valid by construction.
    """
    ring = params.ring
    n = ring.n
    w = ring.field.coeff_bits
    coeff_count = 2 * (n + ring.gamma_free_count())
    nbytes = (h1_output_bits(ring.p, 1, n) + 7) // 8
    buf = data
    while True:
        stream = hashlib.shake_256(buf).digest(nbytes)
        values = unpack_bits(stream, w, coeff_count).reshape(-1, 2) % ring.p
        a_coeffs, free = values[:n], values[n:]
        if np.count_nonzero(a_coeffs) and np.count_nonzero(free):
            break
        buf = buf + b"\x00"
    a = np.zeros((ring.size, 2), dtype=np.int64)
    a[:n] = a_coeffs
    return SecretPair.unchecked(RingElement(ring, a), ring.gamma_from_free(free))


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

    @cached_property
    def rep_pk(self) -> bytes:
        return rep_ring(self.pk)

    @cached_property
    def rep_s(self) -> bytes:
        return rep_ring(self.s)


def kem_keygen(params: Params, rng) -> tuple[KemPrivate, bytes]:
    kp: PkeKeypair = pke_gen(params, rng)
    s = sample_message(params, rng)
    return KemPrivate(s=s, sk=kp.sk, pk=kp.pk), rep_ring(kp.pk)


@lru_cache(maxsize=1)
def encaps_key(params: Params, pk_bytes: bytes) -> tuple[bytes, np.ndarray]:
    """(rep(pk), enc_operator(params, pk)) for the last encaps key that
    decoded, under the params it was used with, so that no other h meets the
    operator.  rep(pk), not pk_bytes: decoding reduces chunks mod p."""
    pk = decode_ring(params.ring, pk_bytes)
    return rep_ring(pk), enc_operator(params, pk)


def _encrypt_derandomized(m: RingElement, pk_bytes: bytes, params: Params) -> tuple[bytes, Ciphertext]:
    """(rep(m), c) for c = Enc(pk, m; H1(rep(m) || rep(pk))): the encryption
    encaps sends and decaps recomputes to check a ciphertext."""
    rep_pk, op = encaps_key(params, pk_bytes)
    rep_m = rep_ring(m)
    return rep_m, encrypt(m, op, h1(rep_m + rep_pk, params), params)


def kem_encaps(pk_bytes: bytes, params: Params, rng, l1: int = 128) -> tuple[bytes, bytes]:
    """Returns (ciphertext bytes, session key)."""
    rep_m, c = _encrypt_derandomized(sample_message(params, rng), bytes(pk_bytes), params)
    c_bytes = rep_ciphertext(c)
    return c_bytes, h2(rep_m + c_bytes, l1)


def kem_decaps(priv: KemPrivate, c_bytes: bytes, params: Params, l1: int = 128) -> bytes:
    """Implicit rejection: a failed re-encryption check yields the key
    H2(rep(s) || c) instead of an error."""
    try:
        c, chunks, padded = decode_ciphertext(params.ring, c_bytes)
    except ValueError:
        return h2(priv.rep_s + c_bytes, l1)
    rep_m, c_prime = _encrypt_derandomized(pke_dec(c, priv.sk), priv.rep_pk, params)
    # c_bytes == rep(c'), without packing c': every chunk is the coefficient
    # of c' it encodes, which is below p, and no padding bit is set
    if hmac.compare_digest(chunks.tobytes(), c_prime.c1.coeffs.tobytes() + c_prime.c2.coeffs.tobytes()) and padded:
        return h2(rep_m + c_bytes, l1)
    return h2(priv.rep_s + c_bytes, l1)
