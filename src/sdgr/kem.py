"""CCA-targeted KEM: the implicit-rejection FO-style transform of the PKE.

Hash functions are SHAKE256 (FIPS 202).  H1 maps a byte string to a secret
pair by chunking an o-bit XOF stream, o = ceil(log2 p) * 2m * (n + ceil((n+1)/2)),
into ceil(log2 p)-bit integers reduced mod p.  H2 prepends the domain byte
0x02 and truncates to the session-key length.  rep() is the canonical
fixed-width big-endian MSB-first bit packing of a coefficient vector:
pack_bits reads every value's bits in one take from a kept, read-only
(256, 8) table of each byte's bits, and unpack_bits weighs the unpacked
bits with kept, read-only weights per width, returning int64.

Encaps sends c = Enc(pk, m; H1(rep(m) || rep(pk))) on raw arrays, through
pke's kernels and the pk element encaps_key keeps per params and rep(pk).
Decaps unpacks c once, decrypts the raw chunks and re-derives only c1' =
public_value(r') of H1's pair r' = (u', v') for m: it accepts iff the c1
chunks are c1', every c2 chunk is below p and no padding bit is set.  When
pk is sk's public value under decaps' params (pk_Y = u h_C, pk_C = v h_Y),
that is the FO check rep(c') == c of the re-encryption c': R is
commutative, so c1 = c1' makes the mask u' pk_Y + (v' pk_C) y the k = u
c1_Y + (v c1_C) y that decrypt took away, and c2' = m + k is c2 mod p; a
chunk >= p never equals a coefficient, and rep pads with zeros.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kex import SecretPair
from .params import VALID_L1, Params
from .pke import Ciphertext, PkeKeypair, decrypt, encrypt, pke_gen, sample_message
from .skewring import Frozen, RingElement, SkewRing, _set

H2_PREFIX = b"\x02"


# -- bit packing --------------------------------------------------------------


@lru_cache(maxsize=1)
def _byte_bits() -> np.ndarray:
    """Each byte's bits, MSB first: a read-only (256, 8) uint8 table built on
    first use, so a process that never packs runs no numpy code for it."""
    table = (np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1).astype(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _bit_weights(width: int) -> np.ndarray:
    """The read-only int64 weights of a width-bit chunk's bits, MSB first."""
    weights = 1 << np.arange(width - 1, -1, -1)
    weights.setflags(write=False)
    return weights


def _check_width(width: int) -> None:
    if not 1 <= width <= 32:
        raise ValueError(f"width must be 1 .. 32 bits, got {width}")


def pack_bits(values: Sequence[int] | np.ndarray, width: int) -> bytes:
    """Pack fixed-width unsigned integers into an MSB-first bitstream,
    zero-padding the final byte; a 2-D input packs and pads each row."""
    _check_width(width)
    v = np.asarray(values)
    # v >> width is non-zero exactly for the values outside [0, 2^width); the
    # size test keeps an empty input, which asarray makes float64, off the shift
    if v.size and np.count_nonzero(v >> width):
        raise ValueError(f"values must fit in {width} bits, got {v.min()} .. {v.max()}")
    # one take of each byte's bits, of the values' big-endian bytes (of the
    # values themselves for width <= 8), keeping the low width bits
    nbytes = 1 if width <= 8 else 2 if width <= 16 else 4
    index = v.astype(np.int64, copy=False) if width <= 8 else v.astype(f">u{nbytes}").view(np.uint8)
    bits = _byte_bits().take(index, axis=0).reshape(*v.shape, 8 * nbytes)[..., 8 * nbytes - width :]
    return np.packbits(bits.reshape(*v.shape[:-1], -1), axis=-1).tobytes()


def unpack_bits(data: bytes | np.ndarray, width: int, count: int) -> np.ndarray:
    """Read `count` fixed-width integers, as int64, from an MSB-first
    bitstream, or from each row of a 2-D uint8 array of equal-length streams."""
    _check_width(width)
    stream = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    if stream.shape[-1] * 8 < width * count:
        raise ValueError("bitstream too short")
    bits = np.unpackbits(stream, axis=-1, count=width * count)
    return bits.reshape(*stream.shape[:-1], count, width) @ _bit_weights(width)


# -- canonical serialization ---------------------------------------------------


def rep_len(ring: SkewRing) -> int:
    bits = ring.size * 2 * ring.field.coeff_bits
    return (bits + 7) // 8


def rep_ring(a: RingElement) -> bytes:
    """Canonical encoding: coefficients in index order, c0 then c1, each as a
    ceil(log2 p)-bit big-endian integer, MSB-first packed."""
    return pack_bits(a.coeffs.ravel(), a.ring.field.coeff_bits)


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
    """Inverse of concatenating `count` rep_ring encodings; raises ValueError
    unless data is exactly such a concatenation (chunks below p, zero padding)."""
    chunks, padded = unpack_elements(ring, data, count)
    if not padded or np.count_nonzero(chunks >= ring.p):
        raise ValueError("non-canonical encoding: a coefficient chunk >= p or a padding bit set")
    return [RingElement(ring, chunk) for chunk in chunks]


def decode_ring(ring: SkewRing, data: bytes) -> RingElement:
    """Inverse of rep_ring.  Out-of-range chunks are reduced mod p, so decoding
    never rejects; kem_decaps rejects non-canonical ciphertexts itself."""
    return RingElement(ring, unpack_elements(ring, data, 1)[0][0] % ring.p)


def decode_ciphertext(ring: SkewRing, data: bytes) -> tuple[Ciphertext, np.ndarray, bool]:
    """(c, chunks, padded): c decoded as decode_ring does, its chunks reduced
    mod p, with the raw chunks and the padding flag of unpack_elements."""
    chunks, padded = unpack_elements(ring, data, 2)
    c1, c2 = (RingElement(ring, chunk % ring.p) for chunk in chunks)
    return Ciphertext(c1=c1, c2=c2), chunks, padded


# -- hash functions ------------------------------------------------------------


def h1_output_bits(p: int, m: int, n: int) -> int:
    """o = ceil(log2 p) * 2m * (n + ceil((n+1)/2))."""
    w = (p - 1).bit_length()
    return w * 2 * m * (n + (n + 2) // 2)


def h1(data: bytes, params: Params) -> SecretPair:
    """The secret pair of h1_values, valid by construction."""
    return SecretPair.from_values(params.ring, h1_values(data, params))


def h1_values(data: bytes, params: Params) -> np.ndarray:
    """Derive a secret pair's values (see SkewRing.pair_from_values) from an
    o-bit SHAKE256 stream.

    Chunks are reduced mod p; the first n field elements form a, the next
    ceil((n+1)/2) fill gamma's free coordinates.  A zero a or gamma triggers a
    deterministic retry with a 0x00 byte appended, so the map stays a function.
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
        if np.count_nonzero(values[:n]) and np.count_nonzero(values[n:]):
            break
        buf = buf + b"\x00"
    return values


def h2(data: bytes, l1: int) -> bytes:
    """Session key: SHAKE256(0x02 || data) truncated to l1 bits."""
    if l1 not in VALID_L1:
        raise ValueError(f"l1 must be one of {VALID_L1}, got {l1}")
    return hashlib.shake_256(H2_PREFIX + data).digest(l1 // 8)


# -- KEM ----------------------------------------------------------------------


class KemPrivate(Frozen):
    """Decapsulation state: implicit-rejection seed s, PKE secret sk, pk,
    and the encodings rep_pk and rep_s that decaps hashes, built here once,
    so no decapsulation writes to the key.  Decaps' check needs pk to be
    sk's public value under its params, as kem_keygen's is and the CLI
    checks.  Immutable, in declared slots; compared by identity."""

    __slots__ = ("s", "sk", "pk", "rep_pk", "rep_s")

    def __init__(self, s: RingElement, sk: SecretPair, pk: RingElement) -> None:
        _set(self, "s", s)
        _set(self, "sk", sk)
        _set(self, "pk", pk)
        _set(self, "rep_pk", rep_ring(pk))
        _set(self, "rep_s", rep_ring(s))


def kem_keygen(params: Params, rng) -> tuple[KemPrivate, bytes]:
    kp: PkeKeypair = pke_gen(params, rng)
    priv = KemPrivate(s=sample_message(params, rng), sk=kp.sk, pk=kp.pk)
    return priv, priv.rep_pk


@lru_cache(maxsize=1)
def encaps_key(params: Params, pk_bytes: bytes) -> RingElement:
    """The pk element, which keeps pk's circulants, of the last encaps key that
    decoded, under the params it was used with, so it is of their ring.
    Raises ValueError unless pk_bytes is rep(pk), as FIPS 203 7.2 asks."""
    return decode_elements(params.ring, pk_bytes, 1)[0]


def kem_encaps(pk_bytes: bytes, params: Params, rng, l1: int = 128) -> tuple[bytes, bytes]:
    """(rep(c), H2(rep(m) || rep(c))) for c = Enc(pk, m; H1(rep(m) || rep(pk)))
    and a fresh m; ValueError unless pk_bytes is rep(pk)."""
    ring, w = params.ring, params.ring.field.coeff_bits
    m, pk_bytes = sample_message(params, rng).coeffs, bytes(pk_bytes)
    rep_m = pack_bits(m.ravel(), w)
    c = encrypt(m, encaps_key(params, pk_bytes), ring.pair_rows(h1_values(rep_m + pk_bytes, params)), params)
    c_bytes = pack_bits(c.reshape(2, -1), w)
    return c_bytes, h2(rep_m + c_bytes, l1)


def kem_decaps(priv: KemPrivate, c_bytes: bytes, params: Params, l1: int = 128) -> bytes:
    """Implicit rejection: a failed check yields the key H2(rep(s) || c)
    instead of an error.  The check re-derives only c1' of H1's pair for the
    decrypted m, which equals the full re-encryption check when priv.pk is
    priv.sk's public value under params (see the module docstring)."""
    ring = params.ring
    try:
        chunks, padded = unpack_elements(ring, c_bytes, 2)
    except ValueError:
        return h2(priv.rep_s + c_bytes, l1)
    m = decrypt(chunks, priv.sk.w)
    rep_m = pack_bits(m.ravel(), ring.field.coeff_bits)
    c1 = ring.cross_mul(ring.pair_rows(h1_values(rep_m + priv.rep_pk, params)), params.h)
    canonical = padded and not np.count_nonzero(chunks[1] >= ring.p)
    if hmac.compare_digest(chunks[0].tobytes(), c1.tobytes()) and canonical:
        return h2(rep_m + c_bytes, l1)
    return h2(priv.rep_s + c_bytes, l1)
