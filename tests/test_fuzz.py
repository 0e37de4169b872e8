"""Property-based fuzzing of the parsers and of decapsulation on arbitrary bytes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgr.fileio import HEADER_LEN, MAX_FILE_LEN, FileFormatError, Header, crc64, decode_header, read_file
from sdgr.kem import (
    decode_ciphertext,
    decode_elements,
    decode_ring,
    kem_decaps,
    kem_encaps,
    kem_keygen,
    pack_bits,
    rep_len,
    rep_ring,
    unpack_bits,
)
from sdgr.params import VALID_L1
from sdgr.skewring import SkewRing

from oracles import rep_ciphertext


@pytest.fixture(scope="module")
def p19_kem(p19_params):
    priv, pk_bytes = kem_keygen(p19_params, random.Random(5))
    ct, _ = kem_encaps(pk_bytes, p19_params, random.Random(6))
    return priv, len(ct)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), l1=st.sampled_from(VALID_L1))
def test_kem_decaps_never_raises(p19_params, p19_kem, data, l1):
    priv, ct_len = p19_kem
    ct = data.draw(
        st.one_of(st.binary(max_size=2 * ct_len), st.binary(min_size=ct_len, max_size=ct_len))
    )
    assert len(kem_decaps(priv, ct, p19_params, l1=l1)) == l1 // 8


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=2 * HEADER_LEN), st.binary(min_size=4).map(lambda b: b"SDGR\x01" + b)))
def test_decode_header_returns_or_raises_file_format_error(data):
    try:
        decode_header(data)
    except FileFormatError:
        pass


def _sealed(body: bytes) -> bytes:
    return body + crc64(body).to_bytes(8, "big")


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.bin"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=MAX_FILE_LEN + 64),
        st.binary(max_size=MAX_FILE_LEN).map(_sealed),  # passes the checksum
        st.binary(max_size=64).map(lambda b: _sealed(b"SDGR\x01" + b)),
    )
)
def test_read_file_returns_or_raises_file_format_error(fuzz_file, data):
    fuzz_file.write_bytes(data)
    try:
        header, payload = read_file(fuzz_file)
    except FileFormatError:
        return
    assert isinstance(header, Header)
    assert len(payload) == len(data) - HEADER_LEN - 8 <= MAX_FILE_LEN


RINGS = [SkewRing(3, 3), SkewRing(19, 19)]


def _ring_and_bytes(count: int):
    """A ring and bytes of any length, or of exactly `count` encodings."""
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.one_of(
                st.binary(max_size=3 * count * rep_len(ring)),
                st.binary(min_size=count * rep_len(ring), max_size=count * rep_len(ring)),
            ),
        )
    )


def _assert_canonical(ring, a):
    assert a.ring is ring and a.coeffs.shape == (ring.size, 2)
    assert a.coeffs.min() >= 0 and a.coeffs.max() < ring.p


@settings(max_examples=200, deadline=None)
@given(_ring_and_bytes(1))
def test_decode_ring_returns_or_raises_value_error(ring_data):
    ring, data = ring_data
    try:
        a = decode_ring(ring, data)
    except ValueError:
        assert len(data) != rep_len(ring)
        return
    _assert_canonical(ring, a)


def _ring_and_encodings(count: int):
    """A ring and `count` concatenated rep_ring encodings, drawn as their
    coefficients, with at most one bit flipped: into a chunk >= p, into a
    padding bit, or into another encoding."""
    def draw(ring):
        k = 2 * ring.size
        values = st.lists(st.integers(0, ring.p - 1), min_size=count * k, max_size=count * k)
        w = ring.field.coeff_bits
        encodings = values.map(lambda v: b"".join(pack_bits(v[i * k : (i + 1) * k], w) for i in range(count)))
        flip = st.one_of(st.none(), st.integers(0, 8 * count * rep_len(ring) - 1)) if count else st.none()
        return st.tuples(st.just(ring), st.tuples(encodings, flip).map(_flipped))

    return st.sampled_from(RINGS).flatmap(draw)


def _flipped(encoding_bit):
    data, bit = encoding_bit
    if bit is None:
        return data
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda count: st.tuples(st.just(count), st.one_of(_ring_and_bytes(count), _ring_and_encodings(count)))
    )
)
def test_decode_elements_returns_or_raises_value_error(count_ring_data):
    count, (ring, data) = count_ring_data
    # data is canonical iff re-encoding its lenient decoding gives it back
    size = rep_len(ring)
    canonical = len(data) == count * size and data == b"".join(
        rep_ring(decode_ring(ring, data[i * size : (i + 1) * size])) for i in range(count)
    )
    try:
        elems = decode_elements(ring, data, count)
    except ValueError:
        assert not canonical
        return
    assert canonical
    assert len(elems) == count
    for a in elems:
        _assert_canonical(ring, a)
    assert b"".join(rep_ring(a) for a in elems) == data


@settings(max_examples=200, deadline=None)
@given(_ring_and_bytes(2))
def test_decode_ciphertext_returns_or_raises_value_error(ring_data):
    ring, data = ring_data
    try:
        c, chunks, padded = decode_ciphertext(ring, data)
    except ValueError:
        assert len(data) != 2 * rep_len(ring)
        return
    _assert_canonical(ring, c.c1)
    _assert_canonical(ring, c.c2)
    assert (chunks % ring.p).tolist() == [c.c1.coeffs.tolist(), c.c2.coeffs.tolist()]
    # the raw chunks and the padding flag tell exactly the canonical encodings
    assert (padded and chunks.max() < ring.p) == (rep_ciphertext(c) == data)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.integers(1, 32), st.integers(0, 64))
def test_unpack_bits_returns_or_raises_value_error(data, width, count):
    try:
        values = unpack_bits(data, width, count)
    except ValueError:
        assert len(data) * 8 < width * count
        return
    assert len(values) == count
    assert all(0 <= v < 1 << width for v in values.tolist())
    # the values are the stream's first width*count bits, so they pack back to them
    nbytes = (width * count + 7) // 8
    pad = 8 * nbytes - width * count
    expected = data[:nbytes]
    if pad:
        expected = expected[:-1] + bytes([expected[-1] & (0xFF << pad) & 0xFF])
    assert pack_bits(values, width) == expected
