import hashlib
import random
import re

import numpy as np
import pytest

import sdgr.kem
from sdgr.kem import (
    decode_ciphertext,
    decode_ring,
    encaps_key,
    h1,
    h1_output_bits,
    h2,
    kem_decaps,
    kem_encaps,
    kem_keygen,
    pack_bits,
    rep_ciphertext,
    rep_len,
    rep_ring,
    unpack_bits,
)
from sdgr.params import PARAM_SETS, Params, make_params
from sdgr.pke import pke_enc, sample_message
from sdgr.skewring import SkewRing, SubspaceTag


# -- bit packing ---------------------------------------------------------------


def test_pack_bits_msb_first():
    # 5-bit values 1, 2 -> 00001 00010 padded: 0000100010000000
    assert pack_bits([1, 2], 5) == bytes([0b00001000, 0b10000000])


def test_pack_unpack_roundtrip():
    rng = random.Random(12)
    for width in (2, 5, 6, 7, 11):
        values = [rng.randrange(1 << width) for _ in range(97)]
        data = pack_bits(values, width)
        assert unpack_bits(data, width, len(values)).tolist() == values


def test_pack_bits_range_check():
    for width in range(1, 33):
        top = (1 << width) - 1
        nbytes = (width + 7) // 8
        assert pack_bits([top], width) == (top << (8 * nbytes - width)).to_bytes(nbytes, "big")
        assert pack_bits([], width) == b""
        for bad in ([1 << width], [-1], [0, -1, top, 1 << width]):
            message = f"values must fit in {width} bits, got {min(bad)} .. {max(bad)}"
            with pytest.raises(ValueError, match=re.escape(message)):
                pack_bits(bad, width)
    # beyond int64: numpy holds these as uint64 or as Python objects
    for bad in ([1 << 63], [1 << 64], [-1, 1 << 64]):
        with pytest.raises(ValueError, match="values must fit in 5 bits"):
            pack_bits(bad, 5)
    with pytest.raises(ValueError):
        unpack_bits(b"\x00", 5, 10)


# -- canonical serialization ---------------------------------------------------


def test_rep_len(p19_params, toy_params):
    # p19: 38 coefficient pairs * 2 * 5 bits = 380 bits -> 48 bytes
    assert rep_len(p19_params.ring) == 48
    # toy: 6 pairs * 2 * 2 bits = 24 bits -> 3 bytes
    assert rep_len(toy_params.ring) == 3


def test_rep_ring_roundtrip(p19_params, rng):
    for _ in range(100):
        a = p19_params.ring.sample_ring(rng)
        blob = rep_ring(a)
        assert len(blob) == rep_len(p19_params.ring)
        assert decode_ring(p19_params.ring, blob) == a


def test_rep_ring_known_bytes(toy_ring):
    # basis element x^0 with coefficient (1, 0): values 1,0,0,... width 2
    blob = rep_ring(toy_ring.one())
    assert blob == bytes([0b01000000, 0, 0])


def test_decode_ring_reduces_out_of_range(toy_ring):
    # width-2 chunk value 3 is out of range mod 3 and reduces to 0
    blob = bytes([0b11000000, 0, 0])
    assert decode_ring(toy_ring, blob) == toy_ring.zero()


def test_decode_ring_length_check(toy_ring):
    with pytest.raises(ValueError):
        decode_ring(toy_ring, b"\x00\x00")


def test_ciphertext_roundtrip(p19_params, rng):
    from sdgr.pke import pke_enc, pke_gen, sample_message, sample_randomness

    kp = pke_gen(p19_params, rng)
    m = sample_message(p19_params, rng)
    c = pke_enc(m, kp.pk, sample_randomness(p19_params, rng), p19_params)
    blob = rep_ciphertext(c)
    assert len(blob) == 2 * rep_len(p19_params.ring)
    back, chunks, padded = decode_ciphertext(p19_params.ring, blob)
    assert back.c1 == c.c1 and back.c2 == c.c2
    assert padded and chunks.tolist() == [c.c1.coeffs.tolist(), c.c2.coeffs.tolist()]


# -- hash functions ------------------------------------------------------------


def test_h1_output_bits_table():
    assert h1_output_bits(19, 1, 19) == 290
    assert h1_output_bits(23, 1, 23) == 350
    assert h1_output_bits(31, 1, 31) == 470
    assert h1_output_bits(41, 1, 41) == 744


def test_h1_returns_valid_secret_pair(p19_params):
    for i in range(30):
        sk = h1(i.to_bytes(4, "big"), p19_params)
        assert sk.a.classify() is SubspaceTag.CN_ONLY
        assert p19_params.ring.is_reversible(sk.gamma)
        assert not sk.gamma.is_zero()


def test_h1_is_deterministic(p19_params):
    assert h1(b"seed", p19_params).a == h1(b"seed", p19_params).a
    assert h1(b"seed", p19_params).gamma == h1(b"seed", p19_params).gamma


def test_h1_matches_shake_stream(p19_params):
    # first coefficient of a equals the leading 5-bit chunks of SHAKE256(data),
    # reduced mod 19
    data = b"known-answer"
    ring = p19_params.ring
    nbytes = (5 * 2 * (19 + 10) + 7) // 8
    stream = hashlib.shake_256(data).digest(nbytes)
    values = unpack_bits(stream, 5, 2 * 29)
    sk = h1(data, p19_params)
    assert sk.a.coefficient(0) == (values[0] % 19, values[1] % 19)


def test_h2_domain_prefix():
    assert h2(b"abc", 128) == hashlib.shake_256(b"\x02abc").digest(16)
    assert len(h2(b"abc", 192)) == 24
    assert len(h2(b"abc", 256)) == 32
    with pytest.raises(ValueError):
        h2(b"abc", 64)


# -- KEM ----------------------------------------------------------------------


def test_kem_round_trip(p19_params, rng):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    for l1 in (128, 192, 256):
        for _ in range(10):
            ct, key = kem_encaps(pk_bytes, p19_params, rng, l1=l1)
            assert kem_decaps(priv, ct, p19_params, l1=l1) == key
            assert len(key) == l1 // 8


def test_kem_tamper_gives_different_key(p19_params, rng):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    for _ in range(20):
        ct, key = kem_encaps(pk_bytes, p19_params, rng, l1=128)
        pos = rng.randrange(len(ct))
        tampered = bytearray(ct)
        tampered[pos] ^= 1 << rng.randrange(8)
        key2 = kem_decaps(priv, bytes(tampered), p19_params, l1=128)
        assert key2 != key
        assert len(key2) == 16  # implicit rejection still yields a key


def test_kem_rejection_is_deterministic(p19_params, rng):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    ct, _ = kem_encaps(pk_bytes, p19_params, rng)
    bad = bytes([ct[0] ^ 0xFF]) + ct[1:]
    assert kem_decaps(priv, bad, p19_params) == kem_decaps(priv, bad, p19_params)


def test_kem_truncated_ciphertext(p19_params, rng):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    ct, key = kem_encaps(pk_bytes, p19_params, rng)
    short = kem_decaps(priv, ct[:-1], p19_params)
    assert short != key and len(short) == 16


def test_kem_toy_round_trip(toy_params, rng):
    priv, pk_bytes = kem_keygen(toy_params, rng)
    for _ in range(20):
        ct, key = kem_encaps(pk_bytes, toy_params, rng)
        assert kem_decaps(priv, ct, toy_params) == key


def test_kem_seeded_reproducibility(p19_params):
    priv1, pk1 = kem_keygen(p19_params, random.Random(3))
    priv2, pk2 = kem_keygen(p19_params, random.Random(3))
    assert pk1 == pk2
    c1, k1 = kem_encaps(pk1, p19_params, random.Random(4))
    c2, k2 = kem_encaps(pk2, p19_params, random.Random(4))
    assert c1 == c2 and k1 == k2


def test_warm_kem_op_builds_two_operators(operator_builds, adjunct_calls):
    # h and pk live in the encaps key's kept operator, and the long-term
    # secret keeps (u, v) and the circulants decryption multiplies c1 by, so
    # a warm op builds the circulants of the ephemeral gamma2 in encaps and of
    # the re-encryption's gamma2 in decaps, and none of c1; no full product
    # operator and no adjunct is formed
    params = make_params("p41", seed=1)
    rng = random.Random(2)
    priv, pk_bytes = kem_keygen(params, rng)
    ct, key = kem_encaps(pk_bytes, params, rng)
    assert kem_decaps(priv, ct, params) == key
    kept = {id(params.h), id(priv.pk), id(priv.sk.gamma), *map(id, priv.sk.cross_operands)}
    for tampered in (False, True):
        operator_builds.clear()
        adjunct_calls.clear()
        ct, key = kem_encaps(pk_bytes, params, rng)
        if tampered:
            ct = bytes([ct[0] ^ 1]) + ct[1:]
        assert (kem_decaps(priv, ct, params) == key) is not tampered
        assert [kind for kind, _ in operator_builds] == ["circulant"] * 2
        built = [b for _, b in operator_builds]
        assert [params.ring.is_reversible(b) for b in built] == [True, True]
        assert not kept & {id(b) for b in built}
        assert adjunct_calls == []


def test_warm_kem_op_runs_no_skew_product(monkeypatch):
    params = make_params("p41", seed=1)
    rng = random.Random(2)
    priv, pk_bytes = kem_keygen(params, rng)
    ct, key = kem_encaps(pk_bytes, params, rng)
    assert kem_decaps(priv, ct, params) == key
    calls = []
    for name in ("mul", "mul_adjunct", "right_operator"):
        real = getattr(SkewRing, name)
        monkeypatch.setattr(SkewRing, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for tampered in (False, True):
        ct, key = kem_encaps(pk_bytes, params, rng)
        if tampered:
            ct = bytes([ct[0] ^ 1]) + ct[1:]
        assert (kem_decaps(priv, ct, params) == key) is not tampered
    assert calls == []


def test_implicit_rejection_encodes_s_once(p19_params, rng, monkeypatch):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    encoded = []
    rep = sdgr.kem.rep_ring
    monkeypatch.setattr(sdgr.kem, "rep_ring", lambda a: encoded.append(a) or rep(a))
    for _ in range(3):
        ct, key = kem_encaps(pk_bytes, p19_params, rng)
        # a tampered ciphertext fails the re-encryption check, a short one its decoding
        for bad in (bytes([ct[0] ^ 1]) + ct[1:], ct[:-1]):
            assert kem_decaps(priv, bad, p19_params) == h2(rep(priv.s) + bad, 128)
    assert [a for a in encoded if a is priv.s] == [priv.s]


# -- non-canonical ciphertexts -------------------------------------------------


@pytest.fixture(scope="module", params=sorted(PARAM_SETS))
def kem_instance(request):
    """(params, priv, [(ct, key)]) for a few honest encapsulations."""
    params = make_params(request.param, seed=11)
    rng = random.Random(12)
    priv, pk_bytes = kem_keygen(params, rng)
    return params, priv, [kem_encaps(pk_bytes, params, rng) for _ in range(3)]


def _assert_rejected(priv, ct, params):
    assert kem_decaps(priv, ct, params) == h2(rep_ring(priv.s) + ct, 128)


def test_chunk_plus_p_is_rejected(kem_instance):
    # a chunk c and c + p decode to the same element, so only the check that
    # c is rep(c') tells the two ciphertexts apart
    params, priv, cts = kem_instance
    ring, p, size = params.ring, params.p, rep_len(params.ring)
    w = ring.field.coeff_bits
    forged = 0
    for ct, key in cts:
        assert kem_decaps(priv, ct, params) == key
        for e in (0, 1):
            part = ct[e * size : (e + 1) * size]
            chunks = unpack_bits(part, w, 2 * ring.size)
            for i in np.flatnonzero(chunks + p < 1 << w):
                bad = chunks.copy()
                bad[i] += p
                bad_part = pack_bits(bad, w)
                assert decode_ring(ring, bad_part) == decode_ring(ring, part)
                _assert_rejected(priv, ct[: e * size] + bad_part + ct[(e + 1) * size :], params)
                forged += 1
    assert forged


def test_padding_bit_is_rejected(kem_instance):
    params, priv, cts = kem_instance
    ring, size = params.ring, rep_len(params.ring)
    pad = 8 * size - 2 * ring.size * ring.field.coeff_bits
    assert (pad > 0) == (params.p in (19, 23, 31))
    for ct, key in cts:
        for e in (0, 1):
            last = (e + 1) * size - 1
            for bit in range(pad):
                bad = bytearray(ct)
                bad[last] |= 1 << bit
                assert decode_ring(ring, bad[e * size : last + 1]) == decode_ring(ring, ct[e * size : last + 1])
                _assert_rejected(priv, bytes(bad), params)


def test_every_one_bit_flip_is_rejected(kem_instance):
    params, priv, cts = kem_instance
    ct, _ = cts[0]
    for bit in range(8 * len(ct)):
        bad = bytearray(ct)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        _assert_rejected(priv, bytes(bad), params)


# -- encaps key cache ----------------------------------------------------------


def test_encaps_key_cache_keeps_outputs(p19_params):
    keys = [kem_keygen(p19_params, random.Random(seed)) for seed in (5, 6)]
    cached = [kem_encaps(keys[i % 2][1], p19_params, random.Random(i)) for i in range(6)]
    fresh = []
    for i in range(6):
        encaps_key.cache_clear()
        fresh.append(kem_encaps(keys[i % 2][1], p19_params, random.Random(i)))
    assert cached == fresh
    for i, (ct, key) in enumerate(cached):
        assert kem_decaps(keys[i % 2][0], ct, p19_params) == key


def test_encaps_key_belongs_to_the_callers_ring():
    # the cache is keyed on the params, so no kept operator serves another
    # Params, even one with an equal h on another ring
    first, second = make_params("p19", seed=5), make_params("p19", seed=5)
    assert first.ring is not second.ring
    _, pk_bytes = kem_keygen(first, random.Random(1))
    encaps_key.cache_clear()
    for params in (first, second, first):
        kem_encaps(pk_bytes, params, random.Random(2))
    assert encaps_key.cache_info().misses == 3


def test_kept_operator_follows_h(p19_params):
    # two Params on one ring with different h: a cache keyed on the ring
    # alone would encrypt under the other h's operator
    ring = p19_params.ring
    other = Params(ring=ring, h=ring.gen_public_element(random.Random(9)))
    _, pk_bytes = kem_keygen(p19_params, random.Random(1))
    pk = decode_ring(ring, pk_bytes)
    cts = []
    for params in (p19_params, other, p19_params, other):
        ct, key = kem_encaps(pk_bytes, params, random.Random(2))
        m = sample_message(params, random.Random(2))
        assert ct == rep_ciphertext(pke_enc(m, pk, h1(rep_ring(m) + pk_bytes, params), params))
        cts.append(ct)
    assert cts[0] == cts[2] != cts[1] == cts[3]


def test_encaps_key_errors_are_not_cached(p19_params, rng):
    _, pk_bytes = kem_keygen(p19_params, rng)
    for _ in range(3):
        with pytest.raises(ValueError):
            kem_encaps(pk_bytes[:-1], p19_params, rng)
        kem_encaps(pk_bytes, p19_params, rng)


def test_encaps_key_takes_a_bytearray(p19_params, rng):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    encaps_key.cache_clear()
    ct, key = kem_encaps(bytearray(pk_bytes), p19_params, random.Random(3))
    assert (ct, key) == kem_encaps(pk_bytes, p19_params, random.Random(3))
    assert kem_decaps(priv, ct, p19_params) == key


def test_cached_encaps_key_is_read_only(p19_params, rng):
    _, pk_bytes = kem_keygen(p19_params, rng)
    rep_pk, op = encaps_key(p19_params, pk_bytes)
    assert rep_pk == pk_bytes
    assert op.shape == (2, 2 * p19_params.n, 2 * p19_params.n)
    assert not op.flags.writeable
    with pytest.raises(ValueError):
        op[0, 0, 0] = 1
