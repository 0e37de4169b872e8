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
    rep_len,
    rep_ring,
    unpack_bits,
    unpack_elements,
)
from sdgr.params import PARAM_SETS, VALID_L1, Params, make_params
import sdgr.pke
from sdgr.pke import pke_dec, pke_enc, pke_gen, sample_message, sample_randomness
from sdgr.skewring import RingElement, SkewRing, SubspaceTag

from cases import TABLE_CASES, on_params
from oracles import decaps_by_re_encryption, reference_pack, rep_ciphertext


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


@pytest.mark.parametrize("width", [-1, 0, 33, 64])
def test_codec_refuses_widths_outside_1_to_32(width):
    # the kept tables hold at most 32 bits a value: a wider or non-positive
    # width would pack or unpack wrong values without an error
    with pytest.raises(ValueError, match="width must be 1 .. 32"):
        pack_bits([2**32 + 5, 3], width)
    with pytest.raises(ValueError, match="width must be 1 .. 32"):
        unpack_bits(b"\xff" * 16, width, 1)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_two_row_pack_is_two_single_packs(name):
    # each row is padded on its own: p19, p23 and p31 pad their last byte,
    # toy and p41 do not
    ring = SkewRing(*PARAM_SETS[name])
    w = ring.field.coeff_bits
    assert (2 * ring.size * w % 8 != 0) == (name in ("p19", "p23", "p31"))
    rng = random.Random(13)
    rows = np.stack([ring.sample_ring(rng).coeffs.ravel() for _ in range(2)])
    rows[1, -1] = (1 << w) - 1
    packed = pack_bits(rows, w)
    assert packed == pack_bits(rows[0], w) + pack_bits(rows[1], w)
    assert len(packed) == 2 * rep_len(ring)
    assert unpack_elements(ring, packed, 2)[0].reshape(2, -1).tolist() == rows.tolist()
    rows[1, 0] = 1 << w
    with pytest.raises(ValueError, match=f"values must fit in {w} bits"):
        pack_bits(rows, w)


@pytest.mark.parametrize("width", range(1, 33))
def test_codec_at_every_width(width):
    # a 2-D pack is the row packs concatenated, and unpack_bits reads int64
    # back from one stream and from a 2-D array of streams; 13 values pad
    # every width but multiples of 8, and the set values reach its top bit
    rng = random.Random(width)
    rows = np.array([[rng.randrange(1 << width) for _ in range(13)] for _ in range(3)])
    rows[0, 0], rows[2, -1] = (1 << width) - 1, 1 << (width - 1)
    singles = [reference_pack(row.tolist(), width) for row in rows]
    assert [pack_bits(row, width) for row in rows] == singles
    packed = pack_bits(rows, width)
    assert packed == b"".join(singles)
    one = unpack_bits(singles[0], width, 13)
    each = unpack_bits(np.frombuffer(packed, dtype=np.uint8).reshape(3, -1), width, 13)
    assert one.dtype == each.dtype == np.int64
    assert one.tolist() == rows[0].tolist() and each.tolist() == rows.tolist()


def test_kept_codec_tables_are_read_only():
    # every later encoding reads them: no caller may write to them
    table = sdgr.kem._byte_bits()
    assert table.shape == (256, 8) and table.dtype == np.uint8
    assert [int("".join(map(str, bits)), 2) for bits in table.tolist()] == list(range(256))
    for kept in (table, *(sdgr.kem._bit_weights(width) for width in (1, 6, 32))):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0
    assert sdgr.kem._bit_weights(6).tolist() == [32, 16, 8, 4, 2, 1]


def test_byte_table_is_built_only_by_packing(run_python):
    # kex sessions import the codec but never pack: they build no table
    script = (
        "import random, sdgr.kem\n"
        "from sdgr.kex import kex_keygen, kex_shared\n"
        "from sdgr.params import make_params\n"
        "params, rng = make_params('toy', seed=1), random.Random(1)\n"
        "(sk, _), (_, pk) = kex_keygen(params, rng), kex_keygen(params, rng)\n"
        "kex_shared(sk, pk)\n"
        "assert sdgr.kem._byte_bits.cache_info().currsize == 0\n"
        "sdgr.kem.pack_bits([1], 5)\n"
        "assert sdgr.kem._byte_bits.cache_info().currsize == 1\n"
    )
    out = run_python("-c", script)
    assert out.returncode == 0, out.stderr


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


H1_PAIRS = {
    "toy": "c0479af3579fd76b7ab45da2463e0929181581dd7108283aace8440f86fa5eeb",
    "p19": "629ce79fa2838071b73b5f1187059ef53f4b90f6cb27170588f917cde73ced71",
    "p23": "9f1f6cd27069bf6c689e849c5a51b33c285f08881294181fff19e952a20c0d68",
    "p31": "633cf511d72c57a52f13cca13c68270517bbb2c40152446d29666bcb24b12cea",
    "p41": "dc3bdb0069438dcb6672373dd05fe1a0fa2b2269c6e6e8d48b16f5e232a59183",
}


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_h1_pair_known_answers(name):
    # rep(a) || rep(gamma) of three h1 pairs, frozen as digests the way
    # tests/test_kat.py freezes scheme outputs: a and gamma are built from
    # the values the pair keeps, and must be the elements h1 always gave
    params = make_params(name, seed=1)
    pairs = [h1(data, params) for data in (b"", b"seed", b"known-answer")]
    out = b"".join(rep_ring(sk.a) + rep_ring(sk.gamma) for sk in pairs)
    assert hashlib.shake_256(out).hexdigest(32) == H1_PAIRS[name]


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
    _round_trip(p19_params, rng, 10)


def test_keygen_returns_the_kept_rep_pk(p19_params, rng):
    # the key bytes are packed once: decaps reads the same object
    priv, pk_bytes = kem_keygen(p19_params, rng)
    assert pk_bytes is priv.rep_pk
    assert pk_bytes == rep_ring(priv.pk)


def test_kem_tamper_gives_different_key(p19_params, rng):
    _rejected(p19_params, rng, "flip", count=10)


def test_kem_rejection_is_deterministic(p19_params, rng):
    _rejected(p19_params, rng, "flip", count=1)


def test_kem_truncated_ciphertext(p19_params, rng):
    _rejected(p19_params, rng, "truncated", count=1)


def test_kem_toy_round_trip(toy_params, rng):
    _round_trip(toy_params, rng, 7)


def test_kem_seeded_reproducibility(p19_params):
    priv1, pk1 = kem_keygen(p19_params, random.Random(3))
    priv2, pk2 = kem_keygen(p19_params, random.Random(3))
    assert pk1 == pk2
    c1, k1 = kem_encaps(pk1, p19_params, random.Random(4))
    c2, k2 = kem_encaps(pk2, p19_params, random.Random(4))
    assert c1 == c2 and k1 == k2


def test_warm_kem_op_builds_two_operators(operator_builds, adjunct_calls, pair_from_values_calls):
    # h and pk live in the encaps key's kept operator, and the long-term
    # secret keeps its rows [v; u] and w = u + v y, whose circulants
    # decryption multiplies c1 by, so a warm op builds the operators of the
    # ephemeral gamma2 in encaps and of the re-encryption's gamma2 in decaps,
    # one pair_rows call each on H1's values, and none of c1; no full product
    # operator and no adjunct is formed
    params = make_params("p41", seed=1)
    rng = random.Random(2)
    priv, pk_bytes = kem_keygen(params, rng)
    ct, key = kem_encaps(pk_bytes, params, rng)
    assert kem_decaps(priv, ct, params) == key
    # the first decaps built w's circulants, once, and the secret keeps them
    assert sum(b is priv.sk.w for _, b in operator_builds) == 1
    kept = {id(params.h), id(priv.pk), id(priv.sk.values), id(priv.sk.w)}
    for tampered in (False, True):
        operator_builds.clear()
        adjunct_calls.clear()
        ct, key = kem_encaps(pk_bytes, params, rng)
        if tampered:
            ct = bytes([ct[0] ^ 1]) + ct[1:]
        assert (kem_decaps(priv, ct, params) == key) is not tampered
        assert [kind for kind, _ in operator_builds] == ["pair_rows"] * 2
        built = [b for _, b in operator_builds]
        assert [values.shape for values in built] == [(params.ring.n + params.ring.gamma_free_count(), 2)] * 2
        assert not kept & {id(b) for b in built}
        assert adjunct_calls == []
    # no secret pair, the key pair's included, is built as ring elements
    assert pair_from_values_calls == []


def test_warm_kem_op_runs_no_skew_product(monkeypatch):
    params = make_params("p41", seed=1)
    rng = random.Random(2)
    priv, pk_bytes = kem_keygen(params, rng)
    ct, key = kem_encaps(pk_bytes, params, rng)
    assert kem_decaps(priv, ct, params) == key
    calls = []
    mul = SkewRing.mul
    monkeypatch.setattr(SkewRing, "mul", lambda *args: calls.append(args) or mul(*args))
    for tampered in (False, True):
        ct, key = kem_encaps(pk_bytes, params, rng)
        if tampered:
            ct = bytes([ct[0] ^ 1]) + ct[1:]
        assert (kem_decaps(priv, ct, params) == key) is not tampered
    assert calls == []


def test_implicit_rejection_encodes_s_once(p19_params, rng, monkeypatch):
    # s is encoded once, when the key is built, and never by kem_decaps,
    # whose rejections leave the key's encodings the objects they were
    encoded = []
    rep = sdgr.kem.rep_ring
    monkeypatch.setattr(sdgr.kem, "rep_ring", lambda a: encoded.append(a) or rep(a))
    priv, pk_bytes = kem_keygen(p19_params, rng)
    assert [a for a in encoded if a is priv.s] == [priv.s]
    rep_pk, rep_s = priv.rep_pk, priv.rep_s
    for _ in range(3):
        ct, key = kem_encaps(pk_bytes, p19_params, rng)
        # a tampered ciphertext fails the re-encryption check, a short one its decoding
        for bad in (bytes([ct[0] ^ 1]) + ct[1:], ct[:-1]):
            assert kem_decaps(priv, bad, p19_params) == h2(rep(priv.s) + bad, 128)
            assert priv.rep_pk is rep_pk and priv.rep_s is rep_s
    assert [a for a in encoded if a is priv.s] == [priv.s]


# -- the KEM against decaps by full re-encryption, on the case table and part by part --


def _round_trip(params, rng, count=1):
    # at every l1, encaps sends rep(Enc(pk, m; H1(rep(m) || rep(pk)))) and
    # the key H2(rep(m) || c), which decaps gives back
    priv, pk_bytes = kem_keygen(params, rng)
    for l1 in VALID_L1 * count:
        seed = rng.getrandbits(32)
        ct, key = kem_encaps(pk_bytes, params, random.Random(seed), l1=l1)
        m = sample_message(params, random.Random(seed))
        c = pke_enc(m, priv.pk, h1(rep_ring(m) + pk_bytes, params), params)
        assert ct == rep_ciphertext(c) and pke_dec(c, priv.sk) == m
        assert key == h2(rep_ring(m) + ct, l1) == kem_decaps(priv, ct, params, l1=l1)
        assert key == decaps_by_re_encryption(priv, ct, params, l1)


def _forged(kind, ring, ct, rng):
    """The forgeries of one rejection class made from the honest ct."""
    if kind == "truncated":
        return [ct[:-1]]
    if kind == "random":
        return [rng.randbytes(len(ct))]
    half, w, p = 4 * len(ct), ring.field.coeff_bits, ring.p
    chunks = unpack_bits(np.frombuffer(ct, dtype=np.uint8).reshape(2, -1), w, 2 * ring.size)
    bits, edits = [], []
    if kind == "flip":  # one bit in c1 and one in c2
        bits = [rng.randrange(half), half + rng.randrange(half)]
    elif kind == "every bit":
        bits = range(2 * half)
    elif kind == "padding":  # each padding bit of either half, where the encoding has one
        bits = [(e + 1) * half - 1 - i for e in (0, 1) for i in range(half - 2 * ring.size * w)]
    elif kind == "other c2":  # the honest c1 with another canonical c2
        edits = [(1, 0, (chunks[1, 0] + 1) % p)]
    else:
        # c and c + p decode alike, so only the check that c is rep(c') tells
        # them apart.  Either half: "every plus p" on every chunk where it fits,
        # "plus p" on each zero chunk (p passes a c2 test "> p") and 3 drawn
        for e in (0, 1):
            fits = np.flatnonzero(chunks[e] + p < 1 << w).tolist()
            if kind == "plus p":
                fits = [*np.flatnonzero(chunks[e] == 0), *rng.sample(fits, min(3, len(fits)))]
            edits += [(e, i, chunks[e, i] + p) for i in fits]
    forged = [ct[: b // 8] + bytes([ct[b // 8] ^ 0x80 >> b % 8]) + ct[b // 8 + 1 :] for b in bits]
    for e, i, value in edits:
        bad = chunks.copy()
        bad[e, i] = value
        forged.append(pack_bits(bad, w))
    return forged


def _rejected(params, rng, *kinds, count=2):
    """Each forgery of `count` honest ciphertexts, of the classes kinds or of
    all of them, gets the key H2(rep(s) || c) that decaps by full
    re-encryption gives; a "plus p" or "padding" one decodes to the honest
    ciphertext.  Returns the number of forgeries of each class."""
    priv, pk_bytes = kem_keygen(params, rng)
    forged = dict.fromkeys(kinds or ("flip", "plus p", "padding", "other c2", "truncated", "random"), 0)
    for _ in range(count):
        ct, _ = kem_encaps(pk_bytes, params, rng)
        for kind in forged:
            for bad in _forged(kind, params.ring, ct, rng):
                if kind in ("plus p", "every plus p", "padding"):
                    assert decode_ciphertext(params.ring, bad)[0] == decode_ciphertext(params.ring, ct)[0]
                key = kem_decaps(priv, bad, params)
                assert key == h2(priv.rep_s + bad, 128) == decaps_by_re_encryption(priv, bad, params)
                forged[kind] += 1
    return forged


@pytest.mark.parametrize("p,n", TABLE_CASES)
def test_kem_matches_decaps_by_re_encryption_on_every_ring(p, n):
    on_params(p, n, _round_trip, _rejected)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_encaps_sends_the_pke_ciphertext(name):
    _round_trip(make_params(name, seed=11), random.Random(12))


def test_round_trip_and_tamper_at_a_prime_wider_than_a_byte(p257_params, rng):
    # 9-bit chunks: 2n * 2 * 9 = 9252 bits of each element, padded by 4 bits
    assert rep_len(p257_params.ring) == 1157
    _round_trip(p257_params, rng)
    assert _rejected(p257_params, rng, "flip", "padding")["padding"] == 2 * 2 * 4


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_chunk_plus_p_is_rejected(name):
    assert _rejected(make_params(name, seed=11), random.Random(12), "every plus p", count=3)["every plus p"]


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_padding_bit_is_rejected(name):
    # p19, p23 and p31 pad the last byte of each half, toy and p41 do not
    forged = _rejected(make_params(name, seed=11), random.Random(12), "padding", count=3)["padding"]
    assert (forged > 0) == (name in ("p19", "p23", "p31"))


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_every_one_bit_flip_is_rejected(name):
    _rejected(make_params(name, seed=11), random.Random(12), "every bit", count=1)


@pytest.mark.parametrize("name, count", [("toy", 200), ("p41", 20)])
def test_decaps_matches_re_encryption_on_random_payloads(name, count):
    _rejected(make_params(name, seed=11), random.Random(13), "random", count=count)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_honest_c1_with_another_c2_is_rejected(name):
    _rejected(make_params(name, seed=11), random.Random(12), "other c2", count=3)


def test_warm_decaps_neither_encrypts_nor_reads_the_encaps_key(p19_params, rng, monkeypatch):
    priv, pk_bytes = kem_keygen(p19_params, rng)
    ct, key = kem_encaps(pk_bytes, p19_params, rng)
    assert kem_decaps(priv, ct, p19_params) == key
    calls = []
    for module, name in ((sdgr.kem, "encaps_key"), (sdgr.kem, "encrypt"), (sdgr.pke, "encrypt")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for tampered in (False, True):
        ct, key = kem_encaps(pk_bytes, p19_params, rng)
        assert calls == ["encaps_key", "encrypt"]  # the spies see encaps' calls
        calls.clear()
        if tampered:
            ct = bytes([ct[0] ^ 1]) + ct[1:]
        assert (kem_decaps(priv, ct, p19_params) == key) is not tampered
        assert calls == []


def test_decaps_under_another_key_keeps_the_encaps_operator(p19_params):
    # encaps under key a and decaps under key b, alternating: decaps does
    # not touch encaps_key's one entry, so a's operator is built once
    (priv_a, pk_a), (priv_b, pk_b) = (kem_keygen(p19_params, random.Random(seed)) for seed in (5, 6))
    rng = random.Random(7)
    ct_b, key_b = kem_encaps(pk_b, p19_params, rng)
    encaps_key.cache_clear()
    for _ in range(4):
        ct_a, key_a = kem_encaps(pk_a, p19_params, rng)
        assert kem_decaps(priv_b, ct_b, p19_params) == key_b
        assert kem_decaps(priv_a, ct_a, p19_params) == key_a
    assert encaps_key.cache_info().misses == 1


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
    # the cache keeps the pk element, whose one (2, 2n, 2n) circulant is the
    # only operator the KEM keeps per key, kept on it after the first encaps
    priv, pk_bytes = kem_keygen(p19_params, rng)
    encaps_key.cache_clear()
    pk = encaps_key(p19_params, pk_bytes)
    assert isinstance(pk, RingElement) and pk == priv.pk and pk.ring is p19_params.ring
    assert pk._circulant is None
    kem_encaps(pk_bytes, p19_params, rng)
    assert encaps_key(p19_params, pk_bytes) is pk
    op = pk._circulant
    assert op.shape == (2, p19_params.ring.size, p19_params.ring.size)
    for array in (pk.coeffs, op):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_encaps_refuses_a_non_canonical_public_key(p19_params, rng):
    # p added to a chunk, or a padding bit set, would decode leniently to the
    # same pk; encaps refuses it, as ML-KEM checks its encapsulation key,
    # instead of encapsulating under the reduced key
    ring = p19_params.ring
    _, pk_bytes = kem_keygen(p19_params, rng)
    w = ring.field.coeff_bits
    chunks = unpack_bits(pk_bytes, w, 2 * ring.size)
    chunks[np.argmax(chunks + ring.p < 1 << w)] += ring.p
    padded = pk_bytes[:-1] + bytes([pk_bytes[-1] | 1])
    assert padded != pk_bytes  # p19 pads the last byte
    for bad in (pack_bits(chunks, w), padded):
        with pytest.raises(ValueError, match="non-canonical"):
            kem_encaps(bad, p19_params, random.Random(1))
        with pytest.raises(ValueError, match="non-canonical"):
            encaps_key(p19_params, bad)
