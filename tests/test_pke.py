import random

import numpy as np
import pytest

from sdgr.kex import kex_shared, public_value
from sdgr.params import PARAM_SETS, GameParams, make_params
from sdgr.pke import (
    Ciphertext,
    decrypt,
    encrypt,
    pke_dec,
    pke_enc,
    pke_gen,
    sample_message,
    sample_randomness,
)
from sdgr.skewring import RingElement

from cases import TABLE_CASES, on_params, oracle_cases, top, top_pair
from oracles import naive_enc, naive_key


def test_round_trip(p19_params, rng):
    _round_trip(p19_params, rng, 50)


def test_round_trip_toy(toy_params, rng):
    _round_trip(toy_params, rng, 50)


def test_round_trip_at_a_prime_wider_than_a_byte(p257_params, rng):
    _round_trip(p257_params, rng)


def test_enc_is_deterministic_in_randomness(p19_params, rng):
    kp = pke_gen(p19_params, rng)
    m = sample_message(p19_params, rng)
    r = sample_randomness(p19_params, rng)
    c1 = pke_enc(m, kp.pk, r, p19_params)
    c2 = pke_enc(m, kp.pk, r, p19_params)
    assert c1.c1 == c2.c1 and c1.c2 == c2.c2


def test_fresh_randomness_changes_ciphertext(p19_params, rng):
    kp = pke_gen(p19_params, rng)
    m = sample_message(p19_params, rng)
    c1 = pke_enc(m, kp.pk, sample_randomness(p19_params, rng), p19_params)
    c2 = pke_enc(m, kp.pk, sample_randomness(p19_params, rng), p19_params)
    assert c1.c1 != c2.c1 or c1.c2 != c2.c2


def test_wrong_key_garbles(p19_params, rng):
    kp1 = pke_gen(p19_params, rng)
    kp2 = pke_gen(p19_params, rng)
    m = sample_message(p19_params, rng)
    c = pke_enc(m, kp1.pk, sample_randomness(p19_params, rng), p19_params)
    assert pke_dec(c, kp2.sk) != m


def test_homomorphic_masking_structure(p19_params, rng):
    _enc(p19_params, rng)


@pytest.mark.parametrize("operand", ["pke_enc-m", "pke_enc-pk", "pke_enc-r2", "pke_dec-c1", "kex_shared-peer_pk"])
def test_cross_ring_rejected(p19_params, toy_params, rng, operand):
    """Every operand that can come from another ring is refused by the ring
    arithmetic."""
    kp = pke_gen(p19_params, rng)
    m, r = sample_message(p19_params, rng), sample_randomness(p19_params, rng)
    c = pke_enc(m, kp.pk, r, p19_params)
    toy_kp = pke_gen(toy_params, rng)
    calls = {
        "pke_enc-m": lambda: pke_enc(sample_message(toy_params, rng), kp.pk, r, p19_params),
        "pke_enc-pk": lambda: pke_enc(m, toy_kp.pk, r, p19_params),
        "pke_enc-r2": lambda: pke_enc(m, kp.pk, toy_kp.sk, p19_params),
        "pke_dec-c1": lambda: pke_dec(Ciphertext(c1=toy_kp.pk, c2=c.c2), kp.sk),
        "kex_shared-peer_pk": lambda: kex_shared(kp.sk, toy_kp.pk),
    }
    with pytest.raises(ValueError, match="different ring"):
        calls[operand]()


def test_seeded_reproducibility(p19_params):
    kp1 = pke_gen(p19_params, random.Random(7))
    kp2 = pke_gen(p19_params, random.Random(7))
    assert kp1.pk == kp2.pk


# -- Enc and Dec against the naive product, on the case table and part by part ---


def _round_trip(params, rng, count=3):
    kp = pke_gen(params, rng)
    for _ in range(count):
        m = sample_message(params, rng)
        c = pke_enc(m, kp.pk, sample_randomness(params, rng), params)
        assert pke_dec(c, kp.sk) == m


def _enc(params, rng, count=1):
    # the raw kernel as the object API and the closed form, for an honest,
    # an arbitrary and a mixed pk
    ring = params.ring
    for pk in (pke_gen(params, rng).pk, ring.sample_ring(rng), ring.gen_public_element(rng)):
        cases = [(sample_message(params, rng), sample_randomness(params, rng)) for _ in range(count)]
        for m, r in cases:
            raw = encrypt(m.coeffs, pk, r.rows, params)
            assert raw.shape == (2, ring.size, 2) and raw.dtype == np.int64
            c = Ciphertext(*(RingElement(ring, x) for x in raw))
            assert c == pke_enc(m, pk, r, params)
            assert c == Ciphertext(c1=public_value(params, r), c2=m + kex_shared(r, pk))
        for m, r in oracle_cases(ring, cases):
            assert pke_enc(m, pk, r, params) == naive_enc(params, m, pk, r)


def _dec(params, rng):
    # c1 an honest public value, an arbitrary (mixed) element, or one half only
    ring = params.ring
    sk = pke_gen(params, rng).sk
    c1s = [public_value(params, sample_randomness(params, rng)), ring.sample_ring(rng)]
    c1s += [ring.gen_public_element(rng), ring.sample_cn(rng), ring.sample_gamma(rng)]
    cases = [Ciphertext(c1=c1, c2=ring.sample_ring(rng)) for c1 in c1s]
    for c in cases:
        raw = decrypt(np.stack((c.c1.coeffs, c.c2.coeffs)), sk.w)
        assert raw.shape == (ring.size, 2) and raw.dtype == np.int64
        assert RingElement(ring, raw) == pke_dec(c, sk) == c.c2 - kex_shared(sk, c.c1)
    for c in oracle_cases(ring, cases):
        assert pke_dec(c, sk) == c.c2 - naive_key(sk, c.c1)


def _top(params, _rng=None):
    # every operand all p - 1 reaches the float64 bound n*(p-1)^2*(1+lam);
    # the decryption is the one naive case on p257
    ring = params.ring
    r, full = top_pair(ring), top(ring)
    for h in oracle_cases(ring, [params.h, full]):
        top_params = GameParams(ring=ring, h=h)
        assert pke_enc(full, full, r, top_params) == naive_enc(top_params, full, full, r)
    assert pke_dec(Ciphertext(c1=full, c2=full), r) == full - naive_key(r, full)


def _raw_chunks(params, rng):
    # kem_decaps hands decrypt the raw chunks, below 2^coeff_bits: all of
    # them 2^w - 1, or drawn, decrypt as pke_dec does the chunks reduced mod p
    ring = params.ring
    sk = pke_gen(params, rng).sk
    bound = 1 << ring.field.coeff_bits
    drawn = np.array([rng.randrange(bound) for _ in range(4 * ring.size)]).reshape(2, ring.size, 2)
    for c in (np.full((2, ring.size, 2), bound - 1), drawn):
        reduced = Ciphertext(*(RingElement(ring, x % ring.p) for x in c))
        assert RingElement(ring, decrypt(c, sk.w)) == pke_dec(reduced, sk)


@pytest.mark.parametrize("p,n", TABLE_CASES)
def test_pke_matches_the_naive_product_on_every_ring(p, n):
    on_params(p, n, _round_trip, _enc, _dec, _top, _raw_chunks)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_enc_is_public_value_and_masked_message(name, rng):
    _enc(make_params(name, seed=1004), rng, 3)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_raw_kernels_match_pke_enc_and_pke_dec(name, rng):
    _raw_chunks(make_params(name, seed=1004), rng)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_dec_is_c2_minus_kex_shared(name, rng):
    _dec(make_params(name, seed=1004), rng)


def test_all_p_minus_one_at_p41():
    _top(make_params("p41", seed=1004))
