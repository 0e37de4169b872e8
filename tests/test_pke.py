import random

import numpy as np
import pytest

from sdgr.kex import SecretPair, kex_shared, public_value
from sdgr.params import PARAM_SETS, Params, make_params
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

from oracles import naive_enc, naive_key


def test_round_trip(p19_params, rng):
    kp = pke_gen(p19_params, rng)
    for _ in range(50):
        m = sample_message(p19_params, rng)
        c = pke_enc(m, kp.pk, sample_randomness(p19_params, rng), p19_params)
        assert pke_dec(c, kp.sk) == m


def test_round_trip_toy(toy_params, rng):
    kp = pke_gen(toy_params, rng)
    for _ in range(50):
        m = sample_message(toy_params, rng)
        c = pke_enc(m, kp.pk, sample_randomness(toy_params, rng), toy_params)
        assert pke_dec(c, kp.sk) == m


def test_round_trip_at_a_prime_wider_than_a_byte(p257_params, rng):
    kp = pke_gen(p257_params, rng)
    for _ in range(3):
        m = sample_message(p257_params, rng)
        c = pke_enc(m, kp.pk, sample_randomness(p257_params, rng), p257_params)
        assert pke_dec(c, kp.sk) == m


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
    # c2 - m is exactly the shared mask a2 * pk * adjunct(gamma2)
    kp = pke_gen(p19_params, rng)
    m = sample_message(p19_params, rng)
    r = sample_randomness(p19_params, rng)
    c = pke_enc(m, kp.pk, r, p19_params)
    mask = r.a * kp.pk * r.gamma.adjunct()
    assert c.c2 - m == mask


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


# -- Enc as one product on the kept operator, Dec on the secret's circulants ------


@pytest.fixture(scope="module", params=sorted(PARAM_SETS))
def any_params(request):
    return make_params(request.param, seed=1004)


def test_enc_is_public_value_and_masked_message(any_params, rng):
    ring = any_params.ring
    for pk in (pke_gen(any_params, rng).pk, ring.sample_ring(rng), ring.gen_public_element(rng)):
        for _ in range(3):
            m, r = sample_message(any_params, rng), sample_randomness(any_params, rng)
            c = Ciphertext(*(RingElement(ring, x) for x in encrypt(m.coeffs, pk, r.rows, any_params)))
            assert c == Ciphertext(c1=public_value(any_params, r), c2=m + kex_shared(r, pk))
            assert c == naive_enc(any_params, m, pk, r)
            assert c == pke_enc(m, pk, r, any_params)


def test_raw_kernels_match_pke_enc_and_pke_dec(any_params, rng):
    # encrypt and decrypt on raw (2n, 2) arrays, the KEM's path, against the
    # object API; decrypt also on a c that is no encryption
    ring = any_params.ring
    kp = pke_gen(any_params, rng)
    for _ in range(3):
        m, r = sample_message(any_params, rng), sample_randomness(any_params, rng)
        c = encrypt(m.coeffs, kp.pk, r.rows, any_params)
        assert c.shape == (2, ring.size, 2) and c.dtype == np.int64
        obj = pke_enc(m, kp.pk, r, any_params)
        assert c.tolist() == [obj.c1.coeffs.tolist(), obj.c2.coeffs.tolist()]
        assert decrypt(c, kp.sk.w).tolist() == pke_dec(obj, kp.sk).coeffs.tolist() == m.coeffs.tolist()
        c1, c2 = ring.sample_ring(rng), ring.sample_ring(rng)
        raw = decrypt(np.stack((c1.coeffs, c2.coeffs)), kp.sk.w)
        assert raw.shape == (ring.size, 2) and raw.dtype == np.int64
        assert raw.tolist() == pke_dec(Ciphertext(c1=c1, c2=c2), kp.sk).coeffs.tolist()


def test_dec_is_c2_minus_kex_shared(any_params, rng):
    # c1 an honest public value, an arbitrary (mixed) element, or one half only
    ring = any_params.ring
    sk = pke_gen(any_params, rng).sk
    c1s = [public_value(any_params, sample_randomness(any_params, rng)), ring.sample_ring(rng)]
    c1s += [ring.gen_public_element(rng), ring.sample_cn(rng), ring.sample_gamma(rng)]
    for c1 in c1s:
        c2 = ring.sample_ring(rng)
        m = pke_dec(Ciphertext(c1=c1, c2=c2), sk)
        assert m == c2 - kex_shared(sk, c1)
        assert m == c2 - naive_key(sk, c1)


def test_all_p_minus_one_at_p41():
    # every operand all p - 1 reaches the float64 bound n*(p-1)^2*(1+lam)
    params = make_params("p41", seed=1004)
    ring = params.ring
    top = (ring.p - 1, ring.p - 1)
    full = ring.element([top] * ring.size)
    r = SecretPair(a=ring.element([top] * ring.n + [(0, 0)] * ring.n), gamma=ring.gamma_from_free([top] * ring.gamma_free_count()))
    for h in (params.h, full):
        top_params = Params(ring=ring, h=h)
        assert pke_enc(full, full, r, top_params) == naive_enc(top_params, full, full, r)
    assert pke_dec(Ciphertext(c1=full, c2=full), r) == full - naive_key(r, full)
