import random

import pytest

from sdgr.kex import kex_shared
from sdgr.pke import (
    Ciphertext,
    pke_dec,
    pke_enc,
    pke_gen,
    sample_message,
    sample_randomness,
)


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
