"""Known-answer tests: every scheme output under fixed seeds, frozen as digests.

Each entry is the SHAKE256 digest (32 bytes, hex) of one output, produced by
``kat_outputs`` for a parameter set.  The vectors were generated from the
table-and-bincount product kernel and the loop codec that preceded the
gather-matmul kernel; any refactor of the ring or the codec must reproduce
them byte for byte.  To print the vectors of the code at hand:

    PYTHONPATH=src python tests/test_kat.py
"""

import hashlib
import random

import numpy as np
import pytest

from sdgr import make_params
from sdgr.kem import decode_ring, kem_decaps, kem_encaps, kem_keygen, pack_bits, rep_ring
from sdgr.kex import kex_keygen, kex_shared
from sdgr.pke import pke_enc, sample_message, sample_randomness

PARAMS_SEED = 1
RNG_SEED = 2

def rep_ciphertext(c):
    """rep(c1) || rep(c2) in one pack: the two rows of raw coefficients."""
    return pack_bits(np.stack((c.c1.coeffs.ravel(), c.c2.coeffs.ravel())), c.c1.ring.field.coeff_bits)


def kat_outputs(name: str) -> dict[str, str]:
    params = make_params(name, seed=PARAMS_SEED)
    rng = random.Random(RNG_SEED)
    out = {"rep_h": rep_ring(params.h)}

    priv, pk_bytes = kem_keygen(params, rng)
    out["kem_keygen"] = rep_ring(priv.s) + rep_ring(priv.sk.a) + rep_ring(priv.sk.gamma) + pk_bytes

    ct, key = kem_encaps(pk_bytes, params, rng)
    out["kem_encaps"] = ct + key
    honest = kem_decaps(priv, ct, params)
    assert honest == key
    out["kem_decaps"] = honest

    bit = rng.randrange(8 * len(ct))
    tampered = bytearray(ct)
    tampered[bit // 8] ^= 0x80 >> (bit % 8)
    rejected = kem_decaps(priv, bytes(tampered), params)
    assert rejected != key
    out["kem_decaps_tampered"] = rejected

    sk_i, pk_i = kex_keygen(params, rng)
    sk_j, pk_j = kex_keygen(params, rng)
    k_i = kex_shared(sk_i, pk_j)
    assert k_i == kex_shared(sk_j, pk_i)
    out["kex_shared"] = rep_ring(pk_i) + rep_ring(pk_j) + rep_ring(k_i)

    m = sample_message(params, rng)
    r = sample_randomness(params, rng)
    out["pke_enc"] = rep_ciphertext(pke_enc(m, decode_ring(params.ring, pk_bytes), r, params))
    return {k: hashlib.shake_256(v).hexdigest(32) for k, v in out.items()}


KAT = {
    "p19": {
        "rep_h": "67f45110ee8e72073220bccef34b8579d213837c44f402a35acb3572b47364ed",
        "kem_keygen": "edca389f6bd953a48c5f4e5b4c30414bf752acfbde3518f72ada266d1bc21d95",
        "kem_encaps": "d995ebf69b90beacc4222446984e7b6cefe818ef88adbcfc4e1854ea674ebe70",
        "kem_decaps": "7a6ec9fabc4c032e5079b20737ff7b48c73c0a2d4632f562c32d89912e4c47b0",
        "kem_decaps_tampered": "46c14530aacb1e502c3a680cd05d877a7b262fd2380813b31326399dfdc45348",
        "kex_shared": "ed7bd3ca5f9d9a92dc3d1329ce5f8c0be59655b2059318d8ca721cde605a59a3",
        "pke_enc": "dad6988aca7a042d8ba7f05681e1475d3754c0af6b5c13ff291e2a30b63debcd",
    },
    "p23": {
        "rep_h": "c15f5e6b4465020eff421a78ffbf1e4b8c76d3bbcd3d0bba8909233cc6aca168",
        "kem_keygen": "2f2993b43c6bb697fec5a1a9db30101610774b014299ba2bdea58bfc0073366a",
        "kem_encaps": "89edf4a541bbef2741cbe1866f62d9d4f95f95939e6cdaef9d46e0edcae8d8a7",
        "kem_decaps": "2f385a6cba59070941f3f8cee5f2e9f9de3be9b5494dd4ca5bb4468df12db1ab",
        "kem_decaps_tampered": "bb7bae09676a68474402102caa9bd2fcc5d8af2a7a3c7222c4d8d2cf253105f9",
        "kex_shared": "cef0e470e6e2e23e5040b40c03a8abaee98a47e24b20f235b6ca76fd3620a90f",
        "pke_enc": "41b4f725415574f6b210b16020bf579e9feb6bf9479ba08451cc51ed5ab06af1",
    },
    "p31": {
        "rep_h": "2feba198fa70430143c8cebbaac8025c72fbcc4f0fc6e212d6266cda017e8153",
        "kem_keygen": "d27c327461e31c802774b32731a6ec05281c9de1b77a6f2f41edd873018ffe4f",
        "kem_encaps": "39f27027c6f6fd5a28eb4cbe1cbe0df219efee283e9543b1294902087612e7d9",
        "kem_decaps": "6eea3aea3aeb670abd00037f5ff98de7cb20d680b32cc8fd52c54efdf09d8fe0",
        "kem_decaps_tampered": "6f7aee090ac73877ae9c88e0d611023a2d868f83db8dc16843aa304fefee56c7",
        "kex_shared": "2cd41c90956e1a059984e92ce07e8248593827f7ba6b2f15221c7be0428ac0a3",
        "pke_enc": "3426783b6791bef9accfb7692b1b76346835c431f55d28756b2081ab10fce761",
    },
    "p41": {
        "rep_h": "a6dbc7eef60580c9bbe66c9c1a9ddb5eb7c3f9a8f110a5d222b285e1417db1c2",
        "kem_keygen": "ac5ebad3b94f78d0d7aa3d346e3562fb42922241a3d376e420b2234a5f9482aa",
        "kem_encaps": "a2a4ee469948b6a1532eeb8f47cd48b26c169f1afefd8c52dc3e6d468b740274",
        "kem_decaps": "6f54e331f3780a8281081049fd17fb92f6089f3075e23966a8c8caba6414f751",
        "kem_decaps_tampered": "7a55230caeaf9b4e13b0ffdb2e14e698cc1b5c4181b46c4152bc8a18fb8052f9",
        "kex_shared": "e1275da43b3f9928f2eba3366fda33bd66fe968e8118dee97700cc217ea5680b",
        "pke_enc": "cc583ce59bb087ca60ca9a0b2ab64687f69a050f7c593e6b0459d778880fd67e",
    },
}


SETS = ("p19", "p23", "p31", "p41")


@pytest.mark.parametrize("name", SETS)
def test_known_answers(name):
    assert kat_outputs(name) == KAT[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: kat_outputs(name) for name in SETS}, width=120)
