import random

import pytest

from sdgr.kex import (
    KexSession,
    SecretPair,
    kex_keygen,
    kex_shared,
    sample_secret_pair,
)
from sdgr.skewring import SubspaceTag


def test_secret_pair_validation(toy_ring, rng):
    a = toy_ring.sample_cn(rng)
    while a.is_zero():
        a = toy_ring.sample_cn(rng)
    g = toy_ring.sample_gamma(rng)
    while g.is_zero():
        g = toy_ring.sample_gamma(rng)
    SecretPair(a=a, gamma=g)  # fine
    with pytest.raises(ValueError):
        SecretPair(a=toy_ring.zero(), gamma=g)
    with pytest.raises(ValueError):
        SecretPair(a=a, gamma=toy_ring.zero())
    with pytest.raises(ValueError):
        SecretPair(a=toy_ring.basis(4), gamma=g)  # a not on C_n
    with pytest.raises(ValueError):
        SecretPair(a=a, gamma=toy_ring.basis(4))  # not palindromic


def test_sample_secret_pair_shape(p19_params, rng):
    for _ in range(20):
        sk = sample_secret_pair(p19_params, rng)
        assert sk.a.classify() is SubspaceTag.CN_ONLY
        assert p19_params.ring.is_reversible(sk.gamma)
        assert not sk.gamma.is_zero()


def test_agreement(p19_params, rng):
    for _ in range(50):
        sk1, pk1 = kex_keygen(p19_params, rng)
        sk2, pk2 = kex_keygen(p19_params, rng)
        assert kex_shared(sk1, pk2) == kex_shared(sk2, pk1)


def test_agreement_toy(toy_params, rng):
    for _ in range(50):
        sk1, pk1 = kex_keygen(toy_params, rng)
        sk2, pk2 = kex_keygen(toy_params, rng)
        assert kex_shared(sk1, pk2) == kex_shared(sk2, pk1)


def test_session_lifecycle(p19_params, rng):
    alice = KexSession(p19_params, b"P_i", b"s-1", rng)
    bob = KexSession(p19_params, b"P_j", b"s-1", rng)
    assert alice.has_secret and bob.has_secret
    k1 = alice.derive(bob.message)
    k2 = bob.derive(alice.message)
    assert k1 == k2
    assert not alice.has_secret
    with pytest.raises(RuntimeError):
        alice.derive(bob.message)


def test_session_id_mismatch(p19_params, rng):
    alice = KexSession(p19_params, b"P_i", b"s-1", rng)
    bob = KexSession(p19_params, b"P_j", b"s-2", rng)
    with pytest.raises(ValueError):
        alice.derive(bob.message)
    assert alice.has_secret  # secret survives a rejected message


def test_deterministic_under_seed(p19_params):
    sk1, pk1 = kex_keygen(p19_params, random.Random(99))
    sk2, pk2 = kex_keygen(p19_params, random.Random(99))
    assert pk1 == pk2 and sk1.a == sk2.a and sk1.gamma == sk2.gamma


def test_warm_kex_session_builds_four_operators(p19_params, operator_builds, adjunct_calls):
    # h keeps its operator, so a session builds those of the two gammas at
    # keygen and of the two peer pks at derivation, and forms no adjunct
    for _ in range(2):
        operator_builds.clear()
        alice = KexSession(p19_params, b"P_i", b"s-1", random.Random(1))
        bob = KexSession(p19_params, b"P_j", b"s-1", random.Random(2))
        assert alice.derive(bob.message) == bob.derive(alice.message)
    assert len(operator_builds) == 4
    assert {id(b) for b in operator_builds} >= {id(alice.message.pk), id(bob.message.pk)}
    assert adjunct_calls == []
