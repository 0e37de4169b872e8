import random

import numpy as np
import pytest

from sdgr.kex import (
    KexSession,
    SecretPair,
    kex_keygen,
    kex_shared,
    public_value,
    sample_secret_pair,
)
from sdgr.params import PARAM_SETS, GameParams, make_params
from sdgr.skewring import SubspaceTag

from cases import TABLE_CASES, on_params, oracle_cases, top, top_pair
from oracles import naive_key, naive_public


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


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_checked_and_from_values_pairs_agree(name, rng):
    # drawn pairs and the all p - 1 pair, through either constructor
    params = make_params(name, rng=rng)
    ring = params.ring
    cases = [sample_secret_pair(params, rng).values for _ in range(3)]
    cases.append(np.full((ring.n + ring.gamma_free_count(), 2), ring.p - 1))
    for values in cases:
        a, gamma = ring.pair_from_values(values)
        checked, drawn = SecretPair(a, gamma), SecretPair.from_values(ring, values)
        assert checked.ring is drawn.ring is ring
        assert checked.values.tolist() == drawn.values.tolist() == values.tolist()
        assert checked.rows.tolist() == drawn.rows.tolist() == ring.pair_rows(values).tolist()
        assert checked.a == drawn.a == a and checked.gamma == drawn.gamma == gamma
        assert checked.w == drawn.w


def test_secret_pair_is_immutable(p19_params, rng):
    sk = sample_secret_pair(p19_params, rng)
    sk.w  # fills the w slot
    for name in ("ring", "values", "rows", "a", "gamma", "w", "_w", "other"):
        with pytest.raises(AttributeError):
            setattr(sk, name, None)
        with pytest.raises(AttributeError):
            delattr(sk, name)
    assert not sk.values.flags.writeable and not sk.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sk.values[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        sk.rows[0, 0, 0] = 1


def test_sample_secret_pair_shape(p19_params, rng):
    for _ in range(20):
        sk = sample_secret_pair(p19_params, rng)
        assert sk.a.classify() is SubspaceTag.CN_ONLY
        assert p19_params.ring.is_reversible(sk.gamma)
        assert not sk.gamma.is_zero()


def _loop_pair(ring, rng) -> tuple:
    """The oracle: sample_cn until a != 0, then sample_gamma until gamma != 0,
    as sample_secret_pair drew its pair before it drew it in one call.
    Returns (a, gamma, zero a draws, zero gamma draws)."""
    zero_a = zero_gamma = 0
    while (a := ring.sample_cn(rng)).is_zero():
        zero_a += 1
    while (gamma := ring.sample_gamma(rng)).is_zero():
        zero_gamma += 1
    return a, gamma, zero_a, zero_gamma


def test_sample_secret_pair_is_the_redraw_loops(toy_params):
    # a zero a is 1/729 of toy draws and zero free coordinates 1/81, so both
    # redraw branches show up among 5,000 seeds
    ring = toy_params.ring
    zero_a = zero_gamma = 0
    for seed in range(5000):
        ours, ref = random.Random(seed), random.Random(seed)
        sk = sample_secret_pair(toy_params, ours)
        a, gamma, za, zg = _loop_pair(ring, ref)
        assert sk.a == a and sk.gamma == gamma
        assert ours.getstate() == ref.getstate()
        zero_a += za
        zero_gamma += zg
    assert zero_a > 0 and zero_gamma > 0


class _Scripted:
    """An rng that serves getrandbits as CPython's Random does, from a
    stream of 32-bit outputs, each holding one scripted value in its top 2
    bits (p = 3): getrandbits(k <= 32) is the next output's top k bits, and
    getrandbits(32 r) the next r outputs, the first in the least-significant
    word."""

    def __init__(self, values):
        self._outputs = iter([v << 30 for v in values])

    def getrandbits(self, k):
        if k <= 32:
            return next(self._outputs) >> (32 - k)
        assert k % 32 == 0
        # a list, not a generator, so that a used-up script raises StopIteration
        return sum([next(self._outputs) << (32 * i) for i in range(k // 32)])


def test_sample_secret_pair_redraws_on_a_scripted_stream(toy_params):
    # two zero a draws in a row, then a zero gamma; each 3 is >= p, so the
    # sampler rejects it and draws again
    zero_a = [0] * 6
    a = [1, 3, 0, 2, 0, 0, 1]
    zero_free = [0, 3, 0, 0, 0]
    free = [2, 0, 1, 1]
    script = zero_a + [3] + zero_a + a + zero_free + free
    ring = toy_params.ring
    ours, ref = _Scripted(script), _Scripted(script)
    sk = sample_secret_pair(toy_params, ours)
    assert _loop_pair(ring, ref) == (sk.a, sk.gamma, 2, 1)
    assert sk.a == ring.element([(1, 0), (2, 0), (0, 1)] + [(0, 0)] * 3)
    assert sk.gamma == ring.gamma_from_free([(2, 0), (1, 1)])
    with pytest.raises(StopIteration):  # the script is used up, and no more
        ours.getrandbits(2)


def test_agreement(p19_params, rng):
    _agree(p19_params, rng, 50)


def test_agreement_toy(toy_params, rng):
    _agree(toy_params, rng, 50)


def test_agreement_at_a_prime_wider_than_a_byte(p257_params, rng):
    ring = p257_params.ring
    assert ring.field.coeff_bits == 9 and ring._byte_tables is None
    _agree(p257_params, rng)


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


def test_warm_kex_session_builds_four_operators(p19_params, operator_builds, adjunct_calls, pair_from_values_calls):
    # h keeps its circulants, so a session builds the operators of the two
    # gammas at keygen, from the values each party drew, and those of the
    # two peer pks at derivation, and forms no full product operator, no
    # adjunct and no ring element of a secret's a or gamma
    for _ in range(2):
        operator_builds.clear()
        alice = KexSession(p19_params, b"P_i", b"s-1", random.Random(1))
        bob = KexSession(p19_params, b"P_j", b"s-1", random.Random(2))
        drawn = [id(alice._secret.values), id(bob._secret.values)]
        assert alice.derive(bob.message) == bob.derive(alice.message)
    assert [kind for kind, _ in operator_builds] == ["pair_rows"] * 2 + ["circulant"] * 2
    assert [id(b) for _, b in operator_builds] == drawn + [id(bob.message.pk), id(alice.message.pk)]
    assert adjunct_calls == [] and pair_from_values_calls == []


# -- the key exchange against the naive product, on the case table and part by part --


def _agree(params, rng, sessions=3):
    for _ in range(sessions):
        (sk_i, pk_i), (sk_j, pk_j) = kex_keygen(params, rng), kex_keygen(params, rng)
        assert kex_shared(sk_i, pk_j) == kex_shared(sk_j, pk_i)


def _public(params, rng, count=2):
    for sk in oracle_cases(params.ring, [sample_secret_pair(params, rng) for _ in range(count)]):
        assert public_value(params, sk) == naive_public(params.h, sk.a, sk.gamma)


def _shared(params, rng, count=1):
    # honest peers, the party's own pk, and arbitrary and mixed P
    ring = params.ring
    for _ in range(count):
        sk, pk = kex_keygen(params, rng)
        peers = [kex_keygen(params, rng)[1], pk, ring.sample_ring(rng), ring.gen_public_element(rng)]
        for peer_pk in oracle_cases(ring, peers):
            assert kex_shared(sk, peer_pk) == naive_key(sk, peer_pk)


def _top(params, _rng=None):
    # the all p - 1 secret under h and under the all p - 1 h, and its key
    # with the all p - 1 peer, the one naive case on p257
    ring = params.ring
    sk, full = top_pair(ring), top(ring)
    for h in oracle_cases(ring, [params.h, full]):
        assert public_value(GameParams(ring=ring, h=h), sk) == naive_public(h, sk.a, sk.gamma)
    assert kex_shared(sk, full) == naive_key(sk, full)


@pytest.mark.parametrize("p,n", TABLE_CASES)
def test_kex_matches_the_naive_product_on_every_ring(p, n):
    on_params(p, n, _agree, _public, _shared, _top)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_public_value_is_a_h_gamma(name, rng):
    _public(make_params(name, seed=1003), rng, 5)


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_kex_shared_is_a_p_adjunct_gamma(name, rng):
    _shared(make_params(name, seed=1003), rng, 2)


def test_all_p_minus_one_secret_and_peer_at_p41():
    _top(make_params("p41", seed=1003))


def test_public_value_refuses_a_foreign_ring(p19_params, rng):
    sk = sample_secret_pair(p19_params, rng)
    for other in (make_params("p19", seed=1001), make_params("toy", seed=1002)):
        with pytest.raises(ValueError, match="different ring"):
            public_value(other, sk)


def test_kex_shared_refuses_a_foreign_peer_pk(p19_params, rng, operator_builds):
    # the secret's raw rows carry no ring, so the peer's pk is what is
    # checked, before its circulants are built
    sk, _ = kex_keygen(p19_params, rng)
    for other in (make_params("p19", seed=1001), make_params("toy", seed=1002)):
        _, peer_pk = kex_keygen(other, rng)
        operator_builds.clear()
        with pytest.raises(ValueError, match="different ring"):
            kex_shared(sk, peer_pk)
        assert operator_builds == []


# -- key recovery from pk alone (ROADMAP item 1) ------------------------------------


def test_toy_key_recovery_from_pk_alone():
    """pk is linear in (u, v): every u' with u' h_C = pk_Y and v' with
    v' h_Y = pk_C, found here among all p^(2n) raw rows of a C_n half with
    one matmul per half (sdpd_bruteforce's trick), gives the honest key with
    every honest peer, whether or not it is the secret's own (u, v)."""
    several = 0
    for seed in range(20):
        params = make_params("toy", seed=seed)
        ring, h = params.ring, params.h
        rng = random.Random(seed)
        sk, pk = kex_keygen(params, rng)
        raw = np.indices((ring.p,) * ring.size).reshape(ring.size, -1).T
        pk_c, pk_y = pk.coeffs.reshape(2, ring.size)
        us = raw[(((raw @ h.circulant[1]).astype(np.int64) % ring.p) == pk_y).all(axis=1)]
        vs = raw[(((raw @ h.circulant[0]).astype(np.int64) % ring.p) == pk_c).all(axis=1)]
        # the pair's unreduced rows [v; u]: float64 integers within n(p-1)^2(1+lam)
        assert np.abs(sk.rows).max() <= ring.n * (ring.p - 1) ** 2 * (1 + ring.field.lam)
        assert not np.count_nonzero(sk.rows != np.rint(sk.rows))
        v, u = sk.rows[:, 0].astype(np.int64) % ring.p
        assert (us == u).all(axis=1).any() and (vs == v).all(axis=1).any()
        # every pair's rows [u'; v'], (len(us) * len(vs), 2, 1, 2n)
        pairs = np.stack(np.broadcast_arrays(us[:, None], vs[None]), axis=2).reshape(-1, 2, 1, ring.size)
        for _ in range(20):
            peer_sk, peer_pk = kex_keygen(params, rng)
            k = kex_shared(sk, peer_pk)
            assert k == kex_shared(peer_sk, pk)
            assert (ring.cross_mul(pairs, peer_pk) == k.coeffs).all()
        several += len(pairs) > 1  # a non-unit h_C or h_Y leaves more than one
    assert several
