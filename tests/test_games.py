import random

import numpy as np
import pytest

from sdgr.games import (
    SEARCH_SPACE_GUARD,
    AdvantageEstimate,
    GameParams,
    SdpdInstance,
    csdp_challenge,
    csdp_key_from_witness,
    csdp_verify,
    dsdp_challenge,
    dsdp_experiment,
    sdpd_bruteforce,
    sdpd_challenge,
    sdpd_search_space,
    sdpd_verify,
    subspace_distinguisher,
    unipotent_valuation,
    wilson_interval,
)
from sdgr.skewring import SkewRing, SubspaceTag


@pytest.fixture(scope="module")
def toy_game():
    ring = SkewRing(3, 3)
    rng = random.Random(11)
    return GameParams(ring=ring, h=ring.gen_public_element(rng))


@pytest.fixture(scope="module")
def degenerate_game():
    # h supported on C_n only, chosen to be a unit ((x-1)-adic valuation 0)
    ring = SkewRing(3, 3)
    rng = random.Random(5)
    while True:
        h = ring.sample_cn(rng)
        if not h.is_zero() and unipotent_valuation(ring, h) == 0:
            return GameParams(ring=ring, h=h)


def test_sdpd_challenge_and_verify(toy_game, rng):
    inst, (a, gamma) = sdpd_challenge(toy_game, rng)
    assert sdpd_verify(inst, a, gamma)
    other = toy_game.ring.basis(0, (2, 0))
    # a different witness only verifies if products collide, never by identity
    assert sdpd_verify(inst, a, gamma) is True
    with pytest.raises(ValueError):
        sdpd_verify(inst, toy_game.ring.basis(4), gamma)  # a off C_n
    with pytest.raises(ValueError):
        sdpd_verify(inst, other, toy_game.ring.basis(4))  # gamma not reversible


def test_sdpd_search_space(toy_game):
    assert sdpd_search_space(toy_game.ring) == 9**3 * 9**2  # 59049


def test_sdpd_bruteforce_finds_planted(toy_game, rng):
    inst, (a, gamma) = sdpd_challenge(toy_game, rng)
    found = sdpd_bruteforce(inst)
    assert any(fa == a and fg == gamma for fa, fg in found)
    for fa, fg in found:
        assert sdpd_verify(inst, fa, fg)


def test_sdpd_guard():
    ring = SkewRing(19, 19)
    gp = GameParams(ring=ring, h=ring.gen_public_element(random.Random(0)))
    inst = SdpdInstance(params=gp, pk=ring.one())
    assert sdpd_search_space(ring) > SEARCH_SPACE_GUARD
    with pytest.raises(ValueError):
        sdpd_bruteforce(inst)


def test_csdp_challenge_consistency(toy_game, rng):
    inst, k = csdp_challenge(toy_game, rng)
    assert csdp_verify(inst, k)
    assert not csdp_verify(inst, k + toy_game.ring.one())


def test_csdp_break_via_sdpd(toy_game, rng):
    # every witness for pk1 recovers the shared key
    inst, _ = csdp_challenge(toy_game, rng)
    witnesses = sdpd_bruteforce(SdpdInstance(params=toy_game, pk=inst.pk1))
    assert witnesses
    for a, gamma in witnesses:
        assert csdp_verify(inst, csdp_key_from_witness(inst, a, gamma))


def test_dsdp_challenge_bits(toy_game, rng):
    for b in (0, 1):
        inst = dsdp_challenge(toy_game, b, rng)
        assert inst._hidden_bit == b
    with pytest.raises(ValueError):
        dsdp_challenge(toy_game, 2, rng)


def test_dsdp_real_key_matches_protocol(toy_game):
    # with b = 0 the key is the two-sided shared key of the CSDP instance drawn
    # from the same generator state; with b = 1 only k differs, and it is a3 h gamma3
    for seed in range(5):
        twin = random.Random(seed)
        csdp, key = csdp_challenge(toy_game, twin)
        a3, g3 = toy_game.ring.sample_cn(twin), toy_game.ring.sample_gamma(twin)
        real = dsdp_challenge(toy_game, 0, random.Random(seed))
        fake = dsdp_challenge(toy_game, 1, random.Random(seed))
        assert (real.pk1, real.pk2, real.k) == (csdp.pk1, csdp.pk2, key)
        assert (fake.pk1, fake.pk2, fake.k) == (real.pk1, real.pk2, a3 * toy_game.h * g3)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0)
    lo, hi = wilson_interval(995, 1000)
    assert 0.98 < lo < 0.995 <= hi <= 1.0


def test_advantage_estimate_reports():
    est = AdvantageEstimate(trials_per_arm=100, ones_b0=10, ones_b1=90)
    assert est.p0 == 0.10 and est.p1 == 0.90
    assert est.advantage == pytest.approx(0.80)
    lo, hi = est.diff_interval()
    assert lo < 0.80 < hi


def test_unipotent_valuation(degenerate_game):
    ring = degenerate_game.ring
    one = ring.one()
    x = ring.basis(1)
    assert unipotent_valuation(ring, ring.zero()) == ring.n
    assert unipotent_valuation(ring, one) == 0
    xm1 = x - one
    assert unipotent_valuation(ring, xm1) == 1
    assert unipotent_valuation(ring, xm1 * xm1) == 2
    assert unipotent_valuation(ring, xm1 * xm1 * xm1) == ring.n  # (x-1)^3 = 0
    # valuations add under multiplication
    rng = random.Random(21)
    for _ in range(50):
        a = ring.sample_cn(rng)
        b = ring.sample_cn(rng)
        va, vb = unipotent_valuation(ring, a), unipotent_valuation(ring, b)
        assert unipotent_valuation(ring, a * b) == min(va + vb, ring.n)
    with pytest.raises(ValueError):
        unipotent_valuation(ring, ring.basis(0) + ring.basis(4))
    with pytest.raises(ValueError):
        unipotent_valuation(SkewRing(3, 6), SkewRing(3, 6).one())


def synthetic_division_valuation(ring, a):
    """Reference for unipotent_valuation: divide the one non-zero summand by
    (x - 1) one coefficient at a time until its value at x = 1 is non-zero."""
    n, p = ring.n, ring.p
    rows = [a.coefficient(i) for i in range(2 * n)]
    poly = rows[n:] if any(c != (0, 0) for c in rows[n:]) else rows[:n]
    v = 0
    while v < n:
        s0 = sum(c[0] for c in poly) % p
        s1 = sum(c[1] for c in poly) % p
        if (s0, s1) != (0, 0):
            return v
        # synthetic division by (x - 1): q_{i-1} = p_i + q_i, descending
        q = [(0, 0)] * len(poly)
        acc0 = acc1 = 0
        for i in range(len(poly) - 1, 0, -1):
            acc0 = (acc0 + poly[i][0]) % p
            acc1 = (acc1 + poly[i][1]) % p
            q[i - 1] = (acc0, acc1)
        poly = q
        v += 1
    return n


def _with_cny_images(ring, elems):
    """Each C_n element followed by its image sum a_i x^i y on C_n y."""
    for a in elems:
        yield a
        yield ring.element(np.roll(a.coeffs, ring.n, axis=0))


def test_unipotent_valuation_matches_synthetic_division():
    toy = SkewRing(3, 3)
    for a in _with_cny_images(toy, toy.iter_cn()):
        assert unipotent_valuation(toy, a) == synthetic_division_valuation(toy, a)
    # random elements are mostly units; multiplying by (x - 1)^k walks each
    # one up through every valuation to n, where it becomes zero
    for p, n in ((3, 9), (5, 25)):
        ring = SkewRing(p, n)
        rng = random.Random(n)
        xm1 = ring.basis(1) - ring.one()
        seen = set()
        for _ in range(6):
            powers = [ring.sample_cn(rng)]
            for _ in range(n):
                powers.append(powers[-1] * xm1)
            for a in _with_cny_images(ring, powers):
                v = unipotent_valuation(ring, a)
                assert v == synthetic_division_valuation(ring, a)
                seen.add(v)
        assert seen == set(range(n + 1))


def test_distinguisher_degenerate_advantage(degenerate_game):
    rng = random.Random(2024)
    est = dsdp_experiment(degenerate_game, subspace_distinguisher, 2000, rng)
    assert est.advantage >= 0.95


def test_distinguisher_mixed_is_blind(toy_game):
    rng = random.Random(2025)
    est = dsdp_experiment(toy_game, subspace_distinguisher, 2000, rng)
    lo, hi = est.diff_interval()
    assert lo <= 0.0 <= hi


def test_distinguisher_oracle_on_nonzero_keys(degenerate_game):
    # whenever the challenge key is non-zero the membership test is exact
    rng = random.Random(77)
    for b in (0, 1):
        checked = 0
        while checked < 200:
            inst = dsdp_challenge(degenerate_game, b, rng)
            if inst.k.classify() is SubspaceTag.ZERO:
                continue
            assert subspace_distinguisher(inst) == b
            checked += 1
