import random

import numpy as np
import pytest

from sdgr.games import (
    SEARCH_SPACE_GUARD,
    AdvantageEstimate,
    CsdpInstance,
    DsdpInstance,
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
from sdgr.kex import SecretPair, kex_shared, public_value
from sdgr.params import PARAM_SETS, make_params
from sdgr.skewring import Frozen, SkewRing, SubspaceTag


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


def test_game_instances_are_frozen_in_slots_and_compare_by_identity(toy_game):
    ring = toy_game.ring
    pk1, pk2, k = (ring.basis(i) for i in range(3))
    kinds = {
        "SdpdInstance": lambda: SdpdInstance(params=toy_game, pk=pk1),
        "CsdpInstance": lambda: CsdpInstance(params=toy_game, pk1=pk1, pk2=pk2, _k=k),
        "DsdpInstance": lambda: DsdpInstance(params=toy_game, pk1=pk1, pk2=pk2, k=k, _hidden_bit=1),
    }
    for name, build in kinds.items():
        inst, twin = build(), build()
        assert isinstance(inst, Frozen) and not hasattr(inst, "__dict__")
        assert inst == inst and inst != twin and hash(inst) == object.__hash__(inst)
        for attr in ("params", "pk", "_k", "other"):
            with pytest.raises(AttributeError, match=f"^{name} is immutable: cannot set {attr!r}$"):
                setattr(inst, attr, None)
            with pytest.raises(AttributeError, match=f"^{name} is immutable: cannot delete {attr!r}$"):
                delattr(inst, attr)
        assert inst.params is toy_game
    csdp, dsdp = kinds["CsdpInstance"](), kinds["DsdpInstance"]()
    assert (csdp.pk1, csdp.pk2, csdp._k) == (pk1, pk2, k)
    assert (dsdp.pk1, dsdp.pk2, dsdp.k, dsdp._hidden_bit) == (pk1, pk2, k, 1)


def test_game_params_keep_h_tag(toy_game):
    ring = toy_game.ring
    cases = {
        SubspaceTag.MIXED: toy_game.h,
        SubspaceTag.CN_ONLY: ring.one(),
        SubspaceTag.CNY_ONLY: ring.basis(ring.n),
        SubspaceTag.ZERO: ring.zero(),
    }
    for tag, h in cases.items():
        assert GameParams(ring=ring, h=h).h_tag is tag
    with pytest.raises(ValueError, match="different ring"):
        GameParams(ring=ring, h=SkewRing(3, 3).one())


@pytest.mark.parametrize("game", ["toy_game", "degenerate_game"])
def test_dsdp_trial_classifies_only_k(game, request, monkeypatch):
    params = request.getfixturevalue(game)
    rng = random.Random(3)
    calls = []
    classify = SkewRing.classify
    monkeypatch.setattr(SkewRing, "classify", lambda ring, a: calls.append(a) or classify(ring, a))
    checked = 0
    for trial in range(40):
        calls.clear()
        inst = dsdp_challenge(params, trial % 2, rng)
        subspace_distinguisher(inst)
        if inst.k.is_zero():
            continue  # a zero key is decided by the valuations of pk1, pk2 and h
        expected = [inst.k] if params.h_tag is SubspaceTag.CN_ONLY else []  # a mixed h reads a hash bit
        assert [id(a) for a in calls] == [id(a) for a in expected]
        checked += 1
    assert checked > 30


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


@pytest.mark.parametrize("name", ["toy", "p19"])
def test_scheme_params_run_the_challengers(name):
    # a Params is a GameParams: the challengers take it as it is, and give
    # what a GameParams of the same ring and h gives from the same seed
    params = make_params(name, seed=4)
    game = GameParams(ring=params.ring, h=params.h)
    inst, (a, gamma) = sdpd_challenge(params, random.Random(8))
    assert inst.params is params and sdpd_verify(inst, a, gamma)
    assert inst.pk == sdpd_challenge(game, random.Random(8))[0].pk
    csdp, k = csdp_challenge(params, random.Random(9))
    assert csdp.params is params and csdp_verify(csdp, k)
    assert k == csdp_challenge(game, random.Random(9))[1]


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


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_dsdp_experiment_runs_half_the_trials_per_arm_and_at_least_one(toy_game, rng, trials):
    est = dsdp_experiment(toy_game, lambda inst: 1, trials, rng)
    assert est.trials_per_arm == est.ones_b0 == est.ones_b1 == 1


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


# -- the challengers' closed forms against the naive product --------------------


def _game(name, kind, seed=31):
    """GameParams with h mixed, on C_n only, or on C_n y only."""
    ring = SkewRing(*PARAM_SETS[name])
    rng = random.Random(seed)
    if kind == "mixed":
        return GameParams(ring=ring, h=ring.gen_public_element(rng))
    h = ring.sample_cn(rng)
    return GameParams(ring=ring, h=h if kind == "cn" else ring.element(np.roll(h.coeffs, ring.n, axis=0)))


@pytest.fixture(
    scope="module",
    params=[(name, kind) for name in ("toy", "p19") for kind in ("mixed", "cn", "cny")],
    ids=lambda param: "-".join(param),
)
def oracle_game(request):
    return _game(*request.param)


def _recorded_pairs(monkeypatch) -> list:
    """Make the challengers draw their pairs' values as before, but with
    a = 0 on every third pair and gamma = 0 on every fifth; returns the pairs
    drawn."""
    drawn = []

    def sample(ring, rng, m=1):
        values = []
        for _ in range(m):
            a, gamma = ring.sample_cn(rng), ring.sample_gamma(rng)
            if len(drawn) % 3 == 1:
                a = ring.zero()
            if len(drawn) % 5 == 2:
                gamma = ring.zero()
            drawn.append((a, gamma))
            values.append(ring.pair_values(a, gamma))
        return np.stack(values)

    monkeypatch.setattr(SkewRing, "sample_pair_values", sample)
    return drawn


def test_challengers_match_the_naive_product_chains(oracle_game, monkeypatch):
    ring, h = oracle_game.ring, oracle_game.h
    naive = ring.naive_product

    def public(a, gamma):
        return naive(naive(a, h), gamma)

    def key(a2, g2, pk1):
        return naive(naive(a2, pk1), g2.adjunct())

    drawn = _recorded_pairs(monkeypatch)
    rng = random.Random(8)
    for _ in range(25):
        inst, (a, gamma) = sdpd_challenge(oracle_game, rng)
        assert inst.pk == public(a, gamma)
        assert sdpd_verify(inst, a, gamma)
        # another draw's pair verifies exactly when its product is pk
        other = drawn[len(drawn) // 2]
        assert sdpd_verify(inst, *other) == (public(*other) == inst.pk)

        start = len(drawn)
        csdp, k = csdp_challenge(oracle_game, rng)
        (a1, g1), (a2, g2) = drawn[start:]
        assert (csdp.pk1, csdp.pk2) == (public(a1, g1), public(a2, g2))
        assert k == key(a2, g2, csdp.pk1)

        for b in (0, 1):
            start = len(drawn)
            dsdp = dsdp_challenge(oracle_game, b, rng)
            (a1, g1), (a2, g2), (a3, g3) = drawn[start:]
            assert (dsdp.pk1, dsdp.pk2) == (public(a1, g1), public(a2, g2))
            assert dsdp.k == (key(a2, g2, dsdp.pk1) if b == 0 else public(a3, g3))
    assert len(drawn) >= 200
    assert any(a.is_zero() for a, _ in drawn) and any(gamma.is_zero() for _, gamma in drawn)


def test_sdpd_verify_rejects_candidates_off_their_subspaces(oracle_game, rng):
    ring = oracle_game.ring
    inst, (a, gamma) = sdpd_challenge(oracle_game, rng)
    broken = gamma.coeffs.copy()
    broken[ring.n + 1, 1] += 1  # the palindrome broken at x y
    for bad_a in (ring.basis(ring.n), ring.gen_public_element(rng)):
        with pytest.raises(ValueError, match="candidate a"):
            sdpd_verify(inst, bad_a, gamma)
    for bad_gamma in (ring.one(), ring.sample_cn(rng), ring.gen_public_element(rng), ring.element(broken)):
        with pytest.raises(ValueError, match="candidate gamma"):
            sdpd_verify(inst, a, bad_gamma)
    assert sdpd_verify(inst, a, gamma)


@pytest.mark.parametrize("name", ["toy", "p19"])
@pytest.mark.parametrize("kind", ["mixed", "cn", "cny"])
def test_warm_dsdp_trial_runs_no_skew_product(name, kind, monkeypatch, operator_builds):
    params = _game(name, kind, seed=3)
    rng = random.Random(4)
    dsdp_challenge(params, 0, rng)  # warm-up
    calls = []
    mul = SkewRing.mul
    monkeypatch.setattr(SkewRing, "mul", lambda *args: calls.append(args) or mul(*args))
    dsdp_experiment(params, subspace_distinguisher, 20, rng)
    assert calls == []
    # h's circulants are built in the warm-up and kept on h
    assert [b for _, b in operator_builds if b is params.h] == [params.h]


# -- the batched challengers and solver against their pair-by-pair forms ------


@pytest.mark.parametrize("name", ["toy", "p19"])
def test_challengers_match_pairwise_cross_products(name):
    # pair by pair, with sdgr.kex's public_value and kex_shared on each
    # pair's own rows; the generator must end where the pairs' draws leave it
    params = _game(name, "mixed")
    ring = params.ring
    for seed in range(50):
        twin = random.Random(seed)
        sks, states = [], []
        for _ in range(3):
            values = ring.pair_values(ring.sample_cn(twin), ring.sample_gamma(twin))
            sks.append(SecretPair.from_values(ring, values))
            states.append(twin.getstate())
        pk1, pk2, pk3 = (public_value(params, sk) for sk in sks)
        key = kex_shared(sks[1], pk1)

        rng = random.Random(seed)
        sdpd, _ = sdpd_challenge(params, rng)
        assert sdpd.pk == pk1 and rng.getstate() == states[0]
        rng = random.Random(seed)
        csdp, k = csdp_challenge(params, rng)
        assert (csdp.pk1, csdp.pk2, k) == (pk1, pk2, key) and rng.getstate() == states[1]
        for b, want in ((0, key), (1, pk3)):
            rng = random.Random(seed)
            dsdp = dsdp_challenge(params, b, rng)
            assert (dsdp.pk1, dsdp.pk2, dsdp.k) == (pk1, pk2, want)
            assert rng.getstate() == states[2]


@pytest.mark.parametrize("name", ["toy", "p19"])
@pytest.mark.parametrize("kind", ["mixed", "cn", "cny"])
def test_warm_dsdp_trial_builds_three_circulants(name, kind, operator_builds):
    # the gamma operators of the pairs it multiplies, in one pair_rows call,
    # and pk1's for the key at b = 0; at b = 1 the CSDP key is not computed
    params = _game(name, kind, seed=3)
    rng = random.Random(6)
    dsdp_challenge(params, 0, rng)  # warm-up: h's circulants
    for b in (0, 1, 0, 1):
        operator_builds.clear()
        inst = dsdp_challenge(params, b, rng)
        kinds = [kind for kind, _ in operator_builds]
        assert kinds == ["pair_rows"] + ["circulant"] * (1 - b)
        assert len(operator_builds[0][1]) + kinds.count("circulant") == 3
        assert any(elem is inst.pk1 for _, elem in operator_builds[1:]) == (b == 0)
        assert not any(elem is params.h for _, elem in operator_builds[1:])


def _bruteforce_loop(inst):
    """Reference for sdpd_bruteforce: every a against every h gamma, one
    skew product per pair, a outermost."""
    ring = inst.params.ring
    h_gammas = [(gamma, inst.params.h * gamma) for gamma in ring.iter_gamma()]
    found = []
    for a in ring.iter_cn():
        for gamma, hg in h_gammas:
            if a * hg == inst.pk:
                found.append((a, gamma))
    return found


def test_sdpd_bruteforce_matches_the_pairwise_loop(toy_game, degenerate_game, monkeypatch):
    # the recorded draws plant a = 0 in the second challenge and gamma = 0 in
    # the third, so each game gets two zero secrets and one random one
    drawn = _recorded_pairs(monkeypatch)
    rng = random.Random(12)
    sizes = []
    for game in (toy_game, degenerate_game):
        for _ in range(3):
            inst, planted = sdpd_challenge(game, rng)
            found = sdpd_bruteforce(inst)
            assert found == _bruteforce_loop(inst)
            assert any(a == planted[0] and gamma == planted[1] for a, gamma in found)
            sizes.append(len(found))
    assert drawn[1][0].is_zero() and drawn[2][1].is_zero()
    assert sizes[1] == sizes[2] == 1449  # every a h gamma = 0 for mixed h
