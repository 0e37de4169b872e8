"""Attack-game challengers and desk-scale solvers.

Implements executable challengers for the product-decomposition (SDPD),
computational (CSDP), and decisional (DSDP) games, an exhaustive SDPD
solver with a search-space guard, and the subspace-membership distinguisher
that wins DSDP when the public element degenerates to a single summand.

The challengers and sdpd_verify compute a h gamma and a pk adjunct(gamma) by
sdgr.kex's closed forms, one cross_mul each on h's or pk's kept circulants:
they hold for any h and pk, a on C_n and reversible gamma, zero included.
The challengers draw each pair (a, gamma) with one SkewRing.sample_pair,
uniformly, zero included, exactly as the games state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .skewring import RingElement, SkewRing, SubspaceTag

SEARCH_SPACE_GUARD = 10**8


@dataclass(frozen=True, eq=False)
class GameParams:
    """Ring plus public element for a game instance.

    Unlike scheme parameters, h is allowed to be degenerate (one summand
    zero) so the trivial-win remark can be exercised.
    """

    ring: SkewRing
    h: RingElement


@dataclass(frozen=True, eq=False)
class SdpdInstance:
    params: GameParams
    pk: RingElement


@dataclass(frozen=True, eq=False)
class CsdpInstance:
    params: GameParams
    pk1: RingElement
    pk2: RingElement
    _k: RingElement = field(repr=False)


@dataclass(frozen=True, eq=False)
class DsdpInstance:
    params: GameParams
    pk1: RingElement
    pk2: RingElement
    k: RingElement
    _hidden_bit: int = field(repr=False)


def _public(params: GameParams, a: RingElement, gamma: RingElement) -> RingElement:
    """a * h * gamma for a on C_n and reversible gamma."""
    return params.ring.cross_mul(params.ring.cross_operands(a, gamma)[1], params.h)


# -- Game 1: decomposition ----------------------------------------------------


def sdpd_challenge(params: GameParams, rng) -> tuple[SdpdInstance, tuple[RingElement, RingElement]]:
    a, gamma = params.ring.sample_pair(rng)
    pk = _public(params, a, gamma)
    return SdpdInstance(params=params, pk=pk), (a, gamma)


def sdpd_verify(inst: SdpdInstance, a: RingElement, gamma: RingElement) -> bool:
    """Accept iff a h gamma equals the challenge pk (equality of products,
    not of witnesses)."""
    ring = inst.params.ring
    if ring.classify(a) not in (SubspaceTag.CN_ONLY, SubspaceTag.ZERO):
        raise ValueError("candidate a must be supported on C_n")
    if not ring.is_reversible(gamma):
        raise ValueError("candidate gamma must lie in the reversible subspace")
    return _public(inst.params, a, gamma) == inst.pk


def sdpd_search_space(ring: SkewRing) -> int:
    q2 = ring.field.order
    return q2**ring.n * q2 ** ring.gamma_free_count()


def sdpd_bruteforce(inst: SdpdInstance) -> List[tuple[RingElement, RingElement]]:
    """Exhaustive enumeration of all (a, gamma) with a h gamma = pk.

    Guarded to desk scale; precomputes h*gamma per gamma so the inner loop is
    a single product.
    """
    ring = inst.params.ring
    space = sdpd_search_space(ring)
    if space > SEARCH_SPACE_GUARD:
        raise ValueError(f"search space {space} exceeds guard {SEARCH_SPACE_GUARD}")
    h_gammas = [(gamma, inst.params.h * gamma) for gamma in ring.iter_gamma()]
    found = []
    for a in ring.iter_cn():
        for gamma, hg in h_gammas:
            if a * hg == inst.pk:
                found.append((a, gamma))
    return found


# -- Game 2: computational ----------------------------------------------------


def csdp_challenge(params: GameParams, rng) -> tuple[CsdpInstance, RingElement]:
    ring = params.ring
    a1, g1 = ring.sample_pair(rng)
    a2, g2 = ring.sample_pair(rng)
    pk1 = _public(params, a1, g1)
    w2 = ring.cross_operands(a2, g2)
    pk2 = ring.cross_mul(w2[1], params.h)
    k = ring.cross_mul(w2[0], pk1)
    inst = CsdpInstance(params=params, pk1=pk1, pk2=pk2, _k=k)
    return inst, k


def csdp_verify(inst: CsdpInstance, k_tilde: RingElement) -> bool:
    return k_tilde == inst._k


def csdp_key_from_witness(inst: CsdpInstance, a: RingElement, gamma: RingElement) -> RingElement:
    """Key an adversary derives from an SDPD witness for pk1:
    a * pk2 * adjunct(gamma), forming the adjunct: the caller's gamma may have a C_n part."""
    return a * inst.pk2 * gamma.adjunct()


# -- Game 3: decisional -------------------------------------------------------


def dsdp_challenge(params: GameParams, b: int, rng) -> DsdpInstance:
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    # the CSDP instance, then a third pair: k is its key (b = 0) or a3 h gamma3
    inst, k0 = csdp_challenge(params, rng)
    a3, g3 = params.ring.sample_pair(rng)
    k = k0 if b == 0 else _public(params, a3, g3)
    return DsdpInstance(params=params, pk1=inst.pk1, pk2=inst.pk2, k=k, _hidden_bit=b)


# -- advantage estimation ------------------------------------------------------


def wilson_interval(wins: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96  # two-sided 95% normal quantile
    phat = wins / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AdvantageEstimate:
    trials_per_arm: int
    ones_b0: int
    ones_b1: int

    @property
    def p0(self) -> float:
        return self.ones_b0 / self.trials_per_arm

    @property
    def p1(self) -> float:
        return self.ones_b1 / self.trials_per_arm

    @property
    def advantage(self) -> float:
        return abs(self.p1 - self.p0)

    def diff_interval(self) -> tuple[float, float]:
        """Newcombe interval for p1 - p0, built from the per-arm Wilson bounds."""
        l0, u0 = wilson_interval(self.ones_b0, self.trials_per_arm)
        l1, u1 = wilson_interval(self.ones_b1, self.trials_per_arm)
        d = self.p1 - self.p0
        lo = d - math.sqrt((self.p1 - l1) ** 2 + (u0 - self.p0) ** 2)
        hi = d + math.sqrt((u1 - self.p1) ** 2 + (self.p0 - l0) ** 2)
        return lo, hi


def dsdp_experiment(
    params: GameParams,
    distinguisher: Callable[[DsdpInstance], int],
    trials: int,
    rng,
) -> AdvantageEstimate:
    """Estimate |Pr[out=1 | b=0] - Pr[out=1 | b=1]| with `trials` split evenly
    across the two experiments."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_arm = max(1, trials // 2)
    ones = [0, 0]
    for b in (0, 1):
        for _ in range(per_arm):
            inst = dsdp_challenge(params, b, rng)
            if distinguisher(inst) == 1:
                ones[b] += 1
    return AdvantageEstimate(trials_per_arm=per_arm, ones_b0=ones[0], ones_b1=ones[1])


# -- the degenerate-h distinguisher -------------------------------------------


def _is_prime_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def unipotent_valuation(ring: SkewRing, a: RingElement) -> int:
    """(x-1)-adic valuation of the C_n-part polynomial, for n a power of p.

    In characteristic p with n = p^k the algebra F_{q^2}[x]/(x^n - 1) is
    local with nilpotent x-1, so every element is (x-1)^v times a unit; v is
    exact and products add valuations (capped at n).  Elements supported on
    C_n y are transported through phi first.  Returns n for zero.
    """
    if not _is_prime_power_of(ring.n, ring.p):
        raise ValueError("valuation requires n to be a power of p")
    tag = ring.classify(a)
    if tag is SubspaceTag.ZERO:
        return ring.n
    if tag is SubspaceTag.MIXED:
        raise ValueError("valuation needs an element supported on one summand")
    if tag is SubspaceTag.CNY_ONLY:
        a = ring.phi(a)
    p = ring.p
    poly = a.coeffs[: ring.n]
    for v in range(ring.n):
        if np.count_nonzero(poly.sum(axis=0) % p):  # poly(1) != 0: not divisible by x - 1
            return v
        # divide by (x - 1): q_{i-1} = p_i + p_{i+1} + ... (a suffix sum)
        poly = np.cumsum(poly[::-1], axis=0)[::-1][1:] % p
    return ring.n


def _coin(inst: DsdpInstance) -> int:
    # unbiased fallback: (pk1, pk2) have the same joint law in both
    # experiments, so a bit derived from them alone carries no advantage
    data = inst.pk1.coeffs.tobytes() + inst.pk2.coeffs.tobytes()
    return hashlib.sha256(data).digest()[0] & 1


def subspace_distinguisher(inst: DsdpInstance) -> int:
    """Guess the DSDP bit from subspace membership of the challenge key.

    With a degenerate h the real key k0 and the random key k1 land in
    different summands of the module decomposition, so a membership
    test is decisive whenever k != 0.  A zero key is consistent with both
    experiments; there the valuation identity v(k0) = v(pk1) + v(pk2) - v(h)
    rules experiment 0 in or out.  With a proper mixed h both keys are
    generically mixed and the output degrades to an unbiased hash bit.
    """
    ring = inst.params.ring
    h_tag = ring.classify(inst.params.h)
    if h_tag is SubspaceTag.CN_ONLY:
        k0_tag, k1_tag = SubspaceTag.CN_ONLY, SubspaceTag.CNY_ONLY
    elif h_tag is SubspaceTag.CNY_ONLY:
        k0_tag, k1_tag = SubspaceTag.CNY_ONLY, SubspaceTag.CN_ONLY
    else:
        return _coin(inst)

    k_tag = ring.classify(inst.k)
    if k_tag is k1_tag:
        return 1
    if k_tag is k0_tag:
        return 0

    # k = 0: decide via valuations (only meaningful when n is a power of p,
    # which every proposed parameter set satisfies)
    try:
        n = ring.n
        tags_pure = (SubspaceTag.CN_ONLY, SubspaceTag.CNY_ONLY, SubspaceTag.ZERO)
        if ring.classify(inst.pk1) not in tags_pure or ring.classify(inst.pk2) not in tags_pure:
            return _coin(inst)
        v_pk2 = unipotent_valuation(ring, inst.pk2)
        if v_pk2 >= n:
            return 0
        v_pk1 = unipotent_valuation(ring, inst.pk1)
        v_h = unipotent_valuation(ring, inst.params.h)
        # in experiment 0, v(k) = v(pk1) + (v(pk2) - v(h)); if that is < n the
        # key could not have been zero, so we must be in experiment 1
        if v_pk1 + v_pk2 - v_h < n:
            return 1
        return 0
    except ValueError:
        return _coin(inst)
