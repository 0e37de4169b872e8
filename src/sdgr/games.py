"""Attack-game challengers and desk-scale solvers.

Implements executable challengers for the product-decomposition (SDPD),
computational (CSDP), and decisional (DSDP) games, an exhaustive SDPD
solver with a search-space guard, and the subspace-membership distinguisher
that wins DSDP when the public element degenerates to a single summand.

Every public value of a challenge is a product by the same h.  The
challengers draw a challenge's pairs (a, gamma) in one
SkewRing.sample_pair_values, uniformly, zero included, as the games state.
They, and sdpd_verify for its candidate, take the pairs' raw cross rows
[v; u] in one SkewRing.pair_rows and compute every a h gamma = v h_Y +
(u h_C) y (sdgr.kex's closed form) in one SkewRing.cross_mul by h.
The CSDP key a2 pk1 adjunct(gamma2) = u2 pk1_Y + (v2 pk1_C) y is pair 2's
rows, reversed, by pk1; a DSDP trial with b = 1 does not compute it.  The
forms hold for any h, a on C_n and reversible gamma, zero included.  The
solver fixes the right operand instead: one cross_mul of every a_C's raw
row per h gamma.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .params import GameParams
from .skewring import Frozen, RingElement, SkewRing, SubspaceTag, _set

SEARCH_SPACE_GUARD = 10**8


class SdpdInstance(Frozen):
    __slots__ = ("params", "pk")

    def __init__(self, params: GameParams, pk: RingElement) -> None:
        _set(self, "params", params)
        _set(self, "pk", pk)


class CsdpInstance(Frozen):
    __slots__ = ("params", "pk1", "pk2", "_k")

    def __init__(self, params: GameParams, pk1: RingElement, pk2: RingElement, _k: RingElement) -> None:
        _set(self, "params", params)
        _set(self, "pk1", pk1)
        _set(self, "pk2", pk2)
        _set(self, "_k", _k)


class DsdpInstance(Frozen):
    __slots__ = ("params", "pk1", "pk2", "k", "_hidden_bit")

    def __init__(
        self, params: GameParams, pk1: RingElement, pk2: RingElement, k: RingElement, _hidden_bit: int
    ) -> None:
        _set(self, "params", params)
        _set(self, "pk1", pk1)
        _set(self, "pk2", pk2)
        _set(self, "k", k)
        _set(self, "_hidden_bit", _hidden_bit)


def _publics(params: GameParams, values: np.ndarray) -> tuple[np.ndarray, list[RingElement]]:
    """The raw cross rows [v; u], (m, 2, 1, 2n), of the pairs with values
    (m, n + n//2 + 1, 2) (SkewRing.pair_rows), and each pair's public value
    a h gamma = v h_Y + (u h_C) y: one cross_mul of all the rows with h."""
    ring = params.ring
    rows = ring.pair_rows(values)
    return rows, [RingElement(ring, c) for c in ring.cross_mul(rows, params.h)]


# -- Game 1: decomposition ----------------------------------------------------


def sdpd_challenge(params: GameParams, rng) -> tuple[SdpdInstance, tuple[RingElement, RingElement]]:
    values = params.ring.sample_pair_values(rng)
    _, (pk,) = _publics(params, values)
    return SdpdInstance(params=params, pk=pk), params.ring.pair_from_values(values[0])


def sdpd_verify(inst: SdpdInstance, a: RingElement, gamma: RingElement) -> bool:
    """Accept iff a h gamma equals the challenge pk (equality of products,
    not of witnesses)."""
    ring = inst.params.ring
    if ring.classify(a) not in (SubspaceTag.CN_ONLY, SubspaceTag.ZERO):
        raise ValueError("candidate a must be supported on C_n")
    if not ring.is_reversible(gamma):
        raise ValueError("candidate gamma must lie in the reversible subspace")
    _, (pk,) = _publics(inst.params, ring.pair_values(a, gamma)[None])
    return pk == inst.pk


def sdpd_search_space(ring: SkewRing) -> int:
    q2 = ring.field.order
    return q2**ring.n * q2 ** ring.gamma_free_count()


def sdpd_bruteforce(inst: SdpdInstance) -> List[tuple[RingElement, RingElement]]:
    """Exhaustive enumeration of all (a, gamma) with a h gamma = pk, in
    iter_cn order with gamma fastest.

    Guarded to desk scale.  An a on C_n has a z = a_C z_C + (a_C z_Y) y, so
    for each gamma one cross_mul of every a_C's raw row, as both rows
    [w_C; w_Y], by z = h gamma gives every a z_Y + (a z_C) y, its halves
    swapped.  Only the hits become elements.
    """
    ring = inst.params.ring
    space = sdpd_search_space(ring)
    if space > SEARCH_SPACE_GUARD:
        raise ValueError(f"search space {space} exceeds guard {SEARCH_SPACE_GUARD}")
    gammas = list(ring.iter_gamma())
    rows = np.indices((ring.p,) * ring.size).reshape(ring.size, -1).T  # every a_C, in iter_cn order
    target = np.roll(inst.pk.coeffs, ring.n, axis=0)  # pk_Y + pk_C y
    hits = []
    for j, gamma in enumerate(gammas):
        out = ring.cross_mul(rows[:, None, None], inst.params.h * gamma)
        hits.extend((i, j) for i in np.flatnonzero((out == target).all(axis=(1, 2))))
    hits.sort()
    cns = np.pad(rows[[i for i, _ in hits]], ((0, 0), (0, ring.size))).reshape(-1, ring.size, 2)
    return [(RingElement(ring, a), gammas[j]) for a, (_, j) in zip(cns, hits)]


# -- Game 2: computational ----------------------------------------------------


def csdp_challenge(params: GameParams, rng) -> tuple[CsdpInstance, RingElement]:
    ring = params.ring
    rows, (pk1, pk2) = _publics(params, ring.sample_pair_values(rng, 2))
    k = RingElement(ring, ring.cross_mul(rows[1, ::-1], pk1))  # u2 pk1_Y + (v2 pk1_C) y
    return CsdpInstance(params=params, pk1=pk1, pk2=pk2, _k=k), k


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
    # the CSDP instance's two pairs, then a third, in one draw: k is the CSDP
    # key (b = 0) or a3 h gamma3 (b = 1), and the other one is not computed
    ring = params.ring
    rows, pks = _publics(params, ring.sample_pair_values(rng, 3)[: 2 + b])
    k = pks[2] if b else RingElement(ring, ring.cross_mul(rows[1, ::-1], pks[0]))
    return DsdpInstance(params=params, pk1=pks[0], pk2=pks[1], k=k, _hidden_bit=b)


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
    """Estimate |Pr[out=1 | b=0] - Pr[out=1 | b=1]| from max(1, trials // 2)
    trials per experiment: trials=1 runs two, and an odd count drops one."""
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
    h_tag = inst.params.h_tag
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
