"""The one case table the kernel and scheme checks run over: rings (p, n),
named here once, and rings hypothesis draws; with the operands they share."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgr.field import find_lambda, is_prime
from sdgr.kex import SecretPair
from sdgr.params import GameParams
from sdgr.skewring import SkewRing


def chain_bound(p, n):
    """The constructor's bound on a product by pair_rows' rows."""
    return n * n * (p - 1) ** 3 * (1 + find_lambda(p)) ** 2


def largest_prime(n):
    """The largest prime p whose SkewRing(p, n) passes the chain bound
    n^2 (p-1)^3 (1+lam)^2 < 2^53, searched down from where it fails for
    every lam >= 2."""
    p = int((2**53 / (9 * n * n)) ** (1 / 3)) + 2
    while not (is_prime(p) and chain_bound(p, n) < 2**53):
        p -= 1
    return p


# odd and even n: for even n the reflection x^(n/2) y mirrors onto itself
ORACLE_RINGS = [(7, 1), (7, 2), (3, 3), (7, 4), (5, 6), (19, 19)]
# the largest primes the chain bound accepts, where the float64 sums come
# closest to 2^53
EDGE_RINGS = [(largest_prime(1), 1), (largest_prime(2), 2)]
# ORACLE_RINGS, n = 2p, n = 30 != p, every parameter set, the p257 test ring
# and EDGE_RINGS, then rings hypothesis draws; the small ones also run every
# basis pair, and the attack games
SMALL_RINGS = ORACLE_RINGS + EDGE_RINGS
TABLE_RINGS = ORACLE_RINGS + [(5, 10), (23, 23), (13, 30), (31, 31), (41, 41), (257, 257)] + EDGE_RINGS
PRIMES = [p for p in range(3, 258) if is_prime(p)]


def _cases(rings):
    return [pytest.param(p, n, id=f"{p}-{n}") for p, n in rings] + [pytest.param(None, None, id="random")]


TABLE_CASES, SMALL_CASES = _cases(TABLE_RINGS), _cases(SMALL_RINGS)


def on_case(p, n, check):
    """check(ring, rng, small) on the table's ring (p, n), or, for the random
    case, on rings hypothesis draws: p prime <= 257, n <= 12."""
    if p is not None:
        check(SkewRing(p, n), random.Random(1000 * p + n), (p, n) in SMALL_RINGS)
        return

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 12))
    def drawn(p, n):
        check(SkewRing(p, n), random.Random(1000 * p + n), False)

    drawn()


def on_params(p, n, *checks):
    """Each check(params, rng) in turn, as on_case runs checks, on a
    GameParams with a drawn mixed h: the schemes read only .ring and .h, so
    they run where Params refuses the ring (p does not divide n) too."""

    def run(ring, rng, small):
        params = GameParams(ring=ring, h=ring.gen_public_element(rng))
        for check in checks:
            check(params, rng)

    on_case(p, n, run)


def oracle_cases(ring, cases, last=False):
    """The cases a naive-product oracle checks: all of them, or past 100
    coefficients (p257), where one naive product takes a third of a second,
    the last one if last, else none."""
    return cases if ring.size <= 100 else cases[-1:] if last else []


def top(ring):
    """The all p - 1 element."""
    return ring.element([(ring.p - 1, ring.p - 1)] * ring.size)


def top_pair(ring):
    """The secret pair whose a and gamma's free coordinates are all p - 1."""
    return SecretPair.from_values(ring, np.full((ring.n + ring.gamma_free_count(), 2), ring.p - 1))
