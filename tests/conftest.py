import random

import pytest

from sdgr import make_params
from sdgr.skewring import SkewRing


@pytest.fixture(scope="session")
def toy_ring() -> SkewRing:
    return SkewRing(3, 3)


@pytest.fixture(scope="session")
def p19_params():
    return make_params("p19", seed=1001)


@pytest.fixture(scope="session")
def toy_params():
    return make_params("toy", seed=1002)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(424242)


@pytest.fixture()
def operator_builds(monkeypatch) -> list:
    """("circulant", element) for every operator built, in build order: the
    (2n, 2n) F_p matrices of products in F_{q^2}[C_n], of both C_n halves
    for mul, cross_mul and pke.decrypt (a secret's w), or of sigma(G) and G
    for cross_rows (a secret's gamma)."""
    built = []
    build = SkewRing.circulant

    def spy(ring, b, *args):
        built.append(("circulant", b))
        return build(ring, b, *args)

    monkeypatch.setattr(SkewRing, "circulant", spy)
    return built


@pytest.fixture()
def adjunct_calls(monkeypatch) -> list:
    """The elements whose adjunct gets formed, in call order."""
    calls = []
    adjunct = SkewRing.adjunct

    def spy(ring, a):
        calls.append(a)
        return adjunct(ring, a)

    monkeypatch.setattr(SkewRing, "adjunct", spy)
    return calls
