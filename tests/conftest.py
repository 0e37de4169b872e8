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
    """(kind, element) for every operator built, in build order: kind
    "right_operator" for mul's (4n, 2n) operator, "circulant" for the
    (2n, 2n) F_p matrices of products in F_{q^2}[C_n]: cross_mul's of both
    C_n halves, or cross_operands' of sigma(G) and G."""
    built = []

    def spy_on(kind):
        build = getattr(SkewRing, kind)

        def spy(ring, b, *args):
            built.append((kind, b))
            return build(ring, b, *args)

        monkeypatch.setattr(SkewRing, kind, spy)

    spy_on("right_operator")
    spy_on("circulant")
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
