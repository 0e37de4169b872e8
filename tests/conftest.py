import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sdgr import make_params
from sdgr.params import Params
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


@pytest.fixture(scope="session")
def p257_params():
    """A prime wider than a byte: 9-bit chunks in pack_bits, unpack_bits and
    h1_values, and randrange calls in SkewRing._draw."""
    ring = SkewRing(257, 257)
    return Params(ring=ring, h=ring.gen_public_element(random.Random(1003)))


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(424242)


@pytest.fixture(scope="session")
def run_python():
    """Run `python *args` in a child process that imports sdgr from this
    checkout's src, and return the CompletedProcess with text output."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

    return run


@pytest.fixture()
def operator_builds(monkeypatch) -> list:
    """Every operator built, in build order: ("circulant", element) for the
    (2n, 2n) F_p matrices of products in F_{q^2}[C_n] by both C_n halves of
    an element, for mul, cross_mul and pke.decrypt (a secret's w), and
    ("pair_rows", values) for each call that gathers, for every pair (a, G y)
    of its values, the matrix of a and the rows [sigma(G); G] it multiplies."""
    built = []
    build, pair_rows = SkewRing.circulant, SkewRing.pair_rows

    def spy(ring, b):
        built.append(("circulant", b))
        return build(ring, b)

    def pair_spy(ring, values):
        built.append(("pair_rows", values))
        return pair_rows(ring, values)

    monkeypatch.setattr(SkewRing, "circulant", spy)
    monkeypatch.setattr(SkewRing, "pair_rows", pair_spy)
    return built


@pytest.fixture()
def pair_from_values_calls(monkeypatch) -> list:
    """The values each pair's ring elements a and gamma get built from, in
    call order."""
    calls = []
    pair_from_values = SkewRing.pair_from_values

    def spy(ring, values):
        calls.append(values)
        return pair_from_values(ring, values)

    monkeypatch.setattr(SkewRing, "pair_from_values", spy)
    return calls


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
