import pytest

from sdgr.dihedral import (
    AutomorphismTag,
    build_table,
    compose_tags,
    inverse,
    mul_index,
    theta,
)


def test_mul_index_hand_examples_n3():
    n = 3
    # x * x = x^2
    assert mul_index(n, 1, 1) == 2
    # x * y = xy
    assert mul_index(n, 1, 3) == 4
    # y * x = x^-1 y = x^2 y
    assert mul_index(n, 3, 1) == 5
    # y * y = 1
    assert mul_index(n, 3, 3) == 0
    # xy * xy = 1
    assert mul_index(n, 4, 4) == 0
    # x^2 y * x = x y
    assert mul_index(n, 5, 1) == 4


def test_identity_element():
    for n in (3, 5, 19):
        table = build_table(n)
        for k in range(2 * n):
            assert table[0, k] == k
            assert table[k, 0] == k


def test_table_matches_closed_form():
    for n in (3, 4, 7, 19):
        table = build_table(n)
        for k1 in range(2 * n):
            for k2 in range(2 * n):
                assert table[k1, k2] == mul_index(n, k1, k2)


@pytest.mark.parametrize("n", [3, 5, 19])
def test_associativity_exhaustive(n):
    table = build_table(n)
    size = 2 * n
    for a in range(size):
        for b in range(size):
            ab = table[a, b]
            for c in range(size):
                assert table[ab, c] == table[a, table[b, c]]


@pytest.mark.parametrize("n", [3, 4, 19])
def test_inverse(n):
    table = build_table(n)
    for k in range(2 * n):
        assert table[k, inverse(n, k)] == 0
        assert table[inverse(n, k), k] == 0


def test_table_is_latin_square():
    n = 19
    table = build_table(n)
    size = 2 * n
    full = set(range(size))
    for k in range(size):
        assert set(table[k].tolist()) == full
        assert set(table[:, k].tolist()) == full


def test_theta_assignment():
    n = 5
    for k in range(n):
        assert theta(n, k) is AutomorphismTag.IDENTITY
    for k in range(n, 2 * n):
        assert theta(n, k) is AutomorphismTag.SIGMA


@pytest.mark.parametrize("n", [3, 19])
def test_theta_is_homomorphism(n):
    for k1 in range(2 * n):
        for k2 in range(2 * n):
            lhs = theta(n, mul_index(n, k1, k2))
            rhs = compose_tags(theta(n, k1), theta(n, k2))
            assert lhs is rhs


def test_compose_tags():
    i, s = AutomorphismTag.IDENTITY, AutomorphismTag.SIGMA
    assert compose_tags(i, i) is i
    assert compose_tags(s, s) is i
    assert compose_tags(i, s) is s
    assert compose_tags(s, i) is s


def test_index_bounds():
    with pytest.raises(IndexError):
        mul_index(3, 6, 0)
    with pytest.raises(IndexError):
        inverse(3, -1)
    with pytest.raises(IndexError):
        theta(3, 6)
    with pytest.raises(ValueError):
        build_table(0)
