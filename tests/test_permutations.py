import math

import pytest

from tasep2c.permutations import (
    adjacent_decomposition,
    apply_word,
    enumerate_permutations,
    identity,
    inverse,
    inversions,
    is_permutation,
    sign,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # test-only dependency: only the property tests need it
    perms = None

    def given(_strategy):
        return lambda _test: lambda: pytest.importorskip("hypothesis")

else:
    perms = st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


def test_enumerate_sizes_and_signs():
    assert enumerate_permutations(1) == [(1,)]
    assert enumerate_permutations(2) == [(1, 2), (2, 1)]
    assert [sign(p) for p in enumerate_permutations(2)] == [1, -1]
    six = enumerate_permutations(3)
    assert len(six) == 6
    assert sum(1 for p in six if sign(p) == -1) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_no_duplicates(n):
    ps = enumerate_permutations(n)
    assert len(set(ps)) == math.factorial(n)
    assert all(is_permutation(p) for p in ps)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_permutations(11)
    with pytest.raises(ValueError):
        enumerate_permutations(0)


def test_decomposition_examples():
    assert adjacent_decomposition((1, 2, 3)) == ()
    assert adjacent_decomposition((2, 1)) == (1,)
    word = adjacent_decomposition((3, 2, 1))
    assert len(word) == 3
    assert apply_word(word, 3) == (3, 2, 1)


def test_sign_examples():
    assert sign(identity(4)) == 1
    assert sign((2, 1)) == -1
    assert inversions((2, 3, 1)) == 2
    assert sign((2, 3, 1)) == 1


@given(perms)
def test_recomposition_roundtrip(p):
    p = tuple(p)
    for strategy in ("bubble", "reverse"):
        word = adjacent_decomposition(p, strategy=strategy)
        assert apply_word(word, len(p)) == p
        assert len(word) == inversions(p)


@given(perms)
def test_sign_matches_word_length(p):
    p = tuple(p)
    assert sign(p) == (-1) ** len(adjacent_decomposition(p))


@given(perms)
def test_inverse_is_inverse(p):
    p = tuple(p)
    inv = inverse(p)
    assert tuple(p[inv[a - 1] - 1] for a in range(1, len(p) + 1)) == identity(len(p))


def test_invalid_permutations_rejected():
    assert not is_permutation((1, 1, 3))
    with pytest.raises(ValueError):
        adjacent_decomposition((1, 1, 3))
    with pytest.raises(ValueError):
        apply_word((5,), 3)
