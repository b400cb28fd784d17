"""Permutations of {1, ..., n} in one-line notation.

A permutation is a plain tuple ``(s(1), ..., s(n))`` of 1-based images;
1-based indexing keeps subscripts aligned with the amplitude-matrix
conventions used elsewhere in the package.

Adjacent transpositions act on one-line forms by swapping the values at two
neighbouring slots: applying slot ``a`` to ``s`` exchanges ``s(a)`` and
``s(a+1)``.  A word ``(a_1, ..., a_m)`` is *replayed* left to right starting
from the identity, so the recorded word of a permutation rebuilds it slot
swap by slot swap.  Reduced words produced here have length equal to the
inversion count.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

Perm = tuple[int, ...]

#: Largest n accepted by enumerate_permutations unless the caller raises it.
DEFAULT_ENUMERATION_CAP = 10


def is_permutation(images: Sequence[int]) -> bool:
    """Check that ``images`` is a bijection of {1, .., n}.

    >>> is_permutation((2, 1, 3)), is_permutation((1, 1, 3))
    (True, False)
    """
    n = len(images)
    return sorted(images) == list(range(1, n + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def check_enumeration_size(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise ValueError unless 1 <= n <= cap: the guard of every walk over S_n."""
    if n < 1:
        raise ValueError(f"group size must be positive, got {n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds enumeration cap {cap} ({math.factorial(n)} elements)")


def enumerate_permutations(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Perm]:
    """All n! permutations of {1, .., n} in lexicographic order.

    ``cap`` guards the factorial blowup; exceeding it raises ValueError.
    """
    check_enumeration_size(n, cap)
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def inversions(sigma: Sequence[int]) -> int:
    """Number of pairs i < j with sigma(i) > sigma(j)."""
    n = len(sigma)
    return sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])


def sign(sigma: Sequence[int]) -> int:
    """(-1) raised to the inversion count.

    >>> sign((1, 2, 3)), sign((2, 1, 3)), sign((2, 3, 1))
    (1, -1, 1)
    """
    return -1 if inversions(sigma) % 2 else 1


def inverse(sigma: Sequence[int]) -> Perm:
    """Inverse permutation: inverse(sigma)[a-1] is the slot i with sigma(i) = a."""
    inv = [0] * len(sigma)
    for i, a in enumerate(sigma):
        inv[a - 1] = i + 1
    return tuple(inv)


def apply_word(word: Iterable[int], n: int) -> Perm:
    """Replay a word of adjacent slot swaps on the identity of S_n.

    >>> apply_word((1, 2, 1), 3)
    (3, 2, 1)
    """
    images = list(range(1, n + 1))
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"swap slot {a} out of range 1..{n - 1}")
        images[a - 1], images[a] = images[a], images[a - 1]
    return tuple(images)


def adjacent_decomposition(sigma: Sequence[int], strategy: str = "bubble") -> tuple[int, ...]:
    """A reduced word rebuilding ``sigma`` from the identity.

    The canonical word ("bubble") sorts the one-line form by left-to-right
    bubble passes and reverses the recorded swaps; "reverse" scans right to
    left and generally yields a different reduced word for the same
    permutation, which is what the word-independence tests want.  Either way
    the word length equals the inversion count.

    >>> adjacent_decomposition((3, 2, 1))
    (1, 2, 1)
    >>> adjacent_decomposition((3, 2, 1), strategy="reverse")
    (2, 1, 2)
    """
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma!r}")
    if strategy not in ("bubble", "reverse"):
        raise ValueError(f"unknown strategy {strategy!r}")
    work = list(sigma)
    n = len(work)
    recorded: list[int] = []
    scan = range(n - 1) if strategy == "bubble" else range(n - 2, -1, -1)
    changed = True
    while changed:
        changed = False
        for i in scan:
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                recorded.append(i + 1)
                changed = True
    return tuple(reversed(recorded))
