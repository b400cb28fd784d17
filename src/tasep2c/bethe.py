"""Scattering matrices, slot operators and amplitudes.

The transition kernel of the two-species exclusion process is a permutation
sum of plane waves with matrix amplitudes.  The building block is the 4x4
two-particle scattering matrix, written in the species-pair basis ordered
(11, 12, 21, 22):

    S(xi_a, xi_b) = [ s  .  .  . ]      s = -(1 - xi_b) / (1 - xi_a)
                    [ .  s  q  . ]      q = (xi_b - xi_a) / (1 - xi_a)
                    [ .  . -1  . ]
                    [ .  .  .  s ]

Embedding S at neighbouring chain slots (l, l+1) of an N-site species chain
by tensoring with 2x2 identities gives the slot operator T_l.  Replaying a
reduced word of a permutation through T factors, with the scattering
parameters read off the partially built permutation at each step, produces
the amplitude matrix of that permutation; the braid relations make the
result independent of the chosen word.

Formulas need a single amplitude column rather than the whole matrix.
:func:`amplitude_columns` pushes a unit column through the T factors of
every permutation at once, sharing the steps of common word prefixes, and
yields each permutation's column as it is reached, so a caller that sums as
it goes holds one path of columns and no 2^N x 2^N matrix.
:func:`amplitude_column` pushes the one column of one permutation, which is
how the identity suite checks the center entry's closed form.
:func:`braid_relations_hold` and :func:`bethe_residuals` apply their
operators to vectors through the same push, and :func:`amplitude`
assembles a whole matrix column by column, building its word's blocks once.

Matrices are stored sparsely (dict-of-rows) and columns as {row: value},
because T factors have at most two nonzeros per row and amplitudes stay
upper triangular.
Entries are generic scalars, and :func:`scattering_matrix` is the one
statement of S for all of them: elements of GF(2^61 - 1) at the identity
suite's random points, with exact fractions as its hand-checkable anchors;
integer Laurent polynomials in the u_a = 1 - xi_a for the residue route,
which evaluates S at the symbolic point xi_a = 1 - u_a
(:func:`tasep2c.formulas._sym_columns`); complex floats or numpy node
arrays for quadrature.

Species words index matrix rows the same way throughout the package: the
word (w_1 ... w_N) over {1, 2} maps to the binary integer with digits
(w_i - 1), most significant first, so the word 21...1 sits at 0-based index
2^(N-1) (the "center" slot).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from numpy import ndarray

from .errors import PoleError
from .permutations import adjacent_decomposition, enumerate_permutations, sign


def _is_scalar_zero(value) -> bool:
    """True for a zero scalar entry; a numpy array entry is never pruned."""
    return type(value) is not ndarray and not value


class SparseMatrix:
    """Square sparse matrix over a generic scalar type.

    rows maps row index -> {column index -> value}; exact zeros are never
    stored, so structural checks (triangularity, diagonal-only rows) read
    straight off the dictionaries.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: dict | None = None):
        self.n = n
        self.rows = rows if rows is not None else {}

    def get(self, i: int, j: int):
        return self.rows.get(i, {}).get(j, 0)

    def set(self, i: int, j: int, value) -> None:
        if _is_scalar_zero(value):
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
            return
        self.rows.setdefault(i, {})[j] = value

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """Unused here; kept for ``benchmarks/bench_trace.py``'s hook (ROADMAP item 4)."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out: dict = {}
        orows = other.rows
        for i, row in self.rows.items():
            acc: dict = {}
            for k, a in row.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    prod = a * b
                    if j in acc:
                        acc[j] = acc[j] + prod
                    else:
                        acc[j] = prod
            acc = {j: v for j, v in acc.items() if not _is_scalar_zero(v)}
            if acc:
                out[i] = acc
        return SparseMatrix(self.n, out)


def word_index(word) -> int:
    """0-based matrix index of a species word over {1, 2} (e.g. "21")."""
    idx = 0
    for w in word:
        idx = (idx << 1) | (int(w) - 1)
    return idx


def center_index(n: int) -> int:
    """0-based index of the species word 21...1."""
    return 1 << (n - 1)


def _check_not_pole(xi_alpha) -> None:
    if getattr(xi_alpha, "shape", None) is None and xi_alpha == 1:
        raise PoleError("scattering matrix has a pole at xi_alpha = 1")


def scattering_matrix(xi_alpha, xi_beta) -> SparseMatrix:
    """The 4x4 two-particle scattering matrix in the basis (11, 12, 21, 22)."""
    _check_not_pole(xi_alpha)
    s = -(1 - xi_beta) / (1 - xi_alpha)
    q = (xi_beta - xi_alpha) / (1 - xi_alpha)
    m = SparseMatrix(4)
    m.set(0, 0, s)
    m.set(1, 1, s)
    m.set(1, 2, q)
    m.set(2, 2, -1)
    m.set(3, 3, s)
    return m


def blocking_matrix() -> SparseMatrix:
    """The 4x4 collision reduction matrix B in the basis (11, 12, 21, 22).

    B encodes the boundary condition at coinciding coordinates: rows
    (1, 1), (2, [2 and 3]) and (4, 4) carry ones, the 21-row is zero.
    """
    return SparseMatrix(4, {0: {0: 1}, 1: {1: 1, 2: 1}, 3: {3: 1}})


def two_site_embed(block: SparseMatrix, slot: int, n: int) -> SparseMatrix:
    """Embed a 4x4 block at chain slots (slot, slot+1) of an n-site chain.

    The result is identity on all other tensor factors; each nonzero of
    the block fans out over the 2^(slot-1) * 2^(n-slot-1) spectator states.
    Unused here; kept for ``benchmarks/bench_trace.py``'s hook (ROADMAP item 4).
    """
    if block.n != 4:
        raise ValueError("block must be 4x4")
    if not 1 <= slot <= n - 1:
        raise ValueError(f"slot {slot} out of range 1..{n - 1}")
    right = n - slot - 1
    out = SparseMatrix(1 << n)
    for s, row in block.rows.items():
        for s2, v in row.items():
            for u in range(1 << (slot - 1)):
                base_i = ((u << 2) | s) << right
                base_j = ((u << 2) | s2) << right
                for w in range(1 << right):
                    out.set(base_i | w, base_j | w, v)
    return out


def _letters(word: Iterable[int], xi: Sequence) -> Iterator[tuple]:
    """(a, xi_alpha, xi_beta) per letter a of a word of adjacent swaps.

    alpha and beta are the values at slots a and a + 1 of the permutation
    the word has built before that letter.
    """
    current = list(range(1, len(xi) + 1))
    for a in word:
        alpha, beta = current[a - 1], current[a]
        yield a, xi[alpha - 1], xi[beta - 1]
        current[a - 1], current[a] = beta, alpha


def amplitude(sigma: Sequence[int], point) -> SparseMatrix:
    """Amplitude matrix of a permutation (identity permutation -> identity).

    Assembled from its columns: each unit column is pushed through the
    slot operators of sigma's canonical word, as in :func:`amplitude_column`,
    with the word's 4x4 blocks built once for all 2^N columns.
    """
    xi = tuple(point)
    n = len(xi)
    blocks = _word_blocks(sigma, xi)
    mat = SparseMatrix(1 << n)
    for c in range(mat.n):
        for row, value in _push_word({c: 1}, blocks, n).items():
            mat.set(row, c, value)
    return mat


def _word_blocks(sigma: Sequence[int], xi: tuple) -> list[tuple[int, SparseMatrix]]:
    """(slot, 4x4 block) per letter of the canonical word of sigma at the point xi."""
    if len(sigma) != len(xi):
        raise ValueError("permutation size does not match the spectral point")
    letters = _letters(adjacent_decomposition(sigma), xi)
    return [(a, scattering_matrix(x, y)) for a, x, y in letters]


def _push_word(column: dict, blocks: list[tuple[int, SparseMatrix]], n: int) -> dict:
    """A sparse column pushed through the slot operators of a word's blocks, in order."""
    for a, block in blocks:
        column = _push_column(column, block, a, n)
    return column


@lru_cache(maxsize=8)
def _word_trie(n: int) -> dict:
    """Prefix tree of the canonical reduced words of S_n.

    Children are keyed by slot; the key None holds the permutation whose
    word ends at that node.
    """
    root: dict = {}
    for sigma in enumerate_permutations(n):
        node = root
        for a in adjacent_decomposition(sigma):
            node = node.setdefault(a, {})
        node[None] = sigma
    return root


def _push_column(column: dict, block: SparseMatrix, slot: int, n: int) -> dict:
    """Apply the slot operator of a 4x4 block to a sparse column vector.

    The one way a slot operator acts in the package: amplitude columns,
    braid relations and the residuals' blocking step all push through it,
    and no 2^N x 2^N operator is built.  The column is sorted once into four
    buckets by its 2-bit state at the slot, keeping column order within
    each, and each block entry runs over its own bucket, so each output
    entry collects its terms in block-row order.
    """
    right = n - slot - 1
    keep = ~(3 << right)
    buckets: tuple[list, ...] = ([], [], [], [])
    for k, b in column.items():
        buckets[(k >> right) & 3].append((k & keep, b))
    out: dict = {}
    for s, row in block.rows.items():
        high = s << right
        for s2, a in row.items():
            for base, b in buckets[s2]:
                i = base | high
                term = a * b
                out[i] = out[i] + term if i in out else term
    return {i: v for i, v in out.items() if not _is_scalar_zero(v)}


def amplitude_columns(n: int, col: int, point: Sequence) -> Iterator[tuple[tuple, dict]]:
    """Column ``col`` of the amplitude matrix of every permutation of S_n.

    Yields (sigma, {row: value}) as a depth-first walk of the prefix tree of
    reduced words reaches the node where sigma's word ends: the unit column
    e_col pushed through the slot operators of the canonical word of sigma,
    without building any 2^N x 2^N matrix.  Only the columns on one
    root-to-node path are alive at a time.  The 4x4 block for the 1-based
    particle labels alpha, beta is ``scattering_matrix(point[alpha - 1],
    point[beta - 1])``, built once, so entries may be any scalar type of the
    point (exact, symbolic, numpy node arrays).  Species counts are
    conserved, so a column holds at most C(N, #2s) entries.  Permutations whose words share a
    prefix share its slot steps (154 instead of 600 at N = 5).  The words
    are the canonical ones of :func:`amplitude_column`, so each column is
    the one it pushes for sigma, operation by operation.
    """
    return _walk(_word_trie(n), {col: 1}, list(range(1, n + 1)), n, point, {})


def _walk(node: dict, column: dict, current: list, n: int, point: Sequence, blocks: dict):
    """The walk of :func:`amplitude_columns` below one trie node, sharing ``blocks``.

    A module-level generator, not a closure that calls itself: such a
    closure is a reference cycle, which would keep its blocks (numpy node
    arrays, on the quadrature route) alive until the next cyclic garbage
    collection instead of freeing them when the walk ends.
    """
    sigma = node.get(None)
    if sigma is not None:
        yield sigma, column
    for a, child in node.items():
        if a is None:
            continue
        alpha, beta = current[a - 1], current[a]
        block = blocks.get((alpha, beta))
        if block is None:
            block = scattering_matrix(point[alpha - 1], point[beta - 1])
            blocks[(alpha, beta)] = block
        nxt = list(current)
        nxt[a - 1], nxt[a] = beta, alpha
        yield from _walk(child, _push_column(column, block, a, n), nxt, n, point, blocks)


def amplitude_column(sigma: Sequence[int], col: int, point: Sequence) -> dict:
    """Column ``col`` of ``amplitude(sigma, point)`` as {row: value}.

    The unit column e_col pushed through the slot operators of the canonical
    word of sigma, one 4x4 block per letter: the column that
    :func:`amplitude_columns` reaches for sigma, for one permutation.
    """
    xi = tuple(point)
    return _push_word({col: 1}, _word_blocks(sigma, xi), len(xi))


def amplitude_center(sigma: Sequence[int], point):
    """Closed form for the center entry of the amplitude matrix.

    The (2^(N-1), 2^(N-1)) entry (0-based) factorizes as

        sign(sigma) * prod_{i=0}^{N-2} ((1 - xi_{2+i}) / (1 - xi_{sigma(2+i)}))^i

    and is the only amplitude entry with a product formula; for N = 1 it
    is 1.  Poles at xi = 1 raise PoleError.
    """
    xi = tuple(point)
    n = len(xi)
    if len(sigma) != n:
        raise ValueError("permutation size does not match the spectral point")
    if n <= 2:
        return sign(sigma)
    num = den = 1
    for i in range(1, n - 1):
        factor = 1 - xi[sigma[1 + i] - 1]
        if _is_scalar_zero(factor):
            raise PoleError("closed form hits a pole at xi = 1")
        num = num * (1 - xi[1 + i]) ** i
        den = den * factor**i
    # one division per permutation: over a finite field each is an inverse
    return sign(sigma) * num / den


def braid_relations_hold(point, atol=0) -> bool:
    """Check the slot-operator consistency relations at one spectral point.

    (i)   T_i and T_j commute when |i - j| >= 2 (needs N >= 4);
    (ii)  T_i(b,c) T_j(a,c) T_i(a,b) = T_j(a,b) T_i(a,c) T_j(b,c) for
          |i - j| = 1 (needs N >= 3);
    (iii) T_i(b,a) T_i(a,b) is the identity.

    Both sides of every relation are applied to vectors through
    :func:`_push_column`, the kernel of the amplitude columns, with one 4x4
    block per (alpha, beta) pair: 4 blocks at N = 3 and 5 from N = 4 on.
    Over GF(p) the vector is one uniform random vector (Freivalds 1977),
    drawn from a ``random.Random`` keyed by the point's residues, so a
    relation that fails at the point passes with probability at most 1 / p.
    Over Q and floats the vectors are all 2^N unit columns, so the verdict
    is that of comparing the two 2^N x 2^N matrices.  A relation's first
    push T_slot(a, b) v is taken once per vector and shared by every
    relation that starts with it.

    With atol=0 the two sides must be equal: no exact zero is ever stored,
    so equal vectors have equal entries, compared without an ordering of
    the scalars; exact fractions and elements of a finite field compare
    alike.  Pass a small atol for floating point components; a NaN entry
    fails the check.
    """
    xi = tuple(point)
    n = len(xi)
    blocks: dict = {}

    def push(column: dict, letter: tuple) -> dict:
        slot, a, b = letter
        block = blocks.get((a, b))
        if block is None:
            block = blocks[(a, b)] = scattering_matrix(xi[a - 1], xi[b - 1])
        return _push_column(column, block, slot, n)

    relations = _braid_relations(n)
    for v in _braid_vectors(xi):
        first: dict = {}
        for lhs, rhs in relations:
            sides = []
            for word in (lhs, rhs):
                w = v
                if word:
                    w = first.get(word[0])
                    if w is None:
                        w = first[word[0]] = push(v, word[0])
                    for letter in word[1:]:
                        w = push(w, letter)
                sides.append(w)
            if not _vectors_close(*sides, atol):
                return False
    return True


def _braid_relations(n: int) -> list:
    """Both sides of every relation of :func:`braid_relations_hold` at n sites.

    Each side is its letters (slot, alpha, beta) in the order they act on a
    vector, the rightmost factor first; the empty side is the identity.
    """
    relations = [(((slot, 1, 2), (slot, 2, 1)), ()) for slot in range(1, n)]
    for slot in range(1, n - 1):
        for i, j in ((slot, slot + 1), (slot + 1, slot)):
            relations.append((((i, 1, 2), (j, 1, 3), (i, 2, 3)),
                              ((j, 2, 3), (i, 1, 3), (j, 1, 2))))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            relations.append((((j, 3, 4), (i, 1, 2)), ((i, 1, 2), (j, 3, 4))))
    return relations


def _braid_vectors(xi: tuple) -> Iterable[dict]:
    """The vectors :func:`braid_relations_hold` applies both sides to.

    One uniform random vector over GF(p) if a coordinate is a field element,
    drawn from its own generator keyed by the residues, so no caller's
    random stream moves; all 2^N unit columns otherwise.
    """
    from .identities import PRIME, GFp  # identities imports this module

    size = 1 << len(xi)
    if any(type(z) is GFp for z in xi):
        rng = random.Random(repr(tuple(GFp(z).v for z in xi)))
        draws = (GFp(rng.randrange(PRIME)) for _ in range(size))
        return [{k: r for k, r in enumerate(draws) if r}]
    return ({c: 1} for c in range(size))


def _vectors_close(x: dict, y: dict, atol) -> bool:
    """x == y entry by entry for atol=0, else every |x_k - y_k| <= atol (NaN fails)."""
    if atol == 0:
        return x == y
    return all(abs(x.get(k, 0) - y.get(k, 0)) <= atol for k in x.keys() | y.keys())


def bethe_residuals(point, positions: Sequence[int]):
    """Residuals of the free evolution equation and coincidence reduction.

    With F(X) = sum over permutations of A_sigma * prod_i xi_sigma(i)^x_i,
    the free residual is the largest entry of

        eps * F(X) + N * F(X) - sum_i F(X - e_i),      eps = sum_i (1/xi_i - 1),

    and the i-th boundary residual is the largest entry of

        F(.., x, x, ..) - B_i F(.., x, x+1, ..)         at x = positions[i],

    with B_i the collision matrix acting at slots (i, i+1).  Both vanish
    identically; over exact fractions the returned values are exact zeros,
    and a NaN entry makes its residual NaN.  The time factor e^(eps t) is
    common to every term, so the residuals are taken at t = 0, which keeps
    everything exact.  Each F(X) e_c sums, in permutation order, the columns
    A_sigma e_c of one walk per unit column e_c.
    """
    xi = tuple(point)
    n = len(xi)
    perms = enumerate_permutations(n)

    def coefficients(i=None, x=None):  # prod_j xi_sigma(j)^x_j per sigma, x_i set to x
        xs = [x if j == i else y for j, y in enumerate(positions)]
        return [(p, math.prod(xi[p[j] - 1] ** y for j, y in enumerate(xs))) for p in perms]

    def field(columns, coeffs):
        out: dict = {}
        for p, coeff in coeffs:
            for row, v in columns[p].items():
                term = coeff * v
                out[row] = out[row] + term if row in out else term
        return out

    def minus(x, y):
        return {row: x.get(row, 0) - y.get(row, 0) for row in x.keys() | y.keys()}

    eps = sum(1 / z - 1 for z in xi)
    free = [coefficients()] + [coefficients(i, positions[i] - 1) for i in range(n)]
    pairs = [(coefficients(i, positions[i - 1]), coefficients(i, positions[i - 1] + 1))
             for i in range(1, n)]
    block, blocks = blocking_matrix(), {}
    free_residual, boundary = 0, [0] * (n - 1)
    for c in range(1 << n):
        columns = dict(_walk(_word_trie(n), {c: 1}, list(range(1, n + 1)), n, xi, blocks))
        fx, *shifted = (field(columns, coeffs) for coeffs in free)
        residual = {row: (eps + n) * v for row, v in fx.items()}
        for f in shifted:
            residual = minus(residual, f)
        free_residual = _max_abs(residual.values(), free_residual)
        for i, (coincident, split) in enumerate(pairs):
            pushed = _push_column(field(columns, split), block, i + 1, n)
            boundary[i] = _max_abs(minus(field(columns, coincident), pushed).values(), boundary[i])
    return free_residual, tuple(boundary)


def _max_abs(values: Iterable, best=0):
    """The largest of best and every |value|; NaN once best or a value is NaN."""
    for v in values:
        a = abs(v)
        if a > best:
            best = a
        elif a != a:
            return a
    return best
