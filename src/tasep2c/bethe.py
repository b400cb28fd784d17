"""Scattering matrices, tensor-embedded two-site operators and amplitudes.

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
it goes holds one path of columns and no 2^N x 2^N matrix; the full matrices of :func:`amplitude` serve the
structure, braid and closed-form checks.

All matrices here are stored sparsely (dict-of-rows) because T factors have
at most two nonzeros per row and amplitude products stay upper triangular.
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

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, {i: {i: 1} for i in range(n)})

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

    def _merge(self, other: "SparseMatrix", flip: bool) -> "SparseMatrix":
        out = {i: dict(row) for i, row in self.rows.items()}
        for i, row in other.rows.items():
            dst = out.setdefault(i, {})
            for j, v in row.items():
                w = -v if flip else v
                dst[j] = dst[j] + w if j in dst else w
        for i in list(out):
            out[i] = {j: v for j, v in out[i].items() if not _is_scalar_zero(v)}
            if not out[i]:
                del out[i]
        return SparseMatrix(self.n, out)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merge(other, flip=False)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merge(other, flip=True)

    def scaled(self, c) -> "SparseMatrix":
        return SparseMatrix(
            self.n, {i: {j: c * v for j, v in row.items()} for i, row in self.rows.items()}
        )

    def max_abs(self):
        """Largest absolute entry; 0 for the zero matrix, NaN if any entry is NaN."""
        best = 0
        for row in self.rows.values():
            for v in row.values():
                a = abs(v)
                if a > best:
                    best = a
                elif a != a:
                    return a
        return best

    def is_upper_triangular(self) -> bool:
        return all(j >= i for i, row in self.rows.items() for j in row)


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


def t_operator(slot: int, xi_alpha, xi_beta, n: int) -> SparseMatrix:
    """Scattering matrix acting at chain slots (slot, slot+1) of n sites."""
    return two_site_embed(scattering_matrix(xi_alpha, xi_beta), slot, n)


def amplitude_from_word(word: Iterable[int], point) -> SparseMatrix:
    """Amplitude matrix built by replaying a word of adjacent swaps.

    At each step the scattering parameters are (xi_alpha, xi_beta) with
    alpha and beta the values currently at the swapped slots of the
    partially built permutation, so any word representing the same
    permutation yields the same matrix.
    """
    xi = tuple(point)
    n = len(xi)
    mat = SparseMatrix.identity(1 << n)
    current = list(range(1, n + 1))
    for a in word:
        alpha, beta = current[a - 1], current[a]
        mat = t_operator(a, xi[alpha - 1], xi[beta - 1], n) @ mat
        current[a - 1], current[a] = beta, alpha
    return mat


def amplitude(sigma: Sequence[int], point) -> SparseMatrix:
    """Amplitude matrix of a permutation (identity permutation -> identity)."""
    return amplitude_from_word(adjacent_decomposition(sigma), point)


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

    Each entry collects its block-row terms in stored order, the order in
    which ``SparseMatrix.__matmul__`` collects the same entry of the full
    product, so both give identical values.
    """
    right = n - slot - 1
    mask = 3 << right
    out: dict = {}
    for s, row in block.rows.items():
        for s2, a in row.items():
            for k, b in column.items():
                if (k >> right) & 3 == s2:
                    i = (k & ~mask) | (s << right)
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
    are the canonical ones of :func:`amplitude`, so every entry equals the
    corresponding entry of ``amplitude(sigma, point)`` computed the same
    way, operation by operation.
    """
    blocks: dict = {}

    def walk(node: dict, column: dict, current: list):
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
            yield from walk(child, _push_column(column, block, a, n), nxt)

    return walk(_word_trie(n), {col: 1}, list(range(1, n + 1)))


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

    With atol=0 the two sides must be equal: their difference stores no
    entry, which needs no ordering of the scalars, so exact fractions and
    elements of a finite field compare alike.  Pass a small atol for
    floating point components.

    Each distinct slot operator T_slot(a, b) is built once per call and
    shared by every relation that uses it: 8, 13 and 18 operators at
    N = 3, 4 and 5.
    """
    xi = tuple(point)
    n = len(xi)
    size = 1 << n
    operators: dict = {}

    def T(slot, a, b):
        op = operators.get((slot, a, b))
        if op is None:
            op = operators[(slot, a, b)] = t_operator(slot, xi[a - 1], xi[b - 1], n)
        return op

    def close(mat_a, mat_b):
        diff = mat_a - mat_b
        return not diff.rows if atol == 0 else diff.max_abs() <= atol

    ident = SparseMatrix.identity(size)
    for slot in range(1, n):
        if not close(T(slot, 2, 1) @ T(slot, 1, 2), ident):
            return False
    for slot in range(1, n - 1):
        for i, j in ((slot, slot + 1), (slot + 1, slot)):
            lhs = T(i, 2, 3) @ T(j, 1, 3) @ T(i, 1, 2)
            rhs = T(j, 1, 2) @ T(i, 1, 3) @ T(j, 2, 3)
            if not close(lhs, rhs):
                return False
    if n >= 4:
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = T(i, 1, 2) @ T(j, 3, 4)
                rhs = T(j, 3, 4) @ T(i, 1, 2)
                if not close(lhs, rhs):
                    return False
    return True


def bethe_residuals(point, positions: Sequence[int]):
    """Residuals of the free evolution equation and coincidence reduction.

    With F(X) = sum over permutations of A_sigma * prod_i xi_sigma(i)^x_i,
    the free residual is the largest entry of

        eps * F(X) + N * F(X) - sum_i F(X - e_i),      eps = sum_i (1/xi_i - 1),

    and the i-th boundary residual is the largest entry of

        F(.., x, x, ..) - B_i F(.., x, x+1, ..)         at x = positions[i],

    with B_i the collision matrix embedded at slots (i, i+1).  Both vanish
    identically; over exact fractions the returned values are exact zeros.
    The time factor e^(eps t) is common to every term, so the residuals are
    taken at t = 0, which keeps everything exact.
    """
    xi = tuple(point)
    n = len(xi)
    perms = enumerate_permutations(n)
    amps = {p: amplitude(p, point) for p in perms}
    size = 1 << n

    def field(xs):
        total = SparseMatrix(size)
        for p in perms:
            coeff = 1
            for i, x in enumerate(xs):
                coeff = coeff * xi[p[i] - 1] ** x
            total = total + amps[p].scaled(coeff)
        return total

    eps = sum(1 / z - 1 for z in xi)
    fx = field(positions)
    free = fx.scaled(eps + n)
    for i in range(n):
        shifted = list(positions)
        shifted[i] -= 1
        free = free - field(shifted)
    free_residual = free.max_abs()

    boundary = []
    for i in range(1, n):
        x = positions[i - 1]
        coincident = list(positions)
        coincident[i - 1] = x
        coincident[i] = x
        split = list(positions)
        split[i - 1] = x
        split[i] = x + 1
        bmat = two_site_embed(blocking_matrix(), i, n)
        diff = field(coincident) - (bmat @ field(split))
        boundary.append(diff.max_abs())
    return free_residual, tuple(boundary)
