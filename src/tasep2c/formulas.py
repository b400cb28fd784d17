"""Probability formulas for the two-species exclusion process.

The process state is an ordered integer position vector together with a
species word over {1, 2} (2 = first class, 1 = second class).  Every formula
is stated once, as the inputs of one evaluator, :func:`_evaluate`, which
alone dispatches on the method, chooses the fixed-point scale and checks
that the result is a probability.  Its two routes are:

* *residue* (the default, and the numerically stable route): a callable
  ``residue(t, bits)`` expands the defining multiple contour integral into
  an integer polynomial in the fixed-point one-variable integrals J(k, e)
  of :func:`tasep2c.contour.exp_scaled_residue`, at scale 2^(N * bits),
  and the evaluator converts it to float once, by
  :func:`tasep2c.contour._fixed_result`.  Every alternating permutation
  sum is a determinant of such integrals (Schuetz 1997; Chatterjee and
  Schuetz 2010), taken exactly at any N.  In every leftmost formula row i
  of the matrix reads one sequence s -> J(s, e_i) over N consecutive
  columns, so :func:`_determinants` states each term as (sign, rows), the
  N pairs (k_i, e_i) of column 0, and reads it from one shared table of
  Dodgson condensation minors per (row shape, t, scale), :class:`_Minors`.
  The shifted-step formula's symmetric factor h_l enters its one matrix
  as the last row moved l columns on (h_l a_delta = a_(delta + (l))).
  The next point of an x-sweep moves column 0 by one and condenses only
  the new minors: N for a Hankel shape (the step determinant), at most
  N(N+1)/2 for any other.  A matrix whose condensation meets a zero
  divisor, and the head transition's matrix, whose exponents change along
  a row, go to :func:`_fixed_det`, fraction-free Bareiss elimination
  (Bareiss 1968) in O(N^3) steps.  Both give the same integer.
  The entries of all matrices at one (t, scale) come from one shared series
  table.  An integral known to be positive that reads 0 has underflowed
  the 2^-bits scale, and every residue route (the tables' and the Bareiss
  matrices' entries and the transition route's factors) reads it through
  :func:`_fixed_integral`, which then raises AccuracyError naming the scale
  instead of returning a wrong value.  A factor with e > 0 can be exactly
  0, so one that reads 0 is not refused: its underflow goes undetected.
* *quadrature*: a body and the (k, e) indices of its one-variable factors
  xi^k (1 - xi)^e e^((1/xi - 1) t) go to :func:`_quadrature`, which owns
  the time cap, the default rule of :func:`tasep2c.contour.multi_contour`,
  and the one-variable factors, which the rule evaluates on its node
  vectors only and never on the grid.
  Each body carries its formula's constants, so the rule's tolerance
  applies to the probability itself.  Every body and factor has real
  coefficients, so the integrand is real on the real axis and the rule
  evaluates one node of each conjugate pair.  The rule reuses every node
  across doublings and evaluates the grid in bounded slabs, so only its
  grid budget (M^n <= 2^22), not memory, limits it.

:func:`head_transition_probability` has the determinant route only
(:func:`transition_probability` is its second route), and transitions at
N = 5 to 7 have the residue route only, with the Monte Carlo simulator as
their check.  Quadrature is limited to moderate times (the integrand
reaches exp(2t) on the default radius-0.5 circles) and by the grid budget
alone: :func:`_quadrature` refuses, before it evaluates a node, a rule
whose first doubling, (2M)^N nodes, exceeds it.  From the default M = 16
that leaves N <= 4, where the budget allows a single doubling, 16^4 to
32^4, which the default rule rarely passes on transitions: a smaller
radius and a looser tolerance, such as QuadratureSpec(radius=0.25,
tolerance=1e-9), converge there.

For transitions between arbitrary species words the amplitude entry has no
product formula.  Both routes read it from one amplitude column of every
permutation, computed by :func:`tasep2c.bethe.amplitude_columns`, which
pushes the initial word's unit column through the slot operators along a
prefix tree of reduced words and never builds a 2^N x 2^N matrix.  The
residue route runs it once per (N, initial word) with
:func:`tasep2c.bethe.scattering_matrix` at the symbolic point
xi_a = 1 - u_a, whose entries -u_beta/u_alpha, 1 - u_beta/u_alpha and -1 are
integer Laurent polynomials in the u_a (:class:`_ULaurent`).  So is every
amplitude entry (:func:`_sym_columns` holds at most 200,000 terms), and each
term prod_a u_a^e_a separates into one-variable residue factors J(k_a, e_a).
Quadrature runs it once per grid slab over numpy node arrays and sums each
permutation's term as the walk reaches it.

Conditioning: the alternating sums cancel catastrophically in double
precision (at N = 5 the terms outweigh the result by ~8 digits), so every
residue route works on e^t-scaled fixed-point integers from
:func:`tasep2c.contour.exp_scaled_residue` and converts to float only at
the very end, by one correctly rounded integer division followed by the
per-particle factor e^(-t).
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import bethe, contour
from .bethe import SparseMatrix, word_index
from .contour import QuadratureSpec, _check_time, _fixed_result
from .errors import AccuracyError, WindowTooSmallWarning
from .permutations import inverse

#: Beyond this time the circle-quadrature factor exp(t/xi) overwhelms the
#: rule on radius-0.5 contours; the residue route has no such limit.
MAX_QUADRATURE_TIME = 30.0

_PROBABILITY_SLACK = 1e-9
#: Fixed-point scale for exact accumulation of alternating sums.
_FIXED_BITS = 256
#: The most polynomial terms :func:`_sym_columns` holds for one (N, initial word).
_MAX_COLUMN_TERMS = 200_000


class _Minors:
    """The contiguous minors of one row shape of integrals J(k, e) at one (t, scale).

    Row i of the shape ((d_i, e_i)), d_0 = 0, reads s -> J(d_i + s, e_i)
    at every column s, and D(r, c, m) is the determinant of rows r..r+m-1
    over columns c..c+m-1.  A formula's N x N matrix with column-0 entries
    (k_i, e_i) is D(0, k_0, N) of the shape ((k_i - k_0, e_i)).  Minors are
    filled on demand by the Desnanot-Jacobi identity (Dodgson 1866)
    D(r, c, m) D(r+1, c+1, m-2) = D(r, c, m-1) D(r+1, c+1, m-1)
    - D(r, c+1, m-1) D(r+1, c, m-1), an exact division of integers with
    D = 1 at m = 0, from level-1 entries read by :func:`_fixed_integral`.
    Each minor is kept under a content key: where rows r..r+m-1 are rows
    r0..r0+m-1 moved by s columns, D(r, c, m) is kept as D(r0, c + s, m).
    So a Hankel shape (d_i = i, one e: the step matrix) keeps only its
    D_m(k), N^2 of them cold and N more for the next column offset, and any
    other shape about N^3/3 cold and N(N+1)/2 more.  A minor whose
    condensation meets a zero divisor is kept as None, and so is every
    minor built from it.
    """

    def __init__(self, shape: tuple[tuple[int, int], ...], t: float, bits: int):
        self.shape, self.t, self.bits = shape, t, bits
        self.minors: dict[int, int | None] = {}
        first: dict[tuple, int] = {}
        #: root[m][r] = r0: rows r..r+m-1 are rows r0..r0+m-1 moved by d_r - d_r0 columns
        self.root = [
            [first.setdefault(tuple((k - shape[r][0], e) for k, e in shape[r : r + m]), r)
             for r in range(len(shape) - m + 1)]
            for m in range(len(shape) + 1)
        ]

    def det(self, r: int, c: int, m: int) -> int | None:
        """D(r, c, m), m >= 1, or None where a divisor vanishes."""
        shape = self.shape
        r0 = self.root[m][r]
        r, c, n = r0, c + shape[r][0] - shape[r0][0], len(shape)
        key = (c * (n + 1) + m) * n + r  # (r, c, m) as one int: 0 <= r < n, 1 <= m <= n
        minors = self.minors
        if key in minors:
            return minors[key]
        if m == 1:
            k, e = shape[r]
            value = _fixed_integral(k + c, e, self.t, self.bits)
        else:
            div = self.det(r + 1, c + 1, m - 2) if m > 2 else 1
            a, b = self.det(r, c, m - 1), self.det(r + 1, c + 1, m - 1)
            p, q = self.det(r, c + 1, m - 1), self.det(r + 1, c, m - 1)
            value = None if not div or None in (a, b, p, q) else (a * b - p * q) // div
        minors[key] = value
        return value


# 128 tables hold every row shape of a pass of the benchmark's exact sweeps
# (480 asks for 132 keys, none built twice); one at N = 30 is about 3 MB
@lru_cache(maxsize=128)
def _minor_table(shape: tuple[tuple[int, int], ...], t: float, bits: int) -> _Minors:
    """The one table of minors of this row shape at this (t, scale)."""
    return _Minors(shape, t, bits)


def _fixed_det(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Gaussian elimination (Bareiss 1968), O(N^3) steps: every
    division is exact, so the entries stay integers no larger than minors
    of ``mat``.  A zero pivot is replaced by a lower row with a nonzero
    entry in its column.  For entries at fixed-point scale 2^b the result
    is at scale 2^(n*b); it is not shifted back, since flooring it would
    zero every determinant below 2^-b.  The empty matrix has determinant 1.
    The same steps run over a finite field, whose ``//`` is its exact
    division (:class:`tasep2c.identities.GFp`).
    """
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    det_sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            det_sign = -det_sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return det_sign * a[-1][-1]


def _refuse_underflow(k: int, e: int, t: float, bits: int) -> None:
    """Raise AccuracyError for a J(k, e) that reads 0 at scale 2^bits but is positive.

    At t > 0 every J(k, e) with e < 0 is a series of positive terms, and
    J(k, 0) = e^-t t^(k+1) / (k+1)! for k >= -1, so such an integral has
    underflowed the scale.  One with e > 0 can be exactly 0 and is let pass.
    """
    if t > 0 and (e < 0 or (e == 0 and k >= -1)):
        raise AccuracyError(
            f"J({k}, {e}) at t={t} underflows the 2^-{bits} fixed-point scale; "
            "the probability cannot be certified there"
        )


def _fixed_integral(k: int, e: int, t: float, bits: int) -> int:
    """J(k, e) at scale 2^bits, by :func:`tasep2c.contour.exp_scaled_residue`."""
    v = contour.exp_scaled_residue(k, e, t, bits)
    if v == 0:
        _refuse_underflow(k, e, t, bits)
    return v


def _determinants(terms):
    """Residue callable for sum(sign * det[J(k_i + j, e_i)]) over ``terms`` of (sign, rows).

    ``rows`` holds the N pairs (k_i, e_i) of column 0: row i of the N x N
    matrix reads one sequence s -> J(s, e_i) over the N columns from k_i
    on, as in every row-shifted formula.  Each determinant is D(0, k_0, N)
    of the shared :class:`_Minors` table of its row shape ((k_i - k_0, e_i))
    at this (t, bits), which condenses only the minors not yet kept there:
    the next point of an x-sweep adds N of them for a Hankel shape and at
    most N(N+1)/2 for any other.  Where a condensation divisor is 0 the
    matrix is taken by Bareiss elimination in :func:`_fixed_det` instead;
    both give the same exact integer, so the sum is at scale 2^(N * bits).
    Every entry is read by :func:`_fixed_integral`, so an integral known to
    be positive that has underflowed the 2^-bits scale raises AccuracyError
    instead of entering a determinant that has lost it.
    """

    def residue(t: float, bits: int) -> int:
        total = 0
        for sign, rows in terms:
            n = len(rows)
            k0 = rows[0][0]
            shape = tuple((k - k0, e) for k, e in rows)
            det = _minor_table(shape, t, bits).det(0, k0, n)
            if det is None:
                mat = [[_fixed_integral(k + j, e, t, bits) for j in range(n)] for k, e in rows]
                det = _fixed_det(mat)
            total += sign * det
        return total

    return residue


def _quadrature(
    t: float, quad: QuadratureSpec | None, body, powers: Sequence[tuple[int, int]]
) -> float:
    """The n-fold circle integral of body(xis) * prod_a j_a(xi_a).

    j_a(xi) = xi^k_a (1 - xi)^e_a e^((1/xi - 1) t) is the one-variable
    integrand of J(k_a, e_a), with (k_a, e_a) taken from the n ``powers``.
    The j_a are the ``factors`` of :func:`tasep2c.contour.multi_contour`,
    evaluated on their variable's node vector only: they ride the rule's
    contraction vectors and never meet the grid, which sees ``body``
    alone.  ``body`` is the rest of the defining integrand and receives
    the broadcastable node arrays.  Every body and every j_a has real
    coefficients, so the integrand is real on the real axis, as the rule
    requires, and its value and the best value of an AccuracyError it
    raises are the real integral.  Beyond MAX_QUADRATURE_TIME the rule is
    refused, and so is a rule whose first doubling, (2M)^n nodes, would
    exceed the grid budget: it could never converge.
    """
    if t > MAX_QUADRATURE_TIME:
        raise ValueError(f"t={t} too large for circle quadrature; use the residue route")
    spec, n = quad or QuadratureSpec(), len(powers)
    if (2 * spec.points) ** n > contour._GRID_BUDGET:
        raise ValueError(
            f"{n}-fold quadrature from {spec.points} points cannot double within the grid "
            f"budget of {contour._GRID_BUDGET:,} nodes; use the residue route or fewer points"
        )

    def j(k: int, e: int):
        return lambda z: z**k * (1 - z) ** e * np.exp((1 / z - 1) * t)

    factors = [j(k, e) for k, e in powers]
    return contour.multi_contour(body, n, spec, factors=factors).value


def _evaluate(what: str, n: int, t: float, method: str, quad, residue, quadrature) -> float:
    """The probability ``what`` of ``n`` particles at time t > 0 by ``method``.

    ``residue`` and ``quadrature`` are the formula's two routes (see the
    module docstring); ``quadrature`` is None where the formula has none.
    """
    if method == "residue":
        total, bits = residue(t, _FIXED_BITS), n * _FIXED_BITS
        if total < 0:
            raise AccuracyError(f"{what} has a negative total at the 2^-{bits} fixed-point "
                                "scale; the probability cannot be certified there")
        value = _fixed_result(total, n, t, bits)
    elif method == "quadrature" and quadrature is not None:
        value = _quadrature(t, quad, *quadrature)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _as_probability(value, what)


def vandermonde(xis):
    """prod_(i<j) (xi_j - xi_i), the determinant det[xi_i^j], over any scalars or node arrays."""
    val = 1
    for i, lo in enumerate(xis):
        for hi in xis[i + 1 :]:
            val = val * (hi - lo)
    return val


def complete_homogeneous(degree: int, xis):
    """h_degree(xis), by h_d <- h_d + xi h_(d-1) over the variables one at a time."""
    h = [1] + [0] * degree
    for xi in xis:
        for d in range(1, degree + 1):
            h[d] = h[d] + xi * h[d - 1]
    return h[degree]


def head_word(n: int) -> str:
    """The species word 21...1: one first class particle, leftmost."""
    return "2" + "1" * (n - 1)


@dataclass(frozen=True)
class Configuration:
    """Ordered particle positions plus the species word of equal length."""

    positions: tuple[int, ...]
    species: str

    def __post_init__(self) -> None:
        positions = tuple(map(int, self.positions))
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise ValueError("need at least one particle")
        if not all(map(operator.lt, positions, positions[1:])):
            raise ValueError(f"positions must be strictly increasing: {positions}")
        if len(self.species) != len(positions):
            raise ValueError("species word length must match the number of positions")
        if self.species.strip("12"):  # what is left holds a character other than 1 and 2
            raise ValueError(f"species word may only contain 1 and 2: {self.species!r}")

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class StepInitial:
    """Step-like initial positions: y_1 = 1 and y_i = i + shift for i > 1.

    shift = 0 is the step initial condition proper.
    """

    shift: int = 0

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")

    def positions(self, n: int) -> tuple[int, ...]:
        if n < 1:
            raise ValueError(f"need at least one particle, got n={n}")
        return tuple([1] + [i + self.shift for i in range(2, n + 1)])

    def configuration(self, n: int) -> Configuration:
        return Configuration(self.positions(n), head_word(n))


def step_configuration(n: int, shift: int = 0) -> Configuration:
    return StepInitial(shift).configuration(n)


def _as_probability(value: float, where: str) -> float:
    v = float(value)
    if v < -_PROBABILITY_SLACK or v > 1 + _PROBABILITY_SLACK:
        raise AccuracyError(f"{where} evaluated to {v}, outside [0, 1]", value=v)
    return min(max(v, 0.0), 1.0)


def _check_pair(initial: Configuration, final: Configuration) -> None:
    if initial.n != final.n:
        raise ValueError("initial and final configurations differ in size")
    if sorted(initial.species) != sorted(final.species):
        raise ValueError(
            f"species multisets differ ({initial.species!r} vs {final.species!r}); "
            "the dynamics conserves species counts"
        )


def _require_head(config: Configuration, what: str) -> None:
    if config.species != head_word(config.n):
        raise ValueError(f"{what} requires the species word {head_word(config.n)!r}")


# ---------------------------------------------------------------------------
# symbolic amplitude entries: integer Laurent polynomials in u_a = 1 - xi_a
# ---------------------------------------------------------------------------


class _ULaurent(dict):
    """sum of c * prod_a (1 - xi_a)^e[a], stored as {exponent vector e: integer c}.

    Every scattering entry is an integer Laurent polynomial in u_a = 1 - xi_a,
    so every amplitude entry is one too.  Such polynomials have unique
    coefficients, so sums cancel exactly and no zero is ever stored; each
    term separates into one-variable residue factors J(k_a, e_a).
    """

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, _ULaurent):
            return other * self  # an integer factor, through __rmul__
        out: dict = {}
        for ea, ca in self.items():
            for eb, cb in other.items():
                key = tuple(map(operator.add, ea, eb))
                if key in out:
                    out[key] += ca * cb
                else:
                    out[key] = ca * cb
        return _ULaurent({e: c for e, c in out.items() if c})

    def __rmul__(self, c: int):
        return _ULaurent({e: c * v for e, v in self.items()} if c else {})

    def __add__(self, other):
        out = dict(self)
        for e, c in other.items():
            if e in out:
                out[e] += c
            else:
                out[e] = c
        return _ULaurent({e: c for e, c in out.items() if c})

    def __neg__(self):
        return _ULaurent({e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, c: int):
        return -self + _ULaurent({(0,) * len(next(iter(self))): c})

    def __truediv__(self, other):
        """Exact division by a monomial with coefficient 1 or -1, such as u_a."""
        ((e0, c0),) = other.items()
        return _ULaurent({tuple(map(operator.sub, e, e0)): c * c0 for e, c in self.items()})


@lru_cache(maxsize=4)
def _sym_columns(n: int, col: int) -> dict:
    """Symbolic amplitude column ``col`` of every permutation: {sigma: {row: entry}}.

    The blocks are :func:`tasep2c.bethe.scattering_matrix` at xi_a = 1 - u_a;
    a plain-int entry (the unit column times -1 entries) becomes a constant
    polynomial.  It raises ValueError once the columns pass _MAX_COLUMN_TERMS
    terms.  Every slot operator is invertible (triangular, diagonal s, s, -1,
    s), so each of the N! columns keeps a term: N >= 9 is refused at once.
    """

    def refuse(terms: int) -> ValueError:
        return ValueError(f"symbolic columns hold at least {terms:,} terms, over the budget of "
                          f"{_MAX_COLUMN_TERMS:,}; head words: head_transition_probability")

    if math.factorial(n) > _MAX_COLUMN_TERMS:
        raise refuse(math.factorial(n))
    zero = (0,) * n
    xi = [_ULaurent({zero: 1, tuple(int(i == a) for i in range(n)): -1}) for a in range(n)]
    columns, terms = {}, 0
    for sigma, column in bethe.amplitude_columns(n, col, xi):
        column = {r: _ULaurent({zero: v}) if type(v) is int else v for r, v in column.items()}
        terms += sum(map(len, column.values()))
        if terms > _MAX_COLUMN_TERMS:
            raise refuse(terms)
        columns[sigma] = column
    return columns


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def transition_probability(
    initial: Configuration,
    final: Configuration,
    t: float,
    method: str = "residue",
    quad: QuadratureSpec | None = None,
) -> float:
    """P(state = final at time t | state = initial at time 0).

    The residue route expands each amplitude entry symbolically and sums
    separable residue factors within 200,000 column terms
    (:func:`_sym_columns`): every word at N <= 6 (221211 holds the most,
    140,512), 56 words at N = 7, each word with a single particle of one species
    among them (1211111 holds 198,000), 16 at N = 8 (1^a 2^b and 1^a 2 1 2^b),
    none at N >= 9.  Quadrature evaluates the N-fold integral of the
    amplitude-entry integrand, limited by the grid budget of
    :func:`_quadrature`, not by the amplitudes: N <= 4 from the default 16
    points, N = 5 from 8.  At N = 4 that budget allows one doubling (16^4
    to 32^4), too few for the default ``QuadratureSpec`` to converge on
    ordinary transitions; pass a smaller radius and looser tolerance, such
    as ``QuadratureSpec(radius=0.25, tolerance=1e-9)``.  Both routes read their
    entries from one amplitude column per permutation.  At t = 0 the exact
    indicator is returned bit-exactly.
    """
    _check_pair(initial, final)
    _check_time(t)
    if t == 0:
        same = final.positions == initial.positions and final.species == initial.species
        return 1.0 if same else 0.0
    n = initial.n
    y = initial.positions
    x = final.positions
    row = word_index(final.species)
    col = word_index(initial.species)

    def residue(t, bits):
        # every factor multiplies in at full scale: flooring each partial
        # product would zero the terms of a tiny probability
        total, factor = 0, lru_cache(maxsize=None)(lambda k, e: _fixed_integral(k, e, t, bits))
        for p, column in _sym_columns(n, col).items():
            entry = column.get(row)
            if not entry:
                continue
            inv = inverse(p)
            ks = [x[inv[a0] - 1] - y[a0] - 1 for a0 in range(n)]
            for e, coef in entry.items():
                for k, ea in zip(ks, e):
                    coef *= factor(k, ea)
                    if not coef:
                        break
                total += coef
        return total

    def body(xis):
        acc = 0
        for p, column in bethe.amplitude_columns(n, col, xis):
            phase = column.get(row)
            if phase is None:
                continue
            power = 1
            for i in range(n):
                power = power * xis[p[i] - 1] ** (x[i] - y[p[i] - 1] - 1)
            acc = acc + phase * power
        return acc

    quadrature = (body, [(0, 0)] * n)
    return _evaluate("transition probability", n, t, method, quad, residue, quadrature)


def head_transition_probability(initial: Configuration, final: Configuration, t: float) -> float:
    """Transition probability between two states with species word 21...1.

    The amplitude center entry factorizes, so each permutation term is a
    product of one-variable residue integrals and the alternating sum is the
    determinant det[J(x_j - y_a - 1, (a - 1)_+ - (j - 1)_+)] over 0-based
    a, j, where J(k, e) is the integral of xi^k (1 - xi)^e.  Its exponent
    changes along a row, so no table of minors serves it: it is taken
    exactly by Bareiss elimination, :func:`_fixed_det`, at any N.
    """
    _check_pair(initial, final)
    _require_head(initial, "head transition")
    _require_head(final, "head transition")
    _check_time(t)
    if t == 0:
        return 1.0 if final.positions == initial.positions else 0.0
    n = initial.n
    y = initial.positions
    x = final.positions

    def residue(t, bits):
        mat = [[_fixed_integral(x[j] - y[a] - 1, max(a - 1, 0) - max(j - 1, 0), t, bits)
                for j in range(n)] for a in range(n)]
        return _fixed_det(mat)

    return _evaluate("head transition probability", n, t, "residue", None, residue, None)


# ---------------------------------------------------------------------------
# leftmost-particle event probabilities
# ---------------------------------------------------------------------------


def leftmost_probability(
    initial: Configuration,
    x: int,
    t: float,
    method: str = "residue",
    quad: QuadratureSpec | None = None,
) -> float:
    """P(at time t the species order is still 21...1 with x_1 = x).

    The defining N-fold integral carries the prefactor (1 - xi_1), the
    ratio Vandermonde over prod_(i<j) (1 - xi_i), and 1/(1 - xi_i) per
    variable.  The residue route expands the Vandermonde into the
    determinant det[J(x - y_i - 1 + j, -(N - i) + [i = 0])] over 0-based
    i, j, with pole order N - i at 1 (reduced by one for i = 0).  Its rows
    have one shape for every x, so :func:`_determinants` reads all the
    points of a sweep from one table of condensation minors, and each new
    x adds at most N(N+1)/2 of them.  Quadrature integrates the same
    integrand written as the plain Vandermonde prod_(i<j) (xi_j - xi_i)
    times the one-variable factors of the determinant's column j = 0.
    """
    _require_head(initial, "leftmost probability")
    _check_time(t)
    y = initial.positions
    n = initial.n
    if x < y[0]:
        return 0.0
    if t == 0:
        return 1.0 if x == y[0] else 0.0

    rows = [(x - y[i] - 1, -(n - i) + (i == 0)) for i in range(n)]
    residue = _determinants([(1, rows)])
    quadrature = (vandermonde, rows)
    return _evaluate("leftmost probability", n, t, method, quad, residue, quadrature)


def tasep_leftmost_probability(
    initial: Configuration,
    x: int,
    t: float,
    method: str = "residue",
    quad: QuadratureSpec | None = None,
) -> float:
    """Single-species analogue: P(x_1 = x at time t) for the plain TASEP.

    Identical integrand except the prefactor (1 - xi_1 ... xi_N) replaces
    (1 - xi_1); kept as a cross-check companion sharing all machinery.  The
    residue route is det A - det B with A = [J(x - y_i - 1 + j, -(N - i))]
    and B the same with the power raised by one.  Both have one row shape,
    so they read one table of condensation minors, in which det B at x is
    det A at x + 1: each new point of a sweep adds one determinant.
    """
    if len(set(initial.species)) != 1:
        raise ValueError("single-species formula needs all particles of one species")
    _check_time(t)
    y = initial.positions
    n = initial.n
    if x < y[0]:
        return 0.0
    if t == 0:
        return 1.0 if x == y[0] else 0.0
    rows = [(x - y[i] - 1, -(n - i)) for i in range(n)]
    residue = _determinants([(1, rows), (-1, [(k + 1, e) for k, e in rows])])
    quadrature = (lambda xis: (1 - math.prod(xis)) * vandermonde(xis), rows)
    return _evaluate("TASEP leftmost probability", n, t, method, quad, residue, quadrature)


def leftmost_probability_shifted_step(
    shift: int,
    n: int,
    x: int,
    t: float,
    method: str = "residue",
    quad: QuadratureSpec | None = None,
) -> float:
    """Leftmost probability for step-like initial positions (1, 2+l, .., N+l).

    The specialized integrand carries h_l times the squared Vandermonde over
    prod (xi_i - 1)^(N-1), with prefactor (-1)^(N(N-1)/2) / N!.  Because
    h_l and the pole factors are symmetric, one Vandermonde factor may be
    replaced by N! prod_i xi_i^i, and expanding h_l into monomials m gives
    N! times the sum over m of det[J(x - N - l - 1 + i + j + m_i, -(N - 1))]
    over 0-based i, j, so the N! cancels.  By the bialternant form of
    Jacobi-Trudi (Macdonald 1995, I.3), h_l a_delta = a_(delta + (l)), that
    sum is the single determinant of m = (0, .., 0, l): the step matrix
    with its last row moved l columns on.
    :func:`tasep2c.identities.det_collapse` checks the identity, and
    shift = 0 reproduces the plain step initial condition.
    """
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    if n < 1:
        raise ValueError("need at least one particle")
    _check_time(t)
    if x < 1:
        return 0.0
    if t == 0:
        return 1.0 if x == 1 else 0.0
    # the integrand's pole factor (xi - 1)^-(N-1) differs from the (1 - xi)
    # form of J by (-1)^(N-1) per variable, which cancels over the N
    # variables since (-1)^(N(N-1)) = 1
    sign = (-1) ** (n * (n - 1) // 2)
    base = x - n - shift - 1
    rows = [(base + i + shift * (i == n - 1), -(n - 1)) for i in range(n)]
    residue = _determinants([(sign, rows)])
    prefactor = sign / math.factorial(n)

    def body(xis):
        vdm = vandermonde(xis)
        return prefactor * complete_homogeneous(shift, xis) * vdm * vdm

    quadrature = (body, [(base, -(n - 1))] * n)
    return _evaluate("shifted-step leftmost probability", n, t, method, quad, residue, quadrature)


def leftmost_probability_step_det(n: int, x: int, t: float) -> float:
    """Step initial condition via the N x N determinant of contour integrals.

    Entry (i, j), 0-based, is the one-variable integral with power
    x - N - 1 + i + j and pole factor (xi - 1)^-(N-1); the prefactor is
    (-1)^(N(N-1)/2).  This is the residue route of
    :func:`leftmost_probability_shifted_step` at shift 0, evaluated exactly
    on entries at the fixed 2^-256 scale.  The matrix is Hankel, so
    :func:`_determinants` keeps only its minors D_m(k) in the table of
    condensation minors shared by every x at this (N, t): a sweep's next
    point condenses one new anti-diagonal, N minors.  Where a condensation
    divisor is zero the matrix is taken by Bareiss elimination instead.
    Values are checked against independent references for N <= 20 and the renewal
    value e^-t at x = 1 up to N = 30.  Every entry is positive, so where
    one underflows the scale (from N = 36 at x = 2, t = 0.1, where the last
    anti-diagonal entries read 0) AccuracyError is raised, as on every
    residue route; the scale is not otherwise certified at large N.
    """
    return leftmost_probability_shifted_step(0, n, x, t)


# ---------------------------------------------------------------------------
# conservation check
# ---------------------------------------------------------------------------


def _windowed_positions(y: Sequence[int], window: int):
    n = len(y)

    def rec(prefix: tuple[int, ...], i: int):
        if i == n:
            yield prefix
            return
        lo = y[i] if not prefix else max(y[i], prefix[-1] + 1)
        for v in range(lo, y[i] + window + 1):
            yield from rec(prefix + (v,), i + 1)

    yield from rec((), 0)


def displacement_tail_bound(n: int, t: float, window: int) -> float:
    """Upper bound on the probability some particle moved more than ``window``.

    Each particle attempts at most the rings of a rate-1 Poisson clock, so
    its displacement is stochastically below Poisson(t); a union bound over
    the N particles certifies the truncation tail.  P(Poisson(t) > window)
    is the one-variable integral I(window, -1, t), whose series has c_j = 1.
    """
    return n * contour.residue_value(window, -1, t)


def probability_mass_check(initial: Configuration, t: float, window: int) -> float:
    """Total transition mass over a truncated position window.

    Sums transition probabilities over all ordered positions with
    per-particle displacement at most ``window`` and every species word with
    the conserved multiset, at any N: the window bounds the work, and the
    residue route refuses what its term budget cannot hold.  The result
    should be 1 up to numerical noise plus ``displacement_tail_bound``; a
    too-small window triggers WindowTooSmallWarning carrying the tail
    estimate.
    """
    n = initial.n
    if window < 0:
        raise ValueError("window must be nonnegative")
    _check_time(t)
    if t == 0:
        return 1.0
    tail = displacement_tail_bound(n, t, window)
    if tail > 1e-8:
        warnings.warn(
            f"window {window} leaves certified tail {tail:.3e}; enlarge it",
            WindowTooSmallWarning,
            stacklevel=2,
        )
    words = sorted(set("".join(w) for w in itertools.permutations(initial.species)))
    terms = []
    for xs in _windowed_positions(initial.positions, window):
        for w in words:
            terms.append(transition_probability(initial, Configuration(xs, w), t))
    return math.fsum(terms)
