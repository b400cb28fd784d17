"""Contour integrals on origin-centered circles of radius below 1.

Every probability formula in this package reduces to products of the single
one-variable integral

    I(k, e, t) = (1/2*pi*i) * closed integral of  xi^k (1-xi)^e exp((1/xi - 1) t) dxi

over a counterclockwise circle of radius r in (0, 1).  It has one series
and one independent second evaluator:

* the series -- the Laurent expansion around the essential singularity at
  0.  Expanding exp(t/xi) = sum_n t^n / (n! xi^n) and (1-xi)^e = sum_j c_j
  xi^j and picking the xi^(-1) coefficient gives

      I(k, e, t) = exp(-t) * sum_{j >= max(0, -k-1)} c_j t^(k+j+1) / (k+j+1)!

  with c_j = (-1)^j binom(e, j) for e >= 0 (a finite sum) and
  c_j = binom(-e-1+j, j) for e < 0 (an infinite series of positive terms,
  convergent for every t).  ``exp_scaled_residue`` sums it in fixed point:
  an integer at scale 2^bits for e^t * I, within 2 units of exact.  It
  reads every (k, e) from one table P[n] = floor(t^n / n! * 2^scale) per
  (t, scale), ``_series_table``: a finite alternating sum of P for e >= 0,
  and for e < 0, by the contiguity relation J(k, e) = J(k, e+1) +
  J(k+1, e), the |e|-fold suffix sum of P, shared by every k.  Guard bits
  chosen from the binomials cover the floors and the dropped tail.  This
  module owns that format; ``_fixed_result`` is its one
  conversion to float, and ``residue_value`` is the float I(k, e, t) read
  from it at a scale chosen to certify the float.  At t = 0 the integral is
  the exact integer Laurent coefficient of xi^(-1-k) in (1-xi)^e.  With
  c_j = 1 (e = -1) the series is a Poisson tail: I(m, -1, t) =
  P(Poisson(t) > m).

* ``circle_quadrature`` / ``multi_contour`` -- the M-point trapezoidal rule
  on the circle, adaptively doubled, which shares no code with the series.
  For integrands analytic in an annulus around the circle the rule
  converges geometrically in M, which makes it a sharp independent check
  on the series at moderate t.  For t much larger than ~30 the factor
  exp(t/xi) reaches exp(2t) on the default radius-0.5 circle and the
  series is the numerically sane route.  The rule nests under doubling
  (Trefethen and Weideman 2014): the 2M-point nodes are the M-point nodes
  plus their half-step rotations, so each doubling of the n-fold tensor
  rule evaluates only the 2^n - 1 new cosets of the grid and adds them to
  a running sum.  The integrand must be real on the real axis
  (F(conj(xi)) = conj(F(xi)), as every integrand of this package is), and
  the value is the real integral: each node set is closed under
  conjugation, so only the first variable's nodes with Im xi >= 0 are
  evaluated, (M/2 + 1) M^(n-1) of the M^n grid, and their real parts are
  summed with the weights of their conjugate pairs.  Every coset is
  evaluated in slabs of at most ``_SLAB`` nodes, so the rule's memory does
  not grow with the grid; the budget ``max_evals`` on the grid M^n is what
  bounds it.  Every slab needs the same few temporaries of at most
  ``_SLAB`` complex values, and they stay resident: the first rule a
  process runs allocates and frees one untouched block of 8 * ``_SLAB``
  complex values (``_keep_slabs_resident``).  Under glibc, freeing that
  mmapped block raises the mmap threshold to its size and the heap trim
  threshold to twice it (mallopt(3)), so the temporaries come from the
  heap and are reused instead of being returned to the system and
  page-faulted back in for every slab; other allocators ignore it.
  One-variable factors g_a(xi_a) of the integrand ride the rule's
  per-variable contraction vectors (``factors``), so they are evaluated on
  the node vectors only and never on the grid.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

#: Hard cap on residue-series terms (reached only for absurdly large t).
MAX_SERIES_TERMS = 2_000_000
#: e^(-_EXP_CHUNK) is still a normal float; larger decays are applied in chunks.
_EXP_CHUNK = 700.0
#: Most grid nodes a quadrature integrand is evaluated on in one call.
_SLAB = 2**15
#: Default bound on the tensor grid M^n of :func:`multi_contour`.
_GRID_BUDGET = 2**22


def laurent_coefficient(k: int, e: int) -> int:
    """Exact coefficient of xi^(-1-k) in (1 - xi)^e, as an integer."""
    m = -1 - k
    if m < 0:
        return 0
    if e >= 0:
        if m > e:
            return 0
        return (-1) ** m * math.comb(e, m)
    return math.comb(-e - 1 + m, m)


def _check_time(t: float) -> float:
    """Reject a time that is NaN, infinite or negative; return it as a float."""
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return t


class _SeriesTable:
    """P[n] = floor(t^n / n! * 2^scale), filled on demand, and its suffix folds.

    P[n] = 0 for n < 0.  The entries come from the exact running products
    tn^n << scale and n! * td^n, one long division each.  The table ends at
    its first zero past n = t: from there t^n / n! only decreases, so every
    later entry is 0 too.  ``folds`` is one list that grows upward on
    demand: folds[0] is P itself and folds[m] is the m-fold suffix sum
    Q_m[n] = sum_(n' >= n) Q_(m-1)[n'] on the complete table.
    """

    def __init__(self, t: Fraction, scale: int) -> None:
        self.t = t
        self.p: list[int] = []
        self.folds: list[list[int]] = [self.p]
        self.done = False
        self._power = 1 << scale
        self._denom = 1

    def fill(self, n: int) -> None:
        """Compute P through index n, or up to the table's end if that comes first."""
        p = self.p
        while len(p) <= n and not self.done:
            val = self._power // self._denom
            if val == 0 and len(p) > self.t:
                self.done = True
            elif len(p) == MAX_SERIES_TERMS:
                raise AccuracyError(f"residue series at t={self.t} did not settle")
            else:
                p.append(val)
                self._power *= self.t.numerator
                self._denom *= len(p) * self.t.denominator

    def at(self, m: int, n: int) -> int:
        """Q_m[n] for any integer n, on the complete table; Q_m[n] = 0 past its end.

        The folds through m are added by suffix sums of the last one kept.
        Below 0, where P vanishes, Q_m[n] = sum_(i < m) binom(-n-1+i, i) *
        Q_(m-i)[0].
        """
        folds = self.folds
        while len(folds) <= m:
            folds.append(list(itertools.accumulate(reversed(folds[-1])))[::-1])
        if n >= 0:
            arr = folds[m]
            return arr[n] if n < len(arr) else 0
        return sum(math.comb(-n - 1 + i, i) * folds[m - i][0] for i in range(m))


@lru_cache(maxsize=16)
def _series_table(t: Fraction, scale: int) -> _SeriesTable:
    """The one table of P[n] = floor(t^n / n! * 2^scale) for this (t, scale)."""
    return _SeriesTable(t, scale)


@lru_cache(maxsize=1_000_000)
def exp_scaled_residue(k: int, e: int, t: float | Fraction, bits: int) -> int:
    """Fixed-point integer within 2 units of 2^bits * e^t * I(k, e, t).

    The time is taken as given, float or Fraction, and made exact by
    ``Fraction(t)`` only on a cache miss; equal floats and Fractions hash
    alike, so callers passing either share cache entries.

    Scaling out the common e^(-t) makes every series term the rational
    number c_j t^n / n! with n = k + j + 1, so the value is read from the
    one table P[n] = floor(t^n / n! * 2^scale) of :func:`_series_table`
    that serves every (k, e) at this (t, scale).  Alternating permutation
    sums built from these values cancel exactly instead of losing digits;
    the caller restores one e^(-t) per integration variable at the very
    end, by :func:`_fixed_result`.

    * e >= 0: sum_j (-1)^j binom(e, j) P[k + j + 1], e + 1 multiply-adds.
      Its floors are off by less than sum_j binom(e, j) <= 2^e units of
      2^-scale, so g = e guard bits.
    * e < 0: (1-xi)^(e+1) = (1-xi)^e - xi (1-xi)^e gives the contiguity
      relation J(k, e) = J(k, e+1) + J(k+1, e), so with m = -e the value
      is the m-fold suffix sum Q_m[k + 1] of P (``_SeriesTable.at``),
      read by additions alone for every k of one (t, scale, e).  Every c_j
      is positive, so the value falls short of exact, never over.  Let L be
      the first index at or past the table's end and k + 1 that also lies
      past 2t and k + 2m, so that the term ratio falls below 3/4 from L on,
      and h = L - k - 1.  The floors through L cost less than
      sum_(j <= h) binom(m-1+j, j) = binom(m + h, m) units (hockey stick),
      and the tail after L less than 3 binom(m-1+h, m-1), so g is the bit
      length of their sum.

    The table's scale is the smallest power of two at least bits + g, so
    nearby scales (the entries of one matrix, the rungs of
    :func:`residue_value`) share one table, and the sum is shifted right
    by scale - bits >= g.  The floors and the tail then leave less than one
    unit at scale 2^bits, the shift less than one more: the integer is
    within 2 units of 2^bits * e^t * I(k, e, t).  A table longer than
    MAX_SERIES_TERMS raises AccuracyError.
    """
    _check_time(t)
    t = Fraction(t)
    n0 = k + 1
    scale = 1 << bits.bit_length()
    while True:
        table = _series_table(t, scale)
        if e >= 0:
            table.fill(n0 + e)
            guard = e
        else:
            m = -e
            table.fill(MAX_SERIES_TERMS)
            last = max(len(table.p), math.floor(max(2 * t, k + 2 * m)) + 1, n0)
            span = last - n0
            guard = (math.comb(m + span, m) + 3 * math.comb(m - 1 + span, m - 1)).bit_length()
        if bits + guard <= scale:
            break
        scale *= 2
    if e >= 0:
        p = table.p
        total = 0
        for j in range(max(0, -n0), e + 1):
            if n0 + j >= len(p):
                break
            term = math.comb(e, j) * p[n0 + j]
            total += -term if j % 2 else term
    else:
        total = table.at(m, n0)
    return total >> (scale - bits)


def _times_exp(mant: float, exp2: int, s: float) -> tuple[float, int]:
    """mant * 2^exp2 * e^(-s) as a renormalized (mantissa, exponent) pair."""
    while s > _EXP_CHUNK:
        mant, shift = math.frexp(mant * math.exp(-_EXP_CHUNK))
        exp2 += shift
        s -= _EXP_CHUNK
    mant, shift = math.frexp(mant * math.exp(-s))
    return mant, exp2 + shift


def _fixed_result(total: int, nvars: int, t: float, bits: int) -> float:
    """Convert a fixed-point integer at scale 2^bits to float, restoring e^(-nvars*t).

    The integer is divided exactly (int / int rounds correctly) and then
    multiplied by e^(-nvars*t).  Where that factor underflows, the mantissa
    and binary exponent are kept apart and e^(-t) is multiplied in nvars
    times, renormalizing after each factor.
    """
    if total == 0:
        return 0.0
    top = total.bit_length() - 1
    mant = total / (1 << top)  # 1 <= |mant| <= 2, so mant * decay stays normal
    decay = math.exp(-nvars * t)
    if decay >= sys.float_info.min:
        return math.ldexp(mant * decay, top - bits)
    exp2 = top - bits
    for _ in range(nvars):
        mant, exp2 = _times_exp(mant, exp2, t)
    return math.ldexp(mant, exp2)


@lru_cache(maxsize=1_000_000)
def residue_value(k: int, e: int, t: float) -> float:
    """The integral I(k, e, t) as a float; the exact integer at t = 0.

    Reads :func:`exp_scaled_residue`, whose integer lies within C = 2 units
    of exact, and converts it by :func:`_fixed_result`.  The scale starts
    at 2^128 and rises by the missing bits (doubling while the integer is
    0) until the integer carries 64 bits more than C, so the float is
    within about 2 ulp of I(k, e, t).  Where instead the bound
    (|integer| + C) * 2^-bits * e^-t on |I| falls below 2^-1076 (under half
    the smallest subnormal, one bit kept for the rounding of the float
    logarithm), the correctly rounded value is 0.0 and that is returned.
    """
    t = _check_time(t)
    if t == 0:
        return laurent_coefficient(k, e)
    slack = 2
    bits = 128
    while True:
        total = exp_scaled_residue(k, e, t, bits)
        missing = slack.bit_length() + 64 - abs(total).bit_length()
        if missing <= 0:
            return _fixed_result(total, 1, t, bits)
        if math.log2(abs(total) + slack) - bits - t / math.log(2) < -1076:
            return 0.0
        bits += missing if total else bits


@dataclass(frozen=True)
class QuadratureSpec:
    """Circle radius, starting point count and convergence tolerance.

    The radius stays strictly inside the unit circle, away from both the
    pole at 1 and the essential singularity at 0; ``points`` is the initial
    M of the trapezoidal rule and must be a power of two at least 8.  The
    tolerance is applied to the doubling delta relative to max(1, |value|),
    so it reads as an absolute tolerance for probability-sized results and
    a relative one for large ones.
    """

    radius: float = 0.5
    points: int = 16
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {self.radius}")
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 8, got {self.points}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged real value with the final point count and last doubling delta."""

    value: float
    points: int
    error: float


def _nodes(radius: float, m: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def circle_quadrature(
    f: Callable,
    spec: QuadratureSpec = QuadratureSpec(),
    max_points: int = 2**20,
) -> QuadratureResult:
    """Adaptive trapezoidal rule for the real (1/2 pi i) * closed integral of f.

    The one-variable case of :func:`multi_contour`, with its contract: f is
    real on the real axis, f(conj(xi)) = conj(f(xi)), and the value is the
    real integral.  ``f`` is evaluated on numpy arrays of circle nodes, and
    an exception it raises propagates.  M doubles until two successive
    values agree within ``spec.tolerance``; exceeding ``max_points`` raises
    AccuracyError carrying the best value and last delta.
    """
    return multi_contour(lambda xis: f(xis[0]), 1, spec, max_evals=max_points)


@cache
def _keep_slabs_resident() -> None:
    """Allocate and free one untouched block larger than a slab's working set.

    The block, 8 * _SLAB complex values, is mmapped and never touched, so it
    costs no page faults.  glibc raises its mmap threshold to the size of a
    freed mmapped chunk and its trim threshold to twice that (mallopt(3)),
    so from then on every slab temporary comes from the heap and stays there
    between slabs.  Other allocators ignore it.  Run once per process, by the
    first quadrature, so routes without quadrature keep their memory as is.
    """
    np.empty(8 * _SLAB, complex)


def _grid_sum(
    F: Callable, vecs: Sequence[np.ndarray], shifted: bool, factors: Sequence[Callable]
) -> float:
    """Real sum of F(xis) * prod_a g_a(xi_a) xi_a over the tensor grid of the node sets ``vecs``.

    The g_a are the ``factors``, one per variable, or none (g_a = 1) when
    it is empty.  Each node set is an L-point circle or, for the first
    variable where ``shifted``, its half-step coset; both are closed under
    conjugation, and F and the g_a have real coefficients, so the terms of
    conjugate nodes are conjugate.  Only the first variable's nodes with
    Im xi >= 0 are evaluated, and their real parts are summed with the
    weights of their pairs: on the circle nodes 0..L/2 with weights 1, 2,
    .., 2, 1 (nodes 0 and L/2 are real), on the coset nodes 0..L/2-1 with
    weight 2.

    The grid is cut into slabs of at most _SLAB nodes: the leading variables
    that do not fit are fixed one node at a time, and the next variable is
    cut into blocks of rows.  Each slab's values are contracted with one
    vector per variable, one axis at a time: g_a(xi_a) * xi_a, times the
    weights for the first variable.  Neither the weights, prod_a xi_a nor
    prod_a g_a(xi_a) is ever built on the grid.
    """
    weights = np.full(len(vecs[0]) // 2 + (not shifted), 2.0)
    if not shifted:
        weights[[0, -1]] = 1.0
    vecs = [vecs[0][: len(weights)], *vecs[1:]]
    contract = [weights * vecs[0], *vecs[1:]]
    for a, g in enumerate(factors):
        contract[a] = contract[a] * g(vecs[a])
    n = len(vecs)
    sizes = [len(vec) for vec in vecs]
    fixed = 0
    while math.prod(sizes[fixed + 1 :]) > _SLAB:
        fixed += 1
    rows = _SLAB // math.prod(sizes[fixed + 1 :])

    def axis(vec: np.ndarray, a: int) -> np.ndarray:
        return vec.reshape((1,) * a + (-1,) + (1,) * (n - 1 - a))

    tail = [axis(vec, a) for a, vec in enumerate(vecs[fixed + 1 :], fixed + 1)]
    total = 0.0
    for lead in itertools.product(*map(range, sizes[:fixed])):
        for start in range(0, sizes[fixed], rows):
            cut = [slice(i, i + 1) for i in lead] + [slice(start, start + rows)]
            xis = [axis(vec[s], a) for a, (vec, s) in enumerate(zip(vecs, cut))] + tail
            ws = [vec[s] for vec, s in zip(contract, cut)] + contract[fixed + 1 :]
            vals = np.broadcast_to(F(xis), np.broadcast_shapes(*(xi.shape for xi in xis)))
            # contracting axis by axis keeps numpy's pairwise summation; a
            # BLAS product would wait on thread wake-ups costing more than
            # the slab itself
            for w in reversed(ws):
                vals = (vals * w).sum(axis=-1)
            total += float(vals.real)
    return total


def multi_contour(
    F: Callable[[Sequence[np.ndarray]], np.ndarray],
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
    max_evals: int = _GRID_BUDGET,
    factors: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
) -> QuadratureResult:
    """n-fold tensor-product circle quadrature of an integrand real on the real axis.

    The integrand is F(xis) * prod_a g_a(xi_a).  ``F`` receives a list of n
    mutually broadcastable node arrays, one per variable, and must return
    its values under numpy broadcasting.  ``factors`` is empty (every
    g_a = 1) or holds one callable g_a per variable, which receives that
    variable's 1-d node vector and returns g_a on it elementwise; the g_a
    are evaluated on the node vectors only, never on the grid.  F and every
    g_a must have real coefficients, F(conj(xis)) = conj(F(xis)), and the
    value returned is the real integral.  M doubles until two successive
    values agree within ``spec.tolerance``; the (2M)^n grid of a doubling
    must fit ``max_evals``, and exhausting that budget raises AccuracyError
    carrying the best value and last delta.  ``max_evals`` bounds the grid
    M^n, not the evaluations, which are (M/2 + 1) M^(n-1).

    The rule nests under doubling: the 2M-point grid is the M-point grid
    plus 2^n - 1 cosets shifted by half a step in some variables, each an
    M^n tensor grid.  The running sum of F * prod_a g_a(xi_a) xi_a is kept,
    and a doubling evaluates only the new cosets, so no node is evaluated
    twice.  Every node set is closed under conjugation, and the conjugate
    node's term is the conjugate of the node's, so only the first
    variable's nodes with Im xi >= 0 are evaluated, and the real parts are
    summed with pair weights.  Each coset is evaluated in slabs of at most _SLAB nodes, so
    memory does not grow with the grid, and the slabs' temporaries stay
    resident between slabs (see the module docstring).
    """
    if n < 1:
        raise ValueError("need at least one integration variable")
    if factors and len(factors) != n:
        raise ValueError(f"need one factor per variable, got {len(factors)} for {n}")
    m = spec.points
    if m**n > max_evals:
        raise ValueError(f"starting grid {m}^{n} already exceeds budget {max_evals}")
    _keep_slabs_resident()
    total = _grid_sum(F, [_nodes(spec.radius, m)] * n, False, factors)
    prev = total / m**n
    delta = math.inf
    while (2 * m) ** n <= max_evals:
        m *= 2
        circle = _nodes(spec.radius, m)
        halves = (circle[0::2], circle[1::2])
        for shifts in itertools.product((0, 1), repeat=n):
            if any(shifts):
                total += _grid_sum(F, [halves[s] for s in shifts], shifts[0], factors)
        cur = total / m**n
        delta = abs(cur - prev)
        if delta <= spec.tolerance * max(1.0, abs(cur)):
            return QuadratureResult(cur, m, delta)
        prev = cur
    raise AccuracyError(
        f"{n}-fold quadrature exhausted its grid budget of {max_evals} nodes",
        value=prev,
        error=delta,
    )
