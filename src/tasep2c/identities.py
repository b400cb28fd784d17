"""Exact verification of the algebraic identities behind the formulas.

Every summation step that turns the transition-probability permutation sum
into a closed contour-integral formula rests on a rational-function identity
in the spectral variables.  This module evaluates both sides of each
identity exactly, so "equal" is decidable, not approximate.  Every identity
is written once, generically over the field of its point: at a point of
Fractions it is checked over Q, at a point of :class:`GFp` elements over
GF(p), p = 2^61 - 1.  Constants are plain ints, which both fields absorb.

The suite samples its points uniformly from GF(p).  After clearing
denominators each identity is a polynomial identity of degree at most d, so
by Schwartz (1980) and Zippel (1979) a false identity passes one uniform
point with probability at most d / p, about 1.3e-16 at N = 6; every report
line carries the coarse degree bound d behind that figure.  One table,
``_SUITE``, states each suite identity once: its check at a point and its
degree bound.  The identities are generic-point statements: points are
rejection-sampled away from the sets where a denominator vanishes, which
over GF(p) means the same checks taken mod p (distinct coordinates, none 0
or 1, no subset product 1).  The public checks accept Fraction points too,
and the Fraction tests keep exact anchors over Q, such as main at
(1/2, 1/3).

Checked identities, with LHS always an alternating sum over permutations:

* main        -- center-amplitude sum with geometric-tail denominators
                 equals (1-xi_1) * prod_(i<j) (xi_j-xi_i)/(1-xi_i) * prod 1/(1-xi_i);
* equiv_a     -- same identity with the center amplitudes expanded into
                 per-variable (1-xi) powers;
* equiv_b     -- the inversion substitution xi_i -> 1/xi_(N-i+1) of equiv_a;
* tasep_a/b   -- the single-species analogues with prefactor (1 - prod xi);
* vandermonde -- the cofactor expansion reducing an (xi_a - 1)^(N-1) row to
                 the plain Vandermonde determinant;
* det_collapse-- the power-matrix determinant that vanishes for off-pattern
                 exponents and equals h_l times the descending Vandermonde
                 otherwise: h_l a_delta = a_(delta + (l)), by which
                 :func:`tasep2c.formulas.leftmost_probability_shifted_step`
                 takes one determinant, its last row moved l columns on;
* closed_form -- the center amplitude product formula against the center
                 entry of the unit column pushed through the slot operators
                 of sigma's word (:func:`tasep2c.bethe.amplitude_column`);
* braid       -- the slot-operator relations, both sides applied to one
                 random vector of GF(p)^(2^N) through the slot kernel the
                 amplitude columns run (Freivalds 1977): a relation false at
                 the point passes with probability at most 1 / p, which adds
                 1 / p per relation to its d / p; about 0.2 s a point at N = 10.

:func:`vandermonde` and :func:`complete_homogeneous` (h_l) are the ones
:mod:`tasep2c.formulas` runs, re-exported, so the vandermonde and
det_collapse checks certify the formulas' code, as closed_form and braid
certify :func:`tasep2c.bethe.scattering_matrix`.

The four variant left sides (equiv_a/b, tasep_a/b, also used by the
substitution and main-to-variant bridge checks) run through one kernel,
:func:`_alternating_sum`.  Its tail denominators are products over a suffix
or prefix of the permutation, so the partial sums depend only on the set of
values still to place and are memoised on a bitmask: N 2^(N-1) exact terms
instead of N N!; one form at N = 10 takes about 0.1 s.
:func:`main_identity` keeps one term per permutation as the independent
N! reference that the bridge compares the kernel against: a depth-first
walk, :func:`_main_lhs`, fills positions N, N-1, .., 1 and carries the
partial products that permutations sharing a suffix have in common, with no
memo on subsets.  Its terms are the center amplitude of
:func:`tasep2c.bethe.amplitude_center` times the geometric tail; the walk
builds them from one table of per-(position, value) powers and sums them
with one field division per point, carrying each term's sign down the
walk.  The suite's ``main`` entry checks the bridge on the same main sum,
so the walk runs once per point; its ``substitution`` entry checks only
:func:`substitution_transport`.  The suite's entries take the point that
:func:`random_field_point` has validated; the public checks validate theirs.

A division over GF(p) is a modular inversion, which in CPython costs some
25 multiplications mod p, so the permutation-sum checks divide only by
values they know up front, inverted in one batch by :func:`_inverses` (one
inversion per batch): the tail factors of :func:`_alternating_sum`, the 1 / (1 - xi_i)
or 1 / (xi_i - 1) of each variant side, and the mapped point of
:func:`substitution_transport`.  A point of equiv_a/b or tasep_a/b pays 2
inversions, of main 4 (one in each side of the main identity, 2 in the
bridge) and of substitution 5.  :func:`det_exact` takes the integer
determinant of the residues, so det_collapse pays none, and braid pays 2
per 4x4 block: 8 at N = 3, 10 from N = 4 on.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from . import bethe
from .errors import DegeneratePointError
from .formulas import _fixed_det, complete_homogeneous, vandermonde
from .permutations import check_enumeration_size

#: The field of the suite's points is GF(PRIME), PRIME = 2^61 - 1 (a Mersenne prime).
PRIME = (1 << 61) - 1

_new = object.__new__


class GFp:
    """An element of GF(p), p = :data:`PRIME`, kept as its residue in [0, p).

    ``GFp(value)`` takes an int, an element, or a Fraction whose denominator
    p does not divide.  Elements combine with ints, the identities'
    constants and signs, and with no other number type, so a point never
    mixes Q and GF(p) silently.  Division by 0 raises ZeroDivisionError.
    """

    # The suite spends most of its time in these operators, so each builds
    # its result inline: helper calls for coercion and construction cost the
    # N = 6 main entry about 20%.
    __slots__ = ("v",)

    def __init__(self, value):
        if isinstance(value, GFp):
            value = value.v
        elif isinstance(value, Fraction):
            value = value.numerator * _inverse(value.denominator)
        elif not isinstance(value, int):
            raise TypeError(f"cannot map {value!r} into GF(p)")
        self.v = value % PRIME

    def __add__(self, other):
        if other.__class__ is GFp:
            other = other.v
        elif not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = (self.v + other) % PRIME
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is GFp:
            other = other.v
        elif not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = (self.v - other) % PRIME
        return out

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = (other - self.v) % PRIME
        return out

    def __mul__(self, other):
        if other.__class__ is GFp:
            other = other.v
        elif not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = self.v * other % PRIME
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is GFp:
            other = other.v
        elif not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = self.v * _inverse(other) % PRIME
        return out

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        out = _new(GFp)
        out.v = other * _inverse(self.v) % PRIME
        return out

    def __neg__(self):
        out = _new(GFp)
        out.v = -self.v % PRIME
        return out

    def __pow__(self, exponent: int):
        base = self.v if exponent >= 0 else _inverse(self.v)
        out = _new(GFp)
        out.v = pow(base, abs(exponent), PRIME)
        return out

    def __eq__(self, other):
        if other.__class__ is GFp:
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % PRIME
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"GFp({self.v})"


def _inverse(value: int) -> int:
    """The inverse of value mod PRIME; ZeroDivisionError for a multiple of PRIME."""
    if value % PRIME == 0:
        raise ZeroDivisionError("division by 0 in GF(p)")
    return pow(value, -1, PRIME)


def _inverses(values: Sequence[Scalar]) -> list[Scalar]:
    """[1 / v for v in values], with one field inversion over GF(p).

    Over GF(p) this is Montgomery's trick (Math. Comp. 48, 1987): the prefix
    products, one :func:`_inverse` of the last, then a walk back that peels
    one value off per step, 3(k - 1) multiplications in all.  Over Q each
    value is inverted on its own, since a Fraction's inverse is a swap and
    prefix products would only grow the numbers.  A zero value raises
    ZeroDivisionError in both fields.
    """
    if not any(v.__class__ is GFp for v in values):
        return [1 / v for v in values]
    residues = [v.v if v.__class__ is GFp else v % PRIME for v in values]
    prefix = residues[:]
    for i in range(1, len(prefix)):
        prefix[i] = prefix[i - 1] * residues[i] % PRIME
    inv = _inverse(prefix[-1])  # 1 / (v_0 ... v_i), i running down from the end
    out = [_new(GFp) for _ in residues]
    for i in range(len(residues) - 1, 0, -1):
        out[i].v = inv * prefix[i - 1] % PRIME
        inv = inv * residues[i] % PRIME
    out[0].v = inv
    return out


#: A coordinate or value of an identity: exact over Q or over GF(p).
Scalar = Fraction | GFp
Point = tuple[Scalar, ...]


def _field_point(xi: Sequence[Scalar]) -> Point:
    """The coordinates over GF(p) if any of them is a :class:`GFp` element, else over Q."""
    if any(isinstance(z, GFp) for z in xi):
        return tuple(GFp(z) for z in xi)
    return tuple(Fraction(z) for z in xi)


def validate_point(xi: Sequence[Scalar], unit_interval: bool = False) -> Point:
    """Reject points on any denominator of the identity family.

    The point is taken over GF(p) if any coordinate is a :class:`GFp`
    element and over Q otherwise; the rejections are the same in both
    fields, taken mod p in GF(p).  Requires pairwise-distinct nonzero
    coordinates, none equal to 1, and no subset of size < N whose product is
    1 (those products appear in the geometric-tail denominators after
    arbitrary permutations).  ``unit_interval`` also requires every
    coordinate in (0, 1), which only Q orders.
    """
    point = _field_point(xi)
    n = len(point)
    if len(set(point)) != n:
        raise DegeneratePointError("coordinates must be pairwise distinct")
    for z in point:
        if z == 0 or z == 1:
            raise DegeneratePointError("coordinates 0 and 1 are excluded")
        if unit_interval and not 0 < z < 1:
            raise DegeneratePointError(f"coordinate {z} outside (0, 1)")
    for mask, prod in enumerate(_subset_products(point)):
        if 2 <= mask.bit_count() < n and prod == 1:
            raise DegeneratePointError("a subset product equals 1")
    return point


def _subset_products(xi: Sequence[Scalar]) -> list[Scalar]:
    """Entry [mask]: the product of the xi_v whose bit v is set in mask (1 when none is)."""
    prod = [1] * (1 << len(xi))
    for mask in range(1, len(prod)):
        low = mask & -mask
        prod[mask] = prod[mask ^ low] * xi[low.bit_length() - 1]
    return prod


def random_rational_point(n: int, rng: random.Random) -> Point:
    """Random point with distinct coordinates in (0, 1), denominators at most 1000."""
    while True:
        coords = []
        for _ in range(n):
            den = rng.randint(2, 1000)
            num = rng.randint(1, den - 1)
            coords.append(Fraction(num, den))
        try:
            return validate_point(coords, unit_interval=True)
        except DegeneratePointError:
            continue


def random_field_point(n: int, rng: random.Random) -> Point:
    """Uniform random point of GF(p)^n, resampled until it is nondegenerate."""
    while True:
        try:
            return validate_point([GFp(rng.randrange(PRIME)) for _ in range(n)])
        except DegeneratePointError:
            continue


def _identity_point(xi: Sequence[Scalar]) -> Point:
    """validate_point, plus the N >= 2 that the permutation-sum identities need."""
    point = validate_point(xi)
    if len(point) < 2:
        raise ValueError("the identity is stated for N >= 2")
    return point


def _main_factors(xi: Point) -> list[list[tuple[Scalar, Scalar]]]:
    """The main summand's factors per 0-based (position k, value v).

    Entry [k][v] is (xi_v^k, (1 - xi_v)^max(k - 1, 0)): the tail numerator's
    power and the center amplitude's denominator power of value v placed at
    1-based position k + 1.
    """
    return [[(z**k, (1 - z) ** max(k - 1, 0)) for z in xi] for k in range(len(xi))]


def _main_lhs(xi: Point) -> Scalar:
    """The main identity's left side, one term per permutation sigma:

        amplitude_center(sigma) * prod_(k=2..N) xi_sigma(k)^(k-1)
                                / prod_(k=2..N) (1 - xi_sigma(k) ... xi_sigma(N)).

    A depth-first walk fills positions N, N-1, .., 1, so permutations that
    share a suffix share its partial products: the suffix product, the tail
    denominator, the tail numerator, the center amplitude's denominator
    prod (1 - xi_sigma(k))^(k-2) and the sign.  Placing value rest[i] of the
    sorted unplaced values at the last free position puts it before the
    len(rest) - 1 - i larger ones, so the sign flips by that parity.  Each of
    the N! leaves adds its term to a running fraction, so the sum pays one
    field division; the center amplitude's
    sigma-free numerator prod_(k=3..N) (1 - xi_k)^(k-2) multiplies it once.
    Nothing is memoised on subsets, which keeps the walk independent of
    :func:`_alternating_sum`.
    """
    n = len(xi)
    check_enumeration_size(n)
    factors = _main_factors(xi)
    total_num, total_den = 0, 1

    # k: the 0-based position to fill; rest: the 0-based values not yet
    # placed, in increasing order; odd: the parity of the placed values
    def walk(k: int, rest: tuple[int, ...], suffix: Scalar, num: Scalar, den: Scalar,
             odd: bool):
        nonlocal total_num, total_den
        row = factors[k]
        last = len(rest) - 1
        for i, v in enumerate(rest):
            suffix_v = suffix * xi[v]
            tail = 1 - suffix_v
            if tail == 0:
                raise DegeneratePointError("geometric-tail denominator vanished")
            power, center = row[v]
            num_v, den_v = num * power, den * center * tail
            odd_v = odd ^ bool((last - i) & 1)
            if k > 1:
                walk(k - 1, rest[:i] + rest[i + 1 :], suffix_v, num_v, den_v, odd_v)
            else:
                term = num_v * total_den
                scaled = total_num * den_v
                total_num = scaled - term if odd_v else scaled + term
                total_den *= den_v

    walk(n - 1, tuple(range(n)), 1, 1, 1, False)
    lhs = total_num / total_den
    for k in range(2, n):
        lhs *= (1 - xi[k]) ** (k - 1)
    return lhs


def _alternating_sum(
    xi: Sequence[Scalar], weight: Sequence[Sequence[Scalar]], tail: str
) -> Scalar:
    """sum over sigma of sign(sigma) prod_k weight[k][sigma(k)] / tail(sigma).

    Positions k and values sigma(k) are 0-based.  The tail is "suffix",
    prod_(k=2..N) (1 - xi_sigma(k) ... xi_sigma(N)), or "prefix",
    prod_(k=1..N-1) (xi_sigma(1) ... xi_sigma(k) - 1).  Positions are filled
    from the end for a suffix tail and from the start for a prefix tail, so
    while a set U of values is still unplaced, the next position, the
    product of the placed xi and the sign picked up by placing v (the parity
    of the values of U on v's far side) all depend on U alone.  The partial
    sums are memoised on the bitmask of U: N 2^(N-1) terms, not N! N.  The
    tail factor of U depends on U alone, so all 2^N - 2 of them are inverted
    in one batch before the sums.
    """
    n = len(xi)
    full = (1 << n) - 1
    suffix = tail == "suffix"
    prod = _subset_products(xi)
    # inverse[U - 1]: 1 over the tail factor of the values placed while U is not
    placed = [prod[full ^ mask] for mask in range(1, full)]
    tails = [1 - p for p in placed] if suffix else [p - 1 for p in placed]
    try:
        inverse = _inverses(tails)
    except ZeroDivisionError:
        raise DegeneratePointError("geometric-tail denominator vanished") from None
    # rest[U]: the sum over every order of U on the free positions, already
    # divided by the tail factor of the placed values (the complement of U)
    rest = [1] * (full + 1)
    for mask in range(1, full + 1):
        size = mask.bit_count()
        row = weight[size - 1 if suffix else n - size]
        total = 0
        for v in range(n):
            bit = 1 << v
            if not mask & bit:
                continue
            far = mask >> (v + 1) if suffix else mask & (bit - 1)
            term = row[v] * rest[mask ^ bit]
            if far.bit_count() & 1:
                total -= term
            else:
                total += term
        if mask != full:
            total *= inverse[mask - 1]
        rest[mask] = total
    return rest[full]


def _variant_sides(xi: Point, variant: str, d: int) -> tuple[Scalar, Scalar]:
    """(lhs, rhs) of variant "a" or "b"; d = 1 for the equiv forms, 0 for tasep.

    Variant "a" weighs value i at 0-based position k by
    xi_i^k / (1 - xi_i)^max(k - d, 0) over the suffix tail; variant "b" by
    (xi_i / (xi_i - 1))^max(N - 1 - k - d, 0) over the prefix tail.  Both
    divide only by the w_i = 1 / (1 - xi_i) or 1 / (xi_i - 1), taken in one
    batch: the weights and the right side multiply by their powers.
    """
    n = len(xi)
    total = 1
    for z in xi:
        total *= z
    rhs = vandermonde(xi)
    if variant == "a":
        w = _inverses([1 - z for z in xi])
        weight = [[z**k * wz ** max(k - d, 0) for z, wz in zip(xi, w)] for k in range(n)]
        lhs = _alternating_sum(xi, weight, "suffix")
        if d == 0:
            rhs *= 1 - total
    elif variant == "b":
        w = _inverses([z - 1 for z in xi])
        weight = [[(z * wz) ** max(n - 1 - k - d, 0) for z, wz in zip(xi, w)] for k in range(n)]
        lhs = _alternating_sum(xi, weight, "prefix")
        if d == 0:
            rhs *= total - 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for wz in w:
        rhs *= wz ** (n - d)
    return lhs, rhs


def main_identity(xi: Sequence[Scalar]) -> tuple[Scalar, Scalar, bool]:
    """Center-amplitude permutation sum against its closed product form.

    Returns (lhs, rhs, lhs == rhs).  For N = 2 at (1/2, 1/3) both sides are
    -1/2, which is the hand-checkable anchor.  The left side has one term
    per permutation, summed by the suffix walk :func:`_main_lhs`
    independently of :func:`_alternating_sum`; N > 10 raises ValueError,
    as :func:`tasep2c.permutations.enumerate_permutations` does.
    """
    return _main_sides(_identity_point(xi))


def _main_sides(xi: Point) -> tuple[Scalar, Scalar, bool]:
    """:func:`main_identity` at a valid point."""
    n = len(xi)
    lhs = _main_lhs(xi)
    # its own product loop, apart from the vandermonde the variant sides
    # share, so that the bridge compares two independent statements
    num, den = 1 - xi[0], 1
    for i in range(n):
        den *= (1 - xi[i]) ** (n - i)
        for j in range(i + 1, n):
            num *= xi[j] - xi[i]
    rhs = num / den
    return lhs, rhs, lhs == rhs


def equivalent_identities(xi: Sequence[Scalar], variant: str) -> bool:
    """The two equivalent per-variable-power forms of the main identity.

    Variant "a" carries denominators (1 - xi_p(k))^(k-2) and holds on the
    same points as the main identity; variant "b" is its image under
    xi_i -> 1/xi_(N-i+1) and accepts any nondegenerate point (coordinates
    beyond (0, 1) included).
    """
    return _sides_agree(_identity_point(xi), variant, 1)


def _sides_agree(xi: Point, variant: str, d: int) -> bool:
    """Both sides of :func:`_variant_sides` agree at a valid point."""
    lhs, rhs = _variant_sides(xi, variant, d)
    return lhs == rhs


def main_variant_bridge(xi: Sequence[Scalar]) -> bool:
    """Main identity and variant "a" differ by an explicit sigma-free factor.

    Each main-identity term carries the center amplitude, whose numerator
    prod_i (1 - xi_(2+i))^i does not depend on the permutation; dividing it
    out termwise turns the main sum into the variant-"a" sum.  Checking
    lhs_main = factor * lhs_a (and the same for the right sides), with the
    main sum from its permutation loop and lhs_a from the subset kernel,
    makes the equivalence mechanical rather than assumed.
    """
    xi = _identity_point(xi)
    lhs_main, rhs_main, _ = _main_sides(xi)
    return _bridge_holds(xi, lhs_main, rhs_main)


def _bridge_holds(xi: Point, lhs_main: Scalar, rhs_main: Scalar) -> bool:
    """The bridge at a valid point, given both sides of the main identity there."""
    factor = 1
    for i in range(1, len(xi) - 1):
        factor *= (1 - xi[1 + i]) ** i
    lhs_a, rhs_a = _variant_sides(xi, "a", 1)
    return lhs_main == factor * lhs_a and rhs_main == factor * rhs_a


def substitution_transport(xi: Sequence[Scalar]) -> bool:
    """Variant "a" evaluated at (1/xi_N, .., 1/xi_1) equals variant "b" at xi.

    This is the mechanical check that the inversion substitution really maps
    one displayed identity onto the other, left side onto left side.
    """
    return _substitution_holds(_identity_point(xi))


def _substitution_holds(xi: Point) -> bool:
    """:func:`substitution_transport` at a valid point."""
    mapped = tuple(reversed(_inverses(xi)))
    return _variant_sides(mapped, "a", 1)[0] == _variant_sides(xi, "b", 1)[0]


def tasep_identities(xi: Sequence[Scalar], variant: str) -> bool:
    """Single-species analogues with prefactor (1 - xi_1 ... xi_N).

    Variant "a" is the direct form, variant "b" its inversion substitute
    (valid at any nondegenerate point, components above 1 included).
    """
    return _sides_agree(_identity_point(xi), variant, 0)


def vandermonde_cofactor(xi: Sequence[Scalar]) -> bool:
    """Cofactor expansion of the ((xi_a - 1)^(N-1))-bottom-row determinant.

    sum_a (-1)^(N+a) (xi_a - 1)^(N-1) V(xi without a) = V(xi).
    """
    xi = _field_point(xi)
    n = len(xi)
    if n < 2:
        raise ValueError("need N >= 2")
    total = 0
    for a in range(1, n + 1):
        rest = tuple(z for i, z in enumerate(xi) if i != a - 1)
        total += (-1) ** (n + a) * (xi[a - 1] - 1) ** (n - 1) * vandermonde(rest)
    return total == vandermonde(xi)


def det_exact(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant of a square matrix: over GF(p) if an entry is a GFp, else over Q.

    Both take the integer determinant of the package's exact kernel
    :func:`tasep2c.formulas._fixed_det` (Bareiss elimination), whose
    divisions are exact integer divisions.  A matrix over GF(p) goes to it
    as the residues of its entries, and the determinant is mapped back into
    the field: no modular inversion.  Each row of a rational matrix is
    cleared of denominators by their lcm, the integer determinant is taken,
    and the result is divided by the product of the row scales.  The empty
    matrix has determinant 1.
    """
    if any(isinstance(v, GFp) for row in matrix for v in row):
        return GFp(_fixed_det([[GFp(v).v for v in row] for row in matrix]))
    rows = []
    scale = 1
    for row in matrix:
        row = [Fraction(v) for v in row]
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        scale *= lcm
    return Fraction(_fixed_det(rows), scale)


def det_collapse(xi: Sequence[Scalar], shift: int, exponents: Sequence[int]) -> Scalar:
    """Determinant of the power matrix with first-column degree N-1+shift.

    Column 1 holds xi^(N-1+shift); column j (2..N) holds xi^(N-j+k_j) with
    0 <= k_j <= j - 2 taken from ``exponents`` (length N-1, entry 0 is k_2).
    The determinant vanishes whenever some k_j > 0, and for all-zero k it
    equals h_shift(xi) times the descending-order Vandermonde
    prod_(i<j) (xi_i - xi_j).
    """
    xi = _field_point(xi)
    n = len(xi)
    if len(exponents) != n - 1:
        raise ValueError(f"need {n - 1} column exponents, got {len(exponents)}")
    for j, k in zip(range(2, n + 1), exponents):
        if not 0 <= k <= j - 2:
            raise ValueError(f"column {j} exponent {k} outside 0..{j - 2}")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    rows = []
    for z in xi:
        row = [z ** (n - 1 + shift)]
        for j, k in zip(range(2, n + 1), exponents):
            row.append(z ** (n - j + k))
        rows.append(row)
    return det_exact(rows)


def descending_vandermonde(xi: Sequence[Scalar]) -> Scalar:
    """prod over i < j of (xi_i - xi_j)."""
    return vandermonde(xi) * (-1) ** (len(xi) * (len(xi) - 1) // 2)


def closed_form_vs_product(xi: Sequence[Scalar], sigma: Sequence[int]) -> bool:
    """Center amplitude: product formula against the slot operators of sigma's word.

    The center entry is row c of the unit column e_c, c the center index,
    pushed through the slot operators of the canonical word of sigma
    (``bethe.amplitude_column``), the entry (c, c) of
    ``bethe.amplitude(sigma, point)``.
    """
    return _closed_form_holds(validate_point(xi), sigma)


def _closed_form_holds(point: Point, sigma: Sequence[int]) -> bool:
    """:func:`closed_form_vs_product` at a valid point."""
    c = bethe.center_index(len(point))
    column = bethe.amplitude_column(sigma, c, point)
    return column.get(c, 0) == bethe.amplitude_center(sigma, point)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

# Each check takes the valid point that random_field_point drew, so it skips
# the validation that the public check of the same identity makes.


def _main_check(xi: Point, rng: random.Random) -> bool:
    # the bridge reuses this point's N! main sum instead of repeating it
    lhs, rhs, holds = _main_sides(xi)
    return holds and _bridge_holds(xi, lhs, rhs)


def _det_collapse_check(xi: Point, rng: random.Random) -> bool:
    exponents = [rng.randint(0, j - 2) for j in range(2, len(xi) + 1)]
    shift = rng.randint(0, 3)
    value = det_collapse(xi, shift, exponents)
    if any(exponents):
        return value == 0
    return value == complete_homogeneous(shift, xi) * descending_vandermonde(xi)


def _closed_form_check(xi: Point, rng: random.Random) -> bool:
    sigma = list(range(1, len(xi) + 1))
    rng.shuffle(sigma)
    return _closed_form_holds(xi, tuple(sigma))


def _sum_degree(n: int) -> int:
    # a common denominator of all subset products, degree at most n 2^(n-1),
    # times per-variable (1 - xi)^n powers
    return n * 2 ** (n - 1) + 3 * n * n


#: Each suite identity's check at a point, which may draw more from the
#: point's rng, and the coarse upper bound d on the degree of the identity
#: cleared of denominators: the permutation sums by :func:`_sum_degree`,
#: the determinant and matrix identities as plain polynomials.
_SUITE = {
    "main": (_main_check, _sum_degree),
    "equiv_a": (lambda xi, rng: _sides_agree(xi, "a", 1), _sum_degree),
    "equiv_b": (lambda xi, rng: _sides_agree(xi, "b", 1), _sum_degree),
    "substitution": (lambda xi, rng: _substitution_holds(xi), _sum_degree),
    "tasep_a": (lambda xi, rng: _sides_agree(xi, "a", 0), _sum_degree),
    "tasep_b": (lambda xi, rng: _sides_agree(xi, "b", 0), _sum_degree),
    "vandermonde": (lambda xi, rng: vandermonde_cofactor(xi), lambda n: n * (n - 1) // 2 + n - 1),
    "det_collapse": (_det_collapse_check, lambda n: n * n),
    "closed_form": (_closed_form_check, lambda n: 4 * n),
    "braid": (lambda xi, rng: bethe.braid_relations_hold(xi), lambda n: 4 * n),
}
SUITE_IDENTITIES = tuple(_SUITE)


def run_identity_suite(
    n_values: Sequence[int] = (2, 3, 4, 5, 6),
    points: int = 100,
    seed: int = 2024,
    identities: Sequence[str] = SUITE_IDENTITIES,
) -> list[dict]:
    """Check each identity at ``points`` uniform random points of GF(p)^n per size.

    The points of each (identity, n) come from a ``random.Random`` seeded by
    (seed, identity, n), so a seed pins every record.  Returns one record
    per (identity, n) with the point count, the pass flag, and the coarse
    cleared-denominator degree bound d: a false identity passes each point
    with probability at most d / p.  Each n asked must be at least 2.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    if any(n < 2 for n in n_values):
        raise ValueError(f"the identities are stated for N >= 2, got {tuple(n_values)}")
    records = []
    for identity in identities:
        if identity not in _SUITE:
            raise ValueError(f"unknown identity {identity!r}")
        check, degree_bound = _SUITE[identity]
        for n in n_values:
            rng = random.Random((seed, identity, n).__repr__())
            passed = all(check(random_field_point(n, rng), rng) for _ in range(points))
            records.append(
                {
                    "identity": identity,
                    "n": n,
                    "points": points,
                    "passed": passed,
                    "degree_bound": degree_bound(n),
                }
            )
    return records
