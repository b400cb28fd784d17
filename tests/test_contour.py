import itertools
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tasep2c import contour, formulas
from tasep2c.contour import (
    QuadratureSpec,
    circle_quadrature,
    exp_scaled_residue,
    laurent_coefficient,
    multi_contour,
    residue_value,
)
from tasep2c.errors import AccuracyError


def integrand(k, e, t):
    return lambda z: z**k * (1 - z) ** e * np.exp((1 / z - 1) * t)


def mp_residue(k, e, t):
    """I(k, e, t) from its series, to 80 digits, as an mpmath number.

    For e >= 0 the finite sum is taken exactly in rationals, so exact zeros
    stay zero; for e < 0 the positive terms are summed in mpmath.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        j = max(0, -k - 1)
        if e >= 0:
            tq = Fraction(t)
            s = sum(
                (
                    (-1) ** i * math.comb(e, i) * tq ** (k + i + 1) / math.factorial(k + i + 1)
                    for i in range(j, e + 1)
                ),
                Fraction(0),
            )
            total = mpmath.mpf(s.numerator) / s.denominator
        else:
            tm = mpmath.mpf(t)
            total = mpmath.mpf(0)
            while True:
                n = k + j + 1
                term = math.comb(-e - 1 + j, j) * tm**n / mpmath.factorial(n)
                total += term
                if n > tm and term < mpmath.mpf(10) ** -85 * total:
                    break
                j += 1
        return total * mpmath.exp(-mpmath.mpf(t))


def test_single_exponential_term():
    assert residue_value(-1, 0, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)


def test_no_residue_coefficient():
    assert residue_value(-2, 0, 1.0) == 0.0


def test_geometric_pole_closed_form():
    for t in (0.25, 1.0, 4.0):
        assert residue_value(0, -1, t) == pytest.approx(1 - math.exp(-t), rel=1e-14)


def test_poisson_masses():
    t = 2.0
    for k in range(-4, 12):
        expect = math.exp(-t) * t ** (k + 1) / math.factorial(k + 1) if k >= -1 else 0.0
        assert residue_value(k, 0, t) == pytest.approx(expect, abs=1e-18, rel=1e-14)


def test_time_zero_is_exact_integer():
    assert residue_value(-1, 0, 0) == 1
    assert residue_value(-3, -2, 0) == laurent_coefficient(-3, -2) == 3
    assert residue_value(-2, 3, 0) == -3
    assert isinstance(residue_value(-2, 3, 0), int)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        residue_value(0, 0, -1.0)
    with pytest.raises(ValueError):
        exp_scaled_residue(0, -1, Fraction(-1, 2), 64)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        residue_value(0, -1, t)


def test_large_time_series_stays_finite():
    # exp(-t) underflows at t ~ 745; I(3, -2, t) = t - 3 + O(t^4 e^-t)
    assert residue_value(3, -2, 800.0) == pytest.approx(797.0, rel=1e-15)


def test_exact_zero_is_returned_as_zero():
    # t^2/2 - 2 t^3/6 + t^4/24 vanishes at t = 2
    assert mp_residue(1, 2, 2.0) == 0
    assert residue_value(1, 2, 2.0) == 0.0


# (11, 5, 30) loses digits to cancellation in a float series; (50, 0, 0.1)
# is about 5.8e-118, below 2^-128, so the scale has to climb
@pytest.mark.parametrize("k, e, t", [(11, 5, 30.0), (50, 0, 0.1)])
def test_residue_value_within_2_ulp_of_mpmath(k, e, t):
    expect = float(mp_residue(k, e, t))
    assert abs(residue_value(k, e, t) - expect) <= 2 * math.ulp(expect)


def test_residue_value_grid_within_2_ulp_of_mpmath():
    grid = itertools.product(
        range(-12, 13, 4), (-8, -5, -2, -1, 0, 2, 5), (0.1, 0.3, 1.0, 2.0, 5.0, 30.0, 100.0)
    )
    for k, e, t in grid:
        expect = float(mp_residue(k, e, t))
        got = residue_value(k, e, t)
        assert abs(got - expect) <= 2 * math.ulp(expect), (k, e, t, got, expect)


def test_exp_scaled_residue_matches_float():
    # the integer lies within the documented 2 units of exact
    mpmath = pytest.importorskip("mpmath")
    bits = 128
    for k in range(-4, 5):
        for e in range(-4, 3):
            for t in (0.3, 1.0, 5.0):
                scaled = exp_scaled_residue(k, e, Fraction(t), bits)
                with mpmath.workdps(80):
                    expect = mp_residue(k, e, t) * mpmath.exp(t) * mpmath.mpf(2) ** bits
                    assert abs(scaled - expect) < 2


def test_exp_scaled_residue_float_and_fraction_share_entries():
    exp_scaled_residue.cache_clear()
    assert exp_scaled_residue(2, -3, 0.5, 64) == exp_scaled_residue(2, -3, Fraction(1, 2), 64)
    assert exp_scaled_residue.cache_info().misses == 1


def _units_off(got, k, e, t, bits):
    """got - 2^bits * e^t * I(k, e, t): exact in rationals for e >= 0, else in mpmath.

    For e < 0 the positive series is summed in units of 2^-bits with 80
    digits past the point, until its terms fall below 10^-80 units with a
    ratio below 3/4.
    """
    j = max(0, -k - 1)
    n = k + j + 1
    if e >= 0:
        exact = sum(
            (
                (-1) ** i * math.comb(e, i) * t ** (k + i + 1) / math.factorial(k + i + 1)
                for i in range(j, e + 1)
            ),
            Fraction(0),
        )
        return got - exact * 2**bits
    mpmath = pytest.importorskip("mpmath")
    m = -e
    with mpmath.workdps(len(str(abs(got))) + 80):
        tm = mpmath.mpf(t.numerator) / t.denominator
        term = math.comb(m - 1 + j, j) * tm**n / mpmath.factorial(n) * mpmath.mpf(2) ** bits
        total = mpmath.mpf(0)
        while not (n > 2 * t and j > 2 * m and term < mpmath.mpf(10) ** -80):
            total += term
            term = term * (j + m) / (j + 1) * tm / (n + 1)
            j += 1
            n += 1
        return float(got - total)


def test_exp_scaled_residue_within_2_units_of_exact():
    # one-sided for e < 0: every term is positive and only floored or dropped
    for t in (Fraction(0.1), Fraction(1), Fraction(5, 2), Fraction(100)):
        for k in (-200, -15, -1, 0, 12):
            for e in (-30, -9, -1, 0, 4):
                off = _units_off(exp_scaled_residue(k, e, t, 256), k, e, t, 256)
                assert abs(off) < 2, (k, e, t, off)
                if e < 0:
                    assert off <= 0, (k, e, t, off)


def test_series_table_reads_do_not_depend_on_request_order():
    # the folds of a table grow upward by suffix sums, as far as the deepest
    # one asked for so far; every order must give the fresh value
    def fresh(k, e):
        exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        return exp_scaled_residue(k, e, 2.5, 256)

    keys = [(k, e) for e in (-5, -2, -7, -6, -1, -4) for k in (-9, -1, 0, 4)]
    expect = {key: fresh(*key) for key in keys}
    exp_scaled_residue.cache_clear()
    contour._series_table.cache_clear()
    formulas._minor_table.cache_clear()
    assert {key: exp_scaled_residue(*key, 2.5, 256) for key in keys} == expect
    assert contour._series_table.cache_info().misses == 1


def test_series_table_is_shared_by_a_step_matrix():
    # the 39 distinct entries of the N = 20, t = 100 step matrix at x = 2
    exp_scaled_residue.cache_clear()
    contour._series_table.cache_clear()
    formulas._minor_table.cache_clear()
    for k in range(-19, 20):
        exp_scaled_residue(k, -19, 100.0, 256)
    assert exp_scaled_residue.cache_info().misses == 39
    assert contour._series_table.cache_info().misses == 1


def test_quadrature_residue_of_inverse():
    result = circle_quadrature(lambda z: 1 / z)
    assert result.value == pytest.approx(1.0, abs=1e-14)


def test_quadrature_analytic_integrand_vanishes():
    result = circle_quadrature(lambda z: z**3)
    assert abs(result.value) < 1e-14


def test_quadrature_matches_series():
    spec = QuadratureSpec(radius=0.5, points=16, tolerance=1e-13)
    got = circle_quadrature(integrand(-1, -1, 1.0), spec).value.real
    assert got == pytest.approx(residue_value(-1, -1, 1.0), rel=1e-12)


def test_quadrature_grid_agreement_sample():
    spec = QuadratureSpec(radius=0.5, points=16, tolerance=1e-13)
    for k in (-6, -2, 0, 3, 6):
        for e in (-5, -1, 0, 2):
            for t in (0.1, 1.0, 5.0):
                got = circle_quadrature(integrand(k, e, t), spec).value.real
                expect = residue_value(k, e, t)
                assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_quadrature_integrand_exception_propagates():
    # an integrand that rejects array input is an error, not a per-node loop
    def scalar_only(z):
        if isinstance(z, np.ndarray):
            raise TypeError("scalars only")
        return 1 / z

    with pytest.raises(TypeError, match="scalars only"):
        circle_quadrature(scalar_only)


def test_quadrature_budget_error_carries_best_value():
    # 1/(z - r) has a pole on the contour; the rule cannot converge
    spec = QuadratureSpec(radius=0.5, points=8, tolerance=1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(AccuracyError) as info:
            circle_quadrature(lambda z: 1 / (z - 0.5), spec, max_points=64)
    assert info.value.value is not None


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radius=1.5)
    with pytest.raises(ValueError):
        QuadratureSpec(points=12)
    with pytest.raises(ValueError):
        QuadratureSpec(points=4)
    with pytest.raises(ValueError):
        QuadratureSpec(tolerance=0.0)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(tolerance=tol)


def coupled(xis):
    """A non-separable integrand whose rule needs several doublings."""
    weight = np.exp(sum((1 / z - 1) * 0.5 for z in xis)) / math.prod(xis)
    return weight / ((1 - xis[0]) * (2 - math.prod(xis)))


def full_grid_trapezoid(F, n, radius, m):
    """The M-point tensor rule evaluated on the whole M^n grid at once."""
    circle = radius * np.exp(2j * np.pi * np.arange(m) / m)
    xis = [circle.reshape((1,) * i + (m,) + (1,) * (n - 1 - i)) for i in range(n)]
    vals = np.broadcast_to(F(xis) * math.prod(xis), (m,) * n)
    return complex(np.mean(vals))


def level_value(F, n, spec, m, factors=()):
    """The rule's value and level with a budget of exactly m^n.

    The budget stops the rule at level m, and its error carries that level's
    value; a doubling delta of exactly 0 returns an earlier level.
    """
    try:
        result = multi_contour(F, n, spec, max_evals=m**n, factors=factors)
    except AccuracyError as exc:
        return exc.value, m
    return result.value, result.points


@pytest.mark.parametrize("n, top", [(1, 2**17), (2, 512), (3, 64)])
def test_multi_contour_levels_match_full_grid(n, top):
    spec = QuadratureSpec(points=8, tolerance=1e-300)
    m = spec.points
    while m <= top:
        value, level = level_value(coupled, n, spec, m)
        assert isinstance(value, float)
        expect = full_grid_trapezoid(coupled, n, spec.radius, level).real
        assert abs(value - expect) <= 1e-15 * abs(expect)
        m *= 2


def with_factors(F, factors):
    """F(xis) * prod_a g_a(xi_a), the integrand ``factors`` stand for, on the grid."""
    return lambda xis: F(xis) * math.prod(g(z) for g, z in zip(factors, xis))


FACTORS = (integrand(0, 0, 0.3), integrand(-1, -1, 0.7), integrand(2, 1, 1.1))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", (16, 32))
def test_multi_contour_factors_match_the_grid_product(n, m):
    # the factors ride the contraction vectors; the value is that of the
    # integrand with their product built on the grid, from the same nodes
    spec = QuadratureSpec(points=m)
    counts = {}
    values = {}
    for mode, F, factors in (("factors", coupled, FACTORS[:n]),
                             ("grid", with_factors(coupled, FACTORS[:n]), ())):
        counts[mode] = []
        values[mode], level = level_value(counting(F, counts[mode]), n, spec, m, factors)
        assert level == m
    assert abs(values["factors"] - values["grid"]) <= 1e-15 * max(1.0, abs(values["grid"]))
    assert counts["factors"] == counts["grid"]


def test_multi_contour_wants_one_factor_per_variable():
    with pytest.raises(ValueError, match="one factor per variable"):
        multi_contour(coupled, 3, factors=FACTORS[:2])


class _Captured(Exception):
    pass


def captured_integrand(monkeypatch, call):
    """The integrand F, variable count n and factors a formula hands to multi_contour."""
    seen = []

    def capture(F, n, *args, factors=(), **kwargs):
        seen.append((F, n, factors))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(contour, "multi_contour", capture)
        with pytest.raises(_Captured):
            call()
    return seen[0]


@pytest.mark.parametrize(
    "call",
    (
        lambda: formulas.transition_probability(
            formulas.Configuration((1, 2), "21"), formulas.Configuration((2, 4), "12"), 0.5,
            method="quadrature",
        ),
        lambda: formulas.transition_probability(
            formulas.Configuration((1, 2, 3), "211"), formulas.Configuration((2, 3, 4), "121"),
            0.5, method="quadrature",
        ),
        lambda: formulas.transition_probability(
            formulas.Configuration((0, 2, 3), "121"), formulas.Configuration((1, 2, 4), "112"),
            0.7, method="quadrature",
        ),
        lambda: formulas.leftmost_probability(
            formulas.step_configuration(3), 2, 1.0, method="quadrature"
        ),
        lambda: formulas.tasep_leftmost_probability(
            formulas.Configuration((1, 2, 3), "111"), 2, 1.0, method="quadrature"
        ),
        lambda: formulas.leftmost_probability_shifted_step(2, 3, 2, 1.0, method="quadrature"),
    ),
    ids=("transition2", "transition3", "transition3_nonhead", "leftmost", "tasep_leftmost",
         "shifted_step"),
)
@pytest.mark.parametrize("m", (16, 32))
def test_package_integrands_are_real_on_the_real_axis(monkeypatch, call, m):
    # the rule sums half of each conjugation-closed grid; the formulas'
    # integrands, body times one-variable factors, have real coefficients,
    # so at a forced level its value is the real part of the whole grid's
    # trapezoid sum
    F, n, factors = captured_integrand(monkeypatch, call)
    assert len(factors) == n
    assert half_grid_error(F, n, factors, m) <= 1e-14


def half_grid_error(F, n, factors, m):
    """|half-grid rule - real part of the full-grid rule| at level m, relative to max(1, |value|)."""
    with pytest.raises(AccuracyError) as info:
        multi_contour(F, n, QuadratureSpec(points=m), max_evals=m**n, factors=factors)
    value = info.value.value
    expect = full_grid_trapezoid(with_factors(F, factors), n, 0.5, m).real
    return abs(value - expect) / max(1.0, abs(value))


@pytest.mark.parametrize("a", (0, 1, 2))
def test_realness_check_sees_a_complex_factor(monkeypatch, a):
    # a factor with a complex coefficient breaks the conjugate symmetry the
    # half grid relies on, and the check above must see it in any variable
    F, n, factors = captured_integrand(
        monkeypatch,
        lambda: formulas.leftmost_probability_shifted_step(2, 3, 2, 1.0, method="quadrature"),
    )
    factors = list(factors)
    g = factors[a]
    factors[a] = lambda z: (1 + 0.5j) * g(z)
    assert half_grid_error(F, n, factors, 16) > 1e-6


def counting(F, sizes):
    def G(xis):
        sizes.append(np.broadcast(*xis).size)
        return F(xis)

    return G


def test_multi_contour_evaluates_each_node_once():
    # of each conjugate pair only the node with Im xi >= 0 in the first
    # variable is evaluated: (M/2 + 1) M^(n-1) nodes of the M^n grid
    sizes = []
    result = multi_contour(counting(coupled, sizes), 3, QuadratureSpec(points=8, tolerance=1e-13))
    m = result.points
    assert m >= 32
    assert sum(sizes) == (m // 2 + 1) * m**2


@pytest.mark.parametrize("n, points", [(1, 2**17), (5, 16)])
def test_multi_contour_slabs_are_bounded(n, points):
    # at n = 5 a single row of the first variable (16^4 nodes) exceeds the
    # slab; the first variable runs over its 9 nodes with Im xi >= 0
    sizes = []
    with pytest.raises(AccuracyError) as info:
        multi_contour(
            counting(lambda xis: 1 / math.prod(xis), sizes),
            n,
            QuadratureSpec(points=points),
            max_evals=points**n,
        )
    assert info.value.value == pytest.approx(1.0, abs=1e-13)
    assert max(sizes) == contour._SLAB
    assert sum(sizes) == {1: 2**16 + 1, 5: 9 * 16**4}[n]


_COLD_STEP_LEFTMOST = """
import resource
from tasep2c import formulas
start = formulas.step_configuration(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
formulas.leftmost_probability(start, 2, 1.0, method="quadrature")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
def test_quadrature_slabs_stay_resident():
    # this rule reaches M = 128 in about 50 slabs of up to 2^15 nodes; were
    # the slab temporaries trimmed off the heap after every slab, each slab
    # would fault them back in, about 11,000 minor faults in all
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(contour.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _COLD_STEP_LEFTMOST], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 1000


def test_multi_contour_product_of_inverses():
    result = multi_contour(lambda xis: 1 / (xis[0] * xis[1] * xis[2]), 3)
    assert result.value == pytest.approx(1.0, abs=1e-13)


def test_multi_contour_separable_equals_product():
    def F(xis):
        return (
            xis[0] ** -1
            * np.exp((1 / xis[0] - 1) * 1.0)
            * (1 - xis[1]) ** -1
            * xis[1] ** -1
        )

    got = multi_contour(F, 2).value.real
    expect = residue_value(-1, 0, 1.0) * residue_value(-1, -1, 0.0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_multi_contour_budget_guard():
    with pytest.raises(ValueError):
        multi_contour(lambda xis: 1 / xis[0], 8, QuadratureSpec(points=16), max_evals=2**10)
