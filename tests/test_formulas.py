import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from tasep2c import bethe, contour, formulas, simulate
from tasep2c.contour import QuadratureSpec
from tasep2c.errors import AccuracyError, WindowTooSmallWarning
from tasep2c.formulas import (
    Configuration,
    StepInitial,
    displacement_tail_bound,
    head_transition_probability,
    head_word,
    leftmost_probability,
    leftmost_probability_shifted_step,
    leftmost_probability_step_det,
    probability_mass_check,
    step_configuration,
    tasep_leftmost_probability,
    transition_probability,
)

QUAD = QuadratureSpec(radius=0.5, points=16, tolerance=1e-12)


def scaled_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration((2, 1), "21")
        with pytest.raises(ValueError):
            Configuration((1, 2), "2")
        with pytest.raises(ValueError):
            Configuration((1, 2), "23")
        with pytest.raises(ValueError):
            Configuration((), "")

    @pytest.mark.parametrize(
        "positions, species, message",
        [
            ((), "", "need at least one particle"),
            ((1, 3, 3), "211", "strictly increasing"),
            ((1, 2), "211", "length must match"),
            ((1, 2, 3), "1x1", "only contain 1 and 2"),
        ],
    )
    def test_each_refusal_names_its_cause(self, positions, species, message):
        with pytest.raises(ValueError, match=message):
            Configuration(positions, species)

    def test_numpy_positions_become_python_ints(self):
        c = Configuration(tuple(np.arange(-1, 2)), "211")
        assert c.positions == (-1, 0, 1)
        assert all(type(p) is int for p in c.positions)
        assert c == Configuration((-1, 0, 1), "211")

    def test_step_initial(self):
        assert StepInitial(0).positions(4) == (1, 2, 3, 4)
        assert StepInitial(2).positions(4) == (1, 4, 5, 6)
        assert step_configuration(3).species == "211" == head_word(3)
        with pytest.raises(ValueError):
            StepInitial(-1)

    @pytest.mark.parametrize("n", (0, -3))
    def test_step_initial_needs_a_particle(self, n):
        with pytest.raises(ValueError, match="at least one particle"):
            StepInitial(0).positions(n)
        with pytest.raises(ValueError, match="at least one particle"):
            step_configuration(n)


class TestTransition:
    def test_time_zero_atom(self):
        y = step_configuration(2)
        assert transition_probability(y, y, 0.0) == 1.0
        assert transition_probability(y, Configuration((1, 3), "21"), 0.0) == 0.0
        assert transition_probability(y, Configuration((1, 2), "12"), 0.0) == 0.0

    def test_single_particle_is_poisson(self):
        y = Configuration((0,), "2")
        for method in ("residue", "quadrature"):
            v = transition_probability(y, Configuration((3,), "2"), 2.0, method=method)
            assert v == pytest.approx(math.exp(-2) * 2**3 / 6, rel=1e-10)

    def test_species_multiset_guard(self):
        with pytest.raises(ValueError, match="multiset"):
            transition_probability(
                Configuration((1, 2), "21"), Configuration((1, 2), "11"), 1.0
            )

    def test_unreachable_species_order_has_zero_probability(self):
        # a second class particle never overtakes a first class one
        value = transition_probability(
            Configuration((1, 2), "12"), Configuration((1, 2), "21"), 1.0
        )
        assert value == 0.0

    def test_swap_probability_positive_and_methods_agree(self):
        initial = Configuration((1, 2), "21")
        final = Configuration((1, 2), "12")
        a = transition_probability(initial, final, 1.0)
        b = transition_probability(initial, final, 1.0, method="quadrature", quad=QUAD)
        assert a > 0.1
        assert scaled_close(a, b, 1e-9)

    def test_methods_agree_n3(self):
        initial = Configuration((0, 2, 3), "121")
        final = Configuration((1, 2, 4), "112")
        a = transition_probability(initial, final, 0.7)
        b = transition_probability(initial, final, 0.7, method="quadrature", quad=QUAD)
        assert scaled_close(a, b, 1e-9)

    def test_n4_quadrature_converges_with_smaller_radius(self):
        # the default rule cannot converge here: the grid budget allows one
        # doubling at N = 4
        initial = Configuration((1, 2, 3, 4), "2121")
        final = Configuration((2, 3, 4, 6), "1221")
        spec = QuadratureSpec(radius=0.25, tolerance=1e-9)
        a = transition_probability(initial, final, 0.5)
        b = transition_probability(initial, final, 0.5, method="quadrature", quad=spec)
        assert b == pytest.approx(a, rel=1e-9)

    def test_head_matches_general_machinery(self):
        y = step_configuration(3)
        for xs in ((1, 2, 3), (1, 3, 5), (2, 3, 4)):
            x = Configuration(xs, "211")
            a = head_transition_probability(y, x, 1.0)
            b = transition_probability(y, x, 1.0)
            assert scaled_close(a, b, 1e-12)

    def test_head_requires_head_words(self):
        with pytest.raises(ValueError):
            head_transition_probability(
                Configuration((1, 2), "12"), Configuration((1, 2), "12"), 1.0
            )

    def test_bad_method_name(self):
        y = step_configuration(2)
        with pytest.raises(ValueError):
            transition_probability(y, y, 1.0, method="magic")

    @pytest.mark.parametrize("t", (0.5, 1.5))
    def test_n6_head_words_match_determinant(self, t):
        y = step_configuration(6)
        for xs in ((2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 6, 8), (2, 3, 5, 6, 7, 9)):
            x = Configuration(xs, "211111")
            expect = head_transition_probability(y, x, t)
            assert transition_probability(y, x, t) == pytest.approx(expect, rel=1e-12)

    def test_n6_non_head_word_matches_monte_carlo(self):
        y = step_configuration(6)
        final = Configuration((1, 2, 3, 4, 5, 7), "121111")
        exact = transition_probability(y, final, 1.0)
        assert 0.0 <= exact <= 1.0
        est = simulate.estimate_event(y, simulate.transition_event(final), 1.0, 40_000, seed=6)
        band = 6 * math.sqrt(exact * (1 - exact) / est.runs)
        assert abs(est.estimate - exact) <= band

    @pytest.mark.parametrize("t", (0.5, 1.5))
    def test_n7_head_words_match_determinant(self, t):
        y = step_configuration(7)
        for xs in ((2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 7, 9), (2, 3, 4, 6, 7, 8, 10)):
            x = Configuration(xs, "2111111")
            expect = head_transition_probability(y, x, t)
            assert transition_probability(y, x, t) == pytest.approx(expect, rel=1e-12)

    def test_n7_non_head_word_matches_monte_carlo(self):
        y = step_configuration(7)
        final = Configuration((1, 2, 3, 4, 5, 6, 8), "1211111")
        exact = transition_probability(y, final, 1.0)
        assert 0.0 < exact < 1.0
        est = simulate.estimate_event(y, simulate.transition_event(final), 1.0, 40_000, seed=7)
        band = 6 * math.sqrt(exact * (1 - exact) / est.runs)
        assert abs(est.estimate - exact) <= band

    def test_column_budget_refuses_n9_before_enumerating(self, monkeypatch):
        def enumerate_permutations(n):
            raise AssertionError(f"enumerated S_{n}")

        monkeypatch.setattr(bethe, "enumerate_permutations", enumerate_permutations)
        y = step_configuration(9)
        with pytest.raises(ValueError, match=r"362,880 terms, over the budget"):
            transition_probability(y, y, 1.0)

    def test_size_caps(self, monkeypatch):
        # the N = 8 head word's 40,320 columns hold 2,530,080 terms; the walk
        # stops once it holds more than 200,000 (about 1.3 s on 2 cores)
        walk, seen = bethe.amplitude_columns, []

        def counted(*args):
            for sigma, column in walk(*args):
                seen.append(sigma)
                yield sigma, column

        monkeypatch.setattr(bethe, "amplitude_columns", counted)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget of 200,000"):
            transition_probability(step_configuration(8), step_configuration(8), 1.0)
        assert time.perf_counter() - start < 5.0
        assert len(seen) < math.factorial(8) // 2
        with pytest.raises(ValueError, match="grid budget"):
            transition_probability(
                step_configuration(5), step_configuration(5), 1.0, method="quadrature"
            )

    def test_quadrature_is_limited_by_the_grid_budget_alone(self, monkeypatch):
        # N = 5 from 8 points doubles within the budget, so it reaches the
        # rule; the default 16 points cannot double and are refused up front
        def reached(*args, **kwargs):
            raise RuntimeError("reached the rule")

        monkeypatch.setattr(contour, "multi_contour", reached)
        y = step_configuration(5)
        final = Configuration((1, 2, 3, 4, 6), "12111")
        with pytest.raises(RuntimeError, match="reached the rule"):
            transition_probability(y, final, 1.0, method="quadrature",
                                   quad=QuadratureSpec(points=8))
        with pytest.raises(ValueError, match="grid budget of 4,194,304"):
            transition_probability(y, final, 1.0, method="quadrature")

    def test_cold_n5_within_budget(self):
        # about 0.01 s cold on a 2-core machine (measured 2026-10-19)
        formulas._sym_columns.cache_clear()
        contour.exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        y = step_configuration(5)
        final = Configuration((2, 3, 4, 5, 7), "12111")
        start = time.perf_counter()
        value = transition_probability(y, final, 0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"cold N = 5 transition took {elapsed:.3f} s"
        assert 0.0 < value < 1.0

    def test_cold_n6_three_twos_within_budget(self):
        # the largest column at N = 6, 140,512 terms; about 0.45 s cold on a
        # 2-core machine (measured 2026-10-19)
        formulas._sym_columns.cache_clear()
        contour.exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        y = Configuration((1, 2, 3, 4, 5, 6), "221211")
        final = Configuration((2, 3, 4, 5, 7, 8), "122121")
        start = time.perf_counter()
        value = transition_probability(y, final, 0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, f"cold N = 6 transition took {elapsed:.3f} s"
        assert 0.0 < value < 1.0


class TestLeftmost:
    def test_single_particle_poisson(self):
        y = Configuration((0,), "2")
        for x in range(0, 10):
            expect = math.exp(-2) * 2**x / math.factorial(x)
            assert leftmost_probability(y, x, 2.0) == pytest.approx(expect, rel=1e-13)

    def test_renewal_anchor(self):
        # order intact with x1 = 1 iff the front particle's clock never rang
        y = step_configuration(2)
        for t in (0.5, 1.0, 2.0):
            assert leftmost_probability(y, 1, t) == pytest.approx(math.exp(-t), abs=1e-12)

    def test_left_of_start_is_zero(self):
        assert leftmost_probability(step_configuration(2), 0, 1.0) == 0.0

    def test_time_zero_indicator(self):
        y = Configuration((2, 5), "21")
        assert leftmost_probability(y, 2, 0.0) == 1.0
        assert leftmost_probability(y, 3, 0.0) == 0.0

    def test_quadrature_agreement(self):
        for n in (2, 3):
            y = step_configuration(n)
            for x in (1, 2, 4):
                for t in (0.3, 1.0, 3.0):
                    a = leftmost_probability(y, x, t)
                    b = leftmost_probability(y, x, t, method="quadrature", quad=QUAD)
                    assert scaled_close(a, b, 1e-9)

    def test_quadrature_past_the_grid_budget_is_refused_up_front(self, monkeypatch):
        # 32^5 nodes exceed the budget of 2^22, so the rule could never double
        def unreachable(*args, **kwargs):
            raise AssertionError("multi_contour ran")

        monkeypatch.setattr(contour, "multi_contour", unreachable)
        with pytest.raises(ValueError, match="grid budget of 4,194,304 nodes"):
            leftmost_probability(step_configuration(5), 2, 1.0, method="quadrature")

    def test_nonstep_initial_data(self):
        y = Configuration((0, 3, 7), "211")
        values = [leftmost_probability(y, x, 1.5) for x in range(0, 12)]
        assert all(v >= 0 for v in values)
        assert sum(values) <= 1.0 + 1e-12

    def test_requires_head_species(self):
        with pytest.raises(ValueError):
            leftmost_probability(Configuration((1, 2), "12"), 1, 1.0)

    @pytest.mark.parametrize("positions", [(0, 3, 7), (1, 4, 5, 9)])
    def test_nonstep_sweep_points_match_cold_values(self, positions):
        # a sweep reads one table of minors per row shape; each point is cold
        n = len(positions)
        xs = range(positions[0], positions[0] + 10)
        for route, word in ((leftmost_probability, head_word(n)),
                            (tasep_leftmost_probability, "1" * n)):
            y = Configuration(positions, word)
            for t in (0.3, 2.0):
                def cold(x):
                    formulas._minor_table.cache_clear()
                    return float.hex(route(y, x, t))

                expect = [cold(x) for x in xs]
                for order in (list(xs), list(xs)[::-1]):
                    formulas._minor_table.cache_clear()
                    got = {x: float.hex(route(y, x, t)) for x in order}
                    assert [got[x] for x in xs] == expect


def _monomials(n, degree):
    """Exponent vectors of every monomial of h_degree in n variables."""
    monos = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        m = [0] * n
        for i in combo:
            m[i] += 1
        monos.append(m)
    return monos


class TestStepFamily:
    def test_step_family_agreement_small(self):
        for n in (1, 2, 3, 4):
            y = step_configuration(n)
            for x in (1, 2, 3, 5):
                for t in (0.3, 1.0):
                    a = leftmost_probability(y, x, t)
                    b = leftmost_probability_shifted_step(0, n, x, t)
                    c = leftmost_probability_step_det(n, x, t)
                    assert scaled_close(a, b, 1e-12)
                    assert scaled_close(a, c, 1e-12)

    def test_shifted_matches_direct_evaluation(self):
        for shift in (1, 3):
            for n in (2, 3):
                y = Configuration(StepInitial(shift).positions(n), head_word(n))
                for x in (1, 2, 4):
                    a = leftmost_probability_shifted_step(shift, n, x, 1.0)
                    b = leftmost_probability(y, x, 1.0)
                    assert scaled_close(a, b, 1e-12)

    def test_shifted_quadrature_agreement(self):
        # the quadrature body builds h_l by its recurrence, the residue route
        # raises the last row by l
        for n, shift in ((2, 0), (2, 1), (3, 2), (2, 3)):
            a = leftmost_probability_shifted_step(shift, n, 2, 1.0)
            b = leftmost_probability_shifted_step(
                shift, n, 2, 1.0, method="quadrature", quad=QUAD
            )
            assert scaled_close(a, b, 1e-9)

    def test_determinant_single_particle(self):
        for x in (1, 2, 5):
            expect = math.exp(-1.5) * 1.5 ** (x - 1) / math.factorial(x - 1)
            assert leftmost_probability_step_det(1, x, 1.5) == pytest.approx(expect, rel=1e-13)

    def test_determinant_renewal_anchor(self):
        assert leftmost_probability_step_det(2, 1, 1.0) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_large_n_renewal_anchor(self):
        # x1 = 1 at time t iff the front particle's clock never rang
        assert leftmost_probability_step_det(7, 1, 0.5) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_shifted_step_n7_matches_leftmost(self):
        y = step_configuration(7)
        for x in (1, 3):
            a = leftmost_probability_shifted_step(0, 7, x, 1.0)
            b = leftmost_probability(y, x, 1.0)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize(
        "n, shift, monomials, nonzero", [(5, 1, 5, 1), (5, 2, 15, 3), (10, 3, 220, 7)]
    )
    def test_shifted_step_skips_zero_determinants(self, monkeypatch, n, shift, monomials, nonzero):
        # the sum over every monomial m of h_l of the determinants with row i
        # moved m_i columns on, of which those whose offsets i + m_i repeat
        # are 0, is the one determinant of m = (0, .., 0, l)
        real = formulas._determinants
        sizes = []

        def spy(terms):
            sizes.append(len(terms))
            return real(terms)

        monkeypatch.setattr(formulas, "_determinants", spy)
        sign = (-1) ** (n * (n - 1) // 2)
        monos = _monomials(n, shift)
        assert len(monos) == monomials
        assert sum(len({i + m[i] for i in range(n)}) == n for m in monos) == nonzero
        bits = formulas._FIXED_BITS
        for x, t in ((1, 1.0), (4, 0.5), (7, 2.0)):
            base = x - n - shift - 1
            every = real([(sign, [(base + i + m[i], -(n - 1)) for i in range(n)]) for m in monos])
            expect = contour._fixed_result(every(t, bits), n, t, n * bits)
            got = leftmost_probability_shifted_step(shift, n, x, t)
            assert float.hex(got) == float.hex(expect)
        assert sizes == [1] * 3

    def test_large_shift_is_one_determinant(self):
        # C(27, 8) = 2,220,075 monomials of h_8 at N = 20 collapse to one
        # determinant per point: about 0.03 s cold on a 2-core machine
        # (measured 2026-10-19); the budget leaves room for a loaded one
        contour.exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        start = time.perf_counter()
        values = [leftmost_probability_shifted_step(8, 20, x, 1.0) for x in range(1, 5)]
        assert time.perf_counter() - start < 5.0
        y = step_configuration(20, 8)
        for x, value in zip(range(1, 5), values):
            assert value == pytest.approx(leftmost_probability(y, x, 1.0), rel=1e-12, abs=0)


class TestEvaluator:
    # values far below the 2^-256 fixed-point unit: the transition's residue
    # terms must keep every factor at full scale, not floor each product
    def test_tiny_head_word_transition_matches_determinant(self):
        initial = Configuration((1, 2, 3), "211")
        final = Configuration((15, 16, 17), "211")
        expect = head_transition_probability(initial, final, 0.1)
        assert expect == pytest.approx(6.322599699174734e-79, rel=1e-12, abs=0)
        value = transition_probability(initial, final, 0.1)
        assert value == pytest.approx(expect, rel=1e-12, abs=0)

    def test_tiny_two_particle_transition(self):
        value = transition_probability(
            Configuration((1, 2), "21"), Configuration((30, 31), "21"), 0.1
        )
        assert value == pytest.approx(3.490938585115269e-122, rel=1e-12, abs=0)

    def test_tiny_non_head_word_transition_is_positive(self):
        value = transition_probability(
            Configuration((1, 2, 3), "211"), Configuration((15, 16, 17), "121"), 0.1
        )
        assert value > 0.0

    @pytest.mark.parametrize(
        "call",
        (
            lambda m: transition_probability(HEAD2, Configuration((2, 3), "21"), 1.0, method=m),
            lambda m: leftmost_probability(HEAD2, 2, 1.0, method=m),
            lambda m: tasep_leftmost_probability(Configuration((1, 2), "11"), 2, 1.0, method=m),
            lambda m: leftmost_probability_shifted_step(1, 2, 2, 1.0, method=m),
        ),
        ids=("transition", "leftmost", "tasep_leftmost", "shifted_step"),
    )
    def test_unknown_method(self, call):
        with pytest.raises(ValueError, match="unknown method"):
            call("bogus")

    def test_quadrature_error_carries_the_probability(self):
        # the default rule cannot converge at t = 10; the best value it
        # carries is the probability, not the raw -3! scaled complex integral
        with pytest.raises(AccuracyError) as info:
            leftmost_probability_shifted_step(0, 3, 1, 10.0, method="quadrature")
        value = info.value.value
        assert isinstance(value, float)
        assert value == pytest.approx(leftmost_probability_shifted_step(0, 3, 1, 10.0), abs=1e-8)

    def test_quadrature_tolerance_applies_to_the_probability(self):
        # x = 1 is the renewal event: the front particle's clock never rang
        value = leftmost_probability_shifted_step(2, 3, 1, 5.0, method="quadrature")
        assert value == pytest.approx(math.exp(-5.0), abs=1e-12)


def _leibniz(mat):
    n = len(mat)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][p[i]]
        total += term
    return total


@pytest.fixture
def fresh_tables():
    """No table of minors kept before the test, nor left behind by it."""
    formulas._minor_table.cache_clear()
    yield
    formulas._minor_table.cache_clear()


def _serve(monkeypatch, values):
    """Read every J(k, e) as values[k, e]; at t = 0 no entry read is refused."""
    monkeypatch.setattr(contour, "exp_scaled_residue", lambda k, e, t, bits: values[k, e])


def _table_det(monkeypatch, c):
    """D_n(0) of the sequence c as the residue route takes it: condensed, else by Bareiss."""
    n = (len(c) + 1) // 2
    _serve(monkeypatch, {(s, 0): v for s, v in enumerate(c)})
    formulas._minor_table.cache_clear()
    return formulas._determinants([(1, [(i, 0) for i in range(n)])])(0.0, 64)


class TestDeterminantKernel:
    def test_matches_leibniz_on_random_matrices(self):
        rng = random.Random(20260118)
        for n in range(1, 7):
            for magnitude in (3, 2**300):
                for _ in range(4):
                    mat = [[rng.randint(-magnitude, magnitude) for _ in range(n)] for _ in range(n)]
                    assert formulas._fixed_det(mat) == _leibniz(mat)

    def test_zero_pivots_need_row_swaps(self):
        leading = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
        # the second pivot vanishes only after the first elimination step
        inner = [[1, 1, 1, 2], [1, 1, 2, 3], [1, 2, 1, 5], [2, 7, 1, 8]]
        for mat in (leading, inner):
            assert formulas._fixed_det(mat) == _leibniz(mat) != 0

    def test_singular_matrices(self):
        assert formulas._fixed_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
        assert formulas._fixed_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
        assert formulas._fixed_det([[2**256, 0], [2**256, 0]]) == 0

    def test_empty_matrix_has_determinant_one(self):
        assert formulas._fixed_det([]) == 1

    def test_hankel_matches_leibniz(self, monkeypatch, fresh_tables):
        # every minor of a sequence, asked for in a random order from the one
        # table of the Hankel shape, which keeps D(r, c, m) as D(0, r + c, m)
        rng = random.Random(20261018)
        condensed = 0
        for n in range(1, 7):
            for magnitude in (1, 3, 2**300):
                for _ in range(6):
                    c = [rng.randint(-magnitude, magnitude) for _ in range(2 * n - 1)]
                    _serve(monkeypatch, {(s, 0): v for s, v in enumerate(c)})
                    table = formulas._Minors(tuple((i, 0) for i in range(n)), 0.0, 64)
                    minors = [(r, col, m) for m in range(1, n + 1) for r in range(n - m + 1)
                              for col in range(2 * (n - m) + 1 - r)]
                    rng.shuffle(minors)
                    for r, col, m in minors:
                        got = table.det(r, col, m)
                        mat = [[c[r + col + i + j] for j in range(m)] for i in range(m)]
                        condensed += got is not None
                        assert (formulas._fixed_det(mat) if got is None else got) == _leibniz(mat)
                    # each D_m(k), k <= 2(n - m), once: n^2 in all
                    assert len(table.minors) == n * n
        assert condensed > 1000
        # D_1(2) = 0 divides the last condensation step; Bareiss takes over
        zero_divisor = [1, 1, 0, 1, 1]
        _serve(monkeypatch, {(s, 0): v for s, v in enumerate(zero_divisor)})
        assert formulas._Minors(((0, 0), (1, 0), (2, 0)), 0.0, 64).det(0, 0, 3) is None
        assert _table_det(monkeypatch, zero_divisor) == -2
        for c in ([1, 2, 3, 4, 5], [0] * 7, [1, 0, 0, 0, 0, 0, 0], [2**256] * 9):
            n = (len(c) + 1) // 2
            mat = [[c[i + j] for j in range(n)] for i in range(n)]
            assert _table_det(monkeypatch, c) == _leibniz(mat) == 0

    def test_random_row_shapes_match_leibniz(self, monkeypatch, fresh_tables):
        # every contiguous minor of a random row shape, asked for in a random
        # order from one table; windows of rows that repeat share their minors
        rng = random.Random(20261019)
        condensed = 0
        for n in range(1, 7):
            for magnitude in (1, 3, 2**300):
                for _ in range(6):
                    shape = [(0, rng.choice((-1, -2)))]
                    for _ in range(n - 1):
                        step = rng.choice((-1, 1, 1, 2))
                        shape.append((shape[-1][0] + step, rng.choice((-1, -2))))
                    values = {(k, e): rng.randint(-magnitude, magnitude)
                              for k in range(-3 * n, 6 * n) for e in (-1, -2)}
                    _serve(monkeypatch, values)
                    table = formulas._Minors(tuple(shape), 0.0, 64)
                    minors = [(r, col, m) for m in range(1, n + 1) for r in range(n - m + 1)
                              for col in range(-2, 3)]
                    rng.shuffle(minors)
                    for r, col, m in minors:
                        got = table.det(r, col, m)
                        mat = [[values[shape[r + i][0] + col + j, shape[r + i][1]]
                                for j in range(m)] for i in range(m)]
                        condensed += got is not None
                        assert (formulas._fixed_det(mat) if got is None else got) == _leibniz(mat)
        assert condensed > 1000

    def test_zero_divisor_of_a_non_hankel_shape_takes_bareiss(self, monkeypatch, fresh_tables):
        # D(1, 1, 1) = 0 divides the last condensation step
        rows = [(0, -1), (5, -2), (2, -3)]
        mat = [[1, 1, 1], [1, 0, 1], [1, 1, 2]]
        values = {(k + j, e): v for (k, e), row in zip(rows, mat) for j, v in enumerate(row)}
        _serve(monkeypatch, values)
        assert formulas._determinants([(1, rows)])(0.0, 64) == _leibniz(mat) == -1
        assert formulas._minor_table(tuple(rows), 0.0, 64).det(0, 0, 3) is None

    def test_each_row_shape_reads_one_table(self, fresh_tables):
        # rows moved by one more column each (off = 1, 1, 1, 1) have the shape
        # of off = 0, 0, 0, 0, the Hankel one; every other off is its own shape
        t, bits, e = 1.0, 64, -3
        shapes = set()
        for off in itertools.product(range(2), repeat=4):
            rows = [(2 + i + o, e) for i, o in enumerate(off)]
            mat = [[contour.exp_scaled_residue(k + j, e, t, bits) for j in range(4)]
                   for k, _ in rows]
            assert formulas._determinants([(1, rows)])(t, bits) == _leibniz(mat)
            shapes.add(tuple((k - rows[0][0], e) for k, _ in rows))
            assert formulas._minor_table.cache_info().misses == len(shapes)
        assert len(shapes) == 15
        # N^2 minors for the first Hankel determinant and N more for the next offset
        hankel = formulas._minor_table(((0, e), (1, e), (2, e), (3, e)), t, bits)
        assert len(hankel.minors) == 16 + 4

    def test_shifted_step_reads_one_table_with_a_raised_last_row(self, fresh_tables):
        # l > 0 reads the one shape ((0, e), .., (N - 2, e), (N - 1 + l, e));
        # l = 0 reads the step matrix's Hankel table
        n, x, t, e = 3, 2, 1.0, -2
        bits = formulas._FIXED_BITS
        for shift in (0, 2, 3):
            formulas._minor_table.cache_clear()
            assert leftmost_probability_shifted_step(shift, n, x, t) > 0
            assert formulas._minor_table.cache_info().misses == 1
            shape = ((0, e), (1, e), (n - 1 + shift, e))
            table = formulas._minor_table(shape, t, bits)
            assert formulas._minor_table.cache_info().misses == 1
            # column 0 at k_0 = x - N - l - 1: a table hit
            before = len(table.minors)
            table.det(0, x - n - shift - 1, n)
            assert len(table.minors) == before > 0

    def test_shifted_step_collapse_on_random_rows(self, monkeypatch, fresh_tables):
        # sum over m of h_l of det(rows delta + m) = det(rows delta + (0, .., 0, l))
        # for any served sequence s -> J(s, e)
        rng = random.Random(20261019)
        e = -1
        for n in range(1, 7):
            for shift in range(5):
                for magnitude in (3, 2**300):
                    values = {(s, e): rng.randint(-magnitude, magnitude)
                              for s in range(2 * n + shift)}
                    _serve(monkeypatch, values)
                    formulas._minor_table.cache_clear()
                    every = [(1, [(i + m[i], e) for i in range(n)]) for m in _monomials(n, shift)]
                    raised = [(i + shift * (i == n - 1), e) for i in range(n)]
                    total = formulas._determinants(every)(0.0, 64)
                    assert total == formulas._determinants([(1, raised)])(0.0, 64)

    def test_table_cache_is_bounded(self, fresh_tables):
        # past the bound the least recently used table is dropped
        size = formulas._minor_table.cache_info().maxsize
        assert size is not None
        for e in range(-size - 1, 0):
            formulas._determinants([(1, [(0, e)])])(1.0, 64)
        info = formulas._minor_table.cache_info()
        assert (info.currsize, info.misses) == (size, size + 1)
        formulas._minor_table(((0, -size - 1),), 1.0, 64)
        assert formulas._minor_table.cache_info().misses == size + 2

    # reversing the rows of a Hankel matrix gives a Toeplitz one, which takes
    # Bareiss elimination, at the sign of the reversal permutation
    @pytest.mark.parametrize(
        "n, t",
        [(n, t) for n in (7, 14, 20, 30) for t in (0.1, 1.0, 5.0, 100.0)]
        # the last five anti-diagonal values underflow to 0 at 256 bits, so
        # condensation meets a zero divisor
        + [(40, 0.1)],
    )
    def test_step_condensation_matches_bareiss(self, monkeypatch, fresh_tables, n, t):
        # the step matrix of leftmost_probability_step_det at x = 2, read with
        # the underflow refusal off, so that N = 40 condenses its zeros
        monkeypatch.setattr(formulas, "_refuse_underflow", lambda k, e, t, bits: None)
        rows = [(1 - n + i, -(n - 1)) for i in range(n)]
        mat = [[contour.exp_scaled_residue(k + j, e, t, 256) for j in range(n)] for k, e in rows]
        reversal = (-1) ** (n * (n - 1) // 2)
        det = formulas._determinants([(1, rows)])(t, 256)
        assert det == reversal * formulas._fixed_det(mat[::-1])
        table = formulas._minor_table(tuple((i, -(n - 1)) for i in range(n)), t, 256)
        assert (table.det(0, 1 - n, n) is None) == (n == 40)


class TestLargeN:
    @pytest.mark.parametrize("t", (0.1, 1.0, 5.0, 100.0))
    @pytest.mark.parametrize("n", (7, 14, 20, 30))
    def test_determinant_renewal_anchor(self, n, t):
        # exp(-n t) underflows from n t ~ 708 on; that path multiplies e^-t in n times
        rel = 1e-15 if math.exp(-n * t) >= sys.float_info.min else 1e-14
        assert leftmost_probability_step_det(n, 1, t) == pytest.approx(math.exp(-t), rel=rel, abs=0)

    # step_det is the shifted-step residue route at shift 0, not a third
    # independent route: these compare two determinant formulas, the general
    # leftmost one and the step one, each through the same kernel
    @pytest.mark.parametrize("n", (7, 8, 9, 10))
    def test_step_routes_agree(self, n):
        y = step_configuration(n)
        for x in (1, 3, 6):
            for t in (0.5, 2.0):
                a = leftmost_probability(y, x, t)
                assert leftmost_probability_shifted_step(0, n, x, t) == pytest.approx(
                    a, rel=1e-12, abs=0
                )
                assert leftmost_probability_step_det(n, x, t) == pytest.approx(a, rel=1e-12, abs=0)

    def test_step_routes_agree_on_a_tiny_value(self):
        # a float LU determinant of the same matrix returns 0.0 here
        a = leftmost_probability(step_configuration(14), 6, 0.5)
        assert 4.9e-87 < a < 5.0e-87
        # abs=0: approx's default absolute tolerance of 1e-12 would accept 0.0
        assert leftmost_probability_shifted_step(0, 14, 6, 0.5) == pytest.approx(
            a, rel=1e-12, abs=0
        )
        assert leftmost_probability_step_det(14, 6, 0.5) == pytest.approx(a, rel=1e-12, abs=0)

    # at x = 2, t = 0.1 an entry J(35, e < 0) reads 0 at 256 bits from
    # N = 36 on; the 200-digit values are 2.2128726369717770e-78 at
    # N = 36 and 1.0083631064130834e-88 at N = 40
    @pytest.mark.parametrize("n", (36, 40))
    def test_step_routes_refuse_an_underflowed_scale(self, n):
        with pytest.raises(AccuracyError, match="2\\^-256"):
            leftmost_probability_step_det(n, 2, 0.1)
        with pytest.raises(AccuracyError, match="2\\^-256"):
            leftmost_probability(step_configuration(n), 2, 0.1)

    # every entry of the 2 x 2 determinant is J(k, 0) = e^-t t^(k+1) / (k+1)!,
    # so the probability is e^-2t (t^m / m!)^2 / (m + 1) with m = x_1 - 1; at
    # x_1 = 40, J(38, 0) ~ 4e-86 reads 0 at 256 bits while the value is
    # 4.92e-173, so both routes must refuse it rather than return 0.0
    @staticmethod
    def _pair_value(m, t):
        power = Fraction(t) ** m / math.factorial(m)
        return math.exp(-2 * t) * float(power * power / (m + 1))

    def test_transition_routes_refuse_an_underflowed_scale(self):
        assert self._pair_value(39, 0.1) == pytest.approx(4.92e-173, rel=1e-3)
        initial = Configuration((1, 2), "21")
        final = Configuration((40, 41), "21")
        for route in (transition_probability, head_transition_probability):
            with pytest.raises(AccuracyError, match="2\\^-256"):
                route(initial, final, 0.1)

    # no factor reads 0 here, but the terms of this alternating sum cancel below
    # the 2^-768 scale of the total, which comes out negative; at 512 bits per
    # particle the value is 4.6997e-217, so the route must refuse, not clamp to 0.0
    def test_transition_route_refuses_a_negative_total(self):
        initial = Configuration((1, 2, 3), "211")
        final = Configuration((34, 35, 36), "121")
        with pytest.raises(AccuracyError, match="negative total at the 2\\^-768"):
            transition_probability(initial, final, 0.1)

    def test_transition_routes_agree_short_of_underflow(self):
        initial = Configuration((1, 2), "21")
        final = Configuration((30, 31), "21")
        value = transition_probability(initial, final, 0.1)
        assert value == pytest.approx(self._pair_value(29, 0.1), rel=1e-12, abs=0)
        assert value == pytest.approx(3.4909e-122, rel=1e-4, abs=0)
        assert head_transition_probability(initial, final, 0.1) == pytest.approx(
            value, rel=1e-12, abs=0
        )

    def test_single_particle_beyond_exp_underflow(self):
        # e^-800 is below the float range; the Poisson(800) mass at 800 is not
        y = Configuration((0,), "2")
        expect = math.exp(800 * math.log(800.0) - 800.0 - math.lgamma(801))
        assert leftmost_probability(y, 800, 800.0) == pytest.approx(expect, rel=1e-11)

    def test_n30_step_det_sweep_within_budget(self):
        # about 0.05 s cold on a 2-core machine (measured 2026-10-19); the budget
        # leaves room for a loaded one
        contour.exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        start = time.perf_counter()
        values = [leftmost_probability_step_det(30, x, 0.1) for x in range(1, 5)]
        assert time.perf_counter() - start < 5.0
        assert values[0] == pytest.approx(math.exp(-0.1), rel=1e-15, abs=0)
        assert all(0.0 < v < 1.0 for v in values)

    def test_next_sweep_point_adds_n_minors(self):
        formulas._minor_table.cache_clear()
        leftmost_probability_step_det(20, 5, 1.0)
        hankel = tuple((i, -19) for i in range(20))
        table = formulas._minor_table(hankel, 1.0, formulas._FIXED_BITS)
        assert len(table.minors) == 20 * 20
        leftmost_probability_step_det(20, 6, 1.0)
        assert len(table.minors) == 20 * 20 + 20
        assert formulas._minor_table.cache_info().misses == 1

    def test_leftmost_sweep_adds_at_most_a_triangle_of_minors(self):
        # each new x moves column 0 by one: at each size m, N - m + 1 new minors
        n, t = 20, 1.0
        y = step_configuration(n)
        formulas._minor_table.cache_clear()
        leftmost_probability(y, 2, t)
        shape = tuple((-i, -(n - i) + (i == 0)) for i in range(n))
        table = formulas._minor_table(shape, t, formulas._FIXED_BITS)
        counts = [len(table.minors)]
        for x in range(3, 8):
            leftmost_probability(y, x, t)
            counts.append(len(table.minors))
        assert counts[0] <= n * (n + 1) * (2 * n + 1) // 6
        assert all(0 < b - a <= n * (n + 1) // 2 for a, b in zip(counts, counts[1:]))
        assert formulas._minor_table.cache_info().misses == 1

    def test_tasep_sweep_reads_det_a_from_det_b(self):
        # det B at x is det A at x + 1, so each new x adds one determinant
        n, t = 16, 5.0
        y = Configuration(tuple(range(1, n + 1)), "1" * n)
        formulas._minor_table.cache_clear()
        tasep_leftmost_probability(y, 3, t)
        table = formulas._minor_table(tuple((-i, -(n - i)) for i in range(n)), t, 256)
        # det A at x = 4 has column 0 at k_0 = 4 - y_0 - 1 = 2: a table hit
        before = len(table.minors)
        table.det(0, 2, n)
        assert len(table.minors) == before
        tasep_leftmost_probability(y, 4, t)
        assert 0 < len(table.minors) - before <= n * (n + 1) // 2
        assert formulas._minor_table.cache_info().misses == 1

    @pytest.mark.parametrize("t, xs", [(1.0, range(1, 9)), (100.0, range(60, 68))])
    def test_step_det_sweep_does_not_depend_on_order(self, t, xs):
        def cold(x):
            formulas._minor_table.cache_clear()
            return float.hex(leftmost_probability_step_det(20, x, t))

        expect = [cold(x) for x in xs]
        for order in (list(xs), list(xs)[::-1]):
            formulas._minor_table.cache_clear()
            got = {x: float.hex(leftmost_probability_step_det(20, x, t)) for x in order}
            assert [got[x] for x in xs] == expect

    def test_n30_leftmost_within_budget(self):
        # about 0.37 s cold on a 2-core machine (measured 2026-10-19); the budget
        # leaves room for a loaded one
        contour.exp_scaled_residue.cache_clear()
        contour._series_table.cache_clear()
        formulas._minor_table.cache_clear()
        start = time.perf_counter()
        value = leftmost_probability(step_configuration(30), 1, 1.0)
        assert time.perf_counter() - start < 5.0
        assert value == pytest.approx(math.exp(-1.0), rel=1e-15)


class TestTasep:
    def test_single_particle_matches_two_species(self):
        a = tasep_leftmost_probability(Configuration((0,), "1"), 3, 2.0)
        b = leftmost_probability(Configuration((0,), "2"), 3, 2.0)
        assert a == pytest.approx(b, rel=1e-13)

    def test_mass_below_one(self):
        y = Configuration((1, 2), "22")
        total = sum(tasep_leftmost_probability(y, x, 1.0) for x in range(1, 16))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(tasep_leftmost_probability(y, x, 1.0) >= 0 for x in range(1, 8))

    def test_quadrature_agreement(self):
        y = Configuration((1, 2), "11")
        a = tasep_leftmost_probability(y, 2, 1.0)
        b = tasep_leftmost_probability(y, 2, 1.0, method="quadrature", quad=QUAD)
        assert scaled_close(a, b, 1e-9)

    def test_requires_single_species(self):
        with pytest.raises(ValueError):
            tasep_leftmost_probability(step_configuration(2), 1, 1.0)


class TestMassConservation:
    def test_single_particle(self):
        total = probability_mass_check(Configuration((0,), "2"), 1.0, 40)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_two_particles(self):
        total = probability_mass_check(Configuration((1, 2), "21"), 1.0, 18)
        assert total == pytest.approx(1.0, abs=1e-6 + displacement_tail_bound(2, 1.0, 18))

    def test_time_zero(self):
        assert probability_mass_check(step_configuration(2), 0.0, 3) == 1.0

    def test_window_warning(self):
        with pytest.warns(WindowTooSmallWarning):
            probability_mass_check(Configuration((0,), "2"), 2.0, 3)

    def test_four_particles(self):
        # every window and word at N = 4: 1 - total is about 3.0e-10, under
        # the tail bound of about 1.2e-9; about 0.2 s on 2 cores
        total = probability_mass_check(step_configuration(4), 0.25, 7)
        assert 0 <= 1 - total <= 1e-12 + displacement_tail_bound(4, 0.25, 7)

    # (0.5, 12), (1.0, 16) and (0.25, 8) are the windows of the benchmark's
    # mass cases
    @pytest.mark.parametrize("t, m", [(1.5, 10), (0.5, 12), (1.0, 16), (0.25, 8), (30.0, 60)])
    def test_displacement_tail_bound(self, t, m):
        # the tail summed exactly in rationals, then scaled by e^-t
        direct = math.exp(-t) * float(
            sum(Fraction(t) ** j / math.factorial(j) for j in range(m + 1, m + 400))
        )
        assert displacement_tail_bound(3, t, m) == pytest.approx(3 * direct, rel=1e-14)
        assert displacement_tail_bound(3, 0.0, m) == 0.0


BAD_TIMES = [math.nan, math.inf, -1.0]
HEAD2 = step_configuration(2)
EXACT_ENTRY_POINTS = {
    "transition": lambda t: transition_probability(HEAD2, Configuration((2, 3), "21"), t),
    "transition_quadrature": lambda t: transition_probability(
        HEAD2, Configuration((2, 3), "21"), t, method="quadrature", quad=QUAD
    ),
    "head_transition": lambda t: head_transition_probability(
        HEAD2, Configuration((2, 3), "21"), t
    ),
    "leftmost": lambda t: leftmost_probability(HEAD2, 1, t),
    "leftmost_quadrature": lambda t: leftmost_probability(
        HEAD2, 1, t, method="quadrature", quad=QUAD
    ),
    "tasep_leftmost": lambda t: tasep_leftmost_probability(Configuration((1, 2), "11"), 1, t),
    "shifted_step": lambda t: leftmost_probability_shifted_step(1, 2, 1, t),
    "step_det": lambda t: leftmost_probability_step_det(2, 1, t),
    "mass_check": lambda t: probability_mass_check(HEAD2, t, 4),
    "tail_bound": lambda t: displacement_tail_bound(2, t, 4),
}


@pytest.mark.parametrize("t", BAD_TIMES, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
def test_exact_entry_points_reject_bad_times(entry, t):
    # nan and inf used to overflow, exhaust the quadrature grid, or (in the
    # mass check's Poisson tail) loop forever
    with pytest.raises(ValueError, match="finite and nonnegative"):
        EXACT_ENTRY_POINTS[entry](t)


def test_summation_realization_small():
    # summing the head transition kernel over the trailing positions
    # reproduces the leftmost-event probability
    y = step_configuration(2)
    t, x, window = 1.0, 1, 20
    total = sum(
        head_transition_probability(y, Configuration((x, x2), "21"), t)
        for x2 in range(x + 1, x + window)
    )
    assert total == pytest.approx(leftmost_probability(y, x, t), abs=1e-10)
