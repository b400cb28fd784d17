import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from tasep2c import bethe, formulas, identities
from tasep2c.errors import DegeneratePointError
from tasep2c.identities import (
    PRIME,
    GFp,
    _alternating_sum,
    _inverses,
    _variant_sides,
    complete_homogeneous,
    closed_form_vs_product,
    descending_vandermonde,
    det_collapse,
    det_exact,
    equivalent_identities,
    main_identity,
    main_variant_bridge,
    random_field_point,
    random_rational_point,
    run_identity_suite,
    substitution_transport,
    tasep_identities,
    validate_point,
    vandermonde,
    vandermonde_cofactor,
)
from tasep2c.permutations import adjacent_decomposition, enumerate_permutations, sign
from test_bethe import _pushed

XI2 = (F(1, 2), F(1, 3))
XI3 = (F(1, 2), F(1, 3), F(1, 5))


def test_main_identity_hand_value():
    lhs, rhs, ok = main_identity(XI2)
    assert ok
    assert lhs == rhs == F(-1, 2)


def per_permutation_main_lhs(xi):
    """The main left side one permutation at a time: the center amplitude
    times xi_p(2) xi_p(3)^2 ... xi_p(N)^(N-1) over prod_(k=2..N) (1 - xi_p(k) ... xi_p(N))."""
    n = len(xi)
    lhs = 0
    for p in enumerate_permutations(n):
        num = den = suffix = 1
        for k in range(n, 1, -1):
            z = xi[p[k - 1] - 1]
            num *= z ** (k - 1)
            suffix *= z
            den *= 1 - suffix
        lhs += bethe.amplitude_center(p, xi) * num / den
    return lhs


def test_main_walk_matches_the_per_permutation_loop():
    assert per_permutation_main_lhs(XI2) == main_identity(XI2)[0] == F(-1, 2)
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            xi = random_rational_point(n, rng)
            assert main_identity(xi)[0] == per_permutation_main_lhs(xi)
    for n in (6, 7):
        xi = random_field_point(n, rng)
        lhs = main_identity(xi)[0]
        assert type(lhs) is GFp and lhs == per_permutation_main_lhs(xi)


def direct_main_lhs(xi):
    """The main left side as a direct N! sum with permutations.sign: each term is
    sign(p) prod_(k=2..N) xi_p(k)^(k-1) / ((1 - xi_p(k) ... xi_p(N)) (1 - xi_p(k))^(k-2)),
    and the sum is times prod_(k=3..N) (1 - xi_k)^(k-2)."""
    n = len(xi)
    total = 0
    for p in enumerate_permutations(n):
        num = den = suffix = 1
        for k in range(n, 1, -1):
            z = xi[p[k - 1] - 1]
            suffix *= z
            num *= z ** (k - 1)
            den *= (1 - suffix) * (1 - z) ** (k - 2)
        total += sign(p) * num / den
    for k in range(3, n + 1):
        total *= (1 - xi[k - 1]) ** (k - 2)
    return total


def test_main_walk_sign_matches_a_direct_sum_with_the_permutation_sign():
    assert identities._main_lhs(XI3) == direct_main_lhs(XI3)
    rng = random.Random("signed-walk")
    for n in range(2, 8):
        xi = random_field_point(n, rng)
        assert identities._main_lhs(xi) == direct_main_lhs(xi)


def test_main_identity_refuses_more_than_ten_coordinates():
    xi = random_field_point(11, random.Random(11))
    with pytest.raises(ValueError, match="enumeration cap"):
        main_identity(xi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_main_identity_random(n):
    rng = random.Random(n)
    for _ in range(10):
        assert main_identity(random_rational_point(n, rng))[2]


def test_equivalent_identities_hand_points():
    assert equivalent_identities(XI2, "a")
    assert equivalent_identities(XI2, "b")
    assert equivalent_identities(XI3, "a")
    assert equivalent_identities(XI3, "b")
    with pytest.raises(ValueError):
        equivalent_identities(XI2, "c")


def test_variant_b_beyond_unit_interval():
    assert equivalent_identities((F(3), F(2)), "b")
    assert tasep_identities((F(3), F(2)), "b")


def test_substitution_transport():
    assert substitution_transport(XI2)
    assert substitution_transport(XI3)
    rng = random.Random(7)
    assert substitution_transport(random_rational_point(4, rng))


def test_main_variant_bridge():
    assert main_variant_bridge(XI2)
    assert main_variant_bridge(XI3)
    rng = random.Random(9)
    for n in (3, 4, 5):
        assert main_variant_bridge(random_rational_point(n, rng))


@pytest.mark.parametrize("variant", ["a", "b"])
def test_tasep_identities_random(variant):
    rng = random.Random(11)
    for n in (2, 3, 4):
        assert tasep_identities(random_rational_point(n, rng), variant)


def test_vandermonde_cofactor_n2_expansion():
    # -(xi1 - 1) + (xi2 - 1) == xi2 - xi1
    assert vandermonde_cofactor(XI2)
    rng = random.Random(3)
    for n in (3, 5):
        assert vandermonde_cofactor(random_rational_point(n, rng))


def test_det_collapse_cases():
    # all-zero exponents: h_shift times the descending Vandermonde
    assert det_collapse(XI3, 0, (0, 0)) == descending_vandermonde(XI3)
    assert det_collapse(XI3, 2, (0, 1)) == 0
    xi2 = XI2
    assert det_collapse(xi2, 1, (0,)) == (xi2[0] + xi2[1]) * (xi2[0] - xi2[1])
    rng = random.Random(13)
    for n in (3, 4, 5):
        xi = random_rational_point(n, rng)
        shift = rng.randint(0, 3)
        assert det_collapse(xi, shift, (0,) * (n - 1)) == complete_homogeneous(
            shift, xi
        ) * descending_vandermonde(xi)


def test_det_collapse_validation():
    with pytest.raises(ValueError):
        det_collapse(XI3, 0, (0,))
    with pytest.raises(ValueError):
        det_collapse(XI3, 0, (1, 0))
    with pytest.raises(ValueError):
        det_collapse(XI3, -1, (0, 0))


def test_det_exact_known_values():
    assert det_exact([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_exact([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert det_exact([[F(0), F(1)], [F(1), F(0)]]) == -1


def test_det_exact_matches_leibniz_on_rational_matrices():
    rng = random.Random(77)
    assert det_exact([]) == 1
    for n in range(1, 6):
        for _ in range(5):
            mat = [
                [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)
            ]
            expect = F(0)
            for p in enumerate_permutations(n):
                term = F(sign(p))
                for i in range(n):
                    term *= mat[i][p[i] - 1]
                expect += term
            assert det_exact(mat) == expect


def test_closed_form_vs_product():
    rng = random.Random(23)
    for n in (2, 3, 4):
        xi = random_rational_point(n, rng)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        assert closed_form_vs_product(xi, tuple(sigma))


def test_pushed_center_column_is_the_amplitude_entry():
    # every sigma of S_4 at a GF(p) point and of S_3 at XI3: the whole pushed
    # column against the filter-loop push of sigma's word, the center entry
    # that closed_form reads included
    for point in (random_field_point(4, random.Random("column")), XI3):
        n = len(point)
        c = bethe.center_index(n)
        for sigma in enumerate_permutations(n):
            column = bethe.amplitude_column(sigma, c, point)
            assert column == _pushed(adjacent_decomposition(sigma), c, point)
            assert column.get(c, 0) == bethe.amplitude_center(sigma, point)


def _skew_s(original, xi_alpha, xi_beta):
    m = original(xi_alpha, xi_beta)
    m.set(0, 0, m.get(0, 0) + 1)
    return m


def test_closed_form_reads_the_pushed_column(monkeypatch):
    # a wrong s entry moves the center entry, so closed_form fails; a wrong q
    # entry cannot: it moves a 2 one slot right and no entry moves it back,
    # so only braid sees it
    monkeypatch.setattr(*_plant(bethe, "scattering_matrix", _skew_s))
    records = run_identity_suite(n_values=(3, 4), points=2, identities=("closed_form",))
    assert [r["passed"] for r in records] == [False, False]
    monkeypatch.undo()
    monkeypatch.setattr(*_plant(bethe, "scattering_matrix", _skew_q))
    records = run_identity_suite(n_values=(3, 4), points=2, identities=("closed_form", "braid"))
    assert [r["passed"] for r in records] == [True, True, False, False]


def test_validate_point_rejections():
    with pytest.raises(DegeneratePointError):
        validate_point((F(1, 2), F(1, 2)))
    with pytest.raises(DegeneratePointError):
        validate_point((F(1, 2), F(1)))
    with pytest.raises(DegeneratePointError):
        validate_point((F(0), F(1, 2)))
    with pytest.raises(DegeneratePointError):
        validate_point((F(2), F(1, 2), F(1, 3)))  # 2 * 1/2 == 1
    with pytest.raises(DegeneratePointError):
        validate_point((F(3, 2), F(1, 3)), unit_interval=True)


def test_random_points_land_in_unit_interval():
    rng = random.Random(1)
    for _ in range(20):
        xi = random_rational_point(4, rng)
        assert all(0 < z < 1 for z in xi)
        assert len(set(xi)) == 4
        assert all(z.denominator <= 1000 and z.numerator <= 1000 for z in xi)


def test_vandermonde_helpers():
    assert vandermonde(XI2) == F(1, 3) - F(1, 2)
    assert descending_vandermonde(XI2) == F(1, 2) - F(1, 3)
    assert complete_homogeneous(0, XI3) == 1
    assert complete_homogeneous(1, XI3) == F(1, 2) + F(1, 3) + F(1, 5)


def _h_by_monomials(degree, xi):
    # every monomial of the degree once: the oracle for the recurrence
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(xi)), degree):
        term = 1
        for i in combo:
            term *= xi[i]
        total += term
    return total


@pytest.mark.parametrize("field", ("Q", "GF(p)"))
def test_complete_homogeneous_recurrence_matches_the_monomial_sum(field):
    rng = random.Random(17)
    for n in range(1, 7):
        if field == "Q":
            xi = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        else:
            xi = tuple(GFp(rng.randrange(PRIME)) for _ in range(n))
        for degree in range(6):
            assert complete_homogeneous(degree, xi) == _h_by_monomials(degree, xi)


def test_the_suite_checks_the_helpers_the_formulas_run():
    assert identities.vandermonde is formulas.vandermonde
    assert identities.complete_homogeneous is formulas.complete_homogeneous


def test_suite_runner_small():
    records = run_identity_suite(n_values=(2, 3), points=5, seed=1)
    assert records and all(r["passed"] for r in records)
    keys = {(r["identity"], r["n"]) for r in records}
    assert ("main", 2) in keys and ("braid", 3) in keys
    assert all(r["points"] == 5 and r["degree_bound"] > 0 for r in records)


@pytest.mark.parametrize("points", (0, -1))
def test_suite_rejects_checking_no_points(points):
    # all() over no points would report every identity as passed
    with pytest.raises(ValueError, match="points"):
        run_identity_suite(n_values=(2,), points=points)


def test_suite_rejects_sizes_below_two():
    with pytest.raises(ValueError, match="N >= 2"):
        run_identity_suite(n_values=(1,), points=1)


def test_suite_checks_the_matrix_identities_at_n6():
    records = run_identity_suite(n_values=(6,), points=2, identities=("closed_form", "braid"))
    assert [(r["identity"], r["n"], r["passed"]) for r in records] == [
        ("closed_form", 6, True), ("braid", 6, True)]


# The four variant forms as (variant, d): d = 1 for equiv, 0 for tasep.
FORMS = {"equiv_a": ("a", 1), "equiv_b": ("b", 1), "tasep_a": ("a", 0), "tasep_b": ("b", 0)}


def leibniz_lhs(xi, variant, d):
    """The variant left side summed one permutation at a time, 1-based k.

    Variant "a": sign(p) prod_(k>=2+d) (1 - xi_p(k))^-(k-1-d) prod_k xi_p(k)^(k-1)
    over prod_(k=2..N) (1 - xi_p(k) ... xi_p(N)).  Variant "b":
    sign(p) prod_(k<N-d) (xi_p(k) / (xi_p(k) - 1))^(N-k-d) over
    prod_(k=1..N-1) (xi_p(1) ... xi_p(k) - 1).
    """
    n = len(xi)
    total = F(0)
    for p in enumerate_permutations(n):
        z = [xi[v - 1] for v in p]
        term = F(sign(p))
        if variant == "a":
            for k in range(2, n + 1):
                term *= z[k - 1] ** (k - 1)
                if k >= 2 + d:
                    term /= (1 - z[k - 1]) ** (k - 1 - d)
            suffix = F(1)
            for k in range(n, 1, -1):
                suffix *= z[k - 1]
                term /= 1 - suffix
        else:
            for k in range(1, n - d):
                term *= (z[k - 1] / (z[k - 1] - 1)) ** (n - k - d)
            prefix = F(1)
            for k in range(1, n):
                prefix *= z[k - 1]
                term /= prefix - 1
        total += term
    return total


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_matches_permutation_loop(form, n):
    variant, d = FORMS[form]
    rng = random.Random(f"kernel-{form}-{n}")
    for _ in range(3):
        xi = random_rational_point(n, rng)
        if variant == "b":
            xi = validate_point(tuple(1 / z for z in xi))
        assert _variant_sides(xi, variant, d)[0] == leibniz_lhs(xi, variant, d)


@pytest.mark.parametrize(
    "form, value",
    [("equiv_a", F(-1, 2)), ("equiv_b", F(-1, 2)), ("tasep_a", F(-5, 4)), ("tasep_b", F(5, 4))],
)
def test_variant_left_sides_hand_values(form, value):
    # e.g. tasep_a at (1/2, 1/3): (1/3)/(2/3)^2 - (1/2)/(1/2)^2 = 3/4 - 2
    variant, d = FORMS[form]
    assert leibniz_lhs(XI2, variant, d) == value
    assert _variant_sides(XI2, variant, d) == (value, value)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_variant_forms_hold_at_large_n(n):
    rng = random.Random(f"large-{n}")
    for _ in range(3):
        xi = random_rational_point(n, rng)
        inverted = validate_point(tuple(1 / z for z in xi))
        assert equivalent_identities(xi, "a")
        assert equivalent_identities(inverted, "b")
        assert tasep_identities(xi, "a")
        assert tasep_identities(inverted, "b")


def test_suite_reports_a_broken_identity(monkeypatch):
    original = identities.vandermonde
    monkeypatch.setattr(identities, "vandermonde", lambda xi: 2 * original(xi))
    records = run_identity_suite(
        n_values=(3,), points=2, identities=("equiv_a", "equiv_b", "tasep_a", "tasep_b")
    )
    assert [r["identity"] for r in records] == ["equiv_a", "equiv_b", "tasep_a", "tasep_b"]
    assert not any(r["passed"] for r in records)


#: Field inversions per point of each check: one batch for the w_i of each
#: variant side, one for the tail factors of each subset sum, one for the
#: mapped point of substitution, and for main one division in each side of
#: the main identity; det_collapse takes an integer determinant and pays
#: none; braid pays two per 4x4 block, one block per (alpha, beta) pair, by N.
INVERSIONS = {"main": 4, "equiv_a": 2, "equiv_b": 2, "substitution": 5, "tasep_a": 2,
              "tasep_b": 2, "det_collapse": 0, "braid": {3: 8, 5: 10, 6: 10}}


@pytest.mark.parametrize("n", [3, 5, 6])
def test_suite_checks_pay_a_fixed_number_of_inversions(monkeypatch, n):
    calls = []
    original = identities._inverse

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(identities, "_inverse", counted)
    counts = {}
    for name in INVERSIONS:
        calls.clear()
        assert run_identity_suite(n_values=(n,), points=1, identities=(name,))[0]["passed"]
        counts[name] = len(calls)
    assert counts == {name: c if isinstance(c, int) else c[n] for name, c in INVERSIONS.items()}


def test_suite_runs_the_main_reference_once_per_point(monkeypatch):
    calls = []
    original = identities._main_lhs

    def counted(xi):
        calls.append(xi)
        return original(xi)

    monkeypatch.setattr(identities, "_main_lhs", counted)
    records = run_identity_suite(n_values=(3, 4), points=3, identities=("main", "substitution"))
    assert all(r["passed"] for r in records)
    assert len(calls) == 6  # one walk per point of the main entry; substitution runs none


def test_main_entry_checks_the_bridge(monkeypatch):
    # a variant-a left side off by a factor breaks only the bridge, not main itself
    original = identities._variant_sides

    def skewed(xi, variant, d):
        lhs, rhs = original(xi, variant, d)
        return 2 * lhs, rhs

    monkeypatch.setattr(identities, "_variant_sides", skewed)
    assert main_identity(XI3)[2]
    records = run_identity_suite(n_values=(3,), points=2, identities=("main",))
    assert [r["passed"] for r in records] == [False]


# ---------------------------------------------------------------------------
# GF(p): the field the suite samples its points from
# ---------------------------------------------------------------------------


def test_field_arithmetic():
    a, b = GFp(3), GFp(F(1, 2))
    assert b * 2 == 1 and 2 * b == GFp(1)
    assert a + 1 == 4 and 1 + a == 4 and a - 5 == -2 and 5 - a == 2
    assert -a == PRIME - 3 and a / a == 1 and 1 / b == 2 and a / b == 6
    assert a**-1 * 3 == 1 and b**0 == 1 and a**2 == 9
    assert GFp(PRIME + 3) == a and hash(GFp(PRIME + 3)) == hash(a)
    assert GFp(-1) == PRIME - 1 and not GFp(PRIME) and a
    assert len({GFp(2), GFp(2 + PRIME), GFp(3)}) == 2


def test_field_refuses_zero_division_and_other_number_types():
    for divide in (lambda: GFp(3) / 0, lambda: 1 / GFp(0), lambda: GFp(PRIME) ** -1,
                   lambda: GFp(F(1, PRIME))):
        with pytest.raises(ZeroDivisionError):
            divide()
    with pytest.raises(TypeError):
        GFp(3) + F(1, 2)
    with pytest.raises(TypeError):
        GFp(0.5)


@pytest.mark.parametrize("field", ("Q", "GF(p)"))
def test_inverses_match_one_at_a_time(field):
    rng = random.Random(f"inverses-{field}")
    for length in (0, 1, 2, 7, 40):
        if field == "Q":
            values = [F(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 999))
                      for _ in range(length)]
        else:
            values = [GFp(rng.randrange(1, PRIME)) for _ in range(length)]
        inverses = _inverses(values)
        assert inverses == [1 / v for v in values]
        assert all(type(w) is type(v) for v, w in zip(values, inverses))


@pytest.mark.parametrize(
    "values",
    [[GFp(3), GFp(PRIME), GFp(5)], [GFp(0)], [F(1, 2), F(0), F(3)], [F(0)]],
    ids=["GF(p)", "GF(p)-alone", "Q", "Q-alone"],
)
def test_inverses_refuse_a_zero(values):
    with pytest.raises(ZeroDivisionError):
        _inverses(values)


@pytest.mark.parametrize("tail", ["suffix", "prefix"])
@pytest.mark.parametrize(
    "xi",
    [(F(2), F(1, 2), F(3)), (GFp(2**31), GFp(2**30), GFp(3))],
    ids=["Q", "GF(p)"],
)
def test_alternating_sum_refuses_a_vanishing_tail_factor(xi, tail):
    # the first two coordinates multiply to 1: the tail factor of that pair
    weight = [[1] * 3 for _ in range(3)]
    with pytest.raises(DegeneratePointError, match="geometric-tail"):
        _alternating_sum(xi, weight, tail)


def test_main_identity_hand_value_mod_p():
    lhs, rhs, ok = main_identity(tuple(GFp(z) for z in XI2))
    assert ok
    assert lhs == rhs == -GFp(2) ** -1


def test_validate_point_rejects_a_subset_product_of_one_mod_p():
    # 2^31 * 2^30 = 2^61 = p + 1, so the pair multiplies to 1 in GF(p) but not in Q
    assert validate_point((F(2**31), F(2**30), F(3)))
    with pytest.raises(DegeneratePointError, match="subset product"):
        validate_point((GFp(2**31), GFp(2**30), GFp(3)))
    with pytest.raises(DegeneratePointError):
        validate_point((GFp(5), GFp(5 + PRIME)))
    with pytest.raises(DegeneratePointError):
        validate_point((GFp(PRIME + 1), GFp(2)))


def test_random_field_points_are_seeded_elements():
    first = random_field_point(5, random.Random("pin"))
    assert first == random_field_point(5, random.Random("pin"))
    assert all(type(z) is GFp for z in first)
    assert validate_point(first) == first


def test_det_exact_over_the_field_matches_the_rational_determinant():
    rng = random.Random(78)
    assert det_exact([[GFp(0), GFp(1)], [GFp(1), GFp(0)]]) == -1  # a zero pivot
    for n in range(1, 6):
        mat = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        value = det_exact([[GFp(v) for v in row] for row in mat])
        assert type(value) is GFp and value == GFp(det_exact(mat))


def test_suite_records_repeat_for_a_seed():
    def run():
        return run_identity_suite(n_values=(2, 3, 4), points=3, seed=99)

    first = run()
    assert first == run()
    assert all(r["passed"] for r in first)
    assert set(first[0]) == {"identity", "n", "points", "passed", "degree_bound"}


def test_suite_records_and_points_match_a_recorded_digest(monkeypatch):
    # the records of run_identity_suite(range(2, 7), 3, 2024) and the GF(p)
    # points every check received, in order; recorded before the suite's
    # checks and degree bounds moved into one table
    seen = []
    draw = identities.random_field_point

    def recording(n, rng):
        point = draw(n, rng)
        seen.append([z.v for z in point])
        return point

    monkeypatch.setattr(identities, "random_field_point", recording)
    records = run_identity_suite(range(2, 7), 3, 2024)
    assert len(seen) == 150 and all(r["passed"] for r in records)
    digest = hashlib.sha256(json.dumps([records, seen], sort_keys=True).encode()).hexdigest()
    assert digest == "a958574c44803fd762f1523d9e1a9f2b645abcf5e96e4c686aff927ea74a7a83"


def _plant(owner, name, change):
    """A plant: owner.name replaced by change(original, *args)."""
    original = getattr(owner, name)
    return owner, name, lambda *args: change(original, *args)


def _skew_q(original, xi_alpha, xi_beta):
    m = original(xi_alpha, xi_beta)
    m.set(1, 2, m.get(1, 2) + 1)
    return m


def _skew_variant_b(original, xi, variant, d):
    lhs, rhs = original(xi, variant, d)
    return (lhs + 1 if variant == "b" else lhs), rhs


#: One planted error per suite identity, each breaking only what that entry checks.
PLANTS = {
    "main": lambda: _plant(
        identities, "_main_factors", lambda f, xi: [[(2 * a, b) for a, b in row] for row in f(xi)]
    ),
    "equiv_a": lambda: _plant(identities, "vandermonde", lambda f, xi: 2 * f(xi)),
    "equiv_b": lambda: _plant(identities, "vandermonde", lambda f, xi: 2 * f(xi)),
    "substitution": lambda: _plant(identities, "_variant_sides", _skew_variant_b),
    "tasep_a": lambda: _plant(identities, "_alternating_sum", lambda f, *a: f(*a) + 1),
    "tasep_b": lambda: _plant(identities, "_alternating_sum", lambda f, *a: f(*a) + 1),
    "vandermonde": lambda: _plant(identities, "vandermonde", lambda f, xi: f(xi) + 1),
    "det_collapse": lambda: _plant(identities, "_fixed_det", lambda f, m: f(m) + 1),
    "closed_form": lambda: _plant(bethe, "amplitude_center", lambda f, *a: 2 * f(*a)),
    "braid": lambda: _plant(bethe, "scattering_matrix", _skew_q),
}


@pytest.mark.parametrize("identity", identities.SUITE_IDENTITIES)
def test_a_planted_error_fails_over_the_field(monkeypatch, identity):
    assert run_identity_suite(n_values=(3,), points=2, identities=(identity,))[0]["passed"]
    monkeypatch.setattr(*PLANTS[identity]())
    records = run_identity_suite(n_values=(3, 4), points=2, identities=(identity,))
    assert [r["passed"] for r in records] == [False, False]
