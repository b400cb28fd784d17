import cmath
import random
from fractions import Fraction as F

import numpy as np
import pytest

from tasep2c import bethe, formulas
from tasep2c.bethe import (
    SparseMatrix,
    amplitude,
    amplitude_center,
    amplitude_columns,
    amplitude_from_word,
    bethe_residuals,
    blocking_matrix,
    braid_relations_hold,
    center_index,
    scattering_matrix,
    t_operator,
    two_site_embed,
    word_index,
)
from tasep2c.errors import PoleError
from tasep2c.identities import GFp, random_rational_point
from tasep2c.permutations import adjacent_decomposition, enumerate_permutations

XI3 = (F(1, 2), F(1, 3), F(1, 5))


def test_word_index_order():
    # species words map to the reverse-lexicographic matrix order 11,12,21,22
    assert [word_index(w) for w in ("11", "12", "21", "22")] == [0, 1, 2, 3]
    assert word_index("211") == center_index(3) == 4


def test_scattering_entries():
    m = scattering_matrix(F(1, 2), F(1, 3))
    assert m.get(0, 0) == m.get(1, 1) == m.get(3, 3) == F(-4, 3)
    assert m.get(1, 2) == F(-1, 3)
    assert m.get(2, 2) == -1
    assert m.is_upper_triangular()


def test_scattering_equal_parameters_degenerates():
    m = scattering_matrix(F(1, 2), F(1, 2))
    assert (m - SparseMatrix.identity(4).scaled(-1)).max_abs() == 0
    assert m.get(1, 2) == 0


def test_scattering_pole():
    with pytest.raises(PoleError):
        scattering_matrix(1, F(1, 3))


def test_scattering_inverse_relation():
    left = scattering_matrix(F(1, 3), F(1, 2)) @ scattering_matrix(F(1, 2), F(1, 3))
    assert (left - SparseMatrix.identity(4)).max_abs() == 0


def test_blocking_matrix_reduces_scattering():
    # -(I - xa B)^-1 (I - xb B) = S(xa, xb), checked as S applied forward:
    # (I - xa B) S(xa, xb) == -(I - xb B)
    xa, xb = F(1, 2), F(1, 3)
    b = blocking_matrix()
    lhs = (SparseMatrix.identity(4) - b.scaled(xa)) @ scattering_matrix(xa, xb)
    rhs = (SparseMatrix.identity(4) - b.scaled(xb)).scaled(-1)
    assert (lhs - rhs).max_abs() == 0


def test_two_site_embed_shape_and_entry():
    t = t_operator(1, F(1, 2), F(1, 3), 3)
    assert t.n == 8
    # block coordinate (2,2) of the scattering matrix lands on index 4
    assert t.get(4, 4) == -1
    assert sum(len(r) for r in t.rows.values()) == 5 * 2
    with pytest.raises(ValueError):
        t_operator(3, F(1, 2), F(1, 3), 3)
    with pytest.raises(ValueError):
        t_operator(0, F(1, 2), F(1, 3), 3)


def test_t_operator_center_entry():
    c = center_index(4)
    for slot in (1, 2, 3):
        t = t_operator(slot, F(1, 2), F(1, 3), 4)
        expect = -1 if slot == 1 else scattering_matrix(F(1, 2), F(1, 3)).get(0, 0)
        assert t.get(c, c) == expect
        assert list(t.rows[c]) == [c]


def test_amplitude_identity_permutation():
    for n in (1, 2, 3):
        amp = amplitude(tuple(range(1, n + 1)), tuple(F(1, k + 2) for k in range(n)))
        assert (amp - SparseMatrix.identity(2**n)).max_abs() == 0


def test_amplitude_two_particles_matches_display():
    xi = (F(1, 2), F(1, 3))
    assert (amplitude((2, 1), xi) - scattering_matrix(*xi)).max_abs() == 0


def test_amplitude_center_examples():
    assert amplitude_center((2, 1), (F(1, 2), F(1, 3))) == -1
    assert amplitude_center((1, 2, 3), XI3) == 1
    assert amplitude_center((1, 3, 2), XI3) == F(-6, 5)
    assert amplitude_center((1,), (F(1, 2),)) == 1


def test_amplitude_center_matches_matrix_product():
    c = center_index(3)
    for p in enumerate_permutations(3):
        assert amplitude(p, XI3).get(c, c) == amplitude_center(p, XI3)


def test_amplitude_word_independence():
    sigma = (3, 2, 1)
    w1 = adjacent_decomposition(sigma)
    w2 = adjacent_decomposition(sigma, strategy="reverse")
    assert w1 != w2
    a1 = amplitude_from_word(w1, XI3)
    a2 = amplitude_from_word(w2, XI3)
    assert (a1 - a2).max_abs() == 0


def test_amplitude_structure_properties():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        xi = random_rational_point(n, rng)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        amp = amplitude(tuple(sigma), xi)
        assert amp.is_upper_triangular()
        c = center_index(n)
        assert list(amp.rows.get(c, {c: 1})) == [c]


def test_braid_relations():
    assert braid_relations_hold((F(1, 2), F(1, 3)))
    assert braid_relations_hold(XI3)
    assert braid_relations_hold((F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(3, 11)))


def test_braid_relations_over_a_finite_field():
    assert braid_relations_hold(tuple(GFp(z) for z in XI3))
    assert braid_relations_hold((GFp(3), GFp(10**15), GFp(-7), GFp(2**40)))


@pytest.mark.parametrize("field", [F, GFp])
def test_braid_relations_report_a_planted_error(monkeypatch, field):
    # a wrong q entry breaks T(b,a) T(a,b) = 1; over GF(p) the check must
    # return False, not fail to order the entries of the difference
    original = bethe.scattering_matrix

    def skewed(xi_alpha, xi_beta):
        m = original(xi_alpha, xi_beta)
        m.set(1, 2, m.get(1, 2) + 1)
        return m

    monkeypatch.setattr(bethe, "scattering_matrix", skewed)
    assert braid_relations_hold(tuple(field(z) for z in XI3)) is False


@pytest.mark.parametrize("n, operators", [(3, 8), (4, 13), (5, 18)])
def test_braid_relations_build_each_slot_operator_once(monkeypatch, n, operators):
    # 2(N-1) inverse pairs, (1,3) and (2,3) at every slot, (3,4) at slots 3..N-1
    calls = []
    original = bethe.two_site_embed

    def counted(block, slot, size):
        calls.append(slot)
        return original(block, slot, size)

    monkeypatch.setattr(bethe, "two_site_embed", counted)
    assert braid_relations_hold(tuple(F(1, k + 2) for k in range(n)))
    assert len(calls) == operators


def test_braid_relations_float_tolerance():
    assert braid_relations_hold((0.31, 0.47, 0.83), atol=1e-12)


def test_braid_relations_report_a_planted_nan(monkeypatch):
    # NaN compares False with everything, so a NaN entry must not read as a
    # zero difference under a tolerance
    original = bethe.scattering_matrix

    def poisoned(xi_alpha, xi_beta):
        m = original(xi_alpha, xi_beta)
        m.set(1, 2, float("nan"))
        return m

    monkeypatch.setattr(bethe, "scattering_matrix", poisoned)
    assert braid_relations_hold((0.31, 0.47, 0.83), atol=1e-12) is False


def test_bethe_residuals_report_nan():
    free, boundary = bethe_residuals((0.31, float("nan")), (0, 1))
    assert np.isnan(free)
    assert all(np.isnan(b) for b in boundary)


@pytest.mark.parametrize(
    "xi,positions",
    [
        ((F(1, 2),), (4,)),
        ((F(1, 2), F(1, 3)), (0, 1)),
        ((F(1, 2), F(1, 3)), (-2, 5)),
        (XI3, (0, 1, 5)),
    ],
)
def test_bethe_residuals_vanish(xi, positions):
    free, boundary = bethe_residuals(xi, positions)
    assert free == 0
    assert all(b == 0 for b in boundary)


def test_bethe_residuals_random_points():
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(5):
            xi = random_rational_point(n, rng)
            positions = sorted(rng.sample(range(-4, 9), n))
            free, boundary = bethe_residuals(xi, tuple(positions))
            assert free == 0 and all(b == 0 for b in boundary)


def test_sparse_matrix_basics():
    m = SparseMatrix(3)
    m.set(0, 1, 5)
    m.set(0, 1, 0)  # exact zero is pruned
    assert m.rows == {}
    m.set(1, 2, F(1, 2))
    assert m.get(1, 2) == F(1, 2) and m.get(2, 2) == 0
    ident = SparseMatrix.identity(3)
    assert ((m @ ident) - m).max_abs() == 0
    assert (m.scaled(2)).get(1, 2) == 1


def test_sparse_matrix_max_abs_reads_nan():
    assert np.isnan(SparseMatrix(2, {0: {0: float("nan")}}).max_abs())
    assert np.isnan(SparseMatrix(2, {0: {0: 3.0, 1: float("nan")}, 1: {1: 5.0}}).max_abs())
    assert SparseMatrix(2, {0: {0: -3.0}, 1: {0: 2.0}}).max_abs() == 3.0
    assert SparseMatrix(2).max_abs() == 0


@pytest.mark.parametrize("zero", [0, F(0), GFp(0), GFp(2**61 - 1), formulas._ULaurent()])
def test_sparse_matrix_prunes_exact_zeros(zero):
    m = SparseMatrix(2)
    m.set(0, 1, 7)
    m.set(0, 1, zero)
    m.set(1, 1, zero)
    assert m.rows == {}


def test_sparse_matrix_keeps_numpy_array_entries():
    m = SparseMatrix(2)
    m.set(0, 1, np.zeros(3))
    m.set(1, 0, np.zeros(1))
    assert set(m.rows) == {0, 1}
    assert (m @ SparseMatrix.identity(2)).rows.keys() == {0, 1}


def test_embed_rejects_bad_block():
    with pytest.raises(ValueError):
        two_site_embed(SparseMatrix.identity(8), 1, 3)


def _column(mat, col):
    return {i: row[col] for i, row in mat.rows.items() if col in row}


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_amplitude_columns_match_full_matrices_exactly(n):
    xi = random_rational_point(n, random.Random(40 + n))
    amps = {p: amplitude(p, xi) for p in enumerate_permutations(n)}
    for col in range(1 << n):
        cols = dict(amplitude_columns(n, col, xi))
        assert set(cols) == set(amps)
        for p, amp in amps.items():
            assert cols[p] == _column(amp, col)


def test_amplitude_columns_on_node_arrays_are_bit_identical():
    m = 4
    nodes = [0.5 * cmath.exp(2j * cmath.pi * (k + 0.5) / m) for k in range(m)]
    xis = [np.array(nodes).reshape([m if i == v else 1 for i in range(3)]) for v in range(3)]
    for col in range(8):
        cols = dict(amplitude_columns(3, col, xis))
        for p in enumerate_permutations(3):
            full = _column(amplitude(p, xis), col)
            assert set(cols[p]) == set(full)
            for i, value in full.items():
                assert np.array_equal(cols[p][i], value)


def _symbolic_point(n):
    # xi_a = 1 - u_a, the point at which the residue route evaluates S
    zero = (0,) * n
    unit = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    return [formulas._ULaurent({zero: 1, unit[a]: -1}) for a in range(n)]


def _u_form_rows(alpha, beta, n):
    # S written out in the u_a: s = -u_beta/u_alpha, q = 1 - u_beta/u_alpha and -1
    ratio = tuple((i == beta - 1) - (i == alpha - 1) for i in range(n))
    s = formulas._ULaurent({ratio: -1})
    q = formulas._ULaurent({(0,) * n: 1, ratio: -1})
    return {0: {0: s}, 1: {1: s, 2: q}, 2: {2: -1}, 3: {3: s}}


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_scattering_matrix_at_the_symbolic_point_is_the_u_form(n):
    xi = _symbolic_point(n)
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            if alpha != beta:
                block = scattering_matrix(xi[alpha - 1], xi[beta - 1])
                assert block.rows == _u_form_rows(alpha, beta, n)


def _full_symbolic_amplitude(n, sigma):
    # the product of embedded slot operators that the column kernel replaces
    xi = _symbolic_point(n)
    mat = SparseMatrix.identity(1 << n)
    current = list(range(1, n + 1))
    for a in adjacent_decomposition(sigma):
        alpha, beta = current[a - 1], current[a]
        block = scattering_matrix(xi[alpha - 1], xi[beta - 1])
        mat = two_site_embed(block, a, n) @ mat
        current[a - 1], current[a] = beta, alpha
    return mat


def test_symbolic_columns_match_full_products_at_n5():
    n = 5
    one = formulas._ULaurent({(0,) * n: 1})

    def terms(entry):
        # (exponent vector, coefficient) pairs; a plain integer is a constant
        return sorted((one * entry).items())

    full = {p: _full_symbolic_amplitude(n, p) for p in enumerate_permutations(n)}
    for col in range(1 << n):
        cols = formulas._sym_columns(n, col)
        for p, mat in full.items():
            expect = _column(mat, col)
            assert set(cols[p]) == set(expect)
            assert all(isinstance(v, formulas._ULaurent) for v in cols[p].values())
            assert all(terms(cols[p][r]) == terms(v) for r, v in expect.items())


def _evaluate_u_form(entry, xi):
    total = F(0)
    for e, coef in entry.items():
        term = F(coef)
        for z, power in zip(xi, e):
            term *= (1 - z) ** power
        total += term
    return total


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_symbolic_columns_evaluate_to_exact_amplitudes(n):
    # ties the symbolic columns back to scattering_matrix at rational points
    rng = random.Random(70 + n)
    points = [random_rational_point(n, rng) for _ in range(3)]
    for col in range(1 << n):
        cols = formulas._sym_columns(n, col)
        for p in enumerate_permutations(n):
            assert all(isinstance(v, formulas._ULaurent) for v in cols[p].values())
            for xi in points:
                expect = _column(amplitude(p, xi), col)
                got = {r: _evaluate_u_form(v, xi) for r, v in cols[p].items()}
                assert got == expect
