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
    amplitude_column,
    amplitude_columns,
    bethe_residuals,
    blocking_matrix,
    braid_relations_hold,
    center_index,
    scattering_matrix,
    two_site_embed,
    word_index,
)
from tasep2c.errors import PoleError
from tasep2c.formulas import Configuration, transition_probability
from tasep2c.identities import GFp, random_field_point, random_rational_point, run_identity_suite
from tasep2c.permutations import adjacent_decomposition, enumerate_permutations

XI3 = (F(1, 2), F(1, 3), F(1, 5))


def test_word_index_order():
    # species words map to the reverse-lexicographic matrix order 11,12,21,22
    assert [word_index(w) for w in ("11", "12", "21", "22")] == [0, 1, 2, 3]
    assert word_index("211") == center_index(3) == 4


def test_scattering_entries():
    s, q = F(-4, 3), F(-1, 3)
    m = scattering_matrix(F(1, 2), F(1, 3))
    assert m.rows == {0: {0: s}, 1: {1: s, 2: q}, 2: {2: -1}, 3: {3: s}}


def test_scattering_equal_parameters_degenerates():
    m = scattering_matrix(F(1, 2), F(1, 2))
    assert m.rows == {i: {i: -1} for i in range(4)}


def test_scattering_pole():
    with pytest.raises(PoleError):
        scattering_matrix(1, F(1, 3))


def _block_push(block, column):
    # a 4x4 block acting on a two-site column is its slot operator at n = 2
    return bethe._push_column(column, block, 1, 2)


def test_scattering_inverse_relation():
    # S(1/3, 1/2) S(1/2, 1/3) = I on every unit column
    forward, back = scattering_matrix(F(1, 2), F(1, 3)), scattering_matrix(F(1, 3), F(1, 2))
    for c in range(4):
        assert _block_push(back, _block_push(forward, {c: 1})) == {c: 1}


def test_blocking_matrix_reduces_scattering():
    # -(I - xa B)^-1 (I - xb B) = S(xa, xb), checked as S applied forward:
    # (I - xa B) S(xa, xb) == -(I - xb B), on every unit column
    xa, xb = F(1, 2), F(1, 3)
    b = blocking_matrix()

    def minus_scaled_b(x, column):  # (I - x B) column, as a dense 4-vector
        pushed = _block_push(b, column)
        return [column.get(k, 0) - x * pushed.get(k, 0) for k in range(4)]

    for c in range(4):
        lhs = minus_scaled_b(xa, _block_push(scattering_matrix(xa, xb), {c: 1}))
        assert lhs == [-v for v in minus_scaled_b(xb, {c: 1})]


def test_two_site_embed_shape_and_entry():
    t = two_site_embed(scattering_matrix(F(1, 2), F(1, 3)), 1, 3)
    assert t.n == 8
    # block coordinate (2,2) of the scattering matrix lands on index 4
    assert t.get(4, 4) == -1
    assert sum(len(r) for r in t.rows.values()) == 5 * 2
    with pytest.raises(ValueError):
        two_site_embed(scattering_matrix(F(1, 2), F(1, 3)), 3, 3)
    with pytest.raises(ValueError):
        two_site_embed(scattering_matrix(F(1, 2), F(1, 3)), 0, 3)


def test_t_operator_center_entry():
    # row c of the slot operator T_slot, read off every pushed unit column:
    # only its diagonal entry is nonzero
    c = center_index(4)
    block = scattering_matrix(F(1, 2), F(1, 3))
    for slot in (1, 2, 3):
        expect = -1 if slot == 1 else block.get(0, 0)
        row = [bethe._push_column({j: 1}, block, slot, 4).get(c, 0) for j in range(16)]
        assert row == [expect if j == c else 0 for j in range(16)]


def test_amplitude_identity_permutation():
    for n in (1, 2, 3):
        amp = amplitude(tuple(range(1, n + 1)), tuple(F(1, k + 2) for k in range(n)))
        assert amp.n == 2**n and amp.rows == {i: {i: 1} for i in range(2**n)}


def test_amplitude_two_particles_matches_display():
    xi = (F(1, 2), F(1, 3))
    assert amplitude((2, 1), xi).rows == scattering_matrix(*xi).rows


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
    for c in range(8):
        assert _pushed(w1, c, XI3) == _pushed(w2, c, XI3) == amplitude_column(sigma, c, XI3)


def test_amplitude_structure_properties():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        xi = random_rational_point(n, rng)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        amp = amplitude(tuple(sigma), xi)
        assert all(j >= i for i, row in amp.rows.items() for j in row)
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


@pytest.mark.parametrize("field", ["Q", "GF(p)"])
@pytest.mark.parametrize("n, blocks", [(3, 4), (4, 5), (5, 5)])
def test_braid_relations_build_one_block_per_pair(monkeypatch, n, blocks, field):
    # the pairs (1,2), (2,1), (1,3), (2,3), and (3,4) once N >= 4
    calls = []
    original = bethe.scattering_matrix

    def counted(xi_alpha, xi_beta):
        calls.append((xi_alpha, xi_beta))
        return original(xi_alpha, xi_beta)

    monkeypatch.setattr(bethe, "scattering_matrix", counted)
    point = tuple(F(1, k + 2) for k in range(n))
    if field == "GF(p)":
        point = tuple(GFp(z) for z in point)
    assert braid_relations_hold(point)
    assert len(calls) == blocks


#: Points at which every relation holds, in each field the check takes.
BRAID_POINTS = {
    "GF(p)": lambda n: random_field_point(n, random.Random(f"braid-{n}")),
    "Q": lambda n: tuple(F(1, k + 2) for k in range(n)),
    "float": lambda n: (0.31, 0.47, 0.83, 0.12, 0.65)[:n],
}


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (1, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("field", sorted(BRAID_POINTS))
def test_braid_relations_catch_a_plant_in_each_entry_of_s(monkeypatch, field, n, entry):
    # +1 in one stored entry of S; the (2, 2) plant zeroes the -1 entry
    point = BRAID_POINTS[field](n)
    atol = 1e-12 if field == "float" else 0
    assert braid_relations_hold(point, atol=atol)
    original = bethe.scattering_matrix

    def planted(xi_alpha, xi_beta):
        m = original(xi_alpha, xi_beta)
        m.set(*entry, m.get(*entry) + 1)
        return m

    monkeypatch.setattr(bethe, "scattering_matrix", planted)
    assert braid_relations_hold(point, atol=atol) is False


def test_braid_vector_over_the_field_is_keyed_by_the_point():
    # its own generator: the same point draws the same vector, and no
    # module-level random state is read or moved
    point = random_field_point(4, random.Random("vector"))
    state = random.getstate()
    (first,) = bethe._braid_vectors(point)
    assert random.getstate() == state
    (again,) = bethe._braid_vectors(tuple(GFp(z.v + 2**61 - 1) for z in point))
    assert list(first.items()) == list(again.items()) and len(first) == 16
    assert list(bethe._braid_vectors(XI3)) == [{c: 1} for c in range(8)]


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


def test_no_route_builds_a_full_slot_operator(monkeypatch):
    # every slot operator acts through bethe._push_column: with the 2^N x 2^N
    # operator algebra disabled, each of these still returns its value
    def refuse(*args):
        raise AssertionError("a 2^N x 2^N slot operator was built")

    monkeypatch.setattr(bethe, "two_site_embed", refuse)
    monkeypatch.setattr(bethe.SparseMatrix, "__matmul__", refuse)
    monkeypatch.setattr(formulas, "_plans", {})  # the residue route builds its plan here
    c = center_index(3)
    assert amplitude((3, 1, 2), XI3).get(c, c) == amplitude_center((3, 1, 2), XI3)
    assert bethe_residuals(XI3[:2], (0, 1)) == (0, (0,))
    assert bethe_residuals(XI3, (0, 1, 5)) == (0, (0, 0))
    assert braid_relations_hold(XI3)
    assert braid_relations_hold(tuple(GFp(z) for z in XI3))
    initial, final = Configuration((1, 2), "21"), Configuration((1, 2), "12")
    residue = transition_probability(initial, final, 1.0)
    quadrature = transition_probability(initial, final, 1.0, method="quadrature")
    assert 0 < residue < 1 and abs(quadrature - residue) < 1e-9
    records = run_identity_suite(n_values=(2, 3), points=2, identities=("closed_form", "braid"))
    assert len(records) == 4 and all(r["passed"] for r in records)


def test_sparse_matrix_basics():
    m = SparseMatrix(3)
    m.set(0, 1, 5)
    m.set(0, 1, 0)  # exact zero is pruned
    assert m.rows == {}
    m.set(1, 2, F(1, 2))
    assert m.get(1, 2) == F(1, 2) and m.get(2, 2) == 0
    assert (m @ _identity(3)).rows == m.rows


def test_max_abs_reads_nan():
    # the residuals' reduction: NaN anywhere, also after a larger entry or
    # in an earlier column (best), reads NaN
    assert np.isnan(bethe._max_abs([float("nan")]))
    assert np.isnan(bethe._max_abs([3.0, float("nan"), 5.0]))
    assert np.isnan(bethe._max_abs([5.0], float("nan")))
    assert bethe._max_abs([-3.0, 2.0]) == 3.0
    assert bethe._max_abs([2.0], 4.0) == 4.0
    assert bethe._max_abs([]) == 0


@pytest.mark.parametrize("zero", [0, F(0), GFp(0), GFp(2**61 - 1), formulas._PackedLaurent()])
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
    assert (m @ _identity(2)).rows.keys() == {0, 1}


def _identity(n):
    return SparseMatrix(n, {i: {i: 1} for i in range(n)})


def test_embed_rejects_bad_block():
    with pytest.raises(ValueError):
        two_site_embed(_identity(8), 1, 3)


def _column(mat, col):
    return {i: row[col] for i, row in mat.rows.items() if col in row}


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_amplitude_columns_match_full_matrices_exactly(n):
    # the walk's columns against each permutation's word pushed by the
    # filter loop, and the assembled matrix against those columns
    xi = random_rational_point(n, random.Random(40 + n))
    amps = {p: amplitude(p, xi) for p in enumerate_permutations(n)}
    for col in range(1 << n):
        cols = dict(amplitude_columns(n, col, xi))
        assert set(cols) == set(amps)
        for p, amp in amps.items():
            expect = _pushed(adjacent_decomposition(p), col, xi)
            assert cols[p] == expect
            assert _column(amp, col) == expect


def test_amplitude_builds_one_block_per_letter(monkeypatch):
    calls = []

    def counted(xi_alpha, xi_beta):
        calls.append((xi_alpha, xi_beta))
        return scattering_matrix(xi_alpha, xi_beta)

    monkeypatch.setattr(bethe, "scattering_matrix", counted)
    for n in (3, 5):
        xi = random_rational_point(n, random.Random(n))
        for sigma in ((2, 3, 1, 5, 4)[:n], tuple(range(n, 0, -1))):
            calls.clear()
            amplitude(sigma, xi)
            assert len(calls) == len(adjacent_decomposition(sigma))


def test_amplitude_columns_on_node_arrays_are_bit_identical():
    xis = _node_point(3)
    for col in range(8):
        cols = dict(amplitude_columns(3, col, xis))
        for p in enumerate_permutations(3):
            expect = _pushed(adjacent_decomposition(p), col, xis)
            assert list(cols[p]) == list(expect)
            for i, value in expect.items():
                assert np.array_equal(cols[p][i], value)


def _symbolic_point(n):
    # xi_a = 1 - u_a, the point at which the residue route evaluates S; the
    # packed key of the constant monomial is 0
    unit = [formulas._pack([int(i == a) for i in range(n)]) for a in range(n)]
    return [formulas._PackedLaurent({0: 1, unit[a]: -1}) for a in range(n)]


def _filtered_push(column, block, slot, n):
    """The slot push as one filter loop over the whole column per block entry:
    the oracle for the bucketed :func:`bethe._push_column`."""
    right = n - slot - 1
    mask = 3 << right
    out = {}
    for s, row in block.rows.items():
        for s2, a in row.items():
            for k, b in column.items():
                if (k >> right) & 3 == s2:
                    i = (k & ~mask) | (s << right)
                    term = a * b
                    out[i] = out[i] + term if i in out else term
    return {i: v for i, v in out.items() if not bethe._is_scalar_zero(v)}


def _pushed(word, col, point):
    """The unit column e_col pushed along a word by the filter loop."""
    column = {col: 1}
    for slot, xi_alpha, xi_beta in bethe._letters(word, point):
        column = _filtered_push(column, scattering_matrix(xi_alpha, xi_beta), slot, len(point))
    return column


def _node_point(n, m=4):
    nodes = [0.5 * cmath.exp(2j * cmath.pi * (k + 0.5) / m) for k in range(m)]
    return [np.array(nodes).reshape([m if i == v else 1 for i in range(n)]) for v in range(n)]


#: One point per scalar type the kernel runs on, at n = 4.
PUSH_POINTS = {
    "GF(p)": lambda: random_field_point(4, random.Random("push")),
    "Q": lambda: random_rational_point(4, random.Random("push")),
    "packed": lambda: _symbolic_point(4),
    "nodes": lambda: _node_point(4),
}


@pytest.mark.parametrize("field", sorted(PUSH_POINTS))
def test_bucketed_push_matches_the_filter_loop(field):
    # along the canonical word of the reversal, from a dense integer column
    # and from the center unit column: same entries, same key order
    point = PUSH_POINTS[field]()
    word = adjacent_decomposition((4, 3, 2, 1))
    for start in ({k: k - 7 for k in range(16) if k != 7}, {8: 1}):
        column = expected = start
        for slot, xi_alpha, xi_beta in bethe._letters(word, point):
            block = scattering_matrix(xi_alpha, xi_beta)
            column = bethe._push_column(column, block, slot, 4)
            expected = _filtered_push(expected, block, slot, 4)
            assert list(column) == list(expected)
            for got, want in zip(column.values(), expected.values()):
                assert type(got) is type(want)
                if isinstance(got, np.ndarray):
                    assert np.array_equal(got, want)
                elif isinstance(got, dict):  # a packed polynomial
                    assert list(got.items()) == list(want.items())
                else:
                    assert got == want


def _u_form_rows(alpha, beta, n):
    # S written out in the u_a: s = -u_beta/u_alpha, q = 1 - u_beta/u_alpha and -1
    ratio = formulas._pack([(i == beta - 1) - (i == alpha - 1) for i in range(n)])
    s = formulas._PackedLaurent({ratio: -1})
    q = formulas._PackedLaurent({0: 1, ratio: -1})
    return {0: {0: s}, 1: {1: s, 2: q}, 2: {2: -1}, 3: {3: s}}


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_scattering_matrix_at_the_symbolic_point_is_the_u_form(n):
    xi = _symbolic_point(n)
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            if alpha != beta:
                block = scattering_matrix(xi[alpha - 1], xi[beta - 1])
                assert block.rows == _u_form_rows(alpha, beta, n)


def test_symbolic_columns_match_full_products_at_n5():
    n = 5
    one = formulas._PackedLaurent({0: 1})

    def terms(entry):
        # (exponent vector, coefficient) pairs; a plain integer is a constant
        return sorted((formulas._unpack(e, n), c) for e, c in (one * entry).items())

    xi = _symbolic_point(n)
    for col in range(1 << n):
        cols = dict(formulas._sym_columns(n, col))
        for p in enumerate_permutations(n):
            expect = _pushed(adjacent_decomposition(p), col, xi)
            assert set(cols[p]) == set(expect)
            assert all(isinstance(v, formulas._PackedLaurent) for v in cols[p].values())
            assert all(terms(cols[p][r]) == terms(v) for r, v in expect.items())


def _evaluate_u_form(entry, xi):
    total = F(0)
    for e, coef in entry.items():
        term = F(coef)
        for z, power in zip(xi, formulas._unpack(e, len(xi))):
            term *= (1 - z) ** power
        total += term
    return total


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_symbolic_columns_evaluate_to_exact_amplitudes(n):
    # ties the symbolic columns back to scattering_matrix at rational points
    rng = random.Random(70 + n)
    points = [random_rational_point(n, rng) for _ in range(3)]
    for col in range(1 << n):
        cols = dict(formulas._sym_columns(n, col))
        for p in enumerate_permutations(n):
            assert all(isinstance(v, formulas._PackedLaurent) for v in cols[p].values())
            for xi in points:
                expect = _pushed(adjacent_decomposition(p), col, xi)
                got = {r: _evaluate_u_form(v, xi) for r, v in cols[p].items()}
                assert got == expect
