"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
Criterion 1 checks every identity of the suite exactly at 100 uniform random
points of GF(2^61 - 1) per size, where a false identity passes a point with
probability at most degree_bound / 2^61.  The Monte Carlo run of criterion 6
takes most of the module's time.  Criteria 1 and 6 also gate their own wall
time.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np

from tasep2c import simulate
from tasep2c.bethe import (
    _letters,
    _push_column,
    amplitude_column,
    bethe_residuals,
    center_index,
    scattering_matrix,
)
from tasep2c.contour import QuadratureSpec, circle_quadrature, residue_value
from tasep2c.formulas import (
    Configuration,
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
from tasep2c.identities import random_rational_point, run_identity_suite
from tasep2c.permutations import adjacent_decomposition

MC_RUNS = 1_000_000
MC_SIGMA = 4.0


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion} [{label}]: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {detail}"


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    records = run_identity_suite(n_values=(2, 3, 4, 5, 6), points=100, seed=2024)
    elapsed = time.perf_counter() - started
    failures = [r for r in records if not r["passed"]]
    _report(
        1,
        "identity suite, 100 points of GF(2^61 - 1) per size",
        not failures and elapsed < 120.0,
        f"{len(records)} suites, {elapsed:.0f}s",
    )


def test_criterion_2_amplitude_structure():
    rng = random.Random(90210)
    checked = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        xi = random_rational_point(n, rng)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)

        # every column l of the amplitude: upper triangular (no row below
        # l), the center row holds only its diagonal, the diagonal entry
        # factors over the word's 4x4 blocks at l's 2-bit state per slot,
        # and the reverse word pushes the same column
        c = center_index(n)
        letters = [(a, scattering_matrix(xa, xb))
                   for a, xa, xb in _letters(adjacent_decomposition(sigma), xi)]
        reverse = [(a, scattering_matrix(xa, xb)) for a, xa, xb in
                   _letters(adjacent_decomposition(sigma, strategy="reverse"), xi)]
        for l in range(1 << n):
            column = amplitude_column(sigma, l, xi)
            assert all(row <= l for row in column)
            assert l == c or c not in column

            prod = 1
            for a, block in letters:
                s = (l >> (n - a - 1)) & 3
                prod = prod * block.get(s, s)
            assert column.get(l, 0) == prod

            other = {l: 1}
            for a, block in reverse:
                other = _push_column(other, block, a, n)
            assert other == column
        checked += 1
    _report(2, "amplitude structure at 50 random (sigma, xi)", checked == 50)


def test_criterion_3_bethe_residuals():
    rng = random.Random(31415)
    for n in (2, 3):
        for _ in range(25):
            xi = random_rational_point(n, rng)
            positions = tuple(sorted(rng.sample(range(-5, 12), n)))
            free, boundary = bethe_residuals(xi, positions)
            assert free == 0, (xi, positions)
            assert all(b == 0 for b in boundary), (xi, positions)
    _report(3, "free-equation and boundary residuals exactly zero", True, "25 points, N=2,3")


def test_criterion_4_evaluator_cross_agreement():
    started = time.perf_counter()
    spec = QuadratureSpec(radius=0.5, points=16, tolerance=1e-13)
    worst_grid = 0.0
    for k in range(-6, 7):
        for e in range(-5, 4):
            for t in (0.1, 1.0, 5.0):
                series = residue_value(k, e, t)
                quad = circle_quadrature(
                    lambda z, k=k, e=e, t=t: z**k * (1 - z) ** e * np.exp((1 / z - 1) * t),
                    spec,
                ).value.real
                worst_grid = max(worst_grid, abs(quad - series) / max(1.0, abs(series)))
    ok_grid = worst_grid <= 1e-10

    # step_det is the shifted-step residue route at shift 0, so it repeats that
    # value rather than adding an independent route
    worst_methods = 0.0
    for n in (1, 2, 3, 4, 5):
        y = step_configuration(n)
        for x in range(1, 9):
            for t in (0.3, 1.0, 3.0):
                values = [
                    leftmost_probability(y, x, t),
                    leftmost_probability_shifted_step(0, n, x, t),
                    leftmost_probability_step_det(n, x, t),
                ]
                if n <= 3 and x <= 4:
                    values.append(
                        leftmost_probability(y, x, t, method="quadrature", quad=spec)
                    )
                    values.append(
                        leftmost_probability_shifted_step(
                            0, n, x, t, method="quadrature", quad=spec
                        )
                    )
                scale = max(max(abs(v) for v in values), 1e-300)
                spread = (max(values) - min(values)) / scale
                worst_methods = max(worst_methods, spread)
    # quadrature joins the comparison where it runs; its convergence floor
    # (1e-13 of a probability-sized value) dominates the spread there
    ok_methods = worst_methods <= 1e-10
    elapsed = time.perf_counter() - started
    _report(
        4,
        "residue/quadrature grid and multi-method formula agreement",
        ok_grid and ok_methods and elapsed < 60.0,
        f"grid {worst_grid:.1e}, methods {worst_methods:.1e}, {elapsed:.0f}s",
    )


def test_criterion_5_closed_form_anchors():
    y1 = Configuration((0,), "2")
    worst_poisson = 0.0
    for t in (0.5, 2.0):
        for x in range(0, 13):
            mass = math.exp(-t) * t**x / math.factorial(x)
            worst_poisson = max(worst_poisson, abs(leftmost_probability(y1, x, t) - mass))
    y2 = step_configuration(2)
    worst_renewal = max(
        abs(leftmost_probability(y2, 1, t) - math.exp(-t)) for t in (0.5, 1.0, 2.0)
    )
    _report(
        5,
        "Poisson and renewal anchors",
        worst_poisson <= 1e-14 and worst_renewal <= 1e-12,
        f"poisson {worst_poisson:.1e}, renewal {worst_renewal:.1e}",
    )


def _mass_window(y: Configuration, t: float) -> list[int]:
    """Positions carrying 99% of the leftmost-event mass."""
    lo = y.positions[0]
    values = [(x, leftmost_probability(y, x, t)) for x in range(lo, lo + 30)]
    total = sum(v for _, v in values)
    window, cumulative = [], 0.0
    for x, v in values:
        window.append(x)
        cumulative += v
        if cumulative >= 0.99 * total:
            return window
    return window


def test_criterion_6_monte_carlo_consistency():
    started = time.perf_counter()
    initials = {
        2: (step_configuration(2), Configuration((0, 3), "21")),
        3: (step_configuration(3), Configuration((0, 2, 5), "211")),
    }
    batches = {}
    worst_z = 0.0
    for n, configs in initials.items():
        for y in configs:
            for t in (1.0, 2.0):
                seed = 1000 * n + 10 * y.positions[-1] + int(t)
                counts = simulate.final_state_sample(y, t, MC_RUNS, seed)
                batches[(y, t)] = counts
                head = head_word(n)
                for x in _mass_window(y, t):
                    exact = leftmost_probability(y, x, t)
                    hits = sum(
                        c for (pos, spc), c in counts.items() if pos[0] == x and spc == head
                    )
                    se = math.sqrt(exact * (1.0 - exact) / MC_RUNS)
                    z = abs(hits / MC_RUNS - exact) / se
                    worst_z = max(worst_z, z)
    ok_leftmost = worst_z <= MC_SIGMA

    spots = [
        (step_configuration(2), 1.0, Configuration((1, 3), "21")),
        (step_configuration(2), 1.0, Configuration((1, 2), "12")),
        (Configuration((0, 3), "21"), 2.0, Configuration((1, 3), "21")),
        (step_configuration(3), 1.0, Configuration((1, 2, 4), "211")),
        (step_configuration(3), 2.0, Configuration((2, 3, 4), "121")),
    ]
    worst_spot = 0.0
    for y, t, final in spots:
        counts = batches[(y, t)]
        exact = transition_probability(y, final, t)
        estimate = counts[(final.positions, final.species)] / MC_RUNS
        se = math.sqrt(exact * (1.0 - exact) / MC_RUNS)
        worst_spot = max(worst_spot, abs(estimate - exact) / se)
    elapsed = time.perf_counter() - started
    _report(
        6,
        "exact vs 10^6-run Monte Carlo",
        ok_leftmost and worst_spot <= MC_SIGMA and elapsed <= 60.0,
        f"leftmost max|z| {worst_z:.2f}, transitions max|z| {worst_spot:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_conservation_and_atoms():
    worst = 0.0
    for n, window in ((1, 30), (2, 18)):
        y = step_configuration(n)
        for t in (0.5, 1.0):
            total = probability_mass_check(y, t, window)
            bound = 1e-6 + displacement_tail_bound(n, t, window)
            worst = max(worst, abs(total - 1.0) - bound)
    ok_mass = worst <= 0.0

    y2 = step_configuration(2)
    atoms = [
        transition_probability(y2, y2, 0.0) == 1.0,
        transition_probability(y2, Configuration((1, 3), "21"), 0.0) == 0.0,
        head_transition_probability(y2, y2, 0.0) == 1.0,
        leftmost_probability(y2, 1, 0.0) == 1.0,
        leftmost_probability(y2, 2, 0.0) == 0.0,
        leftmost_probability_shifted_step(0, 3, 1, 0.0) == 1.0,
        leftmost_probability_step_det(3, 1, 0.0) == 1.0,
        leftmost_probability_step_det(3, 2, 0.0) == 0.0,
        tasep_leftmost_probability(Configuration((1, 2), "11"), 1, 0.0) == 1.0,
        probability_mass_check(y2, 0.0, 4) == 1.0,
    ]
    _report(7, "mass conservation and exact t=0 atoms", ok_mass and all(atoms))


def test_criterion_8_summation_realization():
    ok = True
    worst = 0.0
    for n in (2, 3):
        y = step_configuration(n)
        for x in (1, 2):
            for t in (1.0, 2.0):
                window = x + 22
                if n == 2:
                    total = sum(
                        head_transition_probability(y, Configuration((x, x2), "21"), t)
                        for x2 in range(x + 1, window + 1)
                    )
                else:
                    total = sum(
                        head_transition_probability(y, Configuration((x, x2, x3), "211"), t)
                        for x2 in range(x + 1, window)
                        for x3 in range(x2 + 1, window + 1)
                    )
                # configurations beyond the window push the rightmost particle
                # past its Poisson-dominated displacement
                bound = displacement_tail_bound(1, t, window - y.positions[-1])
                target = leftmost_probability(y, x, t)
                worst = max(worst, abs(total - target))
                ok = ok and abs(total - target) <= 1e-6 + bound
    _report(
        8,
        "windowed head-transition sum reproduces the leftmost event",
        ok,
        f"worst gap {worst:.1e}",
    )


def _cli(args: list[str]) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "tasep2c.cli", *args],
        capture_output=True,
        check=False,
    )
    return result.stdout


def test_criterion_9_cli_determinism():
    commands = [
        "simulate --n 2 --step-l 0 --event leftmost --position 1 --time 1 --runs 20000 --seed 77",
        "exact leftmost --n 3 --step-l 0 --sweep 1..5 --time 1 --method determinant",
        "compare --n 2 --step-l 0 --event leftmost --position 2 --time 1 --runs 5000 --seed 13",
        "verify --identity vandermonde --n-range 2..3 --points 5",
    ]
    ok = True
    for command in commands:
        first = _cli(command.split())
        second = _cli(command.split())
        ok = ok and first == second and first
    _report(9, "byte-identical CLI records across reruns", bool(ok))
