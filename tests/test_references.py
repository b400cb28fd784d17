"""Every key of the benchmark reference catalogue, evaluated by the package.

``benchmarks/references.json`` holds the exact value of each catalogue
query, computed by ``benchmarks/make_refs.py`` with mpmath determinants and
master-equation solves that share no code with the package.  The benchmark
checks only the keys one seed draws, with an absolute floor of 1e-30 that
would accept 0.0 for the 81 values below it; here every key is checked
relative to its reference with no absolute floor, and a zero reference must
come back as exactly 0.0.  Keys are ``kind:field:...`` with positions as
comma-separated integers.
"""

import json
from pathlib import Path

import pytest

from tasep2c.formulas import (
    Configuration,
    head_transition_probability,
    head_word,
    leftmost_probability,
    leftmost_probability_shifted_step,
    leftmost_probability_step_det,
    step_configuration,
    tasep_leftmost_probability,
    transition_probability,
)

REFERENCES = Path(__file__).resolve().parent.parent / "benchmarks" / "references.json"
CATALOGUE = {k: v for k, (v, _route) in json.loads(REFERENCES.read_text())["refs"].items()}
KINDS = ("leftmost", "tasep_leftmost", "head_transition", "shifted_step", "step_det", "transition")
REL = 1e-11


def _positions(field: str) -> tuple[int, ...]:
    return tuple(int(p) for p in field.split(","))


def _step_positions(n: int, shift: int) -> tuple[int, ...]:
    return (1,) + tuple(i + shift for i in range(2, n + 1))


def _evaluate(key: str) -> float:
    kind, *f = key.split(":")
    if kind == "leftmost":
        n, shift, t, x = int(f[0]), int(f[1]), float(f[2]), int(f[3])
        return leftmost_probability(step_configuration(n, shift), x, t)
    if kind == "tasep_leftmost":
        n, shift, t, x = int(f[0]), int(f[1]), float(f[2]), int(f[3])
        return tasep_leftmost_probability(Configuration(_step_positions(n, shift), "1" * n), x, t)
    if kind == "head_transition":
        n, t = int(f[0]), float(f[1])
        final = Configuration(_positions(f[2]), head_word(n))
        return head_transition_probability(step_configuration(n), final, t)
    if kind == "shifted_step":
        n, shift, t, x = int(f[0]), int(f[1]), float(f[2]), int(f[3])
        return leftmost_probability_shifted_step(shift, n, x, t)
    if kind == "step_det":
        n, t, x = int(f[0]), float(f[1]), int(f[2])
        return leftmost_probability_step_det(n, x, t)
    if kind == "transition":
        initial = Configuration(_positions(f[0]), f[1])
        final = Configuration(_positions(f[2]), f[3])
        return transition_probability(initial, final, float(f[4]))
    raise ValueError(f"unknown catalogue key {key!r}")


def test_catalogue_kinds_are_all_covered():
    assert {key.split(":")[0] for key in CATALOGUE} == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_every_reference_is_reproduced(kind):
    refs = {k: v for k, v in CATALOGUE.items() if k.split(":")[0] == kind}
    assert refs
    wrong = []
    for key, ref in refs.items():
        got = _evaluate(key)
        ok = got == 0.0 if ref == 0 else abs(got - ref) <= REL * abs(ref)
        if not ok:
            wrong.append((key, ref, got))
    assert not wrong, f"{len(wrong)} of {len(refs)} {kind} keys off: {wrong[:5]}"
