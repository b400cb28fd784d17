"""Build ``references.json``: exact values for every catalogue query.

Run from the repository root (needs mpmath; it does not import tasep2c):

    python3 benchmarks/make_refs.py

Each value comes from a route that shares no code with the timed package,
and the file records which route produced it:

* ``poisson``   -- N = 1: the free particle's law e^-t t^(x-1) / (x-1)!.
* ``renewal``   -- x = 1 from step-like initial data: the first class
  particle has not rung its clock, e^-t, for any N.
* ``det-mp``    -- the formula's determinant of one-variable contour
  integrals (Schuetz 1997; Chatterjee & Schuetz 2010), each integral summed
  as its residue series in mpmath and the determinant taken by mpmath LU,
  at a precision raised until two precisions agree to 30 digits.
* ``master-eq`` -- transition probabilities straight from the dynamics:
  uniformization of the master equation (Jensen 1953) on the finite set of
  states between the initial and final positions, with exact integer path
  counts and a Poisson tail below 1e-40.

Before writing, the routes are cross-checked against each other where two
apply (different formulas for the same event, and the master equation
against the determinants), and the worst disagreement is stored too.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import mpmath
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_workloads as W  # noqa: E402

AGREE = mpf(10) ** -30
_J_CACHE: dict = {}


def J(k: int, e: int, t: float):
    """(1/2 pi i) closed integral of xi^k (1 - xi)^e exp((1/xi - 1) t) d xi."""
    ck = (k, e, t, mp.dps)
    if ck in _J_CACHE:
        return _J_CACHE[ck]
    tt = mpf(t)
    j = max(0, -k - 1)
    total = mpf(0)
    stop = mpf(10) ** -(mp.dps + 5)
    past_peak = 2 * (t + abs(e) + abs(k)) + 16
    while True:
        n = k + j + 1
        coef = (-1) ** j * math.comb(e, j) if e >= 0 else math.comb(-e - 1 + j, j)
        term = coef * tt**n / mpmath.factorial(n)
        total += term
        j += 1
        if e >= 0 and j > e:
            break
        if e < 0 and n > past_peak and abs(term) <= stop * abs(total):
            break
    value = mpmath.exp(-tt) * total
    _J_CACHE[ck] = value
    return value


def det(rows):
    return mpmath.det(mpmath.matrix(rows)) if rows else mpf(1)


def leftmost_form(y, x, t):
    n = len(y)
    return det([[J(x - y[i] - 1 + j, -(n - i) + (1 if i == 0 else 0), t) for j in range(n)]
                for i in range(n)])


def tasep_form(y, x, t):
    n = len(y)
    a = [[J(x - y[i] - 1 + j, -(n - i), t) for j in range(n)] for i in range(n)]
    b = [[J(x - y[i] + j, -(n - i), t) for j in range(n)] for i in range(n)]
    return det(a) - det(b)


def head_form(y, xf, t):
    n = len(y)
    return det([[J(xf[p] - y[a] - 1, max(a - 1, 0) - max(p - 1, 0), t) for p in range(n)]
                for a in range(n)])


def monomials(n, degree):
    for combo in itertools.combinations_with_replacement(range(n), degree):
        yield tuple(combo.count(i) for i in range(n))


def shifted_form(shift, n, x, t):
    base = x - n - shift - 1
    jsign = (-1) ** (n - 1)
    total = mpf(0)
    for m in monomials(n, shift):
        total += det([[jsign * J(base + a + b + m[a], -(n - 1), t) for b in range(n)]
                      for a in range(n)])
    return (-1) ** (n * (n - 1) // 2) * total


def converged(fn, *args):
    """Evaluate at rising precision until two precisions agree to 30 digits."""
    dps = 50
    while True:
        with mp.workdps(dps):
            lo = fn(*args)
        with mp.workdps(dps + 40):
            hi = fn(*args)
            if abs(hi - lo) <= AGREE * abs(hi) or hi == lo:
                return hi
        dps *= 2
        if dps > 3200:
            raise RuntimeError(f"{fn.__name__}{args} did not converge")


def poisson_tail_steps(rate: float, eps: float = 1e-40) -> int:
    k = int(rate)
    while mpmath.exp(-rate) * mpf(rate) ** k / mpmath.factorial(k) * (k + 1) > eps or k < rate:
        k += 1
    return k + 5


def master_eq(init, word, t, top, event=None):
    """State probabilities at time t, counting only paths with positions <= top.

    Positions only grow and keep their order, so every path to a state
    inside the box stays inside it: those probabilities are exact.
    """
    n = len(init)
    counts = {(tuple(init), word): 1}
    acc: dict = defaultdict(lambda: mpf(0))
    weight = mpf(1)
    tt = mpf(t)
    for k in range(poisson_tail_steps(n * t) + 1):
        for state, c in counts.items():
            if event is None or event(state):
                acc[state] += c * weight
        nxt: dict = defaultdict(int)
        for (pos, w), c in counts.items():
            for i in range(n):
                target = pos[i] + 1
                if i + 1 < n and pos[i + 1] == target:
                    if w[i] == "2" and w[i + 1] == "1":
                        nxt[(pos, w[:i] + "12" + w[i + 2:])] += c
                    else:
                        nxt[(pos, w)] += c
                elif target <= top[i]:
                    nxt[(pos[:i] + (target,) + pos[i + 1:], w)] += c
        counts = nxt
        weight = weight * tt / (k + 1)
    scale = mpmath.exp(-n * tt)
    return {s: v * scale for s, v in acc.items()}


class Checks:
    def __init__(self):
        self.worst: dict = {}

    def agree(self, name, a, b, rel=mpf(10) ** -25, floor=mpf(0)):
        diff = abs(a - b)
        scale = max(abs(a), abs(b), floor)
        r = diff / scale if scale else diff
        count, worst = self.worst.get(name, (0, mpf(0)))
        self.worst[name] = (count + 1, max(worst, r))
        if r > rel:
            raise AssertionError(f"{name}: {a} vs {b}")


def main() -> None:
    mp.dps = 50
    specs = dict(W.catalogue())
    refs: dict = {}
    checks = Checks()
    trans_groups = defaultdict(list)
    for k, spec in specs.items():
        kind, t = spec["kind"], spec["t"]
        if kind == "transition":
            trans_groups[(spec["init"], spec["word"], t)].append((k, spec))
            continue
        n = spec["n"]
        if kind == "leftmost":
            y = W.step_positions(n, spec["shift"])
            value = converged(leftmost_form, y, spec["x"], t)
            if n == 1:
                closed = mpmath.exp(-mpf(t)) * mpf(t) ** (spec["x"] - 1) / mpmath.factorial(
                    spec["x"] - 1)
                checks.agree("leftmost N=1 det-mp vs Poisson", value, closed)
                refs[k] = (closed, "poisson")
            elif spec["x"] == 1:
                checks.agree("leftmost x=1 det-mp vs e^-t", value, mpmath.exp(-mpf(t)))
                refs[k] = (mpmath.exp(-mpf(t)), "renewal")
            else:
                other = converged(shifted_form, spec["shift"], n, spec["x"], t)
                checks.agree("leftmost form vs shifted-step form", value, other)
                refs[k] = (value, "det-mp")
        elif kind == "tasep_leftmost":
            y = W.step_positions(n, spec["shift"])
            refs[k] = (converged(tasep_form, y, spec["x"], t), "det-mp")
        elif kind == "head_transition":
            refs[k] = (converged(head_form, W.step_positions(n), spec["final"], t), "det-mp")
        elif kind in ("shifted_step", "step_det"):
            shift = spec.get("shift", 0)
            value = converged(shifted_form, shift, n, spec["x"], t)
            if spec["x"] == 1:
                checks.agree(f"{kind} x=1 det-mp vs e^-t", value, mpmath.exp(-mpf(t)))
                refs[k] = (mpmath.exp(-mpf(t)), "renewal")
            else:
                other = converged(leftmost_form, W.step_positions(n, shift), spec["x"], t)
                checks.agree(f"{kind} form vs leftmost form", value, other)
                refs[k] = (value, "det-mp")
        else:
            raise ValueError(kind)
    with mp.workdps(50):
        for (init, word, t), members in sorted(trans_groups.items(), key=str):
            top = tuple(v + 2 for v in init)
            probs = master_eq(init, word, t, top)
            for k, spec in members:
                refs[k] = (probs.get((spec["final"], spec["fword"]), mpf(0)), "master-eq")
        cross_validate(checks)
    out = {
        "about": "exact value and route of every benchmark catalogue query: key -> [value, route]",
        "generator": "benchmarks/make_refs.py",
        "cross_checks": {name: {"count": c, "max_rel_diff": float(w)}
                         for name, (c, w) in sorted(checks.worst.items())},
        "refs": {k: [float(v), route] for k, (v, route) in sorted(refs.items())},
    }
    with open(W.REFS_PATH, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=False)
        fh.write("\n")
    routes = defaultdict(int)
    for _, route in refs.values():
        routes[route] += 1
    print(f"wrote {len(refs)} references: {dict(routes)}")
    for name, (c, w) in sorted(checks.worst.items()):
        print(f"  {name}: {c} checks, max rel diff {float(w):.2e}")


def cross_validate(checks: Checks) -> None:
    """The master equation against the determinant forms, on small cases."""
    for n in (2, 3, 4):
        y = W.step_positions(n)
        for t in (0.1, 1.0):
            for off in range(0, 3):
                for g in (0, 2):
                    final = tuple(i + off for i in range(1, n)) + (n + off + g,)
                    probs = master_eq(y, W.head(n), t, final)
                    me = probs.get((final, W.head(n)), mpf(0))
                    checks.agree("head transition det-mp vs master-eq", me,
                                 converged(head_form, y, final, t))
    # leftmost events: the other particles are unbounded, so truncate them at
    # y_i + window; the dropped mass is below N * P(Poisson(t) > window)
    for n, t, window in ((2, 1.0, 30), (3, 0.1, 16), (3, 1.0, 34)):
        for shift in (0, 1):
            y = W.step_positions(n, shift)
            for x in range(1, 5):
                top = (x,) + tuple(v + window for v in y[1:])
                for word, form, name in ((W.head(n), leftmost_form, "leftmost"),
                                         ("1" * n, tasep_form, "tasep leftmost")):
                    probs = master_eq(y, word, t, top,
                                      event=lambda s, x=x, w=word: s[0][0] == x and s[1] == w)
                    me = sum(probs.values(), mpf(0))
                    checks.agree(f"{name} det-mp vs master-eq (truncated)", me,
                                 converged(form, y, x, t), rel=mpf(10) ** -20,
                                 floor=mpf(10) ** -12)


if __name__ == "__main__":
    main()
