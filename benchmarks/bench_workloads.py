"""Workload catalogue, seeded query generation and per-query checks.

Every query the benchmark can issue belongs to a fixed catalogue whose exact
values are stored in ``references.json`` (built by ``make_refs.py`` from
routes independent of the timed code).  A seed picks, for each stratum of a
workload, which catalogue entries to ask for; the strata themselves (sizes,
times, counts) are fixed, so every seed asks for the same amount of work.

Queries call the package through module attributes looked up at call time,
which is what lets the traced run wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import bench_stats

WORKLOADS = ("exact-sweep", "transition-words", "mc-oracle", "identity-suite")
REFS_PATH = Path(__file__).resolve().parent / "references.json"

#: Times of the exact sweeps; t = 0.1 is a non-dyadic Fraction and t = 100
#: makes every residue series long.
T_GRID = (0.1, 1.0, 5.0, 100.0)
TRANSITION_TIMES = (0.5, 1.5)
MC_TIMES = (1.0, 2.0)
#: Candidate x offsets from the first initial position, per time.
X_OFFSETS = {0.1: range(0, 4), 1.0: range(0, 6), 2.0: range(0, 8), 5.0: range(0, 10),
             100.0: range(60, 84)}
STEP_DET_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20)
#: The float branch of leftmost_probability_step_det (N > 6) is documented as
#: inaccurate; its misses count in ``failed`` but do not make the run incorrect.
STEP_DET_EXACT_MAX_N = 6
FINAL_SETS = 16
MC_HIST_SIZES = (2, 3, 5)
MC_HIST_RUNS = 20_000
MC_CLI_RUNS = 1_000
#: cli compare queries per (n, t).  Most are at N = 3, t = 2, so the median
#: and p90 latencies both fall inside that one group of equal-cost queries.
MC_CLI_MIX = ((3, 2.0, 60), (2, 1.0, 20), (2, 2.0, 10), (3, 1.0, 10))
#: Expected hits (and misses) below this make the normal band unreliable.
MC_MIN_EXPECTED = 50
#: Band half-width in standard errors; a correct engine exceeds it with
#: probability ~2e-9 per check.
MC_Z = 6.0
SUITE_IDENTITIES = ("main", "equiv_a", "equiv_b", "substitution", "tasep_a", "tasep_b",
                    "vandermonde", "det_collapse", "closed_form", "braid")
MATRIX_IDENTITIES = ("closed_form", "braid")
#: Query seeds per n.  Most queries are at N = 5, so the median latency falls
#: inside the band of N = 5 permutation-sum identities, and p90 inside the
#: N = 6 ones.
IDENTITY_SEEDS = {2: 1, 3: 1, 4: 1, 5: 10, 6: 3}
IDENTITY_POINTS = 2
MASS_CASES = ((2, 0.5, 12), (2, 1.0, 16), (3, 0.25, 8))
QUADRATURE_QUERIES = (
    dict(kind="transition", init=(1, 2), word="21", final=(2, 3), fword="12", t=0.5),
    dict(kind="transition", init=(1, 3), word="21", final=(2, 4), fword="21", t=1.5),
    dict(kind="transition", init=(1, 2, 3), word="211", final=(2, 3, 4), fword="121", t=0.5),
    dict(kind="leftmost", n=2, shift=0, t=1.0, x=2),
    dict(kind="leftmost", n=2, shift=1, t=5.0, x=3),
    dict(kind="leftmost", n=3, shift=0, t=1.0, x=2),
    dict(kind="leftmost", n=3, shift=1, t=0.1, x=2),
)

#: Tolerances by evaluation route (relative, absolute).
EXACT_TOL = (1e-11, 1e-30)
QUADRATURE_TOL = (0.0, 1e-9)
MASS_TOL = 1e-10


def step_positions(n: int, shift: int = 0) -> tuple[int, ...]:
    return (1,) + tuple(i + shift for i in range(2, n + 1))


def spread_positions(n: int) -> tuple[int, ...]:
    return tuple(2 * i + 1 for i in range(n))


def head(n: int) -> str:
    return "2" + "1" * (n - 1)


def words(n: int) -> list[str]:
    """Species words with one first class particle, head word first."""
    return ["1" * i + "2" + "1" * (n - 1 - i) for i in range(n)]


def _pos(p) -> str:
    return ",".join(str(v) for v in p)


def key(kind: str, *parts) -> str:
    return ":".join([kind] + [_pos(p) if isinstance(p, tuple) else repr(p) if isinstance(p, float)
                              else str(p) for p in parts])


def _displacements(n: int, top: int):
    if n == 0:
        yield ()
        return
    for rest in _displacements(n - 1, top):
        for d in range(top + 1):
            yield rest + (d,)


def final_sets(initial: tuple[int, ...], count: int, top: int = 2) -> list[tuple[int, ...]]:
    """``count`` evenly spaced ordered final positions within ``top`` of ``initial``."""
    finals = []
    for d in _displacements(len(initial), top):
        x = tuple(a + b for a, b in zip(initial, d))
        if all(u < v for u, v in zip(x, x[1:])):
            finals.append((sum(d), d, x))
    finals.sort()
    if len(finals) <= count:
        return [x for _, _, x in finals]
    step = (len(finals) - 1) / (count - 1)
    return [finals[round(i * step)][2] for i in range(count)]


def transition_inits(n: int) -> list[tuple[tuple[int, ...], str]]:
    return [(step_positions(n), head(n)), (spread_positions(n), head(n))]


def mc_finals(n: int) -> list[tuple[int, ...]]:
    return final_sets(step_positions(n), 10 ** 6, top=2)


def catalogue():
    """Every (key, spec) the workloads may ask for; make_refs.py fills them in."""
    for t in T_GRID:
        for off in X_OFFSETS[t]:
            x = 1 + off
            yield key("leftmost", 1, 0, t, x), dict(kind="leftmost", n=1, shift=0, t=t, x=x)
            for n in range(2, 9):
                for shift in (0, 1):
                    yield (key("leftmost", n, shift, t, x),
                           dict(kind="leftmost", n=n, shift=shift, t=t, x=x))
            for n in range(2, 7):
                for shift in (0, 1):
                    yield (key("tasep_leftmost", n, shift, t, x),
                           dict(kind="tasep_leftmost", n=n, shift=shift, t=t, x=x))
                for g in (0, 2):
                    final = tuple(i + off for i in range(1, n)) + (n + off + g,)
                    yield (key("head_transition", n, t, final),
                           dict(kind="head_transition", n=n, t=t, final=final))
            for n in range(2, 6):
                for shift in (1, 2):
                    yield (key("shifted_step", n, shift, t, x),
                           dict(kind="shifted_step", n=n, shift=shift, t=t, x=x))
            for n in STEP_DET_SIZES:
                yield key("step_det", n, t, x), dict(kind="step_det", n=n, t=t, x=x)
        for n in STEP_DET_SIZES:
            yield key("step_det", n, t, 1), dict(kind="step_det", n=n, t=t, x=1)
    for t in MC_TIMES:
        for off in X_OFFSETS[t]:
            for n in MC_HIST_SIZES:
                k = key("leftmost", n, 0, t, 1 + off)
                yield k, dict(kind="leftmost", n=n, shift=0, t=t, x=1 + off)
        for n in MC_HIST_SIZES:
            init = step_positions(n)
            for final in mc_finals(n):
                for fw in words(n):
                    yield (key("transition", init, head(n), final, fw, t),
                           dict(kind="transition", init=init, word=head(n), final=final,
                                fword=fw, t=t))
    for t in TRANSITION_TIMES:
        for n in range(2, 6):
            for init, w in transition_inits(n):
                for final in final_sets(init, FINAL_SETS):
                    for fw in words(n):
                        yield (key("transition", init, w, final, fw, t),
                               dict(kind="transition", init=init, word=w, final=final,
                                    fword=fw, t=t))


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)["refs"]


# ---------------------------------------------------------------------------
# query construction
# ---------------------------------------------------------------------------


class Query:
    """One closed-loop request: a target function, the calls it makes, and their checks.

    ``calls`` holds (args, reference) pairs.  An x-sweep is one query of
    several calls, as ``tasep2c exact leftmost --sweep`` is one request.
    """

    __slots__ = ("qid", "label", "module", "func", "calls", "kwargs", "check", "tol",
                 "known_defect", "events")

    def __init__(self, label, module, func, calls, kwargs=None, check="exact", tol=EXACT_TOL,
                 known_defect=False, events=()):
        self.qid = -1
        self.label = label
        self.module = module
        self.func = func
        self.calls = calls
        self.kwargs = kwargs or {}
        self.check = check
        self.tol = tol
        self.known_defect = known_defect
        self.events = events


def _exact_call(pkg, refs, spec):
    """(function name, args, catalogue key) of one exact evaluation."""
    f = pkg.formulas
    kind, t = spec["kind"], spec["t"]
    if kind == "leftmost":
        return ("leftmost_probability",
                (f.step_configuration(spec["n"], spec["shift"]), spec["x"], t),
                key(kind, spec["n"], spec["shift"], t, spec["x"]))
    if kind == "tasep_leftmost":
        n = spec["n"]
        return ("tasep_leftmost_probability",
                (f.Configuration(step_positions(n, spec["shift"]), "1" * n), spec["x"], t),
                key(kind, n, spec["shift"], t, spec["x"]))
    if kind == "head_transition":
        n = spec["n"]
        return ("head_transition_probability",
                (f.step_configuration(n), f.Configuration(spec["final"], head(n)), t),
                key(kind, n, t, spec["final"]))
    if kind == "shifted_step":
        return ("leftmost_probability_shifted_step", (spec["shift"], spec["n"], spec["x"], t),
                key(kind, spec["n"], spec["shift"], t, spec["x"]))
    if kind == "step_det":
        return ("leftmost_probability_step_det", (spec["n"], spec["x"], t),
                key(kind, spec["n"], t, spec["x"]))
    if kind == "transition":
        return ("transition_probability",
                (f.Configuration(spec["init"], spec["word"]),
                 f.Configuration(spec["final"], spec["fword"]), t),
                key(kind, spec["init"], spec["word"], spec["final"], spec["fword"], t))
    raise ValueError(f"unknown query kind {kind!r}")


def _exact_query(pkg, refs, specs, method="residue") -> Query:
    """One query evaluating ``specs`` (an x-sweep when there are several) in order."""
    calls, keys = [], []
    for spec in specs:
        func, args, k = _exact_call(pkg, refs, spec)
        calls.append((args, refs[k][0]))
        keys.append(k)
    kwargs = {} if method == "residue" else {"method": method}
    defect = specs[0]["kind"] == "step_det" and specs[0]["n"] > STEP_DET_EXACT_MAX_N
    return Query(" ".join(keys) + (":" + method if kwargs else ""), "formulas", func, calls,
                 kwargs, tol=QUADRATURE_TOL if kwargs else EXACT_TOL, known_defect=defect)


def _sweep(rng: random.Random, t: float, length: int) -> list[int]:
    offs = X_OFFSETS[t]
    start = rng.randrange(len(offs) - length + 1)
    return [1 + offs[start + i] for i in range(length)]


def _mid(t: float) -> int:
    """The x in the middle of the candidate range at ``t``."""
    return 1 + X_OFFSETS[t][len(X_OFFSETS[t]) // 2]


def _pinned_sweep(t: float) -> list[int]:
    return [_mid(t) - 1, _mid(t), _mid(t) + 1]


def _exact_sweep(pkg, refs, rng) -> list[Query]:
    """x-sweeps of three points, one query each.

    The heaviest strata are pinned, so every seed does the same work there;
    their 16 N = 7 sweeps hold the p90 rank.  So are the step-determinant
    sweeps that take the float route (N > 6): whether they miss depends on
    x, and their misses must count the same at every seed.  Every other
    stratum is one sweep at a seed-chosen start, so each query costs about
    the same at every seed.
    """
    qs = []

    def add(kind, xs, **spec):
        qs.append(_exact_query(pkg, refs, [dict(spec, kind=kind, x=x) for x in xs]))

    for t in T_GRID:
        mid = _mid(t)
        add("leftmost", [mid], n=8, shift=0, t=t)
        add("shifted_step", [mid], n=5, shift=1, t=t)
        for shift in (0, 1):
            for lo in (mid - 1, mid - 2):
                add("leftmost", range(lo, lo + 3), n=7, shift=shift, t=t)
    for t in T_GRID:
        add("leftmost", _sweep(rng, t, 3), n=1, shift=0, t=t)
        for n in range(2, 7):
            add("leftmost", _sweep(rng, t, 3), n=n, shift=n % 2, t=t)
            add("tasep_leftmost", _sweep(rng, t, 3), n=n, shift=(n + 1) % 2, t=t)
            g = rng.choice((0, 2))
            finals = [tuple(i + x - 1 for i in range(1, n)) + (n + x - 1 + g,)
                      for x in _sweep(rng, t, 3)]
            qs.append(_exact_query(pkg, refs, [dict(kind="head_transition", n=n, t=t, final=f)
                                               for f in finals]))
        for n in range(2, 5):
            for shift in (1, 2):
                add("shifted_step", _sweep(rng, t, 3), n=n, shift=shift, t=t)
        for n in STEP_DET_SIZES:
            # the float route's sweeps are pinned, so every seed counts the
            # same known-defect misses
            xs = _sweep(rng, t, 3) if n <= STEP_DET_EXACT_MAX_N else _pinned_sweep(t)
            add("step_det", xs, n=n, t=t)
        # the renewal anchor e^-t at x = 1, on both sides of the float switch at N = 6
        for n in (5, 7, 14, 20):
            add("step_det", [1], n=n, t=t)
    return qs


def _transition_words(pkg, refs, rng) -> list[Query]:
    qs = []
    # N = 5 holds over half the queries, so the median is a warm N = 5 query
    counts = {2: 4, 3: 5, 4: 5, 5: 12}
    for n in range(2, 6):
        # half the final position sets from each initial state, at its own time
        for (init, w), t, count in zip(transition_inits(n), TRANSITION_TIMES,
                                       (counts[n] // 2, counts[n] - counts[n] // 2)):
            for final in rng.sample(final_sets(init, FINAL_SETS), count):
                for fw in words(n):
                    qs.append(_exact_query(pkg, refs, [dict(kind="transition", init=init,
                                                            word=w, final=final, fword=fw, t=t)]))
    # quadrature queries are pinned: their grids set the workload's peak memory
    for spec in QUADRATURE_QUERIES:
        qs.append(_exact_query(pkg, refs, [spec], method="quadrature"))
    f = pkg.formulas
    for n, t, window in MASS_CASES:
        tail = n * bench_stats.poisson_upper_tail(t, window)
        qs.append(Query(f"mass:{n}:{t!r}:{window}", "formulas", "probability_mass_check",
                        [((f.step_configuration(n), t, window), 1.0)], check="mass",
                        tol=(0.0, tail + MASS_TOL)))
    return qs


def _mc_events(refs, n: int, t: float, runs: int):
    """Catalogue events at (n, t) whose expected hits and misses are both large."""
    lo, hi = MC_MIN_EXPECTED / runs, 1.0 - MC_MIN_EXPECTED / runs
    events = []
    for off in X_OFFSETS[t]:
        k = key("leftmost", n, 0, t, 1 + off)
        if lo <= refs[k][0] <= hi:
            events.append(("leftmost", 1 + off, refs[k][0]))
    init = step_positions(n)
    for final in mc_finals(n):
        for fw in words(n):
            k = key("transition", init, head(n), final, fw, t)
            if lo <= refs[k][0] <= hi:
                events.append(("transition", (final, fw), refs[k][0]))
    return events


def _mc_oracle(pkg, refs, rng) -> list[Query]:
    f = pkg.formulas
    qs = []
    for n in MC_HIST_SIZES:
        for t in MC_TIMES:
            events = _mc_events(refs, n, t, MC_HIST_RUNS)
            leftmost = [e for e in events if e[0] == "leftmost"]
            trans = [e for e in events if e[0] == "transition"]
            picked = rng.sample(leftmost, min(3, len(leftmost)))
            picked += rng.sample(trans, min(3, len(trans)))
            args = (f.step_configuration(n), t, MC_HIST_RUNS, rng.randrange(2**31))
            qs.append(Query(f"hist:{n}:{t!r}", "simulate", "final_state_sample", [(args, None)],
                            check="hist", events=tuple(picked)))
    mix = [(n, t) for n, t, count in MC_CLI_MIX for _ in range(count)]
    for i, (n, t) in enumerate(mix):
        events = _mc_events(refs, n, t, MC_CLI_RUNS)
        kind = "leftmost" if i % 2 else "transition"
        event = rng.choice([e for e in events if e[0] == kind] or events)
        argv = ["compare", "--n", str(n), "--step-l", "0", "--time", repr(t),
                "--runs", str(MC_CLI_RUNS), "--seed", str(rng.randrange(2**31)),
                "--sigma", repr(MC_Z)]
        if event[0] == "leftmost":
            argv += ["--event", "leftmost", "--position", str(event[1])]
        else:
            final, fw = event[1]
            argv += ["--event", "transition", "--final", _pos(final), "--species", head(n),
                     "--final-species", fw]
        qs.append(Query("cli:" + " ".join(argv[1:]), "cli", "main", [((argv,), event[2])],
                        check="cli"))
    return qs


def _identity_suite(pkg, refs, rng) -> list[Query]:
    qs = []
    for name in SUITE_IDENTITIES:
        for n in range(2, 7):
            if name in MATRIX_IDENTITIES and n > 5:
                continue
            for _ in range(IDENTITY_SEEDS[n]):
                s = rng.randrange(2**31)
                kwargs = dict(n_values=(n,), points=IDENTITY_POINTS, seed=s, identities=(name,))
                qs.append(Query(f"identity:{name}:{n}:{s}", "identities", "run_identity_suite",
                                [((), None)], kwargs, check="identity"))
    return qs


_BUILDERS = {
    "exact-sweep": _exact_sweep,
    "transition-words": _transition_words,
    "mc-oracle": _mc_oracle,
    "identity-suite": _identity_suite,
}


def build(workload: str, seed: int, pkg, refs: dict) -> list[Query]:
    """The workload's queries for this seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    qs = _BUILDERS[workload](pkg, refs, rng)
    # Every seed builds the same strata in the same positions; one fixed
    # shuffle spreads each stratum over the whole pass, so a percentile
    # samples the machine over the pass, not over one short stretch of it.
    order = list(range(len(qs)))
    random.Random(f"{workload}:order").shuffle(order)
    qs = [qs[i] for i in order]
    for i, q in enumerate(qs):
        q.qid = i
    return qs


# ---------------------------------------------------------------------------
# execution and checks
# ---------------------------------------------------------------------------


def execute(q: Query, pkg) -> list:
    """Issue one query through the module attribute its callers use."""
    fn = getattr(getattr(pkg, q.module), q.func)
    if q.check == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fn(*q.calls[0][0], **q.kwargs)
        return [(code, out.getvalue(), err.getvalue())]
    return [fn(*args, **q.kwargs) for args, _ in q.calls]


def _check_one(q: Query, result, ref) -> tuple[bool, float | None, str]:
    if q.check in ("exact", "mass"):
        value = float(result)
        ok = bench_stats.within(value, ref, *q.tol)
        return ok, bench_stats.correct_digits(value, ref), "" if ok else f"{value!r} vs {ref!r}"
    if q.check == "identity":
        ok = (len(result) == 1 and result[0]["passed"] is True
              and result[0]["points"] == IDENTITY_POINTS)
        return ok, bench_stats.DIGITS_CAP if ok else 0.0, "" if ok else repr(result)
    if q.check == "hist":
        runs = q.calls[0][0][2]
        if sum(result.values()) != runs:
            return False, None, "histogram does not hold every run"
        bad = []
        for kind, what, p in q.events:
            if kind == "leftmost":
                hits = sum(c for (pos, spc), c in result.items()
                           if pos[0] == what and spc == head(len(pos)))
            else:
                hits = result.get(what, 0)
            if not bench_stats.z_band_ok(hits, runs, p, MC_Z):
                bad.append(f"{kind} {what}: {hits}/{runs} vs {p!r}")
        return not bad, None, "; ".join(bad)
    if q.check == "cli":
        code, out, err = result
        if code != 0:
            return False, None, f"exit {code}: {err.strip()}"
        record = json.loads(out)
        runs = record["runs"]
        hits = round(record["estimate"] * runs)
        exact_ok = bench_stats.within(record["exact"], ref, *EXACT_TOL)
        band_ok = bench_stats.z_band_ok(hits, runs, ref, MC_Z)
        note = "" if exact_ok and band_ok else f"exact {record['exact']!r}, {hits}/{runs}"
        return exact_ok and band_ok, bench_stats.correct_digits(record["exact"], ref), note
    raise ValueError(f"unknown check {q.check!r}")


def check(q: Query, results: list) -> tuple[bool, float | None, str]:
    """(passed, correct digits or None, note) over every call of one query."""
    outcomes = [_check_one(q, r, ref) for r, (_, ref) in zip(results, q.calls)]
    digits = [d for _, d, _ in outcomes if d is not None]
    return (all(ok for ok, _, _ in outcomes), min(digits) if digits else None,
            "; ".join(note for _, _, note in outcomes if note))
