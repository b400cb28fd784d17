import dataclasses
import functools
import hashlib
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from tasep2c import simulate
from tasep2c.formulas import Configuration, step_configuration
from tasep2c.simulate import (
    SimulationEstimate,
    estimate_event,
    final_state_sample,
    leftmost_event,
    simulate_until,
    step_dynamics,
    substream,
    transition_event,
)

GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


class ScriptedRng:
    """Fixed dwell, scripted particle picks; for single-step rule checks."""

    def __init__(self, picks):
        self.picks = list(picks)

    def expovariate(self, rate):
        return 1.0 / rate

    def randrange(self, n):
        return self.picks.pop(0)


def test_free_move():
    state, dwell = step_dynamics(Configuration((0, 5), "21"), ScriptedRng([0]))
    assert state == Configuration((1, 5), "21")
    assert dwell == 0.5


def test_swap_first_class_displaces_second():
    state, _ = step_dynamics(Configuration((0, 1), "21"), ScriptedRng([0]))
    assert state == Configuration((0, 1), "12")


def test_blocked_second_behind_first():
    state, _ = step_dynamics(Configuration((0, 1), "12"), ScriptedRng([0]))
    assert state == Configuration((0, 1), "12")


def test_blocked_same_species():
    for word in ("11", "22"):
        state, _ = step_dynamics(Configuration((0, 1), word), ScriptedRng([0]))
        assert state == Configuration((0, 1), word)


def test_rightmost_particle_always_free():
    state, _ = step_dynamics(Configuration((0, 1), "21"), ScriptedRng([1]))
    assert state == Configuration((0, 2), "21")


def test_simulate_until_time_zero():
    y = step_configuration(3)
    assert simulate_until(y, 0.0, random.Random(1)) == y
    with pytest.raises(ValueError):
        simulate_until(y, -1.0, random.Random(1))


def test_simulate_until_composes_step_dynamics():
    y = Configuration((0, 2, 3), "121")
    t = 2.5
    fast = simulate_until(y, t, random.Random(99))
    rng = random.Random(99)
    state, clock = y, 0.0
    while True:
        nxt, dwell = step_dynamics(state, rng)
        clock += dwell
        if clock > t:
            break
        state = nxt
    assert fast == state


def test_invariants_along_trajectories():
    rng = random.Random(7)
    for _ in range(200):
        y = Configuration((0, 2, 3, 7), "2121")
        state = simulate_until(y, 3.0, rng)
        assert all(b > a for a, b in zip(state.positions, state.positions[1:]))
        assert sorted(state.species) == sorted(y.species)
        assert state.positions >= y.positions


def test_estimate_determinism_and_shape():
    y = step_configuration(2)
    e1 = estimate_event(y, leftmost_event(1), 1.0, 3000, seed=42)
    e2 = estimate_event(y, leftmost_event(1), 1.0, 3000, seed=42)
    assert isinstance(e1, SimulationEstimate)
    assert e1.estimate == e2.estimate
    assert e1.std_error == pytest.approx(
        math.sqrt(e1.estimate * (1 - e1.estimate) / 3000)
    )
    e3 = estimate_event(y, leftmost_event(1), 1.0, 3000, seed=43)
    assert e3.estimate != e1.estimate


def test_always_true_predicate():
    est = estimate_event(step_configuration(2), lambda s: True, 0.5, 500, seed=0)
    assert est.estimate == 1.0 and est.std_error == 0.0


def test_transition_event_at_time_zero():
    y = step_configuration(2)
    est = estimate_event(y, transition_event(y), 0.0, 200, seed=0)
    assert est.estimate == 1.0
    other = Configuration((1, 3), "21")
    est = estimate_event(y, transition_event(other), 0.0, 200, seed=0)
    assert est.estimate == 0.0


def test_runs_validation():
    with pytest.raises(ValueError, match="runs must be at least 1, got 0"):
        estimate_event(step_configuration(2), lambda s: True, 1.0, 0, seed=0)
    with pytest.raises(ValueError, match="runs must be at least 1, got -3"):
        final_state_sample(step_configuration(2), 1.0, -3, seed=0)


def test_parallel_estimates_match_sequential():
    y = step_configuration(2)
    seq = estimate_event(y, leftmost_event(1), 1.0, 2000, seed=8)
    par = estimate_event(y, leftmost_event(1), 1.0, 2000, seed=8, processes=2)
    assert par.estimate == seq.estimate
    seq_counts = final_state_sample(y, 1.0, 2000, seed=8)
    par_counts = final_state_sample(y, 1.0, 2000, seed=8, processes=3)
    assert seq_counts == par_counts


def test_no_more_workers_than_blocks(monkeypatch):
    # a recording stand-in for the pool maps in this process; 5000 runs
    # make three blocks of 2048, so eight workers are cut to three
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(simulate.multiprocessing, "Pool", FakePool)
    y = step_configuration(3)
    for runs, processes, expect in ((2, 8, []), (5, 3, []), (1, 8, []), (5000, 8, [3])):
        sizes.clear()
        got = final_state_sample(y, 1.0, runs, seed=11, processes=processes)
        assert sizes == expect
        want = final_state_sample(y, 1.0, runs, seed=11)
        assert list(got.items()) == list(want.items())


def test_key_order_independent_of_worker_count():
    y = step_configuration(8)
    first = final_state_sample(y, 7.5, 5000, seed=3)
    for processes in (2, 3):
        got = final_state_sample(y, 7.5, 5000, seed=3, processes=processes)
        assert list(got.items()) == list(first.items())


def packed_order(key):
    """Sort key of the engine's order: lexsort over rows 4 x_i + [species 2], last row first."""
    positions, species = key
    return [4 * x + (c == "2") for x, c in zip(positions, species)][::-1]


def test_key_order_is_the_packed_sort_order_for_any_block_or_chunk_size(monkeypatch):
    y = step_configuration(8)
    first = list(final_state_sample(y, 7.5, 5000, seed=3).items())
    assert [key for key, _ in first] == sorted(dict(first), key=packed_order)
    words = [species for (_, species), _ in first]
    assert len({id(w) for w in words}) == len(set(words)) < len(words)  # one object per word
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    assert list(final_state_sample(y, 7.5, 5000, seed=3).items()) == first
    monkeypatch.setattr(simulate, "_BLOCK", 2048)
    for chunk in (lambda live, steps: 1, lambda live, steps: int(min(steps, 3))):
        monkeypatch.setattr(simulate, "_chunk_steps", chunk)
        assert list(final_state_sample(y, 7.5, 5000, seed=3).items()) == first


@pytest.mark.parametrize("processes", [1, 3])
def test_predicate_sees_each_distinct_final_state_once(processes):
    y = step_configuration(8)
    seen = []

    def event(state):
        seen.append(state)
        return state.positions[0] == 3

    est = estimate_event(y, event, 7.5, 5000, seed=3, processes=processes)
    counts = final_state_sample(y, 7.5, 5000, seed=3)
    assert [(s.positions, s.species) for s in seen] == list(counts)
    for state in seen:
        built = Configuration(state.positions, state.species)
        assert type(state) is Configuration
        assert state == built and hash(state) == hash(built)
    hits = sum(c for (pos, _), c in counts.items() if pos[0] == 3)
    assert 0 < hits < 5000 and est.estimate == hits / 5000


def test_estimate_fields():
    names = [f.name for f in dataclasses.fields(SimulationEstimate)]
    assert names == ["estimate", "std_error", "runs"]


def test_substreams_differ():
    a = substream(1, 0).random()
    b = substream(1, 1).random()
    c = substream(2, 0).random()
    assert len({a, b, c}) == 3
    assert substream(1, 0).random() == a


@pytest.mark.parametrize("seed, run", [(1, 0), (-7, 5), (2**64 - 1, 999)])
def test_substream_keyed_like_the_engine(seed, run):
    # the scalar oracle seeds random.Random with the key of the engine's run
    key = splitmix_step((seed & MASK64) ^ splitmix_step(run)[1])[1]
    expected = random.Random(key)
    rng = substream(seed, run)
    assert [rng.random() for _ in range(3)] == [expected.random() for _ in range(3)]


def test_final_state_sample_consistent_with_estimate():
    y = step_configuration(2)
    runs, seed, t = 4000, 11, 1.0
    counts = final_state_sample(y, t, runs, seed)
    assert sum(counts.values()) == runs
    est = estimate_event(y, leftmost_event(1), t, runs, seed)
    hits = sum(c for (pos, spc), c in counts.items() if pos[0] == 1 and spc == "21")
    assert hits / runs == est.estimate


def test_single_particle_displacement_is_poisson():
    # chi-square goodness of fit against Poisson(1), 9 cells (0..7 and tail);
    # 20.090 is the 0.99 quantile of chi-square with 8 degrees of freedom
    t, runs, seed = 1.0, 100_000, 2718
    counts = Counter()
    y = Configuration((0,), "2")
    for (pos, _), c in final_state_sample(y, t, runs, seed).items():
        counts[min(pos[0], 8)] += c
    expected = [runs * math.exp(-t) * t**j / math.factorial(j) for j in range(8)]
    expected.append(runs - sum(expected))
    chi2 = sum((counts.get(j, 0) - expected[j]) ** 2 / expected[j] for j in range(9))
    assert chi2 < 20.090


def test_renewal_consistency():
    y = step_configuration(2)
    t, runs, seed = 1.0, 50_000, 5
    est = estimate_event(y, leftmost_event(1), t, runs, seed)
    se = math.sqrt(math.exp(-t) * (1 - math.exp(-t)) / runs)
    assert abs(est.estimate - math.exp(-t)) <= 4 * se


def test_parallel_estimates_accept_lambdas():
    y = step_configuration(3)
    event = lambda s: s.positions[0] == 2  # noqa: E731
    seq = estimate_event(y, event, 1.0, 3000, seed=4)
    assert 0.0 < seq.estimate < 1.0
    for processes in (2, 3):
        par = estimate_event(y, event, 1.0, 3000, seed=4, processes=processes)
        assert par.estimate == seq.estimate


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_bad_times_raise(t):
    y = step_configuration(2)
    with pytest.raises(ValueError, match="time"):
        final_state_sample(y, t, 10, seed=0)
    with pytest.raises(ValueError, match="time"):
        estimate_event(y, leftmost_event(1), t, 10, seed=0)
    with pytest.raises(ValueError, match="time"):
        simulate_until(y, t, random.Random(0))


def splitmix_step(state):
    """One SplitMix64 step on Python ints: (next state, output)."""
    state = (state + GAMMA) & MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def reference_stream(seed, run):
    """SplitMix64 outputs of run `run`, stepped sequentially on Python ints."""
    _, inner = splitmix_step(run)
    _, state = splitmix_step((seed & MASK64) ^ inner)
    while True:
        state, out = splitmix_step(state)
        yield out


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1, 2**63 + 12345, -1, -987654321])
def test_engine_draws_match_reference_splitmix64(seed):
    for run in (0, 1, 2047, 2048, 999_999):
        keys = simulate._run_keys(seed, run, run + 1)
        expected = reference_stream(seed, run)
        even, odd = (simulate._draw_matrix(keys, j0, 21)[:, 0] for j0 in (0, 1))
        for j in range(42):
            got = (odd if j % 2 else even)[j // 2]
            assert int(got) == next(expected), (seed, run, j)
    span = [int(k) for k in simulate._run_keys(seed, 3, 9)]
    assert span == [int(simulate._run_keys(seed, r, r + 1)[0]) for r in range(3, 9)]


def replay(initial, t, seed, run):
    """One run of the engine replayed in Python from the reference stream."""
    draws = reference_stream(seed, run)
    pos, spc, n = list(initial.positions), list(initial.species), initial.n
    remaining = t
    while True:
        u = (next(draws) >> 11) * 2.0**-53
        remaining -= -math.log(1.0 - u) / n
        if remaining <= 0:
            return tuple(pos), "".join(spc)
        i = next(draws) % n
        if i + 1 < n and pos[i + 1] == pos[i] + 1:
            if spc[i] == "2" and spc[i + 1] == "1":
                spc[i], spc[i + 1] = "1", "2"
        else:
            pos[i] += 1


@pytest.mark.parametrize(
    "initial, t, seed",
    [
        (step_configuration(3), 1.5, 2**63 + 5),
        (Configuration((0, 1, 2, 4), "2121"), 2.0, -3),
        (Configuration((5,), "1"), 3.0, 11),
    ],
)
def test_engine_final_states_match_scalar_replay(initial, t, seed):
    runs = 300
    expected = Counter(replay(initial, t, seed, r) for r in range(runs))
    assert final_state_sample(initial, t, runs, seed) == expected


def test_histogram_independent_of_span_split_and_block_size(monkeypatch):
    y = Configuration((0, 1, 3), "211")
    runs, seed, t = 5000, -7, 1.5
    whole = final_state_sample(y, t, runs, seed)
    assert sum(whole.values()) == runs
    cuts = [0, 1, 2056, 4099, runs]
    parts = (simulate._advance_block(y, t, seed, block) for block in zip(cuts, cuts[1:]))
    assert list(simulate._items(y, simulate._merged(parts))) == list(whole.items())
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    assert final_state_sample(y, t, runs, seed) == whole
    monkeypatch.setattr(simulate, "_BLOCK", 2048)
    monkeypatch.setattr(simulate, "_chunk_steps", lambda live, steps: 1)
    assert final_state_sample(y, t, runs, seed) == whole
    monkeypatch.setattr(simulate, "_chunk_steps", lambda live, steps: int(min(steps, 3)))
    assert final_state_sample(y, t, runs, seed) == whole


def histogram_digest(counts):
    return hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()[:16]


# Digests of histograms recorded from the step-at-a-time engine that kept one
# row of positions and species digits per run; any change to a draw, a step
# count or a jump rule moves them.
GOLDEN = [
    (step_configuration(3), 1.0, 1, 5, 1, "4149a4ae81b11542"),
    (step_configuration(2), 2.0, 1, 0, 1, "28c9b413547a6f97"),
    (step_configuration(3), 2.0, 5000, 4, 165, "355d17ad24992df7"),
    (Configuration((0, 1, 3), "211"), 1.5, 4500, -7, 138, "1668a1b1f584f909"),
    (step_configuration(8), 7.5, 600, 17, 596, "61bc8fbb6832e6c1"),
    (step_configuration(20), 30.0, 300, 23, 300, "f0c6b88bf09afec0"),
    (Configuration((-9, -4, -3, 0), "2121"), 3.0, 700, 2**63 + 1, 455, "371e775eab08874e"),
]


@pytest.mark.parametrize("initial, t, runs, seed, distinct, digest", GOLDEN)
def test_golden_histograms(initial, t, runs, seed, distinct, digest):
    counts = final_state_sample(initial, t, runs, seed)
    assert sum(counts.values()) == runs
    assert (len(counts), histogram_digest(counts)) == (distinct, digest)


def library_events(initial, t, seed):
    """Leftmost events at three x and transitions to three finals, hit and missed."""
    y0 = initial.positions[0]
    common = final_state_sample(initial, t, 2048, seed).most_common(2)
    finals = [Configuration(*key) for key, _ in common] + [initial]
    return [leftmost_event(x) for x in (y0, y0 + 1, y0 + 3)] + list(map(transition_event, finals))


@pytest.mark.parametrize("initial, t, seed", [(y, t, seed) for y, t, _, seed, _, _ in GOLDEN])
def test_packed_events_count_like_the_per_state_path(initial, t, seed):
    # the per-state count of each event on the histogram, against the packed
    # count; 2048 runs fill one block and 5000 make three, which 2 or 3
    # workers share.  A wrapper hides the packed test, so it takes the
    # per-state path
    events = library_events(initial, t, seed)
    for runs in (1, 2047, 2048, 5000):
        sample = final_state_sample(initial, t, runs, seed)
        states = [(Configuration(*key), c) for key, c in sample.items()]
        for event in events:
            hits = sum(c for state, c in states if event(state))
            for processes in (1, 2, 3) if runs > 2048 else (1,):
                got = estimate_event(initial, event, t, runs, seed, processes)
                assert got.estimate == hits / runs
            if runs == 2047:
                assert estimate_event(initial, lambda s: event(s), t, runs, seed) == got


def test_library_events_skip_distinct_states(monkeypatch):
    def refuse(*args):
        raise AssertionError("library events count on packed states")

    y = step_configuration(3)
    events = [leftmost_event(2), transition_event(Configuration((2, 3, 4), "121"))]
    expect = [estimate_event(y, event, 2.0, 5000, 4) for event in events]
    assert expect[1].estimate == 0.0214  # the CLI record's value
    monkeypatch.setattr(simulate, "_distinct", refuse)
    monkeypatch.setattr(simulate, "_engine_state", refuse)
    for processes in (1, 3):
        assert [estimate_event(y, e, 2.0, 5000, 4, processes) for e in events] == expect
    with pytest.raises(AssertionError, match="packed"):
        estimate_event(y, lambda s: events[0](s), 2.0, 5000, 4)


def test_packed_test_never_wraps_onto_a_column():
    # each want is off the columns by a multiple of 256 or by its sign or
    # size, so a test on columns narrowed to uint8 would count false hits
    y = Configuration((0, 1, 3), "211")
    runs, seed, t = 3000, -7, 1.5
    (top, _), = final_state_sample(y, t, runs, seed).most_common(1)
    positions, species = top
    events = [
        leftmost_event(positions[0] + 64),
        leftmost_event(-1),
        leftmost_event(-(2**70)),
        leftmost_event(2**70),
        transition_event(Configuration(tuple(x + 64 for x in positions), species)),
        transition_event(Configuration((-1,) + positions[1:], species)),
        transition_event(Configuration(positions[:2] + (2**70,), species)),
        transition_event(Configuration(positions + (positions[-1] + 1,), species + "1")),
        transition_event(Configuration(positions[:2], species[:2])),
    ]
    assert estimate_event(y, transition_event(Configuration(*top)), t, runs, seed).estimate > 0
    for event in events:
        assert estimate_event(y, event, t, runs, seed).estimate == 0.0
        assert estimate_event(y, lambda s: event(s), t, runs, seed).estimate == 0.0


def test_a_wrapped_library_event_is_a_custom_predicate():
    y, runs = step_configuration(3), 3000
    event = leftmost_event(2)

    @functools.wraps(event)
    def missed(state):
        return not event(state)

    hit = estimate_event(y, event, 2.0, runs, 4).estimate
    miss = estimate_event(y, missed, 2.0, runs, 4).estimate
    assert 0 < hit < 1 and round(hit * runs) + round(miss * runs) == runs


def test_leftmost_event_at_a_float_x_keeps_the_per_state_test():
    y = step_configuration(3)
    assert estimate_event(y, leftmost_event(2.0), 2.0, 3000, 4) == estimate_event(
        y, leftmost_event(2), 2.0, 3000, 4
    )
    # 4 (2.75 - 1) + 1 = 8 would read as particle 0 at 3 with species 1, which
    # every run from 111 reaches often; the species word never becomes 211
    y = Configuration((1, 2, 3), "111")
    assert estimate_event(y, leftmost_event(2.75), 2.0, 3000, 4).estimate == 0.0


def test_engine_near_the_packing_limit():
    # a particle packs as 4 x + [species 2] in int64
    y = Configuration((2**60, 2**60 + 1, 2**60 + 3), "211")
    expected = Counter(replay(y, 2.0, 9, r) for r in range(50))
    assert final_state_sample(y, 2.0, 50, 9) == expected
    with pytest.raises(OverflowError):
        final_state_sample(Configuration((2**61, 2**61 + 3), "21"), 1.0, 10, 1)


@pytest.mark.parametrize(
    "initial, t, runs, limit",
    [
        (step_configuration(20), 100.0, 4096, 4 << 20),
        (step_configuration(1), 1.0, 1, 64 << 10),
        # 5000 distinct final states over three blocks; 2900 KiB is just
        # above the 2 933 611 bytes the per-block Counter merge peaked at
        (step_configuration(20), 30.0, 5000, 2900 << 10),
    ],
)
def test_peak_traced_memory(initial, t, runs, limit):
    final_state_sample(initial, 1.0, 8, 1)  # lazy imports and caches
    tracemalloc.start()
    try:
        final_state_sample(initial, t, runs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


# Two-sample chi-square test of homogeneity between the lockstep engine and
# the scalar random.Random oracle, 20 000 runs each.  Fixed in advance: every
# final state with at least 40 runs over both samples is a cell, the rarer
# states share one pooled cell, and the test fails above the 0.999 quantile
# of chi-square with (cells - 1) degrees of freedom (Wilson-Hilferty).
@pytest.mark.parametrize(
    "initial, t, seed",
    [(step_configuration(2), 1.5, 31), (step_configuration(3), 1.0, 32)],
)
def test_engine_law_matches_scalar_oracle(initial, t, seed):
    runs = 20_000
    engine = final_state_sample(initial, t, runs, seed)
    scalar = Counter()
    for r in range(runs):
        state = simulate_until(initial, t, substream(seed + 1000, r))
        scalar[state.positions, state.species] += 1
    cells, pooled = [], [0, 0]
    for key in engine.keys() | scalar.keys():
        a, b = engine.get(key, 0), scalar.get(key, 0)
        if a + b >= 40:
            cells.append((a, b))
        else:
            pooled[0] += a
            pooled[1] += b
    if sum(pooled):
        cells.append(tuple(pooled))
    chi2 = sum((a - b) ** 2 / (a + b) for a, b in cells)
    df = len(cells) - 1
    quantile = df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3
    assert df >= 10
    assert chi2 < quantile, (chi2, quantile, df)


def test_engine_does_not_import_numpy_random():
    # importing numpy.random alone costs several MB of resident memory
    code = (
        "import sys\n"
        "from tasep2c import cli, simulate\n"
        "from tasep2c.formulas import step_configuration\n"
        "simulate.final_state_sample(step_configuration(3), 1.0, 3000, 1)\n"
        "assert cli.main('simulate --n 2 --step-l 0 --event leftmost --position 1 "
        "--time 1 --runs 100'.split()) == 0\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
