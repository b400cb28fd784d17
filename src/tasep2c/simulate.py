"""Continuous-time Monte Carlo for the two-species exclusion process.

Dynamics on the integer lattice: every particle carries an independent
rate-1 exponential clock and tries to hop one site to the right when it
rings.  The target site decides the outcome:

* empty                      -> the particle moves;
* same species ahead         -> blocked, the clock resets;
* first class behind second  -> the pair swaps (species 2 displaces 1);
* second class behind first  -> blocked.

By superposition (uniformization, Jensen 1953) this is simulated as: wait
Exponential(N), pick one of the N particles uniformly, attempt its jump
(blocked attempts simply consume the ring).  Swaps exchange the species
labels at fixed ordered positions, which keeps the position vector strictly
increasing structurally; the position vector alone evolves exactly like a
single-species process.

Engine: :func:`final_state_sample` advances runs in blocks of ``_BLOCK``
runs and does its numpy work in bulk.  A run's step count depends only on
its dwells, so the block first draws the dwells as (steps x live runs)
matrices and subtracts them from t one row at a time, the same
subtractions as one step at a time, to find each run's count.  Sorted by
descending count, the runs alive at any step are a prefix of the block, so
no step compacts or tests for finished runs.  Particle i of a run is packed
in one int64 as 4 x_i + [species 2], and the gap to the next particle (or
to a wall the last particle never reaches) decides the step: 3 swaps the
adjacent pair 21, 4 and 5 are blocked, 7 or more is a move; two table
lookups apply it.  The particle draws come in the same chunked matrices;
each chunk holds about 4 * ``_BLOCK`` draws, which keeps temporaries below
glibc's 128 KiB mmap threshold.  Packing needs 4 (x_N + steps + 2) below
2^63, so positions near 2^61 raise ``OverflowError``.

Final states stay packed until the request returns.  A block ends with
each final state as the int64 column 4 (x_i - y_i) + [species 2], y the
start, and then takes one of two tails.  For a histogram or a custom
predicate it narrows the columns to the smallest unsigned type that holds
them, groups equal columns with one lexsort, and yields its distinct
columns and their counts.  Blocks merge in that form: parts wait until
they hold more columns than the merged set so far, then fold into it with
one lexsort, which bounds both the re-sorting and the memory.  For a
library event (:func:`leftmost_event`, :func:`transition_event`) the block
instead counts the columns that pass the event's packed test, one
(mask, want) pair per row, and yields that count.  The blocks are the one
unit of work, whatever the worker count: one process advances them in
order, and a ``processes`` pool gives each worker a run of consecutive
blocks and takes back one merged part, or one count, per worker, so the
parts merge in block order either way.  A request of one block starts no
pool.  Merged states are unpacked at the end, ``_BLOCK`` at a time:
:func:`final_state_sample` makes them ``(positions, species)`` keys, in
the packed sort order, and :func:`estimate_event` makes each one a
``Configuration`` for a custom predicate, unvalidated as engine states are
valid by construction, applies the predicate once per distinct state and
adds up the counts of the hits.

Random numbers: run r owns the SplitMix64 stream (Steele, Lea & Flood,
OOPSLA 2014) keyed by ``splitmix64(seed ^ splitmix64(r))``; its draw j is
the (j+1)-th output of that stream, computed counter-style in numpy
``uint64``.  Step k of a run uses draw 2k for the dwell, -log(1 - u)/N with
u the top 53 bits over 2^53, and draw 2k+1 for the particle, the draw
modulo N (a bias below N/2^64).  A run's final state therefore depends
only on (seed, r), so a (seed, runs) pair pins every histogram and
estimate bit-exactly, whatever the block size, the chunk size or the
worker count.
``numpy.random`` is not used: importing it alone costs about 5 MB of
resident memory.

The scalar :func:`step_dynamics` / :func:`simulate_until` stepper over a
``random.Random`` (:func:`substream`) is kept as an independent oracle for
the same law.
"""

from __future__ import annotations

import math
import multiprocessing
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .contour import _check_time
from .formulas import Configuration, head_word

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# runs advanced together; sets only speed and temporary memory, never a value
_BLOCK = 2048
# distinct final states as columns of small unsigned integers 4 (x_i - y_i) +
# [species 2], in lexsort order, and the number of runs that ended in each
_Packed = tuple[np.ndarray, np.ndarray]
# a library event's test on the int64 final columns: (mask, want), one row per
# particle, and a column hits iff column & mask == want on every row
_Test = tuple[np.ndarray, np.ndarray]
# the mask that keeps every bit of a row
_ALL = -1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function, in place on a uint64 array (arithmetic wraps)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _run_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Stream keys splitmix64(seed ^ splitmix64(r)) of runs start..stop-1."""
    runs = np.arange(start, stop, dtype=np.uint64)
    inner = _mix64(runs + np.uint64(_GAMMA))
    return _mix64((inner ^ np.uint64(seed & _MASK64)) + np.uint64(_GAMMA))


def substream(seed: int, run_index: int) -> random.Random:
    """Independent scalar RNG for one run, for the :func:`simulate_until` oracle."""
    return random.Random(int(_run_keys(seed, run_index, run_index + 1)[0]))


@dataclass(frozen=True)
class SimulationEstimate:
    """Event-probability estimate with its binomial standard error."""

    estimate: float
    std_error: float
    runs: int


def step_dynamics(state: Configuration, rng: random.Random) -> tuple[Configuration, float]:
    """One attempted jump; returns the new state and the dwell time consumed.

    The dwell is Exponential(N) and the attempting particle is uniform among
    the N particles; blocked attempts return the state unchanged.
    """
    pos = list(state.positions)
    spc = list(state.species)
    n = len(pos)
    dwell = rng.expovariate(n)
    i = rng.randrange(n)
    target = pos[i] + 1
    if i + 1 < n and pos[i + 1] == target:
        if spc[i] == "2" and spc[i + 1] == "1":
            spc[i], spc[i + 1] = "1", "2"
    else:
        pos[i] = target
    return Configuration(tuple(pos), "".join(spc)), dwell


def simulate_until(initial: Configuration, t: float, rng: random.Random) -> Configuration:
    """State at time t: step_dynamics repeated until the clock passes t.

    The step that passes t is discarded, its particle draw unused.
    """
    remaining = _check_time(t)
    state = initial
    while True:
        nxt, dwell = step_dynamics(state, rng)
        remaining -= dwell
        if remaining <= 0:
            return state
        state = nxt


# read at the gap from a particle's packed value to the next one's, indices
# past 7 clipped to 7: 3 is "21" adjacent (swap), 4 and 5 are blocked, 7 and
# above is a free target site (move)
_SELF = np.array([0, 0, 0, -1, 0, 0, 0, 4], np.int64)
_NEXT = np.array([0, 0, 0, 1, 0, 0, 0, 0], np.int64)


def _chunk_steps(live: int, steps: float) -> int:
    """Steps per chunk: about 4 * _BLOCK draws for ``live`` runs, at most ``steps``."""
    return max(1, int(min(steps, 4 * _BLOCK // live)))


def _draw_matrix(keys: np.ndarray, j0: int, count: int) -> np.ndarray:
    """Draws j0, j0 + 2, ..., j0 + 2(count - 1) of every stream, one row per draw.

    Draw j is the SplitMix64 output at counter key + (j+1)*gamma.
    """
    steps = np.arange(count, dtype=np.uint64) * np.uint64((2 * _GAMMA) & _MASK64)
    steps += np.uint64(((j0 + 1) * _GAMMA) & _MASK64)
    return _mix64(steps[:, None] + keys)


def _step_counts(n: int, t: float, keys: np.ndarray) -> np.ndarray:
    """Moves each run makes before its clock passes t: the steps before the one that does.

    A step's dwell is its even draw.  Each chunk subtracts the dwells of
    its steps one row at a time from the remaining time, the same sequence
    of subtractions as one step at a time, and counts the steps that leave
    it positive (it never rises, so they come first).
    """
    counts = np.zeros(len(keys), np.int64)
    live = np.arange(len(keys))
    remaining = np.full(len(keys), t)
    first = 0
    while live.size:
        mean = n * float(remaining.max())  # steps the slowest run still expects
        c = _chunk_steps(live.size, mean + 3 * math.sqrt(mean) + 1)
        clock = (_draw_matrix(keys[live], 2 * first, c) >> np.uint64(11)).astype(np.float64)
        clock *= 2.0**-53
        np.subtract(1.0, clock, out=clock)
        np.log(clock, out=clock)
        clock /= -n  # rounds as -log(1 - u) / n does: the sign does not touch rounding
        np.subtract(remaining, clock[0], out=clock[0])
        for i in range(1, c):
            np.subtract(clock[i - 1], clock[i], out=clock[i])
        counts[live] += (clock > 0).sum(axis=0)
        remaining = clock[-1]
        going = remaining > 0
        live, remaining = live[going], remaining[going]
        first += c
    return counts


def _final_columns(
    initial: Configuration, t: float, seed: int, block: tuple[int, int]
) -> np.ndarray:
    """Final states at time t of runs block[0]..block[1]-1, one int64 column each.

    A column holds 4 (x_i - y_i) + [species 2] in row i, and the columns
    come in descending step count, not in run order: both tails only count
    them.  The step counts come first, from the dwells alone.  Runs sorted
    by descending count are alive at step s exactly as the prefix
    ``[:alive[s]]``.  Row i of ``state`` packs particle i of every run as
    4 x_i + [species 2]; row n is a wall far enough right that the last
    particle never meets it.
    """
    keys = _run_keys(seed, *block)
    n, m = initial.n, len(keys)
    steps = _step_counts(n, t, keys)
    order = np.argsort(-steps)
    keys, steps = keys[order], steps[order]
    kmax = int(steps[0])
    alive = (m - np.cumsum(np.bincount(steps, minlength=kmax + 1))[:kmax]).tolist()
    column = [4 * x + (c == "2") for x, c in zip(initial.positions, initial.species)]
    state = np.empty((n + 1, m), np.int64)
    state[:] = np.array(column + [4 * (initial.positions[-1] + kmax + 2)], np.int64)[:, None]
    flat = state.reshape(-1)
    first = 0
    while first < kmax:
        live = alive[first]
        c = _chunk_steps(live, kmax - first)
        draws = _draw_matrix(keys[:live], 2 * first + 1, c)
        at = (draws - draws // np.uint64(n) * np.uint64(n)).astype(np.int64)
        at *= m
        at += np.arange(live)
        for s in range(c):
            here = at[s, : alive[first + s]]
            ahead = here + m
            v = flat[here]
            w = flat[ahead]
            gap = w - v
            v += _SELF.take(gap, mode="clip")
            w += _NEXT.take(gap, mode="clip")
            flat[here] = v
            flat[ahead] = w
        first += c
    return state[:n] - _origin(initial)


def _advance_block(initial: Configuration, t: float, seed: int, block: tuple[int, int]) -> _Packed:
    """Distinct final states at time t of runs block[0]..block[1]-1, packed, with their counts."""
    final = _final_columns(initial, t, seed, block)
    final = final.astype(np.min_scalar_type(int(final.max())))
    return _distinct([(final, np.ones(final.shape[1], np.int64))])


def _count_block(
    test: _Test, initial: Configuration, t: float, seed: int, block: tuple[int, int]
) -> int:
    """How many runs of block[0]..block[1]-1 end in a column that passes ``test``.

    The test reads the int64 columns, before any narrowing, so a want that
    no column can equal never wraps onto one.
    """
    mask, want = test
    final = _final_columns(initial, t, seed, block)
    return int(np.count_nonzero(((final & mask) == want).all(axis=0)))


def _origin(initial: Configuration) -> np.ndarray:
    """Column of 4 y_i: a packed final state minus it is 4 (x_i - y_i) + [species 2] >= 0."""
    return np.array([[4 * y] for y in initial.positions], np.int64)


def _distinct(parts: list[_Packed]) -> _Packed:
    """The distinct columns of ``parts`` in lexsort order, each with the sum of its counts.

    ``parts`` is emptied once its columns are joined, so no part outlives
    the join.  The rows are small unsigned integers, on which lexsort runs
    a radix sort.
    """
    columns = np.concatenate([columns for columns, _ in parts], axis=1)
    counts = np.concatenate([counts for _, counts in parts])
    parts.clear()
    order = np.lexsort(columns)
    columns = columns[:, order]
    counts = counts[order]
    new = np.zeros(len(order), bool)
    new[0] = True
    for row in columns:
        new[1:] |= row[1:] != row[:-1]
    if new.all():
        return columns, counts
    starts = np.flatnonzero(new)
    return columns[:, starts], np.add.reduceat(counts, starts)


def _merged(parts: Iterable[_Packed]) -> _Packed:
    """Packed parts merged in order into one.

    Parts wait until together they hold more columns than the running set,
    then fold into it at once.  So the waiting parts never hold more than
    the running set and one part, and folding on every part, which sorts
    the running set again each time, is avoided where states rarely repeat.
    """
    parts = iter(parts)
    held = [next(parts)]  # the running set, then the parts waiting
    size = 0
    for part in parts:
        held.append(part)
        size += len(part[1])
        if size > len(held[0][1]):
            held = [_distinct(held)]
            size = 0
    return held[0] if size == 0 else _distinct(held)


def check_runs(runs: int) -> None:
    """Reject a run count below 1: no estimate can be taken from it."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")


def _sample(initial: Configuration, t: float, runs: int, seed: int, processes: int) -> _Packed:
    """The distinct final states of the request, packed, with their counts."""
    return _by_blocks(partial(_advance_blocks, initial), _merged, t, runs, seed, processes)


def _hits(
    initial: Configuration, test: _Test, t: float, runs: int, seed: int, processes: int
) -> int:
    """How many runs of the request end in a column that passes the packed test."""
    return _by_blocks(partial(_count_blocks, test, initial), sum, t, runs, seed, processes)


def _by_blocks(work: Callable, merge: Callable, t: float, runs: int, seed: int, processes: int):
    """``work(t, seed, blocks)`` over the request's blocks, the results merged in block order.

    One process takes every block in order.  A ``processes`` pool gives
    each worker a run of consecutive blocks and ``merge`` folds the
    workers' results in order; a request of one block starts no pool.
    """
    t = _check_time(t)
    check_runs(runs)
    blocks = [(lo, min(lo + _BLOCK, runs)) for lo in range(0, runs, _BLOCK)]
    advance = partial(work, t, seed)
    workers = min(processes, len(blocks))  # never an idle worker
    if workers < 2:
        return advance(blocks)
    # each worker sends back one result for its run of blocks: one packed
    # part per block would repeat every state the blocks share
    cuts = [i * len(blocks) // workers for i in range(workers + 1)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with multiprocessing.Pool(workers) as pool:
        return merge(pool.imap(advance, shares))


def _advance_blocks(
    initial: Configuration, t: float, seed: int, blocks: list[tuple[int, int]]
) -> _Packed:
    """The final states of the runs of ``blocks``, merged in block order."""
    return _merged(_advance_block(initial, t, seed, block) for block in blocks)


def _count_blocks(
    test: _Test, initial: Configuration, t: float, seed: int, blocks: list[tuple[int, int]]
) -> int:
    """How many runs of ``blocks`` end in a column that passes the packed test."""
    return sum(_count_block(test, initial, t, seed, block) for block in blocks)


def _items(
    initial: Configuration, sample: _Packed
) -> Iterator[tuple[tuple[tuple[int, ...], str], int]]:
    """``((positions, species), count)`` of each packed state in turn.

    The states are unpacked ``_BLOCK`` at a time, which bounds the Python
    lists alive at once.  Equal species words share one string object: a
    histogram of 100 000 states at N = 20 holds about 7 MB less.
    """
    columns, counts = sample
    n = initial.n
    origin = _origin(initial).T
    shared: dict[str, str] = {}
    for lo in range(0, len(counts), _BLOCK):
        part = columns[:, lo : lo + _BLOCK].T.astype(np.int64)
        part += origin  # one packed state 4 x_i + [species 2] per row
        words = ((part & 1) + ord("1")).astype(np.uint8).tobytes().decode()
        positions = map(tuple, (part >> 2).tolist())
        species = (words[i : i + n] for i in range(0, len(words), n))
        species = (shared.setdefault(w, w) for w in species)
        yield from zip(zip(positions, species), counts[lo : lo + _BLOCK].tolist())


def _engine_state(positions: tuple[int, ...], species: str) -> Configuration:
    """A Configuration made without the constructor's checks: engine states pass them."""
    state = object.__new__(Configuration)
    object.__setattr__(state, "positions", positions)
    object.__setattr__(state, "species", species)
    return state


def final_state_sample(
    initial: Configuration, t: float, runs: int, seed: int, processes: int = 1
) -> Counter[tuple[tuple[int, ...], str]]:
    """Histogram of (positions, species) states at time t over seeded runs.

    One batch serves every event probability at once, which is how the
    acceptance checks amortize a million runs across a whole x-sweep.
    The keys come in the order of ``np.lexsort`` over the packed rows
    4 x_i + [species 2]: by the last particle's position and then its
    species (1 before 2), ties broken by the particle before it, and so
    on.  That order, like the counts, is the same for every ``processes``
    value and every block size.
    """
    histogram: Counter[tuple[tuple[int, ...], str]] = Counter()
    # dict.update stores the (key, count) pairs; Counter.update would count them
    dict.update(histogram, _items(initial, _sample(initial, t, runs, seed, processes)))
    return histogram


def estimate_event(
    initial: Configuration,
    predicate: Callable[[Configuration], bool],
    t: float,
    runs: int,
    seed: int,
    processes: int = 1,
) -> SimulationEstimate:
    """Fraction of seeded runs whose final state satisfies the predicate.

    A library event (:func:`leftmost_event`, :func:`transition_event`)
    carries a packed test, and each block counts its own hits on its
    packed final states; no state is unpacked.  Any other callable is
    applied once per distinct final state, in this process, so it works
    with every ``processes`` value; those states are the ones
    :func:`final_state_sample` would return, taken from the same private
    entry point, so a wrapper around either public function sees each
    batch once.  Either way the hits add up as integer counts, so the
    estimate, its binomial standard error and the run count are fixed by
    the arguments, whatever the path or the worker count.
    """
    if isinstance(predicate, _LibraryEvent):
        hits = _hits(initial, _test(predicate.rows(initial)), t, runs, seed, processes)
    else:
        hits = 0
        sample = _sample(initial, t, runs, seed, processes)
        for (positions, species), count in _items(initial, sample):
            if predicate(_engine_state(positions, species)):
                hits += count
    p = hits / runs
    return SimulationEstimate(estimate=p, std_error=math.sqrt(p * (1.0 - p) / runs), runs=runs)


class _LibraryEvent:
    """A predicate on states that also carries a packed test of final columns.

    ``rows(initial)`` gives one (mask, want) pair per particle row.  A
    type, not an attribute on the predicate: ``functools.wraps`` copies a
    function's attributes, and a wrapper that changes the verdict must not
    inherit the test.
    """

    __slots__ = ("_predicate", "rows")

    def __init__(
        self,
        predicate: Callable[[Configuration], bool],
        rows: Callable[[Configuration], list[tuple[int, int]]],
    ):
        self._predicate = predicate
        self.rows = rows

    def __call__(self, state: Configuration) -> bool:
        return self._predicate(state)


def _test(rows: list[tuple[int, int]]) -> _Test:
    """The (mask, want) rows of a packed test as int64 columns.

    Every final column is nonnegative, so no column & mask equals -1: a
    want outside [0, 2^63) becomes -1, which no run can hit.
    """
    mask = [m for m, _ in rows]
    want = [w if 0 <= w < 1 << 63 else -1 for _, w in rows]
    return np.array(mask, np.int64)[:, None], np.array(want, np.int64)[:, None]


def leftmost_event(x: int) -> Callable[[Configuration], bool]:
    """Predicate: species order still 21...1 and the leftmost particle at x.

    Packed: row 0 equals 4 (x - y_0) + 1 and every other row has species
    bit 0.  Only an int x is packed; any other x keeps the per-state test,
    where 2.0 still equals 2 and 2.75 equals nothing.
    """

    def event(state: Configuration) -> bool:
        return state.positions[0] == x and state.species == head_word(state.n)

    def rows(initial: Configuration) -> list[tuple[int, int]]:
        return [(_ALL, 4 * (x - initial.positions[0]) + 1)] + [(1, 0)] * (initial.n - 1)

    return _LibraryEvent(event, rows) if isinstance(x, int) else event


def transition_event(final: Configuration) -> Callable[[Configuration], bool]:
    """Predicate: the state equals the given configuration exactly.

    Packed: every row equals final's column 4 (x_i - y_i) + [species 2]; a
    final of another size never hits.
    """

    def rows(initial: Configuration) -> list[tuple[int, int]]:
        if final.n != initial.n:
            return [(_ALL, -1)] * initial.n
        pairs = zip(final.positions, final.species, initial.positions)
        return [(_ALL, 4 * (x - y) + (c == "2")) for x, c, y in pairs]

    return _LibraryEvent(lambda state: state == final, rows)
