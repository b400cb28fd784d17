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

Engine: :func:`final_state_sample` advances runs in lockstep blocks of
``_BLOCK`` runs, one numpy int64 row of positions and species digits per
run.  Each step draws a dwell and a particle for every live run, applies
the move, block and swap rules with masks, and retires the runs whose clock
has passed t, counting their final rows.  :func:`estimate_event` is that
histogram with the predicate applied once per distinct state, weighted by
its count.  The ``processes`` pool splits the runs into spans, one per
worker, and merges the histograms.

Random numbers: run r owns the SplitMix64 stream (Steele, Lea & Flood,
OOPSLA 2014) keyed by ``splitmix64(seed ^ splitmix64(r))``; its draw j is
the (j+1)-th output of that stream, computed counter-style in numpy
``uint64``.  Step k of a run uses draw 2k for the dwell, -log(1 - u)/N with
u the top 53 bits over 2^53, and draw 2k+1 for the particle, the draw
modulo N (a bias below N/2^64).  A run's final state therefore depends
only on (seed, r), so a (seed, runs) pair pins every histogram and
estimate bit-exactly, whatever the block size, the split of the runs into
spans, or the worker count.
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
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .contour import _check_time
from .formulas import Configuration, head_word

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# runs advanced together; sets only speed and temporary memory, never a value
_BLOCK = 2048


def _splitmix64(state: int) -> int:
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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


def _draws(keys: np.ndarray, j: int) -> np.ndarray:
    """Draw j of every stream: the SplitMix64 output at counter key + (j+1)*gamma."""
    return _mix64(keys + np.uint64(((j + 1) * _GAMMA) & _MASK64))


def substream(seed: int, run_index: int) -> random.Random:
    """Independent scalar RNG for one run, for the :func:`simulate_until` oracle."""
    return random.Random(_splitmix64((seed & _MASK64) ^ _splitmix64(run_index)))


@dataclass(frozen=True)
class SimulationEstimate:
    """Event-probability estimate with its binomial standard error."""

    estimate: float
    std_error: float
    runs: int
    seed: int
    elapsed: float


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


def _advance_block(
    initial: Configuration, t: float, keys: np.ndarray, finals: Counter
) -> None:
    """Advance one block of runs to time t and count their final rows in ``finals``.

    A run's row holds its n positions, a wall, its n species digits and a
    0.  The wall sits at the last particle's starting site, which that
    particle's target always exceeds, so particle i + 1 always exists and
    the wall never blocks.
    """
    n = initial.n
    ahead = n + 1  # from a particle's position to its species digit
    state = np.empty((len(keys), 2 * ahead), np.int64)
    state[:] = initial.positions + initial.positions[-1:] + tuple(map(int, initial.species + "0"))
    remaining = np.full(len(keys), t)
    step = 0
    while True:
        u = (_draws(keys, 2 * step) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        remaining -= -np.log(1.0 - u) / n
        done = remaining <= 0
        if done.any():
            finals.update(map(tuple, state[done].tolist()))
            keep = ~done
            if not keep.any():
                return
            keys, remaining, state = keys[keep], remaining[keep], state[keep]
        at = np.arange(0, state.size, 2 * ahead)
        at += (_draws(keys, 2 * step + 1) % np.uint64(n)).astype(np.int64)
        flat = state.reshape(-1)
        target = flat[at] + 1
        blocked = flat[at + 1] == target
        flat[at] = target - blocked
        # a blocked pair swaps exactly when it reads 21
        at += ahead
        swap = at[blocked & (flat[at] > flat[at + 1])]
        flat[swap] = 1
        flat[swap + 1] = 2
        step += 1


def _sample_span(
    initial: Configuration, t: float, seed: int, span: tuple[int, int]
) -> Counter[tuple[tuple[int, ...], str]]:
    """Histogram of the final states of runs span[0]..span[1]-1."""
    finals: Counter[tuple[int, ...]] = Counter()
    for lo in range(span[0], span[1], _BLOCK):
        _advance_block(initial, t, _run_keys(seed, lo, min(lo + _BLOCK, span[1])), finals)
    n = initial.n
    return Counter(
        {(row[:n], "".join(map(str, row[n + 1 : -1]))): c for row, c in finals.items()}
    )


def _chunk_ranges(runs: int, chunks: int) -> list[tuple[int, int]]:
    size, extra = divmod(runs, chunks)
    ranges, start = [], 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def _histogram(
    initial: Configuration, t: float, runs: int, seed: int, processes: int
) -> Counter[tuple[tuple[int, ...], str]]:
    t = _check_time(t)
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    processes = min(processes, runs)  # one worker per span, never an idle one
    if processes > 1:
        worker = partial(_sample_span, initial, t, seed)
        with multiprocessing.Pool(processes) as pool:
            parts = pool.map(worker, _chunk_ranges(runs, processes))
        total: Counter = Counter()
        for part in parts:
            total.update(part)
        return total
    return _sample_span(initial, t, seed, (0, runs))


def final_state_sample(
    initial: Configuration, t: float, runs: int, seed: int, processes: int = 1
) -> Counter[tuple[tuple[int, ...], str]]:
    """Histogram of (positions, species) states at time t over seeded runs.

    One batch serves every event probability at once, which is how the
    acceptance checks amortize a million runs across a whole x-sweep.
    Results are identical for every ``processes`` value: runs own their
    streams and counters merge commutatively.
    """
    return _histogram(initial, t, runs, seed, processes)


def estimate_event(
    initial: Configuration,
    predicate: Callable[[Configuration], bool],
    t: float,
    runs: int,
    seed: int,
    processes: int = 1,
) -> SimulationEstimate:
    """Fraction of seeded runs whose final state satisfies the predicate.

    The predicate is applied once per distinct final state of the
    :func:`final_state_sample` histogram, in this process, so any callable
    works with every ``processes`` value.  Both share one private entry
    point, so a wrapper around either public function sees each batch once.
    """
    start = time.perf_counter()
    counts = _histogram(initial, t, runs, seed, processes)
    hits = sum(c for (pos, spc), c in counts.items() if predicate(Configuration(pos, spc)))
    p = hits / runs
    return SimulationEstimate(
        estimate=p,
        std_error=math.sqrt(p * (1.0 - p) / runs),
        runs=runs,
        seed=seed,
        elapsed=time.perf_counter() - start,
    )


def _leftmost_check(x: int, state: Configuration) -> bool:
    return state.positions[0] == x and state.species == head_word(state.n)


def leftmost_event(x: int) -> Callable[[Configuration], bool]:
    """Predicate: species order still 21...1 and the leftmost particle at x."""
    return partial(_leftmost_check, x)


def _transition_check(positions: tuple[int, ...], species: str, state: Configuration) -> bool:
    return state.positions == positions and state.species == species


def transition_event(final: Configuration) -> Callable[[Configuration], bool]:
    """Predicate: the state equals the given configuration exactly."""
    return partial(_transition_check, final.positions, final.species)
