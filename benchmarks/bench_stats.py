"""The benchmark's own arithmetic: percentiles, span self time, digit counts.

Kept free of any ``tasep2c`` import so the tests in this directory can check
it on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10
#: ``correct_digits`` never reads above this; rounding noise at the last
#: double digit must not look like a regression.
DIGITS_CAP = 15.0
#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def rank_index(count: int, q: float) -> int:
    """0-based nearest-rank index of the q-th percentile of ``count`` samples."""
    if count < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    # exact decimal arithmetic: 99.9 / 100 * 10_000 must be 9990, not 9990.000000000002
    return max(0, math.ceil(Fraction(str(q)) * count / 100) - 1)


def beyond(count: int, q: float) -> int:
    """Number of samples strictly above the nearest-rank q-th percentile."""
    return count - 1 - rank_index(count, q)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (an actual sample, never interpolated)."""
    ordered = sorted(samples)
    return ordered[rank_index(len(ordered), q)]


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_CANDIDATES:
        if count >= 1 and beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds (name, start, end, parent) tuples, with parent the index
    of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        out.append((end - start) - covered_length(children.get(i, ()), start, end))
    return out


def correct_digits(value: float, reference: float) -> float:
    """-log10 of the relative error (absolute when the reference is 0), in [0, cap]."""
    if value == reference:
        return DIGITS_CAP
    if not math.isfinite(value):
        return 0.0
    scale = abs(reference) if reference != 0 else 1.0
    err = abs(value - reference) / scale
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def within(value: float, reference: float, rtol: float, atol: float) -> bool:
    """|value - reference| <= rtol |reference| + atol."""
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference) + atol


def z_band_ok(hits: int, runs: int, p: float, z: float) -> bool:
    """Binomial estimate hits/runs lies within z standard errors of p.

    The band uses the null-model error sqrt(p (1 - p) / runs) plus half a
    count of continuity slack, so exact 0/1 probabilities compare strictly.
    """
    se = math.sqrt(max(p * (1.0 - p), 0.0) / runs)
    return abs(hits / runs - p) <= z * se + 0.5 / runs


def poisson_upper_tail(t: float, m: int, terms: int = 400) -> float:
    """P(Poisson(t) > m), summed over the first ``terms`` tail terms."""
    logs = (-t + k * math.log(t) - math.lgamma(k + 1) for k in range(m + 1, m + 1 + terms))
    return math.fsum(math.exp(v) for v in logs)
