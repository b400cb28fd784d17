"""tasep2c benchmark: time to an exact answer, MC throughput, traced layers.

    python3 benchmarks/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of a workload is a fresh
single-threaded process (cold caches, as every CLI invocation is) that
imports the package from ``src`` of the checkout, issues the workload's
queries in a closed loop and checks every result against a stored
reference.  Passes repeat until ``--seconds`` have gone by; medians over the
passes are reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and prints the per-layer counters, with the
per-layer self times and the tracing overhead in the report line.  The last
stdout line is the result object; the line before it is the full report.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_stats  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

#: End-to-end metrics in the result object.  The raw times other than
#: set-up, the latency percentiles and the rest are in the report line: on a
#: shared 2-core machine whose speed drifts over minutes, their run-to-run
#: spread came close to the largest bound allowed.  ``wall_in_probes`` is
#: ``wall_s`` over the speed probe's time in the same pass (bench_probe.py).
END_TO_END = {
    "setup_s": "s",
    "wall_in_probes": "probes",
    "peak_rss_mb": "MB",
}
#: Per-layer counters in the result object, with the direction an
#: optimisation should move them.  They repeat exactly for a given seed.  The
#: call counts fixed by the query list (formulas, identities, simulate, cli)
#: and every self time are in the report line instead: a layer a workload
#: never enters reads 0 s on every run.
PER_LAYER = {
    "permutations.enumerate_permutations.calls": "lower",
    "permutations.terms": "lower",
    "contour.exp_scaled_residue.calls": "lower",
    "contour.exp_scaled_residue.misses": "lower",
    "contour.residue_value.calls": "lower",
    "contour.residue_value.misses": "lower",
    "contour.multi_contour.calls": "lower",
    "contour.multi_contour.final_m_max": "lower",
    "contour.multi_contour.grid_evals": "lower",
    "bethe.SparseMatrix.matmul.calls": "lower",
    "bethe.two_site_embed.calls": "lower",
    "bethe.amplitude.calls": "lower",
    "bethe.braid_relations_hold.calls": "lower",
    "identities.points": "higher",
    "simulate.runs": "higher",
}
#: Processes that only set up, run before the passes, so that ``setup_s``
#: is a median over this many set-ups more than there are passes.
SETUP_ONLY_PASSES = 6
#: Stop starting passes once a run could not finish within this many seconds.
HARD_LIMIT_S = 150.0
PASS_TIMEOUT_S = 120.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TASEP2C_WORKERS", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_pass(root: Path, workload: str, seed: int, traced: bool, index: int,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "bench_worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0", "--pass", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=_child_env(), capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def failed_queries(passes: list[dict]) -> set[int]:
    """Queries that failed in any pass.

    Every pass issues the same query list, so a query is one attempt of the
    run however many passes fit in its time; this keeps ``attempted`` and
    ``failed`` a function of the seed alone.
    """
    return {qid for p in passes for qid in p["failed_qids"]}


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p["latencies_s"]]
    metrics = {
        "setup_s": median(setups),
        "wall_in_probes": median([p["wall_s"] / p["probe_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    digits = [p["correct_digits"] for p in passes if p["correct_digits"] is not None]
    extra = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "probe_ms": 1e3 * median([p["probe_s"] for p in passes]),
        "setup_samples": len(setups),
        "query_p50_ms": 1e3 * bench_stats.percentile(lat, 50.0),
        "query_p90_ms": 1e3 * bench_stats.percentile(lat, 90.0),
        "failed_frac": len(failed_queries(passes)) / passes[0]["attempted"],
        "correct_digits": min(digits) if digits else None,
        "latency_samples": len(lat),
        "p90_samples_beyond": bench_stats.beyond(len(lat), 90.0),
        "tail_percentile": bench_stats.tail_percentile(len(lat)),
    }
    if "mc_runs" in passes[0]:
        extra["mc_runs_per_s"] = (sum(p["mc_runs"] for p in passes)
                                  / sum(p["mc_seconds"] for p in passes))
    return metrics, extra


def layer_report(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    first = traced[0]["layers"]
    deterministic = [k for k in first if not k.endswith("_s") and k != "simulate.runs_per_s"]
    mismatched = sorted(k for p in traced[1:] for k in deterministic
                        if p["layers"][k] != first[k])
    medians = {k: median([p["layers"][k] for p in traced])
               for k in first if k.endswith("_s") or k == "simulate.runs_per_s"}
    report = {
        "counters": {k: first[k] for k in deterministic},
        "self_s_median": {k: v for k, v in medians.items() if k.endswith(".self_s")},
        "simulate.runs_per_s": medians["simulate.runs_per_s"],
        "computed": list(bench_trace.COMPUTED),
        "counters_repeat_exactly": not mismatched,
        "counter_mismatches": mismatched,
        "traced_passes": len(traced),
        "traced_wall_s": median([p["wall_s"] for p in traced]),
        "untraced_wall_s": median([p["wall_s"] for p in plain]),
        "spans_files": [p["spans_file"] for p in traced],
    }
    report["tracing_overhead_s"] = report["traced_wall_s"] - report["untraced_wall_s"]
    # the same difference with the machine's drift taken out (see bench_probe.py)
    report["tracing_overhead_in_probes"] = (
        median([p["wall_s"] / p["probe_s"] for p in traced])
        - median([p["wall_s"] / p["probe_s"] for p in plain]))
    return {k: first[k] for k in PER_LAYER}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tasep2c" / "__init__.py").is_file():
        print(f"benchmark: no package source at {root / 'src' / 'tasep2c'}; "
              "run from the root of a tasep2c checkout", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    min_passes = 3 if traced else 1
    start = time.monotonic()
    passes: list[tuple[bool, dict]] = []
    longest = 0.0
    try:
        setups = [run_pass(root, args.workload, args.seed, False, -1 - i, setup_only=True)["setup_s"]
                  for i in range(SETUP_ONLY_PASSES)]
        while True:
            elapsed = time.monotonic() - start
            # start another pass only if it would end nearer the deadline than not
            if len(passes) >= min_passes and (
                    elapsed + longest / 2 >= args.seconds or elapsed + longest > HARD_LIMIT_S):
                break
            kind = traced and len(passes) % 2 == 0  # traced runs go T, U, T, U, ...
            began = time.monotonic()
            passes.append((kind, run_pass(root, args.workload, args.seed, kind, len(passes))))
            longest = max(longest, time.monotonic() - began)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    plain = [p for kind, p in passes if not kind]
    traced_passes = [p for kind, p in passes if kind]
    everything = [p for _, p in passes]
    metrics, extra = end_to_end(plain, setups + [p["setup_s"] for _, p in passes])
    unexpected = [f for p in everything for f in p["unexpected_failures"]]
    # answers are deterministic: a query must pass or fail alike in every pass
    outcomes_repeat = all(p["failed_qids"] == everything[0]["failed_qids"] for p in everything)
    report = {
        "workload": args.workload,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": everything[0]["python"],
            "numpy": everything[0]["numpy"],
            "commit": git_commit(root),
            "seed": args.seed,
            "run_seconds": args.seconds,
            "passes": len(passes),
            "closed_loop_clients": 1,
        },
        "end_to_end": {**metrics, **extra},
        "known_defect_failures": everything[0]["known_defect_failures"],
        "outcomes_repeat_across_passes": outcomes_repeat,
        "unexpected_failures": unexpected[:20],
    }
    correct = not unexpected and outcomes_repeat
    if traced:
        values, layers = layer_report(traced_passes, plain)
        report["layers"] = layers
        correct = correct and layers["counters_repeat_exactly"]
        result_metrics = {k: {"value": v, "unit": "count"} for k, v in values.items()}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": everything[0]["attempted"],
        "failed": len(failed_queries(everything)),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
