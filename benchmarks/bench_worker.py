"""One pass of one workload, in a fresh process: set up, run, check, report.

    python3 benchmarks/bench_worker.py --workload NAME --seed N --trace 0|1 --pass K

Run from the root of a checkout; the package is imported from ``src`` of
that checkout and nowhere else.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

MODULES = ("bethe", "cli", "contour", "formulas", "identities", "permutations", "simulate")
SPANS_DIR = Path(".bench_out") / "spans"


def import_package(root: Path):
    """Import tasep2c from ``root/src``, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    pkg = types.SimpleNamespace(tasep2c=importlib.import_module("tasep2c"))
    if Path(pkg.tasep2c.__file__).resolve().parent != src / "tasep2c":
        raise ImportError(f"tasep2c imported from {pkg.tasep2c.__file__}, not {src}")
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"tasep2c.{name}"))
    return pkg


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time and exit")
    args = parser.parse_args()

    root = Path.cwd()
    import bench_probe
    import bench_workloads

    pkg = import_package(root)
    import numpy

    refs = bench_workloads.load_refs()
    queries = bench_workloads.build(args.workload, args.seed, pkg, refs)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install(pkg)

    latencies, outcomes = [], []
    clock = time.perf_counter
    probe = bench_probe.Probe(clock)
    probe.sample()
    loop_start = clock()
    cpu_start = time.process_time()
    for q in queries:
        if tracer is not None:
            tracer.qid = q.qid
        started = clock()
        try:
            result = bench_workloads.execute(q, pkg)
        except Exception as exc:  # a failed query is counted, not fatal
            latencies.append(clock() - started)
            outcomes.append((q.qid, False, None, f"{type(exc).__name__}: {exc}"))
        else:
            latencies.append(clock() - started)
            outcomes.append((q.qid, *bench_workloads.check(q, result)))
        probe.maybe_sample()
    # the probe's own time is no part of the workload's
    wall_s = clock() - loop_start - probe.spent_s
    cpu_s = time.process_time() - cpu_start - probe.spent_s
    probe.sample()

    failures = [o for o in outcomes if not o[1]]
    unexpected = [o for o in failures if not queries[o[0]].known_defect]
    digits = [o[2] for o in outcomes if o[2] is not None]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_s": probe.median_s(),
        "probe_samples": len(probe.samples),
        "latencies_s": latencies,
        "attempted": len(queries),
        "failed": len(failures),
        "failed_qids": [o[0] for o in failures],
        "unexpected_failures": [
            {"query": queries[qid].label, "note": note} for qid, _, _, note in unexpected
        ],
        "known_defect_failures": len(failures) - len(unexpected),
        "correct_digits": min(digits) if digits else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.workload == "mc-oracle":
        mc = [lat for q, lat in zip(queries, latencies) if q.module in ("simulate", "cli")]
        runs = sum(q.calls[0][0][2] if q.module == "simulate" else bench_workloads.MC_CLI_RUNS
                   for q in queries)
        report["mc_runs"] = runs
        report["mc_seconds"] = sum(mc)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        spans = root / SPANS_DIR / f"{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(root))
        report["span_count"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
