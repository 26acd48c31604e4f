"""One workload run inside a fresh interpreter; run.py starts it.

Set-up (importing numpy and hamspec, one LAPACK warm-up call and building
the workload's inputs) ends at `ready_at`, a CLOCK_MONOTONIC reading that the
parent compares with the moment it started this process.  With --setup-only
the process stops there.  Otherwise it repeats whole units of the workload
with tracing off until --seconds have passed and at least MIN_UNITS units
are done.  With --trace 1 it does one or more untraced units, then the same
again with tracing on.  The program's own caches are cleared before every
unit, so each unit starts as cold as a new `hamspec` invocation.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_UNITS = 2  # an untraced run times every job at least twice


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def clear_program_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "hamspec" or name.startswith("hamspec."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_unit(workload) -> list[dict]:
    from workloads import CliRun
    jobs = []
    for job in workload.jobs:
        start = time.perf_counter()
        try:
            value, failure = job.call(), None
        except Exception as exc:
            value, failure = None, f"{job.name}: raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if failure is None:
            try:
                failure = job.check(value)
            except Exception as exc:
                failure = f"{job.name}: gate raised {type(exc).__name__}: {exc}"
        jobs.append({"graphs": job.graphs, "seconds": seconds, "failure": failure,
                     "bytes": len(value.text) if isinstance(value, CliRun) else 0})
    return jobs


def measure(workload, seconds: float, min_units: int, tracer=None):
    """Units of work until `seconds` have passed and at least `min_units`
    are done; with a tracer, also the deterministic counters of each unit."""
    units, counters = [], []
    start = monotonic()
    while len(units) < min_units or monotonic() - start < seconds:
        clear_program_caches()
        if tracer is not None:
            before = tracer.snapshot()
        units.append(run_unit(workload))
        if tracer is not None:
            counters.append(tracer.counters_since(before, units[-1]))
    return units, counters


def job_seconds(units) -> float:
    return sum(j["seconds"] for unit in units for j in unit)


def per_layer(tracer, workload, traced, untraced) -> dict:
    """Per-unit layer metrics of the traced units."""
    table = tracer.layer_table()
    k = len(traced)
    count, total, own = 0, 1, 2  # fields of a layer_table row

    def spans(prefix: str, field: int, exclude: str = "") -> float:
        return sum(row[field] for name, row in table.items()
                   if name.startswith(prefix) and name != exclude) / k

    calls = spans("hamilton.", count)
    batch = workload.loop == "batch"
    return {
        "harness.graphs": sum(j["graphs"] for u in traced for j in u) / k if batch else 0,
        "harness.generate_s": spans("harness.graph_from_edge_mask", own),
        "harness.self_s": spans("harness.", own, "harness.graph_from_edge_mask"),
        "graph.constructions": spans("graph.Graph", count),
        "graph.construct_s": spans("graph.Graph", total),
        "spectral.eigensolves": spans("spectral.symmetric_eigen_max", count),
        "spectral.eigen_s": spans("spectral.symmetric_eigen_max", total),
        "spectral.matrix_s": spans("spectral.", own, "spectral.symmetric_eigen_max"),
        "certify.verdicts": spans("certify.apply_criterion", count),
        "certify.self_s": spans("certify.", own),
        "certify.predictions": tracer.predictions / k,
        "certify.ties": tracer.ties / k,
        "certify.min_margin": tracer.min_margin if tracer.min_margin != float("inf") else 0.0,
        "hamilton.calls": calls,
        "hamilton.s": spans("hamilton.", total),
        "hamilton.useful_ratio": tracer.useful_oracle / k / calls if calls else 0.0,
        "closure.calls": spans("closure.", count),
        "closure.s": spans("closure.", total),
        "graph6.parses": spans("graph6.parse_graph6", count),
        "graph6.parse_s": spans("graph6.parse_graph6", total),
        "graph6.writes": spans("graph6.write_graph6", count),
        "graph6.write_s": spans("graph6.write_graph6", total),
        "cli.self_s": spans("cli.", own),
        "cli.output_bytes": sum(j["bytes"] for u in traced for j in u) / k,
        "trace.overhead_s": job_seconds(traced) / k - job_seconds(untraced) / len(untraced),
    }


def machine_notes() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this .npz file")
    args = parser.parse_args()

    import numpy as np
    import hamspec
    np.linalg.eigvalsh(np.eye(2))  # LAPACK warm-up
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready_at = monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(hamspec.__file__).startswith(src + os.sep):
        raise SystemExit(f"hamspec imported from {hamspec.__file__}, not from {src}")

    # The traced run needs untraced units only as the base of the overhead.
    untraced, _ = measure(workload, args.seconds, 1 if args.trace else MIN_UNITS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [job for unit in untraced for job in unit]
    result = {
        "ready_at": ready_at,
        "units": len(untraced),
        "graphs_per_s": sum(j["graphs"] for j in runs) / job_seconds(untraced),
        "graph_ms_p50": statistics.median(1000 * j["seconds"] / j["graphs"] for j in runs),
        "jobs_timed": len(runs),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced, counters = measure(workload, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        runs += [job for unit in traced for job in unit]
        result["per_layer"] = per_layer(tracer, workload, traced, untraced)
        result["counters"] = counters
        if args.spans:
            tracer.save(args.spans)
    failures = [j["failure"] for j in runs if j["failure"]]
    check = workload.self_check()
    result.update({
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures[:5] + ([check] if check else []),
        "self_check_ok": check is None,
        "shares": workload.shares(),
        "notes": machine_notes(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
