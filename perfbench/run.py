"""hamspec benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload exhaustive6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload run happens in a fresh interpreter (child.py) with BLAS and
OpenMP limited to one thread.  Set-up time is the median over that run and
SETUP_PROBES more interpreters that only set up.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Every result, with machine notes, is also
appended to .perfbench/results.jsonl; a traced run stores its deterministic
counters under .perfbench/counters/ and fails if an earlier traced run of
the same sources (src/ and perfbench/) and seed counted differently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s
OUT = ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; return its JSON line and its start time."""
    started = monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"child {' '.join(args)} did not finish before the deadline")
    if proc.returncode != 0:
        raise RunError(f"child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def source_digest() -> str:
    """Digest of the program and benchmark sources, which fix the counters."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE)):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def check_counters(workload: str, seed: int, digest: str, counters: list[dict]) -> str | None:
    """Counters must repeat across the units of this run and across runs."""
    if any(c != counters[0] for c in counters[1:]):
        return "deterministic counters differ between units of one run"
    os.makedirs(os.path.join(OUT, "counters"), exist_ok=True)
    path = os.path.join(OUT, "counters", f"{workload}-seed{seed}-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            if json.load(fh) != counters[0]:
                return f"deterministic counters differ from the earlier run stored in {path}"
        return None
    with open(path, "w", encoding="ascii") as fh:
        json.dump(counters[0], fh, sort_keys=True)
    return None


def load_spec() -> dict:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise RunError(f"cannot read BENCHMARK.json: {exc}") from exc


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    import workloads
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_PROBES):
        probe, started = spawn(base + ["--setup-only"], deadline)
        setups.append(probe["ready_at"] - started)
    os.makedirs(OUT, exist_ok=True)
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", os.path.join(OUT, f"spans-{name}.npz")]  # the last traced run
    child, started = spawn(base + extra, deadline)
    setups.append(child["ready_at"] - started)

    digest = source_digest()
    failures = list(child["failures"])
    counter_failure = trace and check_counters(name, seed, digest, child["counters"])
    if counter_failure:
        failures.append(counter_failure)
    values = child["per_layer"] if trace else dict(child, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    notes = dict(child["notes"], commit=git_commit(), source=digest, seed=seed,
                 workload=name, loop=workloads.WORKLOADS[name].loop, trace=trace,
                 seconds=seconds, units=child["units"], jobs_timed=child["jobs_timed"],
                 setup_samples=setups)
    return {
        "correct": child["failed"] == 0 and child["self_check_ok"] and not counter_failure,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "failures": failures,
        "shares": child["shares"],
        "notes": notes,
    }


def report(name: str, result: dict) -> None:
    notes = result["notes"]
    print(f"# workload {name} ({notes['loop']}), seed {notes['seed']}, "
          f"{notes['units']} unit(s), {notes['jobs_timed']} timed jobs")
    for key, metric in result["metrics"].items():
        print(f"{key:24s} {metric['value']:.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':24s} {ratio:.6g} ratio ({result['failed']} of {result['attempted']})")
    print("inputs: " + json.dumps(result["shares"], sort_keys=True))
    print("machine: " + json.dumps(notes, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(result, workload=name), sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "hamspec", "__init__.py")):
        print("error: run from the repository root; src/hamspec is missing", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        spec = load_spec()
        for name in names:
            result = run_workload(spec, name, args.seed, args.seconds, args.trace,
                                  monotonic() + DEADLINE_S)
            report(name, result)
            ok = ok and result["correct"]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
