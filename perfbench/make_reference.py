"""Regenerate the stored answers under perfbench/data/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the program on the inputs of seed 1 (DEFAULT_SEED) and stores what
the gates compare against: the pinned order-6 violation lists, the sampled
workload's reports and the oracle workloads' answer tables.  Every stored
answer is first confirmed with the independent code in reference.py.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def write(name: str, value) -> None:
    with open(os.path.join(workloads.DATA, name), "w", encoding="ascii") as fh:
        json.dump(value, fh, indent=1, sort_keys=True)
        fh.write("\n")


def rows_of_mask(n: int, mask: int) -> list[int]:
    rows = [0] * n
    for k, (i, j) in enumerate(ref.pairs(n)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def confirmed_not_hc(g6: str) -> bool:
    return not ref.hamilton_answers(*ref.decode_graph6(g6))[2]


def exhaustive6() -> None:
    from hamspec import CriterionId, harness
    violations = {}
    for criterion in CriterionId:
        report = harness.validate(criterion, [6])
        if not all(confirmed_not_hc(g6) for g6 in report.violations):
            raise SystemExit(f"{criterion.value}: a violation is not confirmed")
        if report.violations:
            violations[criterion.value] = list(report.violations)
    graphs = [(6, rows_of_mask(6, mask)) for mask in range(1 << 15)]
    write("exhaustive6.json", {"violations": violations, "shares": workloads.input_shares(graphs)})


def sampled(seed: int) -> None:
    workload = workloads.Sampled(seed)
    out = {}
    for job in workload.jobs:
        reports = job.call()
        failure = job.check(reports)
        if failure:
            raise SystemExit(failure)
        out[job.name] = [workloads.report_fields(r) for r in reports]
    write(f"sampled-seed{seed}.json", out)


def oracle(cls, seed: int) -> None:
    workload = cls(seed)
    table = []
    for (n, rows, g6), job in zip(workload.corpus, workload.jobs):
        failure = job.check(job.call())
        if failure:
            raise SystemExit(failure)
        answer = workload.answers[g6]
        answers = [answer["has_path"], answer["has_cycle"], answer["hamilton_connected"]]
        if tuple(answers) != ref.hamilton_answers(n, rows):
            raise SystemExit(f"{g6}: program answers {answers} are not confirmed")
        table.append([g6, *answers])
    write(f"{cls.name}-seed{seed}.json", table)


def main() -> None:
    # Build every workload as for a non-default seed, so that no stored
    # answer is read while the answers are being made.
    seed, workloads.DEFAULT_SEED = workloads.DEFAULT_SEED, None
    try:
        exhaustive6()
        sampled(seed)
        oracle(workloads.OracleDense, seed)
        oracle(workloads.OracleSparse, seed)
    finally:
        workloads.DEFAULT_SEED = seed


if __name__ == "__main__":
    main()
