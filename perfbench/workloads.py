"""The benchmark's four workloads: their inputs, timed jobs and correctness gates.

A workload is built from the benchmark seed (that is its set-up) and then
offers a list of jobs.  One pass over the list is a unit of work; every unit
repeats the same inputs.  A job is one call into the program, timed on its
own, with a gate that returns a failure text or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DEFAULT_SEED = 1  # the seed whose full answers are stored under data/


def load_data(name: str):
    with open(os.path.join(DATA, name), encoding="ascii") as fh:
        return json.load(fh)


@dataclass
class Job:
    name: str
    graphs: int                           # graph checks the job makes
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure text, or None when correct


@dataclass
class CliRun:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliRun:
    from hamspec import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, out.getvalue())


def report_fields(report) -> dict:
    fields = report.to_json_dict()
    fields.pop("elapsed_ms")
    return fields


def check_report(report, graphs: int, expected: list[str] | None = None,
                 genuine: Callable[[str], bool] | None = None) -> str | None:
    """Gate for one validation report.

    `expected`, when given, is the exact sorted violation list.  Otherwise a
    violation is allowed only when `genuine` confirms it.
    """
    if report.graphs_checked != graphs:
        return f"{report.criterion}: checked {report.graphs_checked} graphs, expected {graphs}"
    found = list(report.violations)
    if expected is not None:
        if found != expected:
            return f"{report.criterion}: {len(found)} violations differ from the {len(expected)} pinned"
        return None
    bad = [v for v in found if genuine is None or not genuine(v)]
    if bad:
        return f"{report.criterion}: unexpected violation {bad[0]}"
    return None


def _not_hamilton_connected(g6: str) -> bool:
    """A reported Hamilton-connectivity violation is genuine."""
    return not ref.hamilton_answers(*ref.decode_graph6(g6))[2]


def check_oracle(n: int, rows: list[int], oracle) -> str | None:
    """Gate for one oracle answer: the witness and the answers agree."""
    if not isinstance(oracle, dict):
        return "no oracle answer"
    path, cycle, hc = oracle["has_path"], oracle["has_cycle"], oracle["hamilton_connected"]
    witness, pair = oracle["witness_path"], oracle["failing_pair"]
    if path != (witness is not None):
        return "has_path disagrees with the witness"
    if witness is not None and not ref.is_spanning_path(n, rows, witness):
        return f"witness {witness} is not a spanning path"
    if (hc and n >= 3 and not cycle) or (cycle and not path):
        return "answers violate Hamilton-connected => cycle => path"
    if (pair is None) != hc:
        return "failing_pair must be absent exactly when Hamilton-connected"
    if pair is not None and not (len(pair) == 2 and pair[0] != pair[1]
                                 and all(0 <= v < n for v in pair)):
        return f"failing_pair {pair} is not a pair of distinct vertices"
    return None


def validation_gate_self_check() -> str | None:
    """The validation gate must flag a run with a fault injected."""
    from hamspec import CriterionId, harness
    report = harness.validate(CriterionId.T33_SignlessHC, [5], threshold_shift=-1.0)
    if check_report(report, 1 << 10, []) is None:
        return "the validation gate passed a run made with threshold_shift=-1.0"
    return None


class Exhaustive6:
    """`validate` for all six criteria over every labeled order-6 graph."""

    name = "exhaustive6"
    loop = "batch"
    GRAPHS = 1 << 15

    def __init__(self, seed: int):
        from hamspec import CriterionId
        # Every labeled order-6 graph: the seed does not change the input.
        self.pinned = load_data("exhaustive6.json")
        self.jobs = [self._job(c) for c in CriterionId]

    def _job(self, criterion) -> Job:
        from hamspec import harness
        expected = self.pinned["violations"].get(criterion.value, [])
        return Job(criterion.value, self.GRAPHS,
                   lambda: harness.validate(criterion, [6]),
                   lambda report: check_report(report, self.GRAPHS, expected))

    def self_check(self) -> str | None:
        return validation_gate_self_check()

    def shares(self) -> dict:
        return self.pinned["shares"]


class Sampled:
    """`validate` in RANDOM_SAMPLE mode and the closure-equivalence sweep."""

    name = "sampled"
    loop = "batch"
    ORDERS = (8, 9, 10)
    P_VALUES = (0.5, 0.9)
    SAMPLES = 25  # per order and edge probability

    def __init__(self, seed: int):
        from hamspec import CriterionId
        rng = random.Random(f"{self.name}/{seed}")
        # One program seed per call, so no oracle answer is shared between
        # criteria through the program's caches.
        self.seeds = {(c, p): rng.randrange(1, 1 << 31)
                      for c in [*CriterionId, "ClosureEquivalence"] for p in self.P_VALUES}
        self.reference = load_data(f"sampled-seed{seed}.json") if seed == DEFAULT_SEED else None
        self.jobs = [self._criterion_job(c) for c in CriterionId] + [self._closure_job()]

    def _calls(self, key, fn) -> Job:
        graphs = len(self.ORDERS) * self.SAMPLES
        name = getattr(key, "value", key)
        # T34's boundary counterexamples recur at every order; the surplus
        # criteria are sound from order 7 on.
        genuine = _not_hamilton_connected if name == "T34_ComplementSignlessHC" else None

        def call():
            return [fn(p, self.seeds[key, p]) for p in self.P_VALUES]

        def check(reports):
            for report in reports:
                failure = check_report(report, graphs, genuine=genuine)
                if failure:
                    return failure
            if self.reference is not None and \
                    [report_fields(r) for r in reports] != self.reference[name]:
                return f"{name}: reports differ from the stored seed-{DEFAULT_SEED} reports"
            return None

        return Job(name, graphs * len(self.P_VALUES), call, check)

    def _criterion_job(self, criterion) -> Job:
        from hamspec import ValidationMode, harness
        return self._calls(criterion, lambda p, seed: harness.validate(
            criterion, self.ORDERS, ValidationMode.RANDOM_SAMPLE,
            samples=self.SAMPLES, p=p, seed=seed))

    def _closure_job(self) -> Job:
        from hamspec import ValidationMode, harness
        return self._calls("ClosureEquivalence", lambda p, seed: harness.validate_closure_equivalence(
            self.ORDERS, ValidationMode.RANDOM_SAMPLE, samples=self.SAMPLES, p=p, seed=seed))

    def self_check(self) -> str | None:
        return validation_gate_self_check()

    def shares(self) -> dict:
        """Shares over the closure-equivalence inputs, from the reference code."""
        graphs = [(n, rows) for p in self.P_VALUES
                  for i, n in enumerate(self.ORDERS)
                  for rows in ref.lcg_gnp(n, p, self.SAMPLES, self.seeds["ClosureEquivalence", p] + i)]
        return input_shares(graphs)


def input_shares(graphs, hc=None) -> dict:
    """Share with a complete (n+1)-closure and share Hamilton-connected.

    `hc` holds the answers already known, when they are not to be computed.
    """
    if hc is None:
        hc = [ref.hamilton_answers(n, rows)[2] for n, rows in graphs]
    complete = sum(ref.closure_is_complete(n, rows, n + 1) for n, rows in graphs)
    return {"graphs": len(graphs), "closure_complete": complete / len(graphs),
            "hamilton_connected": sum(hc) / len(hc) if hc else None}


class OracleLoop:
    """`hamspec analyze --g6 ...`, one graph per call, one client, closed loop."""

    loop = "closed loop, one client"
    STRATA: tuple = ()  # (count, generator(rng) -> (n, rows))

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.corpus = []
        for count, make in self.STRATA:
            for _ in range(count):
                n, rows = make(rng)
                self.corpus.append((n, rows, ref.encode_graph6(n, rows)))
        self.reference = (dict((g6, answers) for g6, *answers in load_data(f"{self.name}-seed{seed}.json"))
                          if seed == DEFAULT_SEED else None)
        self.answers: dict[str, dict] = {}
        self.jobs = [self._job(n, rows, g6) for n, rows, g6 in self.corpus]

    def _job(self, n, rows, g6) -> Job:
        def check(run: CliRun):
            if run.code != 0:
                return f"{g6}: exit code {run.code}"
            payload = json.loads(run.text)
            if payload.get("graph6") != g6:
                return f"{g6}: report names graph {payload.get('graph6')}"
            oracle = payload.get("oracle")
            failure = check_oracle(n, rows, oracle)
            if failure:
                return f"{g6}: {failure}"
            self.answers[g6] = oracle
            answers = [oracle["has_path"], oracle["has_cycle"], oracle["hamilton_connected"]]
            if self.reference is not None and self.reference.get(g6) != answers:
                return f"{g6}: answers {answers} differ from the stored {self.reference.get(g6)}"
            return None

        return Job(g6, 1, lambda: run_cli(["analyze", "--g6", g6]), check)

    def self_check(self) -> str | None:
        n, rows, g6 = self.corpus[0]
        good = self.answers.get(g6)
        if good is None:
            return "no answer to build the gate self-check from"
        flipped = dict(good, hamilton_connected=not good["hamilton_connected"])
        cut = dict(good, has_path=True, witness_path=list(range(n - 1)))
        if check_oracle(n, rows, flipped) is None or check_oracle(n, rows, cut) is None:
            return "the oracle gate passed a tampered answer"
        return None

    def shares(self) -> dict:
        return input_shares([(n, rows) for n, rows, _ in self.corpus],
                            [a["hamilton_connected"] for a in self.answers.values()])


def _gnm(n: int, m: int):
    return lambda rng: (n, ref.connected_gnm(rng, n, m))


def _regular(n: int, d: int):
    return lambda rng: (n, ref.connected_regular(rng, n, d))


class OracleDense(OracleLoop):
    # G(n, 1/2) conditioned on its mean edge count: the DP's cost at fixed n
    # swings with the edge count, and that swing would drown a change.  The
    # median call falls well inside the order-14 stratum.
    name = "oracle-dense"
    STRATA = ((15, _gnm(14, 45)), (4, _gnm(15, 52)), (2, _gnm(16, 60)))


class OracleSparse(OracleLoop):
    # Sparse graphs whose closures are never complete, so the full DP runs.
    # The median call falls well inside the 3-regular order-18 stratum; the
    # order-20 stratum sets the table size and so the peak memory.
    name = "oracle-sparse"
    STRATA = ((16, _regular(18, 3)), (1, _regular(18, 4)), (2, _regular(20, 3)), (2, _gnm(18, 46)))


WORKLOADS = {w.name: w for w in (Exhaustive6, Sampled, OracleDense, OracleSparse)}
