"""Spans recorded from outside the program, at the calls between its layers.

`Tracer.install` replaces the module attributes through which hamspec's
layers call each other with wrappers that record a span (name, start, end,
parent) and return the original result; `uninstall` puts the originals back.
Spans stay in memory in flat arrays until the run ends.  A span is named
after the module that defines the wrapped function, which is its layer.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# module -> attributes wrapped there.  Missing attributes are skipped, so a
# later version of the program that drops one simply records no span for it.
WRAPPED = {
    "harness": ("validate", "validate_closure_equivalence", "graph_from_edge_mask",
                "apply_criterion", "hamilton_profile", "has_hamiltonian_path",
                "has_hamiltonian_cycle", "is_hamilton_connected", "k_closure",
                "write_graph6"),
    "certify": ("adjacency_spectral_radius", "signless_spectral_radius"),
    "spectral": ("symmetric_eigen_max",),
}
TIE = 1e-6  # |lhs - threshold| at or below this is an exact tie


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # set by the verdict and oracle hooks
        self.predictions = 0
        self.ties = 0
        self.min_margin = float("inf")
        self.unit_min_margin = float("inf")
        self.useful_oracle = 0
        self._oracle_needed = True

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, after=None, label=None):
        layer = fn.__module__.rsplit(".", 1)[-1]
        span = self._id(f"{layer}.{label or fn.__name__}")
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(span)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, after=None, label=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, after, label))

    def _verdict(self, verdict) -> None:
        from hamspec.certify import Prediction
        predicts = verdict.predicted is not Prediction.NO_PREDICTION
        self.predictions += predicts
        self._oracle_needed = predicts and verdict.exception is None
        margin = abs(verdict.lhs - verdict.threshold)
        if margin <= TIE:
            self.ties += 1
        elif margin < self.unit_min_margin:
            self.unit_min_margin = margin
            self.min_margin = min(self.min_margin, margin)

    def _oracle(self, _answer) -> None:
        # Inside `validate` the oracle answer is needed only when the verdict
        # just issued predicts without an exception tag; closure checks and
        # the CLI report every answer they compute.
        root = self._stack[1] if len(self._stack) > 1 else -1
        in_validate = root >= 0 and self.names[self.name[root]] == "harness.validate"
        self.useful_oracle += self._oracle_needed if in_validate else 1

    def install(self) -> None:
        from hamspec import certify, cli, graph, harness, spectral
        modules = {"harness": harness, "certify": certify, "spectral": spectral}
        hooks = {"apply_criterion": self._verdict, "hamilton_profile": self._oracle,
                 "has_hamiltonian_path": self._oracle, "has_hamiltonian_cycle": self._oracle,
                 "is_hamilton_connected": self._oracle}
        for module, attrs in WRAPPED.items():
            for attr in attrs:
                if hasattr(modules[module], attr):
                    self._patch(modules[module], attr, hooks.get(attr))
        # the CLI layer: its entry point and every hamspec function it imports
        self._patch(cli, "main")
        for attr, value in list(vars(cli).items()):
            if (callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", "").startswith("hamspec.")
                    and value.__module__ != "hamspec.cli"):
                self._patch(cli, attr, hooks.get(attr))
        self._patch(graph.Graph, "__init__", label="Graph")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> tuple:
        self.unit_min_margin = float("inf")
        return len(self.name), self.predictions, self.ties, self.useful_oracle

    def counters_since(self, before: tuple, jobs: list[dict]) -> dict:
        """The deterministic counters of the work done since `snapshot`."""
        lo, predictions, ties, useful = before
        margin = self.unit_min_margin
        return {
            "calls": {name: c for name, (c, _, _) in self.layer_table(lo).items() if c},
            "harness.graphs": sum(j["graphs"] for j in jobs),
            "cli.output_bytes": sum(j["bytes"] for j in jobs),
            "certify.predictions": self.predictions - predictions,
            "certify.ties": self.ties - ties,
            "certify.min_margin": margin if margin != float("inf") else None,
            "hamilton.useful": self.useful_oracle - useful,
        }

    def layer_table(self, lo: int = 0) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds) over the spans from lo on.

        Self time is a span's duration minus the durations of its children.
        """
        names = np.frombuffer(self.name, dtype=np.int32)[lo:]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:]
        dur = np.frombuffer(self.end)[lo:] - np.frombuffer(self.start)[lo:]
        nested = parents >= lo
        child = np.bincount(parents[nested] - lo, weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {n: (int(counts[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
