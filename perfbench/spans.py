"""In-memory spans around the public functions of each hoplite layer.

A span is (name, start, end, parent, request id). Wrappers are installed by
replacing a name at the place its caller looks it up, e.g. the
``score_pattern`` bound in ``hoplite.mcts``, so the program itself is never
edited. A name that no longer exists is reported as absent, not as an error.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _cache_outcome(result) -> str:
    return "miss" if result is None else "hit"


# (module[:class], attribute, span name, optional outcome suffix).
WRAPS = (
    ("hoplite.mcts", "score_pattern", "scoring.score", None),
    ("hoplite.mcts", "uct_select", "mcts.uct", None),
    ("hoplite.mcts", "simulate", "mcts.rollout", None),
    ("hoplite.mcts", "run_single_stage", "mcts.stage", None),
    ("hoplite.channel", "pattern_capacities", "channel.capacities", None),
    ("hoplite.orchestrator", "pattern_capacities", "channel.capacities", None),
    ("hoplite.traffic", "advance_slot", "traffic.advance", None),
    ("hoplite.orchestrator", "advance_slot", "traffic.advance", None),
    ("hoplite.orchestrator", "pattern_greedy", "baselines.greedy", None),
    ("hoplite.orchestrator", "plan_bhtp", "orchestrator.plan", None),
    ("hoplite.cache:BhtpCache", "lookup", "cache.lookup", _cache_outcome),
    ("hoplite.cache:BhtpCache", "key_for", "cache.key", None),
    ("hoplite.cache:BhtpCache", "store", "cache.store", None),
    ("hoplite.orchestrator:HybridPlanner", "handle_request", "orchestrator.handle", None),
)


class Tracer:
    """Collects spans from any thread; each thread keeps its own parent stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records: list[list] = []  # [name id, start, end, parent record, request]
        self.request_id = -1
        self._local = threading.local()
        self._installed: list[tuple] = []
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        stack = self._stack()
        record = [self.name_id(name), time.perf_counter(), 0.0,
                  stack[-1] if stack else None, self.request_id]
        self.records.append(record)
        stack.append(record)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, fn, name: str, outcome=None):
        nid = self.name_id(name)
        outcome_ids = (
            {s: self.name_id(f"{name}.{s}") for s in ("hit", "miss")} if outcome else None
        )
        records, clock, tracer = self.records, time.perf_counter, self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [nid, clock(), 0.0, stack[-1] if stack else None, tracer.request_id]
            records.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if outcome_ids is not None:
                record[0] = outcome_ids[outcome(result)]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, wraps=WRAPS):
        """Replace every listed name that exists; remember the absent ones."""
        for target, attr, name, outcome in wraps:
            module_name, _, class_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{target}.{attr}")
                continue
            if attr not in vars(owner):
                self.absent.append(f"{target}.{attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(original, name, outcome))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as flat arrays; parents as indices (-1 for a root span)."""
        index = {id(r): i for i, r in enumerate(self.records)}
        recs = self.records
        return {
            "name": np.array([r[0] for r in recs], dtype=np.int32),
            "start": np.array([r[1] for r in recs], dtype=float),
            "end": np.array([r[2] for r in recs], dtype=float),
            "parent": np.array(
                [index[id(r[3])] if r[3] is not None else -1 for r in recs], dtype=np.int64
            ),
            "request": np.array([r[4] for r in recs], dtype=np.int64),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its child
        spans; children on one thread nest, so they never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "count": int(mask.sum()),
                "total": float(dur[mask].sum()),
                "self": float((dur[mask] - child[mask]).sum()),
            }
        return out

    def write(self, path: Path, header: dict):
        """Save the spans (npz) and a JSON header naming the span ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), **self.arrays())
        meta = dict(header, names=self.names, absent=self.absent)
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
