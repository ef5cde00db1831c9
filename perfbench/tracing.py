"""Spans around the calls into each layer, recorded from outside.

``install`` replaces each target in ``TARGETS`` by a wrapper, both where
it is defined and in every ``repro`` module that imported it by name,
and ``uninstall`` puts the originals back.  A wrapper records a span
(name, layer, start, end, parent, round) only on the thread that made
the tracer and only inside a root span, so gate checks run between
rounds stay out of the trace.  Spans live in memory until ``write``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "simulation",
    "model",
    "mechanisms",
    "matching",
    "metrics",
    "auction",
    "durability",
    "experiments",
)


def _count_packed_bytes(counts, size: int) -> None:
    counts["model.columnar.bytes"] += size


#: (module, attribute path, span name, layer, hook on the return value).
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.simulation.workload", "WorkloadConfig.generate",
     "simulation.generate", "simulation", None),
    ("repro.simulation.workload", "WorkloadConfig.generate_columns",
     "simulation.generate", "simulation", None),
    ("repro.simulation.scenario", "Scenario.truthful_bids",
     "simulation.bids", "simulation", None),
    ("repro.simulation.engine", "SimulationEngine.run",
     "simulation.engine_run", "simulation", None),
    ("repro.model.columnar", "pack_rounds_into",
     "model.columnar.pack", "model", None),
    ("repro.model.columnar", "packed_size", "model.columnar.size", "model",
     _count_packed_bytes),
    ("repro.model.columnar", "unpack_rounds",
     "model.columnar.unpack", "model", None),
    ("repro.model.columnar", "RoundColumns.decode_bids",
     "model.columnar.decode", "model", None),
    ("repro.model.columnar", "RoundColumns.decode_profiles",
     "model.columnar.decode", "model", None),
    ("repro.model.columnar", "RoundColumns.decode_schedule",
     "model.columnar.decode", "model", None),
    ("repro.model.round_config", "RoundConfig.validate_bids",
     "model.validate_bids", "model", None),
    ("repro.mechanisms.offline_vcg", "OfflineVCGMechanism.run",
     "mechanisms.offline.run", "mechanisms", None),
    ("repro.mechanisms.online_greedy", "OnlineGreedyMechanism.run",
     "mechanisms.online.run", "mechanisms", None),
    ("repro.matching.graph", "TaskAssignmentGraph.solve",
     "matching.solve", "matching", None),
    ("repro.matching.graph", "TaskAssignmentGraph.welfare_without_phone",
     "matching.without_phone", "matching", None),
    ("repro.simulation.engine", "SimulationEngine.package",
     "metrics.package", "metrics", None),
    ("repro.auction.platform", "CrowdsourcingPlatform.submit_bid",
     "auction.submit_bid", "auction", None),
    ("repro.auction.platform", "CrowdsourcingPlatform.submit_tasks",
     "auction.submit_tasks", "auction", None),
    ("repro.auction.platform", "CrowdsourcingPlatform.close_slot",
     "auction.close_slot", "auction", None),
    ("repro.auction.platform", "CrowdsourcingPlatform.finalize",
     "auction.finalize", "auction", None),
    ("repro.durability.journaled", "JournaledPlatform.submit_bid",
     "durability.journaled.submit_bid", "durability", None),
    ("repro.durability.journaled", "JournaledPlatform.submit_tasks",
     "durability.journaled.submit_tasks", "durability", None),
    ("repro.durability.journaled", "JournaledPlatform.close_slot",
     "durability.journaled.close_slot", "durability", None),
    ("repro.durability.journaled", "JournaledPlatform.finalize",
     "durability.journaled.finalize", "durability", None),
    ("repro.durability.journal", "Journal.append",
     "durability.journal.append", "durability", None),
    ("repro.durability.journal", "Journal.sync",
     "durability.journal.sync", "durability", None),
    ("repro.durability.replay", "replay_journal",
     "durability.replay", "durability", None),
    ("repro.experiments.sharding", "run_sharded_campaign",
     "experiments.campaign", "experiments", None),
)

def _resolve(module_name: str, path: str):
    """The owner of ``path`` in ``module_name``, its parent names, the
    attribute name and the raw attribute (``None`` if it is gone)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        owner = None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, parents, attr, getattr(owner, "__dict__", {}).get(attr)


def missing_targets() -> List[str]:
    """The ``TARGETS`` that no longer exist in the library."""
    return [
        f"{module_name}.{path}"
        for module_name, path, *_ in TARGETS
        if _resolve(module_name, path)[3] is None
    ]


# Span fields, by position.
NAME, LAYER, START, END, PARENT, ROUND, NESTED = range(7)


class Tracer:
    """In-memory spans plus counters, recorded on one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[int] = []
        self._active: collections.Counter = collections.Counter()
        self._round: Optional[str] = None
        self._thread = threading.get_ident()
        self._restore: List[Tuple[object, str, object]] = []

    def _open(self, name: str, layer: Optional[str]) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, layer, perf_counter(), 0.0, parent, self._round,
             self._active[name] > 0]
        )
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        self._stack.pop()
        self._active[span[NAME]] -= 1

    @contextmanager
    def root(self, round_id: str):
        """A root span: ``round_id`` "setup" or a round's key."""
        self._round = round_id
        index = self._open("root", None)
        try:
            yield
        finally:
            self._close(index)
            self._round = None

    def wrap(self, fn, name: str, layer: str, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (
                tracer._round is None
                or threading.get_ident() != tracer._thread
            ):
                return fn(*args, **kwargs)
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, layer, hook in TARGETS:
            owner, parents, attr, raw = _resolve(module_name, path)
            if raw is None:
                raise LookupError(f"trace target missing: {module_name}.{path}")
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, raw, staticmethod(
                    self.wrap(raw.__func__, name, layer, hook)))
                continue
            wrapped = self.wrap(raw, name, layer, hook)
            self._patch(owner, attr, raw, wrapped)
            if not parents:  # a function: patch every import site too
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr: str, raw, new) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "round": span[ROUND],
                }) + "\n")


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-name inclusive seconds and calls, per-layer self time.

    A span's self time is its duration less its children's durations.
    Layer self times cover round trees only (not the traced set-up), so
    they plus ``trace.unattributed.s`` (the root spans' self time) add up
    to ``trace.round.s``.  A span nested in one of the same name adds
    calls but no inclusive time, so recursion is not counted twice.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    seconds: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.defaultdict(int)
    for layer in LAYERS:
        seconds[f"layer.{layer}.self.s"] = 0.0
        calls[f"layer.{layer}.calls"] = 0
    for key in ("trace.round.s", "trace.unattributed.s", "trace.setup.s"):
        seconds[key] = 0.0
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        own = duration - children[index]
        in_round = span[ROUND] != "setup"
        if span[LAYER] is None:
            if in_round:
                seconds["trace.round.s"] += duration
                seconds["trace.unattributed.s"] += own
            else:
                seconds["trace.setup.s"] += duration
            continue
        calls[f"{span[NAME]}.calls"] += 1
        if not span[NESTED]:
            seconds[f"{span[NAME]}.s"] += duration
        if in_round:
            seconds[f"layer.{span[LAYER]}.self.s"] += own
            calls[f"layer.{span[LAYER]}.calls"] += 1
    return {**seconds, **calls}
