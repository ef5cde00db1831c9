"""The three benchmark workloads, driven through the library's public API.

Each workload builds a fixed list of items (one round's generated
inputs each) from the seed in ``setup``, runs one item per ``run`` call
and times it there, and checks the result in ``check``, outside the
timed interval.  ``pass_seconds`` is the time one pass over the items
took at the commit that introduced the benchmark (2-vCPU 2.0 GHz Xeon
VM); the number of timed passes is derived from it and ``--seconds``
alone, so that faster and slower code do the same work.  Set-up runs
``setup_repeats`` times: more often where it is short and so noisy.

Calls go through module attributes (``durability.X``, ``sharding.X``)
so that the traced run's wrappers see them.  Library defaults are used
everywhere, except that ``city_campaign`` asks for the streaming engine
while the online mechanism still takes that option, and the live
platform's journal skips ``os.fsync`` (``journal_options``); no matching
backend is ever named.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import pathlib
import pickle
import shutil
from time import perf_counter
from typing import Any, List, Optional

from repro import durability
from repro.experiments import sharding
from repro.experiments.config import MechanismSpec, paper_mechanisms
from repro.experiments.figures import (
    MEAN_COST_VALUES,
    PHONE_RATE_VALUES,
    SLOT_VALUES,
)
from repro.mechanisms import OnlineGreedyMechanism
from repro.simulation import SimulationEngine, WorkloadConfig

from gate import Gate, outcome_digest, sanitizer_problems


@dataclasses.dataclass
class Item:
    """One round's inputs. ``bids`` and ``slots`` size the round."""

    key: str
    bids: int
    slots: int
    payload: Any


@dataclasses.dataclass
class Round:
    """One timed round: its latency, per-slot latencies, and result.

    ``scale`` converts its times to the reference host speed; the
    runner sets it from the reference kernel timed around the round.
    """

    seconds: float
    slot_seconds: Optional[List[float]]
    result: Any
    scale: float = 1.0


def streaming_option() -> dict:
    """``engine="streaming"`` while the online mechanism accepts it."""
    parameters = inspect.signature(OnlineGreedyMechanism).parameters
    return {"engine": "streaming"} if "engine" in parameters else {}


def journal_options() -> dict:
    """``fsync="off"`` while the journal takes that option.

    Every record is still encoded, checksummed, written and flushed;
    only the ``os.fsync`` call is skipped.  On the shared virtual disk
    the benchmark was built on, the median fsync time of one round moved
    from 86 to 248 ms between 20-second windows of one process, more
    than all of the round's CPU time did.
    """
    parameters = inspect.signature(durability.Journal).parameters
    off = getattr(durability, "FSYNC_OFF", None)
    return {"fsync": off} if off and "fsync" in parameters else {}


def item_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def default_online(outcome):
    """``outcome``'s bids and schedule through the online mechanism at
    its default engine: the reference for the streaming engine."""
    return OnlineGreedyMechanism().run(outcome.bids, outcome.schedule)


def _dir_bytes(directory: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class PaperSweep:
    """Table I defaults over the Fig. 6-8 axes, both paper mechanisms."""

    name = "paper_sweep"
    repetitions = 4
    pass_seconds = 9.8
    setup_repeats = 7

    def setup(self, seed: int, scratch: pathlib.Path) -> List[Item]:
        self.engine = SimulationEngine()
        self.mechanisms = [spec.build() for spec in paper_mechanisms()]
        points = (
            [("num_slots", v) for v in SLOT_VALUES]
            + [("phone_rate", v) for v in PHONE_RATE_VALUES]
            + [("mean_cost", v) for v in MEAN_COST_VALUES]
        )
        base = WorkloadConfig.paper_default()
        items = []
        for rep in range(self.repetitions):
            for param, value in points:
                scenario = base.replace(**{param: value}).generate(
                    seed=item_seed(seed, len(items))
                )
                items.append(
                    Item(
                        f"{param}={value}/{rep}",
                        scenario.num_phones,
                        scenario.num_slots,
                        scenario,
                    )
                )
        return items

    def run(self, item: Item) -> Round:
        start = perf_counter()
        results = [self.engine.run(m, item.payload) for m in self.mechanisms]
        return Round(perf_counter() - start, None, results)

    def check(self, item: Item, results, gate: Gate, counts) -> List[str]:
        problems: List[str] = []
        welfare = {}
        for mechanism, result in zip(self.mechanisms, results):
            problems += sanitizer_problems(result.outcome, mechanism)
            problems += gate.digest_problems(
                f"{item.key}/{mechanism.name}", result.outcome
            )
            welfare[mechanism.is_online] = result.claimed_welfare
        # The online allocation is feasible offline, so the optimum is at
        # least its welfare (up to float summation order).
        slack = 1e-9 * max(1.0, abs(welfare[False]))
        if welfare[False] + slack < welfare[True]:
            problems.append(
                f"offline welfare {welfare[False]!r} < online "
                f"{welfare[True]!r}"
            )
        return problems


@dataclasses.dataclass
class LiveInputs:
    scenario: Any
    arrivals: List[list]  # bids arriving in slot t, at index t - 1
    task_counts: List[int]


@dataclasses.dataclass
class LiveResult:
    outcome: Any
    replayed: Any
    directory: pathlib.Path


class LivePlatform:
    """A closed-loop client driving ``JournaledPlatform`` slot by slot."""

    name = "live_platform"
    rounds = 6
    pass_seconds = 4.2
    setup_repeats = 7
    workload = WorkloadConfig(num_slots=100)

    def setup(self, seed: int, scratch: pathlib.Path) -> List[Item]:
        self.scratch = scratch
        self.journals = 0
        self.mechanism = OnlineGreedyMechanism()
        items = []
        for index in range(self.rounds):
            scenario = self.workload.generate(seed=item_seed(seed, index))
            arrivals: List[list] = [[] for _ in range(scenario.num_slots)]
            for bid in scenario.truthful_bids():
                arrivals[bid.arrival - 1].append(bid)
            task_counts = [
                len(scenario.schedule.tasks_in_slot(slot))
                for slot in range(1, scenario.num_slots + 1)
            ]
            items.append(
                Item(
                    f"round{index}",
                    scenario.num_phones,
                    scenario.num_slots,
                    LiveInputs(scenario, arrivals, task_counts),
                )
            )
        return items

    def run(self, item: Item) -> Round:
        inputs = item.payload
        directory = self.scratch / f"journal-{self.journals}"
        self.journals += 1
        value = self.workload.task_value
        slot_seconds = []
        start = perf_counter()
        journal = durability.Journal(directory, **journal_options())
        try:
            platform = durability.JournaledPlatform(journal, num_slots=item.slots)
            for arrivals, tasks in zip(inputs.arrivals, inputs.task_counts):
                for bid in arrivals:
                    platform.submit_bid(bid)
                if tasks:
                    platform.submit_tasks(tasks, value)
                slot_start = perf_counter()
                platform.close_slot()
                slot_seconds.append(perf_counter() - slot_start)
            outcome = platform.finalize()
        finally:
            journal.close()
        replayed = durability.replay_journal(directory)
        seconds = perf_counter() - start
        return Round(
            seconds, slot_seconds, LiveResult(outcome, replayed, directory)
        )

    def check(self, item: Item, result, gate: Gate, counts) -> List[str]:
        scenario = item.payload.scenario
        problems = sanitizer_problems(result.outcome, self.mechanism)
        problems += gate.digest_problems(item.key, result.outcome)
        problems += gate.reference_problems(
            item.key,
            result.outcome,
            lambda: self.mechanism.run(
                scenario.truthful_bids(), scenario.schedule
            ),
        )
        live = outcome_digest(result.outcome)
        replayed = (
            outcome_digest(result.replayed.outcome)
            if result.replayed.outcome is not None
            else None
        )
        if live != replayed:
            problems.append(f"live {live} and replayed {replayed} differ")
        if counts is not None:
            counts["auction.settlements"] += len(result.outcome.payments)
            counts["durability.journal.bytes"] += _dir_bytes(result.directory)
        shutil.rmtree(result.directory)
        return problems


class CityCampaign:
    """``run_sharded_campaign``: 8 cities x 2e4 phones, two rounds each.

    The rounds of one city per run, chosen by the seed, are also checked
    against the online mechanism at its default engine.
    """

    name = "city_campaign"
    cities = 8
    rounds_per_city = 2
    campaigns = 1
    pass_seconds = 3.6
    setup_repeats = 3
    workload = WorkloadConfig(num_slots=50, phone_rate=20_000 / 50)

    def __init__(self) -> None:
        self.workers = len(os.sched_getaffinity(0))

    def setup(self, seed: int, scratch: pathlib.Path) -> List[Item]:
        self.scratch = scratch
        self.checkpoints = 0
        self.reference_city = f"city-{seed % self.cities}"
        self.spec = MechanismSpec.of("online-greedy", **streaming_option())
        self.mechanism = self.spec.build()
        self.city_configs = tuple(
            sharding.CityConfig(
                f"city-{i}", self.workload, num_rounds=self.rounds_per_city
            )
            for i in range(self.cities)
        )
        # The bid count is known once the library has generated the
        # campaign; check() fills it in from the first result.
        return [
            Item(f"campaign{k}", 0, self.workload.num_slots, item_seed(seed, k))
            for k in range(self.campaigns)
        ]

    def run(self, item: Item) -> Round:
        directory = self.scratch / f"checkpoints-{self.checkpoints}"
        self.checkpoints += 1
        directory.mkdir()
        start = perf_counter()
        result = sharding.run_sharded_campaign(
            self.spec,
            self.city_configs,
            seed=item.payload,
            workers=self.workers,
            checkpoint_dir=directory,
        )
        return Round(perf_counter() - start, None, (result, directory))

    def check(self, item: Item, result, gate: Gate, counts) -> List[str]:
        campaign, directory = result
        problems: List[str] = []
        bids = 0
        for city, city_result in campaign.cities:
            rounds = city_result.rounds
            for index, round_result in enumerate(rounds):
                key = f"{item.key}/{city}/{index}"
                outcome = round_result.outcome
                bids += len(outcome.bids)
                problems += sanitizer_problems(outcome, self.mechanism)
                problems += gate.digest_problems(key, outcome)
                if city == self.reference_city:
                    problems += gate.reference_problems(
                        key, outcome, lambda: default_online(outcome)
                    )
            if city_result.total_welfare != sum(r.true_welfare for r in rounds):
                problems.append(f"{city}: total welfare != sum of rounds")
            if city_result.total_payment != sum(r.total_payment for r in rounds):
                problems.append(f"{city}: total payment != sum of rounds")
        if campaign.total_welfare != sum(
            c.total_welfare for _, c in campaign.cities
        ):
            problems.append("campaign welfare != sum of cities")
        item.bids = item.bids or bids
        if counts is not None:
            counts["durability.checkpoint.bytes"] += _dir_bytes(directory)
            counts["experiments.result.bytes"] += len(
                pickle.dumps(campaign, protocol=4)
            )
        shutil.rmtree(directory)
        return problems


WORKLOADS = {
    w.name: w for w in (PaperSweep, CityCampaign, LivePlatform)
}
