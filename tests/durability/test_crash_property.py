"""The crash-recovery property: kill anywhere, recover byte-identically.

Both strict logs run over one record log with one crash-hook protocol
(:mod:`repro.durability.recordlog`), so one suite covers both clients:

* the write-ahead **journal** — a seeded faulty journaled round, resumed
  from its journal with :func:`~repro.durability.resume_round`;
* the **shard checkpoints** — a seeded two-city sharded campaign,
  resumed by re-running :func:`~repro.experiments.sharding.run_sharded_campaign`
  over its checkpoint directory.

For each seed and client the suite re-runs the workload once per log
write, simulating a process death *after every single write* (cycling
through all four corruption modes: clean kill, torn final record,
duplicated final record, flipped checksum byte), then recovers from the
log on disk.  The recovered result must be byte-identical (pickled
bytes) to the uncrashed run's — the durability layer's core guarantee.

CI rotates ``--crash-seed`` with the run number so every run explores a
fresh region of crash-schedule space.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.durability import (
    Journal,
    JournaledPlatform,
    execute_commands,
    resume_round,
    round_commands,
)
from repro.experiments.config import MechanismSpec
from repro.experiments.sharding import CityConfig, run_sharded_campaign
from repro.faults import (
    CRASH_MODES,
    CrashController,
    CrashPlan,
    FaultConfig,
    FaultInjector,
    SimulatedCrash,
    draw_crash_plan,
)
from repro.faults.recovery import apply_bid_faults
from repro.simulation import WorkloadConfig
from repro.utils.rng import RngStreams

#: Seeds per session; each seed exercises EVERY write index of its run.
NUM_SEEDS = 50

WORKLOAD = WorkloadConfig(
    num_slots=4,
    phone_rate=1.5,
    task_rate=1.0,
    mean_cost=10.0,
    mean_active_length=2,
    task_value=20.0,
)

FAULTS = FaultConfig(
    dropout_prob=0.3,
    task_failure_prob=0.25,
    bid_delay_prob=0.15,
    bid_loss_prob=0.1,
)


class JournalClient:
    """A seeded faulty round journaled by :class:`JournaledPlatform`."""

    def __init__(self, seed):
        scenario = WORKLOAD.generate(seed=seed)
        self.plan = FaultInjector(FAULTS).plan(scenario, seed=seed)
        bids, _, _ = apply_bid_faults(
            list(scenario.truthful_bids()), self.plan
        )
        self.scenario = scenario
        self.commands = round_commands(bids, scenario, self.plan)

    def run(self, directory, crash_hook=None):
        """The pickled outcome of the round journaled in ``directory``."""
        journal = Journal(directory, crash_hook=crash_hook)
        try:
            platform = JournaledPlatform(
                journal,
                num_slots=self.scenario.num_slots,
                max_reassignments=self.plan.config.max_reassignments,
            )
            outcome = execute_commands(platform, self.commands)
        finally:
            journal.close()
        assert outcome is not None
        return pickle.dumps(outcome)

    def recover(self, directory):
        """Reopen the journal (repairing any torn tail) and resume."""
        with Journal(directory) as journal:
            result = resume_round(
                journal,
                self.commands,
                num_slots=self.scenario.num_slots,
                max_reassignments=self.plan.config.max_reassignments,
            )
        return pickle.dumps(result.outcome)


class ShardCheckpointClient:
    """A seeded two-city sharded campaign streaming shard checkpoints."""

    SPEC = MechanismSpec.of("online-greedy")

    def __init__(self, seed):
        self.seed = seed
        self.cities = [
            CityConfig("east", WORKLOAD, num_rounds=3),
            CityConfig("west", WORKLOAD, num_rounds=2),
        ]

    def run(self, directory, crash_hook=None):
        """The pickled campaign checkpointed into ``directory``."""
        result = run_sharded_campaign(
            self.SPEC,
            self.cities,
            seed=self.seed,
            shards_per_city=2,
            checkpoint_dir=directory,
            checkpoint_crash_hook=crash_hook,
        )
        return pickle.dumps(result, protocol=4)

    def recover(self, directory):
        """Re-run the campaign: it resumes from the checkpoints."""
        return self.run(directory)


CLIENTS = {"journal": JournalClient, "shard-checkpoint": ShardCheckpointClient}


@pytest.fixture(scope="module", params=sorted(CLIENTS))
def client_kind(request):
    return request.param


@pytest.fixture(scope="module", params=range(NUM_SEEDS))
def crash_round(request, client_kind, crash_seed, tmp_path_factory):
    """``(seed, client, total_writes, uncrashed pickled result)``."""
    seed = crash_seed + request.param
    client = CLIENTS[client_kind](seed)
    base_dir = tmp_path_factory.mktemp(f"crash-{client_kind}-{seed}")
    counter = CrashController(CrashPlan(after_writes=sys.maxsize))
    baseline = client.run(base_dir / "baseline", crash_hook=counter)
    assert not counter.fired
    if client_kind == "journal":
        # commands + derived events
        assert counter.writes > len(client.commands)
    return seed, client, counter.writes, baseline


class TestCrashAfterEveryWrite:
    def test_recovery_is_byte_identical_at_every_write_index(
        self, crash_round, tmp_path
    ):
        seed, client, total_writes, expected = crash_round
        for index in range(1, total_writes + 1):
            mode = CRASH_MODES[index % len(CRASH_MODES)]
            directory = tmp_path / f"write-{index}"
            controller = CrashController(
                CrashPlan(
                    after_writes=index,
                    mode=mode,
                    torn_fraction=0.3 + 0.4 * (index % 2),
                    flip_offset=index % 64,
                )
            )
            with pytest.raises(SimulatedCrash):
                client.run(directory, crash_hook=controller)
            assert controller.fired, (
                f"seed {seed}: crash at write {index} never fired"
            )
            recovered = client.recover(directory)
            assert recovered == expected, (
                f"seed {seed}: recovery after {mode} crash at write "
                f"{index}/{total_writes} diverged from the uncrashed run"
            )


class TestSeededCrashPlans:
    def test_drawn_plan_recovers_byte_identically(self, crash_round, tmp_path):
        seed, client, total_writes, expected = crash_round
        crash_plan = draw_crash_plan(
            RngStreams(seed), total_writes=total_writes
        )
        directory = tmp_path / "drawn"
        with pytest.raises(SimulatedCrash):
            client.run(directory, crash_hook=CrashController(crash_plan))
        recovered = client.recover(directory)
        assert recovered == expected, (
            f"seed {seed}: drawn plan {crash_plan} diverged"
        )

    def test_draw_is_deterministic_per_seed(self, crash_seed):
        first = draw_crash_plan(RngStreams(crash_seed + 1), total_writes=40)
        second = draw_crash_plan(RngStreams(crash_seed + 1), total_writes=40)
        assert first == second
        assert 1 <= first.after_writes <= 40
        assert first.mode in CRASH_MODES

    def test_plan_round_trips_through_dict(self, crash_seed):
        plan = draw_crash_plan(RngStreams(crash_seed), total_writes=25)
        assert CrashPlan.from_dict(plan.to_dict()) == plan
