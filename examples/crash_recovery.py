#!/usr/bin/env python
"""Crash-consistent journaling: kill a round mid-write, recover, resume.

A mobile-crowdsourcing platform is long-running infrastructure: bids,
dropouts, and task announcements arrive over hours, and the process
operating the auction can die at any instant — including halfway
through writing its own log.  This example shows the repo's durability
layer end to end:

1. run a fault-injected round through a :class:`JournaledPlatform`
   that journals every command to a write-ahead log *before* applying
   it (a hash-chained, fsync'd JSONL record log);
2. kill the process (simulated) after an arbitrary journal write, with
   the final record torn in half — the classic crash signature;
3. recover: re-open the journal (the torn tail is detected via the
   hash chain and truncated), deterministically replay the surviving
   prefix, and resume the round to completion;
4. verify the resumed outcome is **byte-identical** to the outcome of
   an uninterrupted run, and that an independent replay of the final
   journal reproduces it again.

Run:  python examples/crash_recovery.py
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

from repro import WorkloadConfig
from repro.durability import (
    Journal,
    JournaledPlatform,
    execute_commands,
    replay_journal,
    resume_round,
    round_commands,
    scan_journal,
)
from repro.faults import (
    CrashController,
    CrashPlan,
    FaultConfig,
    FaultInjector,
    SimulatedCrash,
)
from repro.faults.recovery import apply_bid_faults

WORKLOAD = WorkloadConfig(
    num_slots=6,
    phone_rate=2.5,
    task_rate=1.5,
    mean_cost=10.0,
    mean_active_length=3,
    task_value=20.0,
)

FAULTS = FaultConfig(dropout_prob=0.25, task_failure_prob=0.2)

SEED = 7
CRASH_AFTER_WRITES = 23  # die mid-round, tearing the 23rd record


def build_round():
    """The faulty round under test: scenario, fault plan, commands."""
    scenario = WORKLOAD.generate(seed=SEED)
    plan = FaultInjector(FAULTS).plan(scenario, seed=SEED)
    bids, lost, _ = apply_bid_faults(list(scenario.truthful_bids()), plan)
    commands = round_commands(bids, scenario, plan)
    print(
        f"round: {scenario.num_phones} phones, {scenario.num_tasks} "
        f"tasks, {scenario.num_slots} slots; {len(lost)} bids lost, "
        f"{len(commands)} platform commands"
    )
    return scenario, plan, commands


def run_round(directory, scenario, plan, commands, crash_hook=None):
    """Drive the round through a journaling platform."""
    journal = Journal(directory, crash_hook=crash_hook)
    try:
        platform = JournaledPlatform(
            journal,
            num_slots=scenario.num_slots,
            max_reassignments=plan.config.max_reassignments,
        )
        outcome = execute_commands(platform, commands)
    finally:
        journal.close()
    return outcome


def main(journal_root: Path) -> None:
    scenario, plan, commands = build_round()

    # -- 1. the uninterrupted reference run --------------------------------
    reference = run_round(
        journal_root / "reference", scenario, plan, commands
    )
    print(
        f"\nreference run: {len(reference.winners)} winners, total "
        f"payment {reference.total_payment:.2f}"
    )

    # -- 2. the crashing run ----------------------------------------------
    crash_dir = journal_root / "crashed"
    controller = CrashController(
        CrashPlan(
            after_writes=CRASH_AFTER_WRITES, mode="torn", torn_fraction=0.5
        )
    )
    try:
        run_round(crash_dir, scenario, plan, commands, crash_hook=controller)
        raise SystemExit("the simulated crash never fired")
    except SimulatedCrash:
        pass
    scan = scan_journal(crash_dir)
    print(
        f"\nsimulated kill after write {CRASH_AFTER_WRITES}: journal "
        f"holds {len(scan.records)} intact records"
        + (
            f" plus a torn tail ({scan.truncated_bytes} bytes, "
            f"{scan.torn_reason})"
            if scan.torn
            else ""
        )
    )

    # -- 3. recover and resume --------------------------------------------
    with Journal(crash_dir) as journal:  # open() truncates the torn tail
        result = resume_round(
            journal,
            commands,
            num_slots=scenario.num_slots,
            max_reassignments=plan.config.max_reassignments,
        )
    print(
        f"recovered: replayed {result.replayed_commands} journaled "
        f"commands, executed the remaining {result.executed_commands}"
    )

    # -- 4. verify ---------------------------------------------------------
    identical = pickle.dumps(result.outcome) == pickle.dumps(reference)
    print(
        f"\nresumed outcome byte-identical to uninterrupted run: "
        f"{identical}"
    )
    if not identical:
        raise SystemExit("recovery diverged from the reference run")

    replayed = replay_journal(crash_dir)
    assert pickle.dumps(replayed.outcome) == pickle.dumps(reference)
    print(
        f"independent replay of the recovered journal "
        f"({len(replayed.records)} records) reproduces it byte-for-byte"
    )
    print(
        "\ninspect any journal directory with:\n"
        "  python -m repro verify-log <journal_dir>\n"
        "  python -m repro replay <journal_dir>"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
