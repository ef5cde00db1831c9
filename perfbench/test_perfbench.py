"""Tests of the benchmark itself (not collected by the repo's test suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import signal
import tempfile

import pytest

import run
import tracing
from gate import Gate
from repro.model import AuctionOutcome
from workloads import LivePlatform, PaperSweep


def _underpay_first_winner(result):
    """The offline result with one winner paid far below its cost."""
    outcome = result.outcome
    payments = outcome.payments
    winner = min(payments)
    payments[winner] -= 1000.0
    corrupted = AuctionOutcome(
        outcome.bids,
        outcome.schedule,
        outcome.allocation,
        payments,
        {phone: outcome.payment_slot(phone) for phone in payments},
    )
    return dataclasses.replace(result, outcome=corrupted)


def test_corrupted_outcome_counts_as_failed(tmp_path):
    workload = PaperSweep()
    item = workload.setup(0, tmp_path)[0]
    gate = Gate()
    assert run.attempt(workload, item, gate) is not None
    assert (gate.attempted, gate.failed) == (1, 0)

    honest_run = workload.run

    def corrupted_run(item):
        done = honest_run(item)
        done.result[0] = _underpay_first_winner(done.result[0])
        return done

    workload.run = corrupted_run
    assert run.attempt(workload, item, gate) is None
    assert (gate.attempted, gate.failed) == (2, 1)
    assert not gate.correct
    report = " ".join(gate.problems)
    assert "ir.underpaid-winner" in report and "digest" in report


def test_default_seed_needs_a_stored_digest(tmp_path):
    workload = PaperSweep()
    item = workload.setup(0, tmp_path)[0]
    gate = Gate({}, stored=True)
    assert run.attempt(workload, item, gate) is None
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "no stored digest" in " ".join(gate.problems)


def test_reference_mismatch_counts_as_failed(tmp_path):
    workload = LivePlatform()
    item = workload.setup(1, tmp_path)[0]
    gate = Gate()
    assert run.attempt(workload, item, gate) is not None
    gate.references[item.key] = "0" * 16  # a reference that disagrees
    assert run.attempt(workload, item, gate) is None
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "reference" in " ".join(gate.problems)


def test_raising_round_counts_as_failed(tmp_path):
    workload = PaperSweep()
    item = workload.setup(0, tmp_path)[0]
    workload.run = lambda item: 1 / 0
    gate = Gate()
    assert run.attempt(workload, item, gate) is None
    assert (gate.attempted, gate.failed) == (1, 1)



def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # A host running at half the reference speed: the kernel takes twice
    # REFERENCE_SECONDS, so every time is halved.
    monkeypatch.setattr(
        run, "kernel_seconds", lambda: 2 * run.REFERENCE_SECONDS
    )
    workload = PaperSweep()
    items = workload.setup(0, tmp_path)[:2]
    honest_run = workload.run

    def fixed_time_run(item):
        done = honest_run(item)
        return dataclasses.replace(done, seconds=0.5, slot_seconds=[0.1, 0.3])

    workload.run = fixed_time_run
    medians, slot_medians, scale = run.timed_phase(
        workload, items, Gate(), passes=1
    )
    assert medians == pytest.approx([0.25, 0.25])
    assert sorted(slot_medians) == pytest.approx([0.05, 0.05, 0.15, 0.15])
    assert scale == pytest.approx(0.5)


COUNTS = (
    "bench.rounds",
    "bench.bids",
    "auction.submit_bid.calls",
    "auction.close_slot.calls",
    "auction.settlements",
    "durability.journal.records",
    "durability.journal.bytes",
    "durability.journal.syncs",
)


def _counts(seed, tmp_path):
    gate = Gate()
    metrics = run.per_layer(LivePlatform.name, seed, tmp_path, gate)
    assert gate.correct, gate.problems
    return {name: metrics[name] for name in COUNTS}


def test_counts_repeat_for_a_seed_and_move_with_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = _counts(0, tmp_path)
    assert all(value > 0 for value in first.values()), first
    assert _counts(0, tmp_path) == first
    other = _counts(1, tmp_path)
    assert other["bench.bids"] != first["bench.bids"]
    assert other["durability.journal.bytes"] != first["durability.journal.bytes"]


def test_missing_trace_target_fails_the_traced_run(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", str(tmp_path)))
    gone = ("repro.matching.graph", "TaskAssignmentGraph.removed",
            "matching.removed", "matching", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    code = run.main(["--workload", LivePlatform.name, "--trace", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "TaskAssignmentGraph.removed" in captured.err


@pytest.mark.parametrize("values,q,want", [
    ([3.0, 1.0, 2.0], 50, 2.0),
    ([1.0, 2.0, 3.0, 4.0], 50, 2.5),
    ([1.0, 2.0], 90, 1.9),
    ([5.0], 90, 5.0),
])
def test_percentile_interpolates(values, q, want):
    assert run.percentile(values, q) == pytest.approx(want)


def test_helper_processes_are_stopped_and_reaped():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # the segment started the tracker
    run.stop_helper_processes()
    assert tracker._pid is None
    assert not os.path.exists(f"/proc/{pid}")
