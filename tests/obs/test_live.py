"""Live telemetry: heartbeat cadence, sidecar merging, transparency."""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro import obs
from repro.auction.multi_round import run_campaign
from repro.mechanisms import OnlineGreedyMechanism
from repro.obs import (
    HEARTBEAT_SCHEMA,
    Console,
    Heartbeat,
    HeartbeatConfig,
    HeartbeatError,
    ManualClock,
    Tracer,
    append_worker_beat,
    merge_heartbeats,
    read_heartbeats,
    set_perf_clock,
    worker_heartbeat_path,
)
from repro.simulation.workload import WorkloadConfig


@pytest.fixture
def manual_perf():
    clock = ManualClock(start=100.0)
    previous = set_perf_clock(clock)
    try:
        yield clock
    finally:
        set_perf_clock(previous)


class TestHeartbeatCadence:
    def test_emits_every_nth_completion(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=3), total=10)
        emissions = []
        for index in range(10):
            manual_perf.advance(1.0)
            record = pulse.beat(index)
            if record is not None:
                emissions.append(record["completed"])
        # Every 3rd unit, plus the final unit unconditionally.
        assert emissions == [3, 6, 9, 10]
        assert pulse.emitted == 4

    def test_final_unit_always_emits(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=100), total=5)
        records = [pulse.beat(i) for i in range(5)]
        assert [r is not None for r in records] == [
            False,
            False,
            False,
            False,
            True,
        ]

    def test_rate_and_eta_math(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=5), total=20)
        record = None
        for index in range(5):
            manual_perf.advance(0.5)  # 2 units/second
            record = pulse.beat(index) or record
        assert record is not None
        assert record["units_per_second"] == pytest.approx(2.0)
        assert record["eta_seconds"] == pytest.approx(7.5)  # 15 left @ 2/s
        assert record["elapsed_seconds"] == pytest.approx(2.5)

    def test_unknown_total_omits_eta(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1), total=None)
        manual_perf.advance(1.0)
        record = pulse.beat(0)
        assert record is not None
        assert record["eta_seconds"] is None
        assert record["total"] is None

    def test_extras_ride_along(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1))
        record = pulse.beat(0, welfare=42.5)
        assert record is not None
        assert record["welfare"] == 42.5

    def test_interval_must_be_positive(self):
        with pytest.raises(HeartbeatError, match=">= 1"):
            Heartbeat(HeartbeatConfig(every=0))

    def test_total_must_be_non_negative(self):
        with pytest.raises(HeartbeatError, match=">= 0"):
            Heartbeat(HeartbeatConfig(), total=-1)


class TestHeartbeatChannels:
    def test_file_channel_appends_schema_stamped_lines(
        self, tmp_path, manual_perf
    ):
        path = tmp_path / "hb.jsonl"
        pulse = Heartbeat(HeartbeatConfig(path=path, every=2), total=4)
        for index in range(4):
            pulse.beat(index)
        records = read_heartbeats(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["schema"] == HEARTBEAT_SCHEMA for r in records)

    def test_console_channel_respects_quiet(self, manual_perf):
        loud = io.StringIO()
        quiet = io.StringIO()
        for buffer, is_quiet in ((loud, False), (quiet, True)):
            pulse = Heartbeat(
                HeartbeatConfig(
                    every=1,
                    console=Console(quiet=is_quiet, stream=buffer),
                ),
                total=1,
            )
            manual_perf.advance(1.0)
            pulse.beat(0)
        assert "[heartbeat] round 1/1" in loud.getvalue()
        assert quiet.getvalue() == ""

    def test_render_includes_fsync_and_reassignments(self, manual_perf):
        buffer = io.StringIO()
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            obs.counter("platform.reassignments", 3)
            obs.observe("recordlog.fsync.seconds", 0.002)
            pulse = Heartbeat(
                HeartbeatConfig(every=1, console=Console(stream=buffer)),
                total=1,
            )
            manual_perf.advance(1.0)
            record = pulse.beat(0)
        assert record is not None
        assert record["metrics"]["platform.reassignments"] == 3.0
        assert record["metrics"]["recordlog.fsync.seconds"]["count"] == 1
        text = buffer.getvalue()
        assert "fsync mean 2.00ms" in text
        assert "reassigned 3" in text

    def test_no_tracer_means_empty_metrics(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1), total=1)
        record = pulse.beat(0)
        assert record is not None
        assert record["metrics"] == {}

    def test_emissions_feed_the_counter(self, manual_perf):
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            pulse = Heartbeat(HeartbeatConfig(every=1), total=2)
            pulse.beat(0)
            pulse.beat(1)
        assert tracer.metrics.counters["heartbeat.emits"] == 2.0


class TestWorkerSidecars:
    def test_sidecar_path_is_keyed_by_worker(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        assert worker_heartbeat_path(base, 123).name == "hb.worker-123.jsonl"

    def test_merge_orders_by_unit_index_not_pid(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        # Two "workers" writing interleaved unit indices, out of order.
        for pid, units in ((999, (3, 1)), (111, (2, 0))):
            sidecar = worker_heartbeat_path(base, pid)
            for unit in units:
                with open(sidecar, "a", encoding="utf-8") as handle:
                    handle.write(
                        json.dumps(
                            {
                                "schema": HEARTBEAT_SCHEMA,
                                "label": "round",
                                "seq": 0,
                                "unit_index": unit,
                                "worker_pid": pid,
                            }
                        )
                        + "\n"
                    )
        merged = merge_heartbeats(base)
        assert merged == 4
        records = read_heartbeats(base)
        assert [r["unit_index"] for r in records] == [0, 1, 2, 3]
        # Sidecars are consumed.
        assert list(tmp_path.glob("hb.worker-*")) == []

    def test_merge_is_deterministic_across_write_orders(self, tmp_path):
        def build(tag, units):
            base = tmp_path / f"hb-{tag}.jsonl"
            for unit in units:
                append_worker_beat(base, "round", unit, 0.5, seed=unit)
            merge_heartbeats(base)
            return tuple(
                (r["unit_index"], r.get("seed"))
                for r in read_heartbeats(base)
            )

        first = build("a", [2, 0, 1])
        second = build("b", [0, 1, 2])
        assert first == second == ((0, 0), (1, 1), (2, 2))

    def test_corrupt_sidecar_lines_are_skipped(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        sidecar = worker_heartbeat_path(base, 7)
        sidecar.write_text(
            "garbage\n"
            + json.dumps(
                {"schema": HEARTBEAT_SCHEMA, "unit_index": 0, "seq": 0}
            )
            + "\n",
            encoding="utf-8",
        )
        assert merge_heartbeats(base) == 1

    def test_merge_without_sidecars_is_a_no_op(self, tmp_path):
        assert merge_heartbeats(tmp_path / "hb.jsonl") == 0

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "absent.jsonl") == ()


class TestCampaignTransparency:
    """Heartbeats observe a campaign; they must never change it."""

    WORKLOAD = WorkloadConfig(num_slots=4)

    def _campaign(self, heartbeat=None, workers=1, journal_dir=None):
        return run_campaign(
            OnlineGreedyMechanism(),
            self.WORKLOAD,
            num_rounds=50,
            seed=11,
            workers=workers,
            journal_dir=journal_dir,
            heartbeat=heartbeat,
        )

    def test_journaled_campaign_is_bit_identical_with_heartbeat(
        self, tmp_path
    ):
        # The acceptance criterion: a journaled 50-round campaign with
        # --heartbeat emits periodic progress records while remaining
        # outcome-identical to the silent run.
        silent = self._campaign(journal_dir=tmp_path / "j1")
        path = tmp_path / "hb.jsonl"
        pulsed = self._campaign(
            heartbeat=HeartbeatConfig(path=path, every=10),
            journal_dir=tmp_path / "j2",
        )
        assert pickle.dumps(silent) == pickle.dumps(pulsed)
        records = read_heartbeats(path)
        assert len(records) == 5  # rounds 10, 20, 30, 40, 50
        assert [r["completed"] for r in records] == [10, 20, 30, 40, 50]

    def test_parallel_campaign_identical_across_worker_counts(
        self, tmp_path
    ):
        silent = self._campaign(workers=2)
        two = self._campaign(
            heartbeat=HeartbeatConfig(path=tmp_path / "hb2.jsonl", every=10),
            workers=2,
        )
        four = self._campaign(
            heartbeat=HeartbeatConfig(path=tmp_path / "hb4.jsonl", every=10),
            workers=4,
        )
        assert pickle.dumps(silent) == pickle.dumps(two)
        assert pickle.dumps(two) == pickle.dumps(four)
        # Worker pulses merged by unit identity: same order either way.
        order2 = [
            r["unit_index"]
            for r in read_heartbeats(tmp_path / "hb2.jsonl")
            if "worker_pid" in r
        ]
        order4 = [
            r["unit_index"]
            for r in read_heartbeats(tmp_path / "hb4.jsonl")
            if "worker_pid" in r
        ]
        assert order2 == order4 == list(range(50))
        # No sidecars survive the merge.
        assert list(tmp_path.glob("*.worker-*")) == []


class TestShardMergeIdentity:
    """Shard-aware merge key: ``(shard_id, unit_index, seq)``."""

    WORKLOAD = WorkloadConfig(num_slots=4)

    def test_merge_orders_by_shard_then_unit_then_seq(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        beats = [  # (pid, shard, unit, seq) — deliberately scrambled
            (222, 1, 0, 0),
            (222, 1, 1, 0),
            (111, 0, 2, 1),
            (111, 0, 2, 0),
            (333, 0, 5, 0),
        ]
        for pid, shard, unit, seq in beats:
            sidecar = worker_heartbeat_path(base, pid)
            with open(sidecar, "a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {
                            "schema": HEARTBEAT_SCHEMA,
                            "label": "round",
                            "seq": seq,
                            "unit_index": unit,
                            "shard": shard,
                            "worker_pid": pid,
                        }
                    )
                    + "\n"
                )
        assert merge_heartbeats(base) == 5
        keys = [
            (r["shard"], r["unit_index"], r["seq"])
            for r in read_heartbeats(base)
        ]
        assert keys == [(0, 2, 0), (0, 2, 1), (0, 5, 0), (1, 0, 0), (1, 1, 0)]

    def test_shardless_records_sort_as_shard_zero(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        append_worker_beat(base, "round", 1, 0.1, shard=1)
        append_worker_beat(base, "round", 0, 0.1)  # legacy: no shard key
        merge_heartbeats(base)
        records = read_heartbeats(base)
        assert [r.get("shard", 0) for r in records] == [0, 1]

    def test_sharded_campaign_merge_identical_2_vs_4_workers(
        self, tmp_path
    ):
        """The satellite acceptance: a sharded campaign's merged
        worker-beat stream is byte-for-byte independent of worker count."""
        from repro.experiments.config import MechanismSpec
        from repro.experiments.sharding import (
            CityConfig,
            run_sharded_campaign,
        )

        def merged_beats(tag, workers):
            path = tmp_path / f"hb-{tag}.jsonl"
            run_sharded_campaign(
                MechanismSpec.of("online-greedy"),
                [
                    CityConfig("east", self.WORKLOAD, num_rounds=3),
                    CityConfig("west", self.WORKLOAD, num_rounds=3),
                ],
                seed=7,
                workers=workers,
                shards_per_city=2,
                heartbeat=HeartbeatConfig(path=path, every=1),
            )
            return [
                {
                    key: value
                    for key, value in record.items()
                    if key not in ("worker_pid", "elapsed_seconds")
                }
                for record in read_heartbeats(path)
                if "worker_pid" in record
            ]

        two = merged_beats("w2", 2)
        four = merged_beats("w4", 4)
        assert two == four
        assert [(r["shard"], r["unit_index"]) for r in two] == [
            (0, 0),
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (3, 2),
        ]
