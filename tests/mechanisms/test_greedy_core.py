"""Unit tests for Algorithm 1, on the cold oracle the identity suites
compare the library's engine against."""

from __future__ import annotations

import pytest

from repro.mechanisms.greedy_core import bid_sort_key
from repro.model import Bid, TaskSchedule
from repro.simulation.paper_example import (
    paper_example_bids,
    paper_example_schedule,
)
from tests.online_oracle import run_greedy_allocation


class TestBidSortKey:
    def test_cost_first(self):
        cheap = Bid(phone_id=9, arrival=5, departure=5, cost=1.0)
        pricey = Bid(phone_id=1, arrival=1, departure=9, cost=2.0)
        assert bid_sort_key(cheap) < bid_sort_key(pricey)

    def test_tie_break_by_arrival_then_id(self):
        early = Bid(phone_id=9, arrival=1, departure=5, cost=1.0)
        late = Bid(phone_id=1, arrival=2, departure=5, cost=1.0)
        assert bid_sort_key(early) < bid_sort_key(late)
        low_id = Bid(phone_id=1, arrival=1, departure=5, cost=1.0)
        high_id = Bid(phone_id=2, arrival=1, departure=5, cost=1.0)
        assert bid_sort_key(low_id) < bid_sort_key(high_id)


class TestPaperExample:
    """Fig. 4's slot-by-slot walk-through, literally."""

    def test_full_allocation(self):
        run = run_greedy_allocation(
            paper_example_bids(), paper_example_schedule()
        )
        winners_by_slot = {
            outcome.slot: [b.phone_id for b in outcome.winners]
            for outcome in run.slots
        }
        assert winners_by_slot == {
            1: [2],  # "in the 1st slot, Smartphone 2 won"
            2: [1],  # "in the 2nd slot, Smartphone 1 won"
            3: [7],  # "Smartphone 7 wins a bid in the current slot"
            4: [6],
            5: [4],
        }

    def test_win_slots(self):
        run = run_greedy_allocation(
            paper_example_bids(), paper_example_schedule()
        )
        assert run.win_slots == {2: 1, 1: 2, 7: 3, 6: 4, 4: 5}

    def test_rerun_without_phone_1(self):
        """Section V-C: without Smartphone 1 the tasks go to 5, 7, 6, 4."""
        run = run_greedy_allocation(
            paper_example_bids(), paper_example_schedule(), exclude_phone=1
        )
        winners_by_slot = {
            outcome.slot: [b.phone_id for b in outcome.winners]
            for outcome in run.slots
        }
        assert winners_by_slot == {1: [2], 2: [5], 3: [7], 4: [6], 5: [4]}


class TestGreedyMechanics:
    def test_cheapest_wins(self):
        bids = [
            Bid(phone_id=1, arrival=1, departure=1, cost=5.0),
            Bid(phone_id=2, arrival=1, departure=1, cost=2.0),
        ]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert run.allocation == {0: 2}

    def test_departed_bid_not_used(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=1.0)]
        schedule = TaskSchedule.from_counts([0, 1], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert run.allocation == {}
        assert run.total_unserved == 1

    def test_not_yet_arrived_bid_not_used(self):
        bids = [Bid(phone_id=1, arrival=2, departure=3, cost=1.0)]
        schedule = TaskSchedule.from_counts([1, 0, 0], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert run.allocation == {}

    def test_one_task_per_phone(self):
        bids = [Bid(phone_id=1, arrival=1, departure=3, cost=1.0)]
        schedule = TaskSchedule.from_counts([1, 1, 1], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert len(run.allocation) == 1
        assert run.total_unserved == 2

    def test_multiple_tasks_per_slot(self):
        bids = [
            Bid(phone_id=i, arrival=1, departure=1, cost=float(i))
            for i in range(1, 5)
        ]
        schedule = TaskSchedule.from_counts([2], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert set(run.allocation.values()) == {1, 2}

    def test_exclude_phone(self):
        bids = [
            Bid(phone_id=1, arrival=1, departure=1, cost=1.0),
            Bid(phone_id=2, arrival=1, departure=1, cost=2.0),
        ]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        run = run_greedy_allocation(bids, schedule, exclude_phone=1)
        assert run.allocation == {0: 2}

    def test_stop_after_slot(self):
        bids = [
            Bid(phone_id=1, arrival=1, departure=1, cost=1.0),
            Bid(phone_id=2, arrival=2, departure=2, cost=1.0),
        ]
        schedule = TaskSchedule.from_counts([1, 1], value=10.0)
        run = run_greedy_allocation(bids, schedule, stop_after_slot=1)
        assert run.allocation == {0: 1}
        assert [o.slot for o in run.slots] == [1]

    def test_empty_bids(self):
        schedule = TaskSchedule.from_counts([2], value=10.0)
        run = run_greedy_allocation([], schedule)
        assert run.allocation == {}
        assert run.total_unserved == 2

    def test_no_tasks(self):
        bids = [Bid(phone_id=1, arrival=1, departure=2, cost=1.0)]
        schedule = TaskSchedule.from_counts([0, 0], value=10.0)
        run = run_greedy_allocation(bids, schedule)
        assert run.allocation == {}
        assert run.slots == ()


class TestReservePrice:
    def test_without_reserve_allocates_above_value(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=50.0)]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        run = run_greedy_allocation(bids, schedule, reserve_price=False)
        assert run.allocation == {0: 1}  # the paper's behaviour

    def test_with_reserve_refuses_above_value(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=50.0)]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        run = run_greedy_allocation(bids, schedule, reserve_price=True)
        assert run.allocation == {}
        assert run.total_unserved == 1

    def test_reserve_keeps_refused_bid_in_pool(self):
        bids = [
            Bid(phone_id=1, arrival=1, departure=2, cost=50.0),
            Bid(phone_id=2, arrival=2, departure=2, cost=1.0),
        ]
        # Slot 1: value 10 (phone 1 refused); slot 2: one more task.
        schedule = TaskSchedule(
            num_slots=2,
            tasks=[
                t
                for t in TaskSchedule.from_counts([1, 1], value=10.0).tasks
            ],
        )
        run = run_greedy_allocation(bids, schedule, reserve_price=True)
        # Slot 2's task goes to phone 2 (cheapest); phone 1 still refused.
        assert run.allocation == {1: 2}

    def test_winners_between(self):
        run = run_greedy_allocation(
            paper_example_bids(), paper_example_schedule()
        )
        ids = [b.phone_id for b in run.winners_between(2, 4)]
        assert ids == [1, 7, 6]
