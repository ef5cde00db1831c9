"""Unit tests for Algorithm 2 and the exact critical-value computation."""

from __future__ import annotations

import pytest

from repro.errors import MechanismError
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.model import Bid, TaskSchedule
from repro.simulation.paper_example import (
    paper_example_bids,
    paper_example_schedule,
)
from tests.online_oracle import run_greedy_allocation


def _schedule(counts, value=20.0):
    return TaskSchedule.from_counts(counts, value=value)


class TestAlgorithm2:
    def test_paper_worked_example(self):
        bids = paper_example_bids()
        schedule = paper_example_schedule()
        phone1 = next(b for b in bids if b.phone_id == 1)
        assert algorithm2_payment(
            bids, schedule, phone1, win_slot=2
        ) == pytest.approx(9.0)

    def test_all_paper_winners(self):
        """Cross-check every winner's Algorithm-2 payment by hand.

        Re-runs without each winner (1 task/slot, windows from Fig. 4):
        * phone 2 (won slot 1, departs 4): winners 7,1,5?... computed below.
        """
        bids = paper_example_bids()
        schedule = paper_example_schedule()
        run = run_greedy_allocation(bids, schedule)
        payments = {
            phone_id: algorithm2_payment(
                bids,
                schedule,
                next(b for b in bids if b.phone_id == phone_id),
                win_slot,
            )
            for phone_id, win_slot in run.win_slots.items()
        }
        # Hand-computed re-runs:
        # without 2: s1->7(6), s2->1(3), s3->6(8), s4->3?(11 dep5? no:
        #   pool s4 = {3(11)}) -> 3(11), s5->4(9); window [1,4]: max=11.
        assert payments[2] == pytest.approx(11.0)
        # without 1 (paper): 9.
        assert payments[1] == pytest.approx(9.0)
        # without 7: s1->2(5), s2->1(3), s3->6(8), window [3,3]: max 8.
        assert payments[7] == pytest.approx(8.0)
        # without 6: s1->2, s2->1, s3->7, s4->3(11); window [4,4]: 11.
        assert payments[6] == pytest.approx(11.0)
        # without 4: s5 -> 3(11); window [5,5]: 11.
        assert payments[4] == pytest.approx(11.0)

    def test_floor_at_own_cost(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=5.0)]
        schedule = _schedule([1])
        assert algorithm2_payment(
            bids, schedule, bids[0], win_slot=1
        ) == pytest.approx(5.0)

    def test_win_slot_outside_window_rejected(self):
        bids = [Bid(phone_id=1, arrival=2, departure=3, cost=5.0)]
        schedule = _schedule([0, 1, 0])
        with pytest.raises(MechanismError, match="outside"):
            algorithm2_payment(bids, schedule, bids[0], win_slot=1)

    def test_only_window_winners_count(self):
        """Winners before t' or after d are not critical players."""
        bids = [
            Bid(phone_id=1, arrival=2, departure=2, cost=1.0),
            Bid(phone_id=2, arrival=1, departure=1, cost=50.0),
            Bid(phone_id=3, arrival=2, departure=2, cost=2.0),
            Bid(phone_id=4, arrival=3, departure=3, cost=60.0),
        ]
        schedule = _schedule([1, 1, 1], value=100.0)
        phone1 = bids[0]
        # Phone 1 wins slot 2; re-run without it: slot 2 -> phone 3
        # (cost 2).  Phones 2 and 4 win outside [2, 2].
        assert algorithm2_payment(
            bids, schedule, phone1, win_slot=2
        ) == pytest.approx(2.0)


class TestExactCriticalValue:
    def test_matches_algorithm2_in_competitive_market(self):
        bids = paper_example_bids()
        schedule = paper_example_schedule()
        run = run_greedy_allocation(bids, schedule)
        for phone_id, win_slot in run.win_slots.items():
            winner = next(b for b in bids if b.phone_id == phone_id)
            a2 = algorithm2_payment(bids, schedule, winner, win_slot)
            exact = exact_critical_payment(bids, schedule, winner)
            assert exact == pytest.approx(a2), phone_id

    def test_threshold_semantics(self):
        bids = [
            Bid(phone_id=1, arrival=1, departure=2, cost=1.0),
            Bid(phone_id=2, arrival=1, departure=2, cost=4.0),
            Bid(phone_id=3, arrival=2, departure=2, cost=7.0),
        ]
        schedule = _schedule([1, 1])
        winner = bids[0]
        critical = exact_critical_payment(bids, schedule, winner)
        assert critical == pytest.approx(7.0)
        # Just below: wins; just above: loses.
        low = [winner.with_cost(6.9)] + bids[1:]
        high = [winner.with_cost(7.1)] + bids[1:]
        assert 1 in run_greedy_allocation(low, schedule).win_slots
        assert 1 not in run_greedy_allocation(high, schedule).win_slots

    def test_monopolist_without_reserve_falls_back_to_cost(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=5.0)]
        schedule = _schedule([1])
        assert exact_critical_payment(
            bids, schedule, bids[0], reserve_price=False
        ) == pytest.approx(5.0)

    def test_monopolist_with_reserve_paid_value(self):
        bids = [Bid(phone_id=1, arrival=1, departure=1, cost=5.0)]
        schedule = _schedule([1], value=20.0)
        assert exact_critical_payment(
            bids, schedule, bids[0], reserve_price=True
        ) == pytest.approx(20.0)

    def test_undersupplied_window_detected(self):
        """Extra task in the window ⇒ the winner wins at any price.

        Algorithm 2 misses this (pays own cost); the exact rule with a
        reserve pays the task value.
        """
        bids = [
            Bid(phone_id=1, arrival=1, departure=2, cost=1.0),
            Bid(phone_id=2, arrival=1, departure=1, cost=2.0),
        ]
        schedule = _schedule([2, 1], value=20.0)  # 3 tasks, 2 phones
        winner = bids[0]
        a2 = algorithm2_payment(bids, schedule, winner, win_slot=1)
        exact = exact_critical_payment(
            bids, schedule, winner, reserve_price=True
        )
        assert a2 == pytest.approx(2.0)  # max winning cost without phone 1
        assert exact == pytest.approx(20.0)  # true threshold is ν
