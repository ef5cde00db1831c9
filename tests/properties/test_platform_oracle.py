"""Every payment the live platform settles, against the cold oracle.

The platform pays each winner at its reported departure slot.  The
settled amount must be the fault-free critical value — Algorithm 2 or
the exact rule — over the bids and tasks known at that slot, floored at
the claimed cost for winners that got their task through reassignment.
Faults change who is allocated, never what the payments are read from.
Each ``SlotClosed`` must also report the live pool: bids present and not
yet departed that were never allocated and did not drop out.

The sweep: 50 seeds × both payment rules × {no reserve, a reserve over
task values that vary from one ``submit_tasks`` call to the next}, each
driven once fault-free and once with seeded dropouts and delivery
failures.  Fault-free rounds must also reproduce the offline mechanism
run on the same bids and tasks; the platform settles payments in
departure order and the mechanism in win order, so the comparison is
between canonical pickles (every mapping sorted by key).

Exact float equality on money-valued quantities is the point of the
suite, hence the REP002 suppressions.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Set

import numpy as np
import pytest

from repro.auction import CrowdsourcingPlatform
from repro.auction.events import (
    BidSubmitted,
    PaymentSettled,
    PhoneDropped,
    SlotClosed,
    TaskAllocated,
    TaskReassigned,
)
from repro.mechanisms import OnlineGreedyMechanism
from repro.model.outcome import AuctionOutcome
from repro.model.task import SensingTask, TaskSchedule
from repro.simulation import WorkloadConfig
from tests import online_oracle

SEEDS = range(50)

WORKLOAD = WorkloadConfig(
    num_slots=12,
    phone_rate=4.0,
    task_rate=2.0,
    mean_cost=10.0,
    mean_active_length=3,
    task_value=15.0,
)

DROPOUT_PROB = 0.25
FAILURE_PROB = 0.2


def _drive(seed, payment_rule, reserve, varied_values, faulty):
    """One round through the platform; returns it, its bids and tasks."""
    scenario = WORKLOAD.generate(seed=seed)
    bids = scenario.truthful_bids()
    rng = np.random.default_rng(seed + 7919)
    failing: Set[int] = set()
    dropouts: Dict[int, List[int]] = {}
    if faulty:
        for bid in bids:
            if rng.random() < FAILURE_PROB:
                failing.add(bid.phone_id)
            elif rng.random() < DROPOUT_PROB:
                slot = int(rng.integers(bid.arrival, bid.departure + 1))
                dropouts.setdefault(slot, []).append(bid.phone_id)
    platform = CrowdsourcingPlatform(
        num_slots=scenario.num_slots,
        reserve_price=reserve,
        payment_rule=payment_rule,
    )
    tasks: List[SensingTask] = []
    for slot in range(1, scenario.num_slots + 1):
        for bid in bids:
            if bid.arrival == slot:
                platform.submit_bid(bid)
                if bid.phone_id in failing:
                    platform.report_task_failure(bid.phone_id)
        for phone_id in dropouts.get(slot, ()):
            platform.report_dropout(phone_id)
        for task in scenario.schedule.tasks_in_slot(slot):
            value = task.value
            if varied_values:
                value += float(rng.integers(-6, 7))
            tasks.extend(platform.submit_tasks(1, value=value))
        platform.close_slot()
    return platform, bids, tasks


def _assert_events_match_oracle(platform, bids, tasks, rule, reserve):
    by_phone = {bid.phone_id: bid for bid in bids}
    slot_of_task = {task.task_id: task.slot for task in tasks}
    win_slots: Dict[int, int] = {}
    reassigned: Set[int] = set()
    departures: Dict[int, int] = {}
    dropped: Set[int] = set()
    settled = 0
    for event in platform.events:
        if isinstance(event, BidSubmitted):
            departures[event.phone_id] = event.departure
        elif isinstance(event, PhoneDropped):
            dropped.add(event.phone_id)
        elif isinstance(event, TaskAllocated):
            win_slots[event.phone_id] = event.slot
        elif isinstance(event, TaskReassigned):
            win_slots[event.to_phone] = slot_of_task[event.task_id]
            reassigned.add(event.to_phone)
        elif isinstance(event, SlotClosed):
            live = [
                phone_id
                for phone_id, departure in departures.items()
                if departure >= event.slot
                and phone_id not in win_slots
                and phone_id not in dropped
            ]
            assert event.pool_size == len(live), event
        elif isinstance(event, PaymentSettled):
            slot = event.slot
            known_bids = [bid for bid in bids if bid.arrival <= slot]
            known_tasks = TaskSchedule(
                platform.num_slots, [t for t in tasks if t.slot <= slot]
            )
            winner = by_phone[event.phone_id]
            if rule == "paper":
                expected = online_oracle.algorithm2_payment(
                    known_bids,
                    known_tasks,
                    winner,
                    win_slots[event.phone_id],
                    reserve,
                )
            else:
                expected = online_oracle.exact_critical_payment(
                    known_bids, known_tasks, winner, reserve
                )
            if event.phone_id in reassigned and expected < winner.cost:
                expected = winner.cost
            assert event.amount == expected, (  # repro: noqa-REP002 -- bitwise identity with the oracle is the property under test
                f"phone {event.phone_id} settled {event.amount} in slot "
                f"{slot}; the oracle pays {expected}"
            )
            settled += 1
    return settled, reassigned


def _canonical(outcome: AuctionOutcome) -> bytes:
    return pickle.dumps(AuctionOutcome.from_dict(outcome.to_dict()))


@pytest.mark.parametrize("varied_values", [False, True])
@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", SEEDS)
def test_settled_payments_match_oracle(seed, payment_rule, varied_values):
    reserve = varied_values
    for faulty in (False, True):
        platform, bids, tasks = _drive(
            seed, payment_rule, reserve, varied_values, faulty
        )
        outcome = platform.finalize()
        settled, _ = _assert_events_match_oracle(
            platform, bids, tasks, payment_rule, reserve
        )
        assert settled == len(outcome.payments)
        if faulty:
            continue
        schedule = TaskSchedule(platform.num_slots, tasks)
        mechanism = OnlineGreedyMechanism(
            reserve_price=reserve, payment_rule=payment_rule
        ).run(bids, schedule)
        assert _canonical(outcome) == _canonical(mechanism)


def test_the_sweep_exercises_reassignment_and_varied_values():
    """Guard against a sweep that never reaches the fallback paths."""
    reassigned_rounds = 0
    for seed in range(10):
        platform, bids, tasks = _drive(seed, "paper", True, True, True)
        platform.finalize()
        _, reassigned = _assert_events_match_oracle(
            platform, bids, tasks, "paper", True
        )
        reassigned_rounds += bool(reassigned & set(platform.delivered_phones))
        assert len({task.value for task in tasks}) > 1
    assert reassigned_rounds > 0
