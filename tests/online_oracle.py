"""Cold reference implementation of Algorithm 1 and both payment rules.

The library runs the online mechanism on one engine
(:class:`repro.mechanisms.StreamingGreedyEngine`), with
:class:`repro.mechanisms.GreedyProber` as its payment fallback.  This
module is the independent oracle the identity suites compare them
against: a plain heap walk per run, a full re-run per Algorithm-2
payment, and a full re-run per exact-payment probe.  It shares no code
with either — only the result dataclasses — and is deliberately slow.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.mechanisms.greedy_core import GreedyRun, SlotOutcome, bid_sort_key
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.task import TaskSchedule


def run_greedy_allocation(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    exclude_phone: Optional[int] = None,
    reserve_price: bool = False,
    stop_after_slot: Optional[int] = None,
) -> GreedyRun:
    """Algorithm 1: per slot, each task takes the cheapest active bid.

    ``exclude_phone`` drops that phone's bid (Algorithm 2's ``B − B_i``
    re-run), ``reserve_price`` refuses bids above the task value (the
    refused bid stays pooled), and ``stop_after_slot`` truncates the
    walk.  Ties break by ``(cost, arrival, phone_id)``.
    """
    last_slot = schedule.num_slots
    if stop_after_slot is not None:
        last_slot = min(stop_after_slot, last_slot)
    arrivals: Dict[int, List[Bid]] = {}
    for bid in bids:
        if bid.phone_id != exclude_phone:
            arrivals.setdefault(bid.arrival, []).append(bid)

    pool: List = []
    allocation: Dict[int, int] = {}
    win_slots: Dict[int, int] = {}
    outcomes: List[SlotOutcome] = []
    for slot in range(1, last_slot + 1):
        for bid in arrivals.get(slot, ()):
            heapq.heappush(pool, (bid_sort_key(bid), bid))
        tasks = schedule.tasks_in_slot(slot)
        if not tasks:
            continue
        winners: List[Bid] = []
        unserved = 0
        for task in tasks:
            chosen: Optional[Bid] = None
            while pool:
                candidate = pool[0][1]
                if candidate.departure < slot:
                    heapq.heappop(pool)
                    continue
                if reserve_price and candidate.cost > task.value:
                    break
                chosen = heapq.heappop(pool)[1]
                break
            if chosen is None:
                unserved += 1
                continue
            allocation[task.task_id] = chosen.phone_id
            win_slots[chosen.phone_id] = slot
            winners.append(chosen)
        outcomes.append(
            SlotOutcome(slot=slot, winners=tuple(winners), unserved=unserved)
        )
    return GreedyRun(
        allocation=allocation, win_slots=win_slots, slots=tuple(outcomes)
    )


def algorithm2_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    win_slot: int,
    reserve_price: bool = False,
) -> float:
    """Algorithm 2: the dearest winner of ``[win_slot, departure]`` in
    the re-run without ``winner``, floored at the winner's own bid."""
    rerun = run_greedy_allocation(
        bids,
        schedule,
        exclude_phone=winner.phone_id,
        reserve_price=reserve_price,
        stop_after_slot=winner.departure,
    )
    payment = winner.cost
    for other in rerun.winners_between(win_slot, winner.departure):
        if other.cost > payment:
            payment = other.cost
    return payment


def exact_critical_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool = False,
) -> float:
    """The exact critical value, by binary search over cold re-runs.

    Candidate thresholds are the other bids' costs (plus the task
    values under a reserve); an uncontested winner is paid its own bid
    without a reserve and the largest threshold with one.
    """

    def wins_with(cost: float) -> bool:
        replaced = [
            bid.with_cost(cost) if bid.phone_id == winner.phone_id else bid
            for bid in bids
        ]
        rerun = run_greedy_allocation(
            replaced,
            schedule,
            reserve_price=reserve_price,
            stop_after_slot=winner.departure,
        )
        return winner.phone_id in rerun.win_slots

    candidates = {
        bid.cost for bid in bids if bid.phone_id != winner.phone_id
    }
    if reserve_price:
        candidates |= {task.value for task in schedule}
    thresholds = [t for t in sorted(candidates) if t > 0.0]
    if not thresholds:
        return winner.cost
    if wins_with(thresholds[-1] + 1.0):
        if reserve_price:
            return max(thresholds[-1], winner.cost)
        return winner.cost
    best: Optional[int] = None
    low, high = 0, len(thresholds) - 1
    while low <= high:
        mid = (low + high) // 2
        lower = 0.0 if mid == 0 else thresholds[mid - 1]
        if wins_with((lower + thresholds[mid]) / 2.0):
            best = mid
            low = mid + 1
        else:
            high = mid - 1
    if best is None:
        return winner.cost
    return max(thresholds[best], winner.cost)


def online_outcome(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    reserve_price: bool = False,
    payment_rule: str = "paper",
) -> AuctionOutcome:
    """What ``OnlineGreedyMechanism(reserve_price, payment_rule).run``
    must return, down to dict insertion order."""
    run = run_greedy_allocation(bids, schedule, reserve_price=reserve_price)
    by_phone = {bid.phone_id: bid for bid in bids}
    payments: Dict[int, float] = {}
    payment_slots: Dict[int, int] = {}
    for phone_id, win_slot in run.win_slots.items():
        winner = by_phone[phone_id]
        if payment_rule == "paper":
            payments[phone_id] = algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price
            )
        else:
            payments[phone_id] = exact_critical_payment(
                bids, schedule, winner, reserve_price
            )
        payment_slots[phone_id] = winner.departure
    return AuctionOutcome(
        bids=bids,
        schedule=schedule,
        allocation=run.allocation,
        payments=payments,
        payment_slots=payment_slots,
    )
