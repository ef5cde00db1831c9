"""Greedy-run records and the snapshot-resume payment prober.

Algorithm 1 of the paper ("Winning Bids Determination") walks the slots
in order, keeps the pool of active, not-yet-allocated bids, and hands
each newly arriving task to the cheapest bid in the pool.  The online
mechanism runs it on :class:`~repro.mechanisms.streaming
.StreamingGreedyEngine`; this module holds the records a run produces
and :class:`GreedyProber`, which answers the payment questions the
engine's records cannot (Algorithm 2 re-runs the allocation with one bid
removed, the exact rule with one cost replaced) by resuming the walk
from a per-slot snapshot.

Tie-breaking
------------
The paper sorts bids "by claimed cost in non-decreasing order" without
specifying ties.  We break ties deterministically by ``(cost, arrival,
phone_id)``: earlier-arriving phones first, then lower phone id.  The same
rule is used everywhere (allocation, payment re-runs, baselines) so that
the mechanism is a deterministic function of its inputs — a requirement
for the critical-value payment analysis to be meaningful.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import functools
import heapq
import itertools
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.model.bid import Bid
from repro.model.task import TaskSchedule

#: Sort key implementing the documented deterministic tie-break.
def bid_sort_key(bid: Bid) -> Tuple[float, int, int]:
    """Greedy selection order: cheapest first, ties by arrival then id."""
    return (bid.cost, bid.arrival, bid.phone_id)


@functools.lru_cache(maxsize=8)
def bid_index(bids: Tuple[Bid, ...]) -> Dict[int, Bid]:
    """``phone_id -> bid`` for a bid tuple, memoised across payment passes.

    Every winner's payment pass used to rebuild this identical dict;
    bids are frozen (hashable), so the tuple itself is the cache key.
    Callers must treat the returned dict as read-only.

    The cache is deliberately tiny: each entry pins the full bid tuple
    of one round, which at city scale is tens of megabytes, and a long
    campaign cycles through a fresh tuple per round — a large cache
    would pin dead rounds for the process lifetime while the hit
    pattern only ever needs the rounds currently in flight.
    """
    return {bid.phone_id: bid for bid in bids}


@dataclasses.dataclass(frozen=True)
class SlotOutcome:
    """What happened in one slot of a greedy run.

    Attributes
    ----------
    slot:
        The 1-based slot index.
    winners:
        Winning bids in selection order (cheapest first).
    unserved:
        Number of tasks of this slot left unserved (pool exhausted, or —
        when a reserve price is active — every pooled bid priced above
        the task value).
    """

    slot: int
    winners: Tuple[Bid, ...]
    unserved: int


@dataclasses.dataclass(frozen=True)
class GreedyRun:
    """Full record of a greedy allocation run.

    Attributes
    ----------
    allocation:
        ``task_id -> phone_id`` winning assignments.
    win_slots:
        ``phone_id -> slot`` in which each winner was selected.
    slots:
        Per-slot outcomes in slot order (only slots with tasks appear).
    """

    allocation: Dict[int, int]
    win_slots: Dict[int, int]
    slots: Tuple[SlotOutcome, ...]

    @property
    def total_unserved(self) -> int:
        """Total number of tasks that went unserved."""
        return sum(outcome.unserved for outcome in self.slots)

    def winners_between(self, first_slot: int, last_slot: int) -> List[Bid]:
        """All winning bids selected in slots ``[first_slot, last_slot]``."""
        collected: List[Bid] = []
        for outcome in self.slots:
            if first_slot <= outcome.slot <= last_slot:
                collected.extend(outcome.winners)
        return collected


def _walk_slots(
    schedule: TaskSchedule,
    arrivals_by_slot: Mapping[int, Sequence[Bid]],
    pool: List[Tuple[Tuple[float, int, int], Bid]],
    allocation: Dict[int, int],
    win_slots: Dict[int, int],
    slot_outcomes: List[SlotOutcome],
    first_slot: int,
    last_slot: int,
    reserve_price: bool,
    on_slot_start: Optional[Callable[[int], None]] = None,
) -> int:
    """Advance Algorithm 1 over slots ``[first_slot, last_slot]`` in place.

    The prober's base run and every resume drive this loop, so their
    behaviour — tie-breaks, lazy departure pops, reserve-price skips — is
    identical by construction.  ``pool`` /
    ``allocation`` / ``win_slots`` / ``slot_outcomes`` are mutated;
    ``on_slot_start`` (if given) fires before each slot's arrivals are
    pushed, which is where the prober snapshots resumable state.  Returns
    the number of candidate evaluations performed.
    """
    candidate_evals = 0
    for slot in range(first_slot, last_slot + 1):
        if on_slot_start is not None:
            on_slot_start(slot)
        for bid in arrivals_by_slot.get(slot, ()):  # newly active bids
            heapq.heappush(pool, (bid_sort_key(bid), bid))

        tasks = schedule.tasks_in_slot(slot)
        if not tasks:
            continue

        winners: List[Bid] = []
        unserved = 0
        for task in tasks:
            chosen: Optional[Bid] = None
            while pool:
                candidate_evals += 1
                _, candidate = pool[0]
                if candidate.departure < slot:  # departed; discard lazily
                    heapq.heappop(pool)
                    continue
                if reserve_price and candidate.cost > task.value:
                    # The cheapest pooled bid is already above the
                    # task's value; with the pool sorted by cost, no
                    # pooled bid can serve this task profitably.
                    break
                chosen = heapq.heappop(pool)[1]
                break
            if chosen is None:
                unserved += 1
                continue
            allocation[task.task_id] = chosen.phone_id
            win_slots[chosen.phone_id] = slot
            winners.append(chosen)
        slot_outcomes.append(
            SlotOutcome(slot=slot, winners=tuple(winners), unserved=unserved)
        )
    return candidate_evals


class GreedyProber:
    """Incremental Algorithm-1 re-run engine shared by payment probes.

    Payments re-run the greedy allocation hundreds of times per round:
    Algorithm 2 once per winner with that winner excluded, and the exact
    critical-value rule ``O(log n)`` more times per winner with the
    winner's cost replaced.  Every one of those perturbations first takes
    effect in the perturbed bid's *arrival* slot — before it, the walk
    state (heap contents, allocation, win slots, tie-breaks) is exactly
    the base run's, because the perturbed bid has not entered the pool.

    The prober therefore runs the base allocation once and answers
    probes by reconstructing the arrival slot's walk state *virtually*
    and walking only the remaining slots.  Snapshots are never
    materialised: per slot the prober keeps two integers (how many
    selections and slot outcomes precede it), and the pool at any slot
    is rebuilt on demand from a numpy interval mask — ``arrived before
    the slot, departs at or after it, not yet selected`` — followed by
    one ``heapify``.  Heap layout may differ from the incremental
    build, but pop order is a function of the entry multiset alone
    (``bid_sort_key`` is a strict total order), so results are
    bit-identical to cold re-runs (verified by the property suites);
    peak memory drops from O(bids × slots) under the old full-copy
    snapshots to O(bids + slots).  Slots skipped by a resume are
    recorded on the ``payment.probe.slots_skipped`` counter.

    The prober never mutates bids or schedule; it holds its own private
    copies of the walk state, so a single instance can serve every
    payment pass of a mechanism run.
    """

    def __init__(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        reserve_price: bool = False,
    ) -> None:
        self._source = bids
        self._bids: Tuple[Bid, ...] = tuple(bids)
        self._schedule = schedule
        self._reserve_price = bool(reserve_price)
        self._num_slots = schedule.num_slots
        arrivals: Dict[int, List[Bid]] = {}
        for bid in self._bids:
            arrivals.setdefault(bid.arrival, []).append(bid)
        self._arrivals_by_slot = arrivals
        # Built directly (not via the memoised ``bid_index``): probes
        # call this per winner, and re-hashing a long bid tuple on every
        # cache lookup would cost more than the dict it saves.
        self._bid_by_phone = {bid.phone_id: bid for bid in self._bids}
        # Virtual-snapshot state: per-slot prefix counts (index ``s`` =
        # state at the start of slot ``s``; ``num_slots + 1`` = final)
        # plus the window columns the pool mask is computed from.
        self._selection_prefix = [0] * (self._num_slots + 2)
        self._outcome_prefix = [0] * (self._num_slots + 2)
        count = len(self._bids)
        self._arrival_col = np.fromiter(
            (bid.arrival for bid in self._bids),
            dtype=np.int64,
            count=count,
        )
        self._departure_col = np.fromiter(
            (bid.departure for bid in self._bids),
            dtype=np.int64,
            count=count,
        )
        self._thresholds: Optional[List[float]] = None
        self._cost_counts: Optional[Dict[float, int]] = None
        self._task_values: Optional[frozenset] = None
        self._base_run = self._run_base()
        # Slot each bid was selected in; the sentinel (one past the
        # final-state index) means "never selected", so the pool mask
        # ``won_slot >= s`` reads "still unallocated at slot s".
        sentinel = self._num_slots + 2
        win_slots = self._base_run.win_slots
        self._won_slot_col = np.fromiter(
            (win_slots.get(bid.phone_id, sentinel) for bid in self._bids),
            dtype=np.int64,
            count=count,
        )

    @property
    def bids(self) -> Tuple[Bid, ...]:
        """The bid tuple the prober was built for."""
        return self._bids

    def covers(self, bids: Sequence[Bid]) -> bool:
        """Whether the prober was built for exactly ``bids``.

        Identity first: a mechanism run hands the *same* sequence to
        every payment call, so the common case is O(1) rather than an
        O(n) tuple comparison per winner (which dominated city-scale
        rounds).  Separately-constructed sequences still get the full
        elementwise check.
        """
        return (
            bids is self._source
            or bids is self._bids
            or tuple(bids) == self._bids
        )

    @property
    def reserve_price(self) -> bool:
        """Whether the walks refuse negative-welfare assignments."""
        return self._reserve_price

    @property
    def bid_by_phone(self) -> Dict[int, Bid]:
        """``phone_id -> bid`` index over the prober's bids (read-only)."""
        return self._bid_by_phone

    @property
    def base_run(self) -> GreedyRun:
        """The unperturbed allocation (identical to a cold full run)."""
        return self._base_run

    def _run_base(self) -> GreedyRun:
        pool: List[Tuple[Tuple[float, int, int], Bid]] = []
        allocation: Dict[int, int] = {}
        win_slots: Dict[int, int] = {}
        slot_outcomes: List[SlotOutcome] = []
        selection_prefix = self._selection_prefix
        outcome_prefix = self._outcome_prefix

        def note(slot: int) -> None:
            selection_prefix[slot] = len(win_slots)
            outcome_prefix[slot] = len(slot_outcomes)

        with obs.span(
            "greedy.allocation",
            bids=len(self._bids),
            slots=self._num_slots,
            excluded=None,
        ) as tel:
            candidate_evals = _walk_slots(
                self._schedule,
                self._arrivals_by_slot,
                pool,
                allocation,
                win_slots,
                slot_outcomes,
                1,
                self._num_slots,
                self._reserve_price,
                on_slot_start=note,
            )
            # Final state, keyed one past the horizon: probes whose
            # perturbed bid arrives after their stop slot resolve to a
            # truncated base run without walking anything.
            selection_prefix[self._num_slots + 1] = len(win_slots)
            outcome_prefix[self._num_slots + 1] = len(slot_outcomes)
            tel.set_attribute("candidate_evals", candidate_evals)
            tel.set_attribute("winners", len(win_slots))
            tel.set_attribute(
                "unserved",
                sum(outcome.unserved for outcome in slot_outcomes),
            )
            obs.counter("greedy.candidate_evals", candidate_evals)

        return GreedyRun(
            allocation=allocation,
            win_slots=win_slots,
            slots=tuple(slot_outcomes),
        )

    def _prefix_dicts(
        self, selections: int
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The allocation / win-slot dicts after ``selections`` picks.

        Both base dicts gain exactly one entry per selection, in
        selection order, so an ``islice`` of each reproduces the
        as-of-slot copy the old full snapshots materialised — including
        insertion order, which pickled outcomes are sensitive to.
        """
        allocation = dict(
            itertools.islice(
                self._base_run.allocation.items(), selections
            )
        )
        win_slots = dict(
            itertools.islice(self._base_run.win_slots.items(), selections)
        )
        return allocation, win_slots

    def _pool_at(
        self, slot: int
    ) -> List[Tuple[Tuple[float, int, int], Bid]]:
        """Rebuild the pool heap as of the start of ``slot``.

        One vectorised interval mask — arrived strictly before the
        slot, not departed, not yet selected — then a heapify.  Lazily
        expired entries the incremental heap would still carry are
        dropped eagerly here; they could never win, so the walk is
        unaffected (only the count of lazy expiry pops changes).
        """
        mask = (
            (self._arrival_col < slot)
            & (self._departure_col >= slot)
            & (self._won_slot_col >= slot)
        )
        bids = self._bids
        pool = [
            (bid_sort_key(bids[index]), bids[index])
            for index in np.nonzero(mask)[0].tolist()
        ]
        heapq.heapify(pool)
        return pool

    def _resume(
        self,
        start_slot: int,
        arrivals_at_start: Sequence[Bid],
        last_slot: int,
        excluded: Optional[int],
    ) -> GreedyRun:
        start = max(1, start_slot)
        if start > last_slot:
            # The perturbation never takes effect inside the probed
            # window; the answer is the base run truncated to it.
            through = min(last_slot, self._num_slots) + 1
            allocation, win_slots = self._prefix_dicts(
                self._selection_prefix[through]
            )
            obs.counter(
                "payment.probe.slots_skipped", max(last_slot, 0)
            )
            return GreedyRun(
                allocation=allocation,
                win_slots=win_slots,
                slots=self._base_run.slots[
                    : self._outcome_prefix[through]
                ],
            )

        pool = self._pool_at(start)
        allocation, win_slots = self._prefix_dicts(
            self._selection_prefix[start]
        )
        slot_outcomes = list(
            self._base_run.slots[: self._outcome_prefix[start]]
        )
        arrivals: Dict[int, Sequence[Bid]] = dict(self._arrivals_by_slot)
        arrivals[start] = list(arrivals_at_start)

        with obs.span(
            "greedy.allocation.resume",
            bids=len(self._bids),
            start_slot=start,
            slots=last_slot,
            excluded=excluded,
        ) as tel:
            candidate_evals = _walk_slots(
                self._schedule,
                arrivals,
                pool,
                allocation,
                win_slots,
                slot_outcomes,
                start,
                last_slot,
                self._reserve_price,
            )
            tel.set_attribute("candidate_evals", candidate_evals)
            obs.counter("greedy.candidate_evals", candidate_evals)
        obs.counter("payment.probe.slots_skipped", start - 1)

        return GreedyRun(
            allocation=allocation,
            win_slots=win_slots,
            slots=tuple(slot_outcomes),
        )

    def run_excluding(
        self, phone_id: int, stop_after_slot: Optional[int] = None
    ) -> GreedyRun:
        """The allocation without ``phone_id`` — Algorithm 2's re-run.

        Equivalent to a cold run over the prober's bids minus that
        phone's (truncated after ``stop_after_slot``), but resumed from
        the excluded bid's arrival slot.
        """
        last = (
            self._num_slots
            if stop_after_slot is None
            else min(stop_after_slot, self._num_slots)
        )
        excluded_bid = self._bid_by_phone.get(phone_id)
        if excluded_bid is None:
            # Nothing to exclude: identical to the (truncated) base run.
            return self._resume(
                1, self._arrivals_by_slot.get(1, ()), last, phone_id
            )
        start = excluded_bid.arrival
        arrivals_at_start = [
            bid
            for bid in self._arrivals_by_slot.get(start, ())
            if bid.phone_id != phone_id
        ]
        return self._resume(start, arrivals_at_start, last, phone_id)

    def run_with_cost(
        self,
        winner: Bid,
        candidate_cost: float,
        stop_after_slot: Optional[int] = None,
    ) -> GreedyRun:
        """The allocation with ``winner``'s cost replaced — a value probe.

        Equivalent to a cold run on the bid list with ``winner``'s bid
        swapped for ``winner.with_cost(candidate_cost)``, resumed from
        the winner's arrival slot.
        """
        last = (
            self._num_slots
            if stop_after_slot is None
            else min(stop_after_slot, self._num_slots)
        )
        start = winner.arrival
        arrivals_at_start = [
            bid.with_cost(candidate_cost)
            if bid.phone_id == winner.phone_id
            else bid
            for bid in self._arrivals_by_slot.get(start, ())
        ]
        return self._resume(start, arrivals_at_start, last, None)

    def exact_thresholds(self, winner: Bid) -> List[float]:
        """Sorted candidate critical values for ``winner``'s binary search.

        The union of the *other* bids' claimed costs (plus the task
        values, when the reserve price is active), positive entries only;
        the shared sorted index is constructed once per prober and reused
        by every winner.
        """
        if self._thresholds is None:
            self._cost_counts = dict(
                collections.Counter(bid.cost for bid in self._bids)
            )
            self._task_values = frozenset(
                task.value for task in self._schedule
            ) if self._reserve_price else frozenset()
            union = set(self._cost_counts) | set(self._task_values)
            self._thresholds = [t for t in sorted(union) if t > 0.0]
        assert self._cost_counts is not None
        assert self._task_values is not None
        thresholds = self._thresholds
        # Drop the winner's own cost unless another bid (or a task
        # value) also sits on it — mirroring the cold set difference.
        if (
            winner.cost > 0.0
            and self._cost_counts.get(winner.cost, 0) == 1
            and winner.cost not in self._task_values
        ):
            # A unique positive bid cost is guaranteed present in the
            # sorted union, so the bisect lands exactly on it.
            index = bisect.bisect_left(thresholds, winner.cost)
            thresholds = thresholds[:index] + thresholds[index + 1:]
        return thresholds

    def algorithm2_payment(self, winner: Bid, win_slot: int) -> float:
        """Algorithm 2: pay the critical player's claimed cost.

        Re-runs the allocation without ``winner`` up to its reported
        departure and returns the highest claimed cost among bids that
        win in slots ``[win_slot, winner.departure]``, floored at the
        winner's own claimed cost.
        """
        with obs.span(
            "payment.algorithm2", winner=winner.phone_id, win_slot=win_slot
        ):
            rerun = self.run_excluding(
                winner.phone_id, stop_after_slot=winner.departure
            )
            payment = winner.cost
            for other in rerun.winners_between(win_slot, winner.departure):
                if other.cost > payment:
                    payment = other.cost
            return payment

    def exact_payment(self, winner: Bid) -> float:
        """The exact critical value of Definition 9, by binary search.

        Winning is monotone non-increasing in the claimed cost (Theorem
        4's monotonicity argument, verified by the property tests), and
        the win/lose outcome can only change when the claimed cost
        crosses another bid's cost (or the task value, when a reserve is
        active).  The supremum of winning costs is therefore attained at
        one of :meth:`exact_thresholds`, found with ``O(log n)`` probes.

        When the winner is uncontested — it would win at *any* price —
        the critical value is unbounded.  With a reserve price the task
        value caps it; without, Algorithm 2's behaviour of paying the
        winner's own claimed cost applies (see
        :mod:`repro.mechanisms.critical_payment` for the caveat).
        """
        with obs.span("payment.exact", winner=winner.phone_id) as tel:
            probes = 0

            def wins_with(candidate_cost: float) -> bool:
                nonlocal probes
                probes += 1
                rerun = self.run_with_cost(
                    winner, candidate_cost, stop_after_slot=winner.departure
                )
                return winner.phone_id in rerun.win_slots

            try:
                thresholds = self.exact_thresholds(winner)
                if not thresholds:
                    return winner.cost
                # Probe strictly above the largest threshold: uncontested?
                if wins_with(thresholds[-1] + 1.0):
                    if self._reserve_price:
                        return max(thresholds[-1], winner.cost)
                    return winner.cost
                # Probe region k is (thresholds[k-1], thresholds[k]); its
                # representative is a midpoint.  Winning is monotone over
                # regions, so binary-search the last winning region; the
                # critical value is that region's right endpoint.
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
                    # The winner won with its submitted bid yet loses in
                    # every probe region; its own cost must sit exactly
                    # on a threshold where the tie-break favours it.  The
                    # critical value is its own cost.
                    return winner.cost
                return max(thresholds[best], winner.cost)
            finally:
                tel.set_attribute("probes", probes)
                obs.counter("payment.exact.probes", probes)
