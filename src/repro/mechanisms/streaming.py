"""The online mechanism's engine: Algorithm 1 and Algorithm 2 in one pass.

Every online run in the library — :class:`~repro.mechanisms
.OnlineGreedyMechanism` over a whole round, and the live
:class:`~repro.auction.CrowdsourcingPlatform` one slot at a time — is
driven by :class:`StreamingGreedyEngine`.  Payments are answered from
bookkeeping done *during* the allocation pass instead of by re-running
Algorithm 1 per winner.

Event model
-----------
A round is consumed as one merged stream of events in slot order:

* **arrival** — the bid enters the pool.  A whole round pre-buckets
  arrivals with numpy (one ``argsort`` over the arrival column plus a
  ``searchsorted`` per-slot boundary table), so the per-slot arrival
  scan costs O(arrivals in slot), never O(n); a live round pushes each
  bid as it is submitted (:meth:`StreamingGreedyEngine.push`).
* **expiry** — a bid whose departure has passed is discarded lazily
  when it surfaces at the top of the pool.
* **selection** — a task pops the cheapest active unallocated bid.

Both drivers close each slot with the same step
(:meth:`StreamingGreedyEngine.close_slot`): select bids for the slot's
tasks, then append the slot's payment records.

The pool is a single binary heap keyed by
:func:`~repro.mechanisms.greedy_core.bid_sort_key`; every event is
O(log n), and each bid is pushed and popped at most once, so a full
round costs O((n + γ) log n) with *no* per-probe re-walks.

Heap invariants
---------------
Entries are ``(cost, arrival, phone_id, index)`` tuples.  The first
three fields are exactly ``bid_sort_key`` — a *strict total order*,
since ``phone_id`` is unique — so the pop sequence is a function of the
entry multiset alone, independent of internal heap layout and of the
order bids were pushed in.

Incremental critical thresholds
-------------------------------
Removing winner ``i`` from the greedy run (Algorithm 2's re-run)
perturbs it only along a *displacement cascade*: at ``i``'s win slot
the remaining winners shift up by one and the slot's recorded
**runner-up** is additionally selected; if that runner-up was itself a
base winner at a later slot, the same displacement repeats there, and
so on until a runner-up is ``None`` (the slot gains an unserved task)
or the runner-up never wins in the base run.  Runner-ups depend only on
the base run, so they are recorded once per slot during the single
pass, and every winner's Algorithm-2 payment reduces to a range-max of
per-slot winner costs over the winner's window plus the runner-up
costs along its cascade — O(cascade length), typically O(1).

The exact critical value (Definition 9) falls out of the same records:
per slot, the marginal threshold below which an extra bid would be
selected is the last winner's cost (fully served slot) or the open
threshold — ``+inf`` without a reserve price, the task value with one —
and the supremum over the winner's window, adjusted along the cascade,
*is* the critical value the binary search converges to (Theorems 4–7
justify monotonicity; see ARCHITECTURE.md for the argument).

Records only cover the slots closed so far, and every payment reads
slots up to the winner's departure, so a live round can price a winner
the moment its departure slot closes.  Two kinds of question fall back
to the engine's :class:`~repro.mechanisms.greedy_core.GreedyProber`
over the bids and tasks seen so far: any payment under a reserve price
once the task values seen differ (the within-slot shift can change
reserve outcomes), and a winner the records do not describe — one that
won another slot (Algorithm 2) or did not win (exact rule) in the
engine's own run, which only a live round whose allocation diverged
through a dropout or reassignment asks about.  Results are
bit-identical either way.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.greedy_core import GreedyProber, GreedyRun, SlotOutcome
from repro.model.bid import Bid
from repro.model.task import SensingTask, TaskSchedule
from repro.obs.clock import perf_seconds

#: A pool entry: ``(cost, arrival, phone_id, index)``.  The first three
#: fields are ``bid_sort_key`` verbatim; the trailing index reaches the
#: bid's departure and object in O(1) and never participates in
#: comparisons (the prefix is already a strict total order).
_Entry = Tuple[float, int, int, int]

_INF = float("inf")
_NEG_INF = float("-inf")


class _RangeMax:
    """O(1) range-max over a growing float list (append-only sparse table).

    Level 0 *is* the caller's list; each query first extends the higher
    levels over the entries appended since the last one, O(log n) per
    entry.  ``query(lo, hi)`` (inclusive bounds) overlaps two
    power-of-two blocks — max is idempotent, so the overlap is harmless.
    Values are plain Python floats and the query returns one of them
    unchanged (no arithmetic), preserving bit-identity.
    """

    def __init__(self, values: List[float]) -> None:
        self._tables: List[List[float]] = [values]
        self._size = 0

    def _extend(self) -> None:
        tables = self._tables
        values = tables[0]
        while self._size < len(values):
            self._size += 1
            level, span = 1, 1
            while 2 * span <= self._size:
                if level == len(tables):
                    tables.append([])
                prev = tables[level - 1]
                left = prev[self._size - 2 * span]
                right = prev[self._size - span]
                tables[level].append(left if left >= right else right)
                level += 1
                span *= 2

    def query(self, lo: int, hi: int) -> float:
        """Max of ``values[lo..hi]`` (inclusive); requires ``lo <= hi``."""
        if self._size < len(self._tables[0]):
            self._extend()
        level = (hi - lo + 1).bit_length() - 1
        table = self._tables[level]
        left = table[lo]
        right = table[hi - (1 << level) + 1]
        return left if left >= right else right


class StreamingGreedyEngine:
    """One-pass Algorithm 1 with per-slot payment records (module doc).

    ``StreamingGreedyEngine(bids, schedule)`` runs a whole round;
    :meth:`online` starts an empty one that is fed with :meth:`push`
    and :meth:`close_slot`.  :meth:`algorithm2_payment` and
    :meth:`exact_payment` price a winner from the records, or through
    :attr:`prober` when the records cannot answer.

    A live round also needs a pool that forgets phones which vanished:
    :meth:`drop` removes one for good, :meth:`pop_covering` serves a
    reassignment, and :meth:`pool_size` counts the live pool.  None of
    them touches the payment records of *another* engine, so a platform
    runs two: one fed every bid and task to price payments, one whose
    pool also loses dropped and failed phones to allocate.  With no
    fault reported the two select identically.
    """

    def __init__(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        reserve_price: bool = False,
    ) -> None:
        self._start(schedule.num_slots, reserve_price)
        self._source: Optional[Sequence[Bid]] = bids
        self._schedule: Optional[TaskSchedule] = schedule
        self._bids = list(bids)
        count = len(self._bids)
        self._bid_by_phone = {bid.phone_id: bid for bid in self._bids}
        num_slots = self._num_slots

        # Pre-bucket arrivals with numpy: one stable argsort over the
        # arrival column, then a searchsorted boundary table, so slot
        # ``s`` reads ``order[bounds[s-1]:bounds[s]]`` — the same
        # interval trick ``matching/graph.py`` uses for window masks.
        arrival = np.fromiter(
            (bid.arrival for bid in self._bids), dtype=np.int64, count=count
        )
        order = np.argsort(arrival, kind="stable")
        bounds = np.searchsorted(
            arrival[order], np.arange(1, num_slots + 2)
        ).tolist()
        order_list: List[int] = order.tolist()
        # Plain Python lists for the hot loop: scalar indexing into
        # numpy arrays allocates a boxed scalar per access, which
        # dominates at 10⁶ bids.  ``tolist`` round-trips exactly.
        cost = [bid.cost for bid in self._bids]
        arr: List[int] = arrival.tolist()
        pid = [bid.phone_id for bid in self._bids]
        self._dep = [bid.departure for bid in self._bids]

        pool = self._pool
        heappush = heapq.heappush
        close = self._close
        tasks_in_slot = schedule.tasks_in_slot
        started = perf_seconds()
        with obs.span("greedy.allocation", bids=count, slots=num_slots) as tel:
            for slot in range(1, num_slots + 1):
                lo = bounds[slot - 1]
                hi = bounds[slot]
                for position in range(lo, hi):
                    index = order_list[position]
                    heappush(
                        pool,
                        (cost[index], arr[index], pid[index], index),
                    )
                self._events += hi - lo
                close(slot, tasks_in_slot(slot))
            tel.set_attribute("events", self._events)
            tel.set_attribute("candidate_evals", self._candidate_evals)
            tel.set_attribute("winners", len(self._win_slots))
            tel.set_attribute(
                "unserved",
                sum(outcome.unserved for outcome in self._slot_outcomes),
            )
            obs.counter("greedy.candidate_evals", self._candidate_evals)
        elapsed = perf_seconds() - started
        rate = self._events / elapsed if elapsed > 0 else 0.0
        obs.counter("online.stream.events", self._events)
        obs.gauge("online.stream.events_per_second", rate)

    @classmethod
    def online(
        cls, num_slots: int, reserve_price: bool = False
    ) -> "StreamingGreedyEngine":
        """An empty engine for a live round of ``num_slots`` slots."""
        engine = cls.__new__(cls)
        engine._start(num_slots, reserve_price)
        engine._source = None
        engine._schedule = None
        engine._bids = []
        engine._bid_by_phone = {}
        engine._dep = []
        return engine

    def _start(self, num_slots: int, reserve_price: bool) -> None:
        self._num_slots = num_slots
        self._reserve_price = bool(reserve_price)
        self._closed = 0
        self._tasks: List[SensingTask] = []
        self._task_values: Set[float] = set()
        self._pool: List[_Entry] = []
        self._allocation: Dict[int, int] = {}
        self._win_slots: Dict[int, int] = {}
        self._slot_outcomes: List[SlotOutcome] = []
        self._run: Optional[GreedyRun] = None
        # Per-slot payment records, 1-indexed (entry 0 is padding).
        self._last_cost: List[float] = [_NEG_INF]
        self._theta: List[float] = [_NEG_INF]
        self._runner_up: Dict[int, Optional[_Entry]] = {}
        self._cost_rmq = _RangeMax(self._last_cost)
        self._theta_rmq = _RangeMax(self._theta)
        self._prober: Optional[GreedyProber] = None
        self._events = 0
        self._candidate_evals = 0
        self._cascade_steps = 0
        # Live-pool bookkeeping (only the online entry points keep it).
        self._index_of: Dict[int, int] = {}
        self._gone: Set[int] = set()
        self._live = 0
        self._live_by_departure: Dict[int, int] = {}
        self._expired_through = 0

    # ------------------------------------------------------------------
    # The per-slot step
    # ------------------------------------------------------------------
    def _close(
        self, slot: int, tasks: Sequence[SensingTask]
    ) -> List[Optional[_Entry]]:
        """Select bids for ``slot``'s tasks and append its records.

        Returns one pool entry (or ``None``, unserved) per task.
        """
        self._closed = slot
        if not tasks:
            self._last_cost.append(_NEG_INF)
            self._theta.append(_NEG_INF)
            return []
        pool = self._pool
        dep = self._dep
        allocation = self._allocation
        win_slots = self._win_slots
        reserve = self._reserve_price
        heappop = heapq.heappop
        if reserve and len(self._task_values) < 2:
            self._task_values.update(task.value for task in tasks)
        events = 0
        candidate_evals = 0
        picks: List[Optional[_Entry]] = []
        winners: List[_Entry] = []
        for task in tasks:
            chosen: Optional[_Entry] = None
            task_value = task.value
            while pool:
                candidate_evals += 1
                top = pool[0]
                if dep[top[3]] < slot:  # expiry event
                    heappop(pool)
                    events += 1
                    continue
                if reserve and top[0] > task_value:
                    break
                chosen = heappop(pool)
                events += 1
                break
            picks.append(chosen)
            if chosen is None:
                continue
            allocation[task.task_id] = chosen[2]
            win_slots[chosen[2]] = slot
            winners.append(chosen)
        unserved = len(tasks) - len(winners)

        # Winners pop in increasing sort order, so the last one carries
        # the slot's maximum winning cost.
        self._last_cost.append(winners[-1][0] if winners else _NEG_INF)
        if unserved:
            # An extra bid cheap enough (and under the reserve, when
            # active) would have been selected here no matter what: the
            # slot's marginal threshold is open, and removing a winner
            # frees no one.
            self._theta.append(self._open_threshold())
            self._runner_up[slot] = None
        else:
            self._theta.append(winners[-1][0])
            # Peek (never pop) the first still-valid candidate after the
            # slot's winners: the bid that inherits a selection if one
            # winner is removed.
            successor: Optional[_Entry] = None
            last_value = tasks[-1].value
            while pool:
                top = pool[0]
                if dep[top[3]] < slot:
                    heappop(pool)
                    events += 1
                    continue
                if reserve and top[0] > last_value:
                    break
                successor = top
                break
            self._runner_up[slot] = successor
        bids = self._bids
        self._slot_outcomes.append(
            SlotOutcome(
                slot=slot,
                winners=tuple(bids[entry[3]] for entry in winners),
                unserved=unserved,
            )
        )
        self._events += events
        self._candidate_evals += candidate_evals
        return picks

    def _open_threshold(self) -> float:
        """Where an under-supplied slot stops admitting an extra bid:
        unbounded without a reserve, the common task value with one."""
        if self._reserve_price and len(self._task_values) == 1:
            return next(iter(self._task_values))
        return _INF

    # ------------------------------------------------------------------
    # Driving a live round
    # ------------------------------------------------------------------
    def push(self, bid: Bid) -> None:
        """Pool a bid submitted in the open slot."""
        index = len(self._bids)
        phone_id = bid.phone_id
        departure = bid.departure
        self._bids.append(bid)
        self._bid_by_phone[phone_id] = bid
        self._dep.append(departure)
        self._index_of[phone_id] = index
        heapq.heappush(
            self._pool, (bid.cost, bid.arrival, phone_id, index)
        )
        self._events += 1
        self._live += 1
        live = self._live_by_departure
        live[departure] = live.get(departure, 0) + 1
        self._prober = None

    def close_slot(
        self, slot: int, tasks: Sequence[SensingTask]
    ) -> List[Optional[Bid]]:
        """Close ``slot`` with its ``tasks``: the bid each task went to
        (``None`` when unserved), in task order."""
        if slot != self._closed + 1 or slot > self._num_slots:
            raise MechanismError(
                f"cannot close slot {slot}: slot {self._closed} was the "
                f"last closed of {self._num_slots}"
            )
        self._tasks.extend(tasks)
        self._schedule = None
        self._prober = None
        self._run = None
        chosen: List[Optional[Bid]] = []
        for entry in self._close(slot, tasks):
            if entry is None:
                chosen.append(None)
                continue
            self._leave(entry[3])
            chosen.append(self._bids[entry[3]])
        return chosen

    def drop(self, phone_id: int) -> None:
        """A pushed phone left without notice: never select it again."""
        index = self._index_of[phone_id]
        # A departure before every slot makes the heap discard the
        # entry the next time it surfaces, like any expired bid.
        self._dep[index] = 0
        self._leave(index)

    def pop_covering(
        self, slot: int, task: SensingTask
    ) -> Optional[Bid]:
        """Take the cheapest live bid whose window covers ``task``'s slot.

        Serves an in-slot reassignment in ``slot``.  Unlike a selection,
        eligibility is not monotone in heap order (a cheap bid may have
        arrived after the task's slot), so alive but ineligible entries
        are set aside and pushed back.
        """
        pool = self._pool
        dep = self._dep
        stash: List[_Entry] = []
        chosen: Optional[_Entry] = None
        while pool:
            entry = heapq.heappop(pool)
            if dep[entry[3]] < slot:
                continue  # expired or dropped: gone for good
            if self._reserve_price and entry[0] > task.value:
                stash.append(entry)
                break  # cost-ordered: nobody cheaper remains
            if entry[1] > task.slot:
                stash.append(entry)
                continue  # alive, but arrived after the task's slot
            chosen = entry
            break
        for entry in stash:
            heapq.heappush(pool, entry)
        if chosen is None:
            return None
        self._leave(chosen[3])
        return self._bids[chosen[3]]

    def _leave(self, index: int) -> None:
        """Bid ``index`` was selected or dropped: out of the live pool."""
        if index in self._gone:
            return
        self._gone.add(index)
        departure = self._bids[index].departure
        if departure > self._expired_through:
            self._live -= 1
            self._live_by_departure[departure] -= 1

    def pool_size(self, slot: int) -> int:
        """Pooled bids still live in ``slot``: present by then, not yet
        departed, selected or dropped.  ``slot`` never decreases."""
        while self._expired_through < slot - 1:
            self._expired_through += 1
            self._live -= self._live_by_departure.pop(
                self._expired_through, 0
            )
        return self._live

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bids(self) -> Tuple[Bid, ...]:
        """The bids seen so far."""
        return tuple(self._bids)

    def covers(self, bids: Sequence[Bid]) -> bool:
        """Whether the engine holds exactly ``bids``.

        Identity first (O(1) for the same sequence a mechanism run
        threads through every payment call), elementwise comparison as
        the fallback — same contract as ``GreedyProber.covers``.
        """
        return bids is self._source or list(bids) == self._bids

    @property
    def schedule(self) -> TaskSchedule:
        """The tasks seen so far (the whole schedule of a full round)."""
        if self._schedule is None:
            self._schedule = TaskSchedule(self._num_slots, self._tasks)
        return self._schedule

    @property
    def reserve_price(self) -> bool:
        """Whether the walk refuses negative-welfare assignments."""
        return self._reserve_price

    @property
    def bid_by_phone(self) -> Dict[int, Bid]:
        """``phone_id -> bid`` index over the engine's bids (read-only)."""
        return self._bid_by_phone

    @property
    def base_run(self) -> GreedyRun:
        """The allocation over the slots closed so far."""
        if self._run is None:
            self._run = GreedyRun(
                allocation=self._allocation,
                win_slots=self._win_slots,
                slots=tuple(self._slot_outcomes),
            )
        return self._run

    @property
    def events(self) -> int:
        """Arrival + expiry + selection events consumed so far."""
        return self._events

    @property
    def cascade_steps(self) -> int:
        """Displacement-cascade hops walked by payments so far."""
        return self._cascade_steps

    @property
    def supports_incremental_payments(self) -> bool:
        """Whether the records answer payments at all (see module doc)."""
        return not self._reserve_price or len(self._task_values) == 1

    @property
    def prober(self) -> GreedyProber:
        """Snapshot-resume fallback over the bids and tasks seen so far,
        built on first use after each change."""
        if self._prober is None:
            self._prober = GreedyProber(
                self._bids if self._source is None else self._source,
                self.schedule,
                reserve_price=self._reserve_price,
            )
        return self._prober

    # ------------------------------------------------------------------
    # Payments
    # ------------------------------------------------------------------
    def algorithm2_payment(self, winner: Bid, win_slot: int) -> float:
        """Algorithm 2's payment for ``winner``, who won ``win_slot``.

        Read off the records when ``winner`` won that slot in the
        engine's own run, or never won in it (then the re-run without
        it is the run itself); anything else goes to the prober.
        """
        recorded = self._win_slots.get(winner.phone_id)
        if not self.supports_incremental_payments or recorded not in (
            None,
            win_slot,
        ):
            obs.counter("online.stream.payment_fallbacks")
            return self.prober.algorithm2_payment(winner, win_slot)
        with obs.span(
            "payment.algorithm2", winner=winner.phone_id, win_slot=win_slot
        ):
            departure = min(winner.departure, self._closed)
            payment = winner.cost
            if win_slot <= departure:
                best = self._cost_rmq.query(win_slot, departure)
                if best > payment:
                    payment = best
            if recorded is None:
                return payment
            slot = win_slot
            steps = 0
            while True:
                successor = self._runner_up[slot]
                if successor is None:
                    # The slot gains an unserved task instead of a new
                    # winner; the re-run converges back onto the run.
                    break
                steps += 1
                if successor[0] > payment:
                    payment = successor[0]
                next_slot = self._win_slots.get(successor[2])
                if next_slot is None or next_slot > departure:
                    break
                slot = next_slot
            self._cascade_steps += steps
            return payment

    def exact_payment(self, winner: Bid) -> float:
        """The exact critical value for ``winner``.

        For a winner of the engine's own run: the supremum of the
        per-slot marginal thresholds over its window, with the
        cascade's runner-up costs (which can only raise a slot's
        marginal) folded in; ``+inf`` means the winner is uncontested
        and Algorithm 2's own-bid fallback applies — exactly the value
        the binary search converges to.  Anyone else goes to the
        prober.
        """
        win_slot = self._win_slots.get(winner.phone_id)
        if win_slot is None or not self.supports_incremental_payments:
            obs.counter("online.stream.payment_fallbacks")
            return self.prober.exact_payment(winner)
        with obs.span("payment.exact", winner=winner.phone_id) as tel:
            tel.set_attribute("probes", 0)
            departure = min(winner.departure, self._closed)
            threshold = self._theta_rmq.query(winner.arrival, departure)
            slot = win_slot
            steps = 0
            while True:
                successor = self._runner_up[slot]
                if successor is None:
                    # The cascade ends in a newly unserved task: within
                    # the window the winner's slot became open.
                    open_threshold = self._open_threshold()
                    if open_threshold > threshold:
                        threshold = open_threshold
                    break
                steps += 1
                if successor[0] > threshold:
                    threshold = successor[0]
                next_slot = self._win_slots.get(successor[2])
                if next_slot is None or next_slot > departure:
                    break
                slot = next_slot
            self._cascade_steps += steps
            if threshold == _INF:
                return winner.cost
            return threshold if threshold > winner.cost else winner.cost
