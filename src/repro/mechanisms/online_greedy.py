"""The online near-optimal truthful mechanism (Section V of the paper).

Allocation is Algorithm 1 (per-slot greedy, cheapest active unallocated
bid first); payments are critical-value payments per Algorithm 2, settled
at each winner's reported departure slot.  The mechanism is monotone and
pays critical values, hence truthful (Theorem 4), individually rational
(Theorem 5), 1/2-competitive against the offline optimum (Theorem 6), and
runs in polynomial time (Theorem 7).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.base import Mechanism
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule

_PAYMENT_RULES = ("paper", "exact")


class OnlineGreedyMechanism(Mechanism):
    """Greedy allocation (Algorithm 1) + critical-value payments (Alg. 2).

    Parameters
    ----------
    reserve_price:
        When ``True``, bids claiming more than a task's value are never
        allocated that task.  The paper has no reserve (see
        :mod:`repro.mechanisms.greedy_core`); benches that compare welfare
        against the offline optimum enable it so that the online run never
        takes negative-welfare assignments the optimum would refuse.
    payment_rule:
        ``"paper"`` (default) uses Algorithm 2 verbatim; ``"exact"``
        computes the true critical value (see
        :mod:`repro.mechanisms.critical_payment` for when they differ).

    One :class:`~repro.mechanisms.streaming.StreamingGreedyEngine` pass
    yields the allocation and the per-slot records every payment is read
    from.  Although the mechanism is conceptually online, :meth:`run`
    consumes a complete round like every other mechanism — determinism
    plus the restriction that allocation in slot ``t`` only reads bids
    with ``arrival <= t`` makes this exactly equivalent to a
    slot-by-slot execution; :class:`repro.auction.platform
    .CrowdsourcingPlatform` drives the same engine incrementally.
    """

    name = "online-greedy"
    is_truthful = True
    is_online = True

    def __init__(
        self,
        reserve_price: bool = False,
        payment_rule: str = "paper",
    ) -> None:
        if payment_rule not in _PAYMENT_RULES:
            raise MechanismError(
                f"unknown payment_rule {payment_rule!r}; expected one of "
                f"{_PAYMENT_RULES}"
            )
        self._reserve_price = bool(reserve_price)
        self._payment_rule = payment_rule

    @property
    def reserve_price(self) -> bool:
        """Whether negative-welfare assignments are refused."""
        return self._reserve_price

    @property
    def payment_rule(self) -> str:
        """The active payment rule, ``"paper"`` or ``"exact"``."""
        return self._payment_rule

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        self._resolve_config(bids, schedule, config)
        engine = StreamingGreedyEngine(
            bids, schedule, reserve_price=self._reserve_price
        )
        greedy = engine.base_run
        bid_by_phone = engine.bid_by_phone
        paper = self._payment_rule == "paper"
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        for phone_id, win_slot in greedy.win_slots.items():
            winner = bid_by_phone[phone_id]
            if paper:
                payments[phone_id] = engine.algorithm2_payment(
                    winner, win_slot
                )
            else:
                payments[phone_id] = engine.exact_payment(winner)
            # The paper: "each smartphone receives its payment in its
            # reported departure slot."
            payment_slots[phone_id] = winner.departure
        # Reported once, after the payment loop: how much cascade
        # walking the whole round needed (zero is common — most
        # removals cascade nowhere).
        obs.counter("online.stream.cascade_steps", engine.cascade_steps)

        return AuctionOutcome(
            bids=bids,
            schedule=schedule,
            allocation=greedy.allocation,
            payments=payments,
            payment_slots=payment_slots,
        )
