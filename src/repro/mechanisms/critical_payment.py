"""Critical-value payments for the online mechanism (Algorithm 2).

The paper pays each online winner ``i`` (who won in slot ``t'_i``) the
claimed cost of its *critical player*: re-run the greedy allocation with
``B_i`` removed and take the highest claimed cost among smartphones that
win in slots ``[t'_i, d̃_i]``, floored at ``b_i`` (Algorithm 2).  Payment
is delivered in the reported departure slot.

Two payment rules are provided:

* :func:`algorithm2_payment` — the paper's Algorithm 2, verbatim.
* :func:`exact_critical_payment` — the true critical value
  ``sup { b : i still wins when bidding b }`` computed by a monotone
  binary search over candidate thresholds.  The two agree whenever every
  task in the winner's window is served in the re-run; they differ in
  *under-supplied* windows, where Algorithm 2 falls back to paying the
  winner's own bid even though the winner would have won at any price —
  a known gap in the paper's analysis that breaks cost-truthfulness for
  uncontested winners (documented in DESIGN.md §7 and exercised by the
  test suite).  With a reserve price active, the exact rule pays the task
  value in that case, restoring truthfulness.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import MechanismError
from repro.mechanisms.greedy_core import GreedyProber
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.model.bid import Bid
from repro.model.task import TaskSchedule


def _source(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    reserve_price: bool,
    prober: Optional[GreedyProber],
    engine: Optional[StreamingGreedyEngine],
) -> Union[GreedyProber, StreamingGreedyEngine]:
    """The engine or prober that answers a payment call.

    A given engine (else prober) must have been built for exactly this
    auction — a mismatched one would silently price another — so the
    guard is strict equality on the reserve flag and the full bid
    vector (identity first, so the common case is O(1)).  Without
    either, a prober is built for the call.
    """
    given = engine if engine is not None else prober
    if given is None:
        return GreedyProber(bids, schedule, reserve_price=reserve_price)
    kind = "streaming engine" if given is engine else "prober"
    if given.reserve_price != reserve_price:  # repro: noqa-REP002 -- boolean flag, not a money value
        raise MechanismError(
            f"{kind} reserve_price does not match the payment call"
        )
    if not given.covers(bids):
        raise MechanismError(f"{kind} was built for a different bid vector")
    return given


def algorithm2_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    win_slot: int,
    reserve_price: bool = False,
    prober: Optional[GreedyProber] = None,
    engine: Optional[StreamingGreedyEngine] = None,
) -> float:
    """Algorithm 2 of the paper: pay the critical player's claimed cost.

    The re-run without ``winner`` up to its reported departure, and the
    highest claimed cost among bids that win in slots ``[win_slot,
    winner.departure]``, floored at the winner's own claimed cost.  A
    :class:`~repro.mechanisms.streaming.StreamingGreedyEngine` reads it
    off its per-slot records when they apply; a
    :class:`~repro.mechanisms.greedy_core.GreedyProber` resumes the
    re-run from the winner's arrival slot.  Without either, a prober is
    built for the call.  All routes are bit-identical.
    """
    if not (winner.arrival <= win_slot <= winner.departure):
        raise MechanismError(
            f"win slot {win_slot} outside phone {winner.phone_id}'s "
            f"claimed window [{winner.arrival}, {winner.departure}]"
        )
    source = _source(bids, schedule, reserve_price, prober, engine)
    return source.algorithm2_payment(winner, win_slot)


def exact_critical_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool = False,
    prober: Optional[GreedyProber] = None,
    engine: Optional[StreamingGreedyEngine] = None,
) -> float:
    """The exact critical value of Definition 9.

    ``sup { b : winner still wins when bidding b }``: read off a
    streaming engine's per-slot marginal thresholds for its own winners,
    otherwise found by :meth:`GreedyProber.exact_payment`'s binary
    search over the other bids' costs.  When the winner is uncontested
    the critical value is unbounded: with ``reserve_price`` the task
    value caps it; without, the winner is paid its own claimed cost (the
    truthfulness caveat of the module docstring).
    """
    source = _source(bids, schedule, reserve_price, prober, engine)
    return source.exact_payment(winner)
