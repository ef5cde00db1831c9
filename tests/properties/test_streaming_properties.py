"""Streaming-vs-batch equivalence properties of the online engine.

The guarantee under test: ``OnlineGreedyMechanism``, which runs the
streaming engine, returns exactly what the cold batch oracle
(``tests/online_oracle.py``: one full re-run per payment) returns — the
*pickled* ``AuctionOutcome`` objects are byte-identical on every
instance, for both payment rules and both reserve modes.  Byte-identity of the pickle
is deliberately stronger than field equality: it also pins dict
insertion order (allocation, payments, payment slots), so any drift in
the event-driven pass's iteration order shows up here.

Exact float equality on money-valued quantities is the entire point of
this suite, hence the REP002 suppressions.
"""

import pickle
from typing import List

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector, apply_bid_faults
from repro.mechanisms import OnlineGreedyMechanism
from repro.model.bid import Bid
from repro.model.task import SensingTask, TaskSchedule
from repro.simulation.costs import CostDistribution
from repro.simulation.workload import WorkloadConfig
from tests.online_oracle import online_outcome

#: The headline property sweep: 50 independent Table-I style rounds.
SEEDS = range(50)


class TieHeavyCosts(CostDistribution):
    """Costs drawn from a handful of small integers.

    Small integers are exact in floating point and collide constantly,
    so every instance is saturated with tied bids — the regime where
    the streaming heap's pop order is most likely to diverge from the
    batch sort if ``bid_sort_key`` ever stopped being a strict total
    order.
    """

    def sample(self, count: int, rng: np.random.Generator) -> List[float]:
        self._check_count(count)
        return [float(c) for c in rng.integers(20, 26, size=count)]

    @property
    def mean(self) -> float:
        return 22.5

    def __repr__(self) -> str:
        return "TieHeavyCosts()"


def _round(seed: int, cost_distribution=None, **config):
    scenario = WorkloadConfig(**config).generate(
        seed=seed, cost_distribution=cost_distribution
    )
    return scenario, scenario.truthful_bids()


def _assert_byte_identical(bids, schedule, *, payment_rule, reserve_price):
    batch = online_outcome(
        bids,
        schedule,
        reserve_price=reserve_price,
        payment_rule=payment_rule,
    )
    streaming = OnlineGreedyMechanism(
        reserve_price=reserve_price, payment_rule=payment_rule
    ).run(bids, schedule)
    assert pickle.dumps(streaming) == pickle.dumps(batch)
    return batch, streaming


@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_is_byte_identical_to_batch(seed, payment_rule):
    scenario, bids = _round(seed, num_slots=20)
    _assert_byte_identical(
        bids,
        scenario.schedule,
        payment_rule=payment_rule,
        reserve_price=False,
    )


@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_streaming_with_reserve_price_is_byte_identical(seed, payment_rule):
    scenario, bids = _round(seed, num_slots=20)
    _assert_byte_identical(
        bids,
        scenario.schedule,
        payment_rule=payment_rule,
        reserve_price=True,
    )


@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_tie_heavy_costs_stay_byte_identical(seed, payment_rule):
    scenario, bids = _round(
        seed, cost_distribution=TieHeavyCosts(), num_slots=20
    )
    batch, streaming = _assert_byte_identical(
        bids,
        scenario.schedule,
        payment_rule=payment_rule,
        reserve_price=False,
    )
    assert streaming.payments == batch.payments  # repro: noqa-REP002 -- exact arithmetic on integer costs, ties included


@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_unit_length_windows_stay_byte_identical(seed, payment_rule):
    """Every phone arrives and departs in the same slot."""
    scenario, bids = _round(seed, num_slots=15, mean_active_length=1)
    _assert_byte_identical(
        bids,
        scenario.schedule,
        payment_rule=payment_rule,
        reserve_price=False,
    )


@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_fault_injected_rounds_stay_byte_identical(seed, payment_rule):
    """Dropouts, delayed bids, and lost bids before the auction.

    The effective bid vector a faulty round hands the mechanism has
    shrunk windows (delays), missing phones (losses), and — for
    dropouts — departures truncated at the dropout slot; the streaming
    engine must agree byte-for-byte on all of them.
    """
    scenario, bids = _round(seed, num_slots=20)
    injector = FaultInjector(
        FaultConfig(
            dropout_prob=0.2, bid_delay_prob=0.2, bid_loss_prob=0.1
        )
    )
    plan = injector.plan(scenario, seed=seed)
    effective, lost, _ = apply_bid_faults(list(bids), plan)
    truncated = []
    for bid in effective:
        record = plan.for_phone(bid.phone_id)
        if record is not None and record.dropout_slot is not None:
            if record.dropout_slot < bid.arrival:
                continue
            bid = bid.with_window(
                bid.arrival, min(bid.departure, record.dropout_slot)
            )
        truncated.append(bid)
    assert len(truncated) < len(bids) or not lost
    _assert_byte_identical(
        truncated,
        scenario.schedule,
        payment_rule=payment_rule,
        reserve_price=False,
    )


@pytest.mark.parametrize("seed", range(8))
def test_heterogeneous_values_with_reserve_fall_back_identically(seed):
    """The probe-resume fallback regime stays byte-identical too.

    Heterogeneous task values plus a reserve price invalidate the
    incremental shortcuts (``uniform_value`` is ``None``), so the
    streaming engine routes payments through its lazy prober — the
    outcome must not change.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    task_id = 0
    for slot in range(1, 13):
        for index in range(1, int(rng.integers(0, 4)) + 1):
            tasks.append(
                SensingTask(
                    task_id=task_id,
                    slot=slot,
                    index=index,
                    value=float(rng.integers(25, 40)),
                )
            )
            task_id += 1
    schedule = TaskSchedule(12, tasks)
    bids = []
    for i in range(30):
        arrival = int(rng.integers(1, 12))
        bids.append(
            Bid(
                phone_id=i,
                arrival=arrival,
                departure=int(rng.integers(arrival, 13)),
                cost=float(rng.integers(15, 35)),
            )
        )
    for payment_rule in ("paper", "exact"):
        _assert_byte_identical(
            bids,
            schedule,
            payment_rule=payment_rule,
            reserve_price=True,
        )


def test_degenerate_rounds_byte_identical():
    """Empty task slots, no bids, and single-phone rounds."""
    schedule = TaskSchedule.from_counts([1, 0, 2], value=30.0)
    cases = [
        [],
        [Bid(phone_id=0, arrival=1, departure=3, cost=10.0)],
        [
            Bid(phone_id=0, arrival=2, departure=2, cost=5.0),  # no tasks
            Bid(phone_id=1, arrival=3, departure=3, cost=8.0),
        ],
    ]
    for bids in cases:
        for payment_rule in ("paper", "exact"):
            _assert_byte_identical(
                bids,
                schedule,
                payment_rule=payment_rule,
                reserve_price=False,
            )
