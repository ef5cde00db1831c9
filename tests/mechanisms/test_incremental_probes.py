"""Incremental payment probes vs cold re-runs — exact equality.

A :class:`GreedyProber` answers Algorithm-2 re-runs and exact-payment
probes by resuming from a per-slot snapshot instead of replaying the
whole auction.  Slot resumption must be invisible: every payment it
produces has to match the cold oracle (``tests/online_oracle.py``)
bit-for-bit, across seeds and both reserve-price modes.
"""

from __future__ import annotations

import pytest

from repro.errors import MechanismError
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.mechanisms.greedy_core import GreedyProber
from repro.simulation import WorkloadConfig
from tests import online_oracle

SEEDS = range(12)
RESERVE_MODES = (False, True)


def _instance(seed):
    scenario = WorkloadConfig.paper_default().replace(
        num_slots=15
    ).generate(seed=seed)
    return scenario.truthful_bids(), scenario.schedule


class TestProberBaseRun:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_base_run_equals_cold_allocation(self, seed, reserve):
        bids, schedule = _instance(seed)
        prober = GreedyProber(bids, schedule, reserve_price=reserve)
        cold = online_oracle.run_greedy_allocation(
            bids, schedule, reserve_price=reserve
        )
        assert prober.base_run == cold


class TestAlgorithm2Incremental:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_equals_cold_payment(self, seed, reserve):
        bids, schedule = _instance(seed)
        prober = GreedyProber(bids, schedule, reserve_price=reserve)
        base = prober.base_run
        assert base.win_slots, "expected at least one winner"
        bid_by_phone = prober.bid_by_phone
        for phone_id, win_slot in sorted(base.win_slots.items()):
            winner = bid_by_phone[phone_id]
            cold = online_oracle.algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price=reserve
            )
            warm = algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot,
                reserve_price=reserve,
                prober=prober,
            )
            assert warm == cold


class TestExactPaymentIncremental:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_equals_cold_payment(self, seed, reserve):
        bids, schedule = _instance(seed)
        prober = GreedyProber(bids, schedule, reserve_price=reserve)
        base = prober.base_run
        bid_by_phone = prober.bid_by_phone
        for phone_id in sorted(base.win_slots):
            winner = bid_by_phone[phone_id]
            cold = online_oracle.exact_critical_payment(
                bids, schedule, winner, reserve_price=reserve
            )
            warm = exact_critical_payment(
                bids, schedule, winner, reserve_price=reserve, prober=prober
            )
            assert warm == cold


class TestProberGuards:
    def test_rejects_mismatched_reserve(self):
        bids, schedule = _instance(0)
        prober = GreedyProber(bids, schedule, reserve_price=False)
        winner_id = next(iter(prober.base_run.win_slots))
        winner = prober.bid_by_phone[winner_id]
        with pytest.raises(MechanismError, match="reserve_price"):
            exact_critical_payment(
                bids, schedule, winner, reserve_price=True, prober=prober
            )

    def test_rejects_different_bid_vector(self):
        bids, schedule = _instance(0)
        other_bids, _ = _instance(1)
        prober = GreedyProber(other_bids, schedule, reserve_price=False)
        winner_id = next(iter(prober.base_run.win_slots))
        winner = prober.bid_by_phone[winner_id]
        with pytest.raises(MechanismError, match="different bid vector"):
            algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot=1,
                reserve_price=False,
                prober=prober,
            )
