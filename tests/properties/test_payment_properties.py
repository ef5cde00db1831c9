"""Property-based tests of the payment schemes themselves."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mechanisms import (
    OfflineVCGMechanism,
    OnlineGreedyMechanism,
    StreamingGreedyEngine,
)
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.model import Bid, TaskSchedule

OFFLINE = OfflineVCGMechanism()
ONLINE = OnlineGreedyMechanism()

NUM_SLOTS = 4


@st.composite
def saturated_instances(draw):
    """Instances whose pool can never run dry: per slot, at least
    ``tasks + 2`` phones arrive and every phone stays for >= 2 slots.
    In this regime every re-run serves every task, so Algorithm 2's
    payment is a true critical value."""
    bids = []
    phone_id = 0
    counts = []
    for slot in range(1, NUM_SLOTS + 1):
        tasks_here = draw(st.integers(0, 2))
        counts.append(tasks_here)
        for _ in range(tasks_here + 2):
            departure = draw(st.integers(min(slot + 1, NUM_SLOTS), NUM_SLOTS))
            cost = draw(
                st.floats(
                    min_value=0.1,
                    max_value=20.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            bids.append(
                Bid(
                    phone_id=phone_id,
                    arrival=slot,
                    departure=departure,
                    cost=cost,
                )
            )
            phone_id += 1
    schedule = TaskSchedule.from_counts(counts, value=50.0)
    return bids, schedule


class TestAlgorithm2Properties:
    @given(instance=saturated_instances())
    @settings(max_examples=40, deadline=None)
    def test_equals_exact_rule_when_saturated(self, instance):
        """In fully-served markets, Algorithm 2 IS the critical value."""
        bids, schedule = instance
        run = StreamingGreedyEngine(bids, schedule).base_run
        for phone_id, win_slot in run.win_slots.items():
            winner = next(b for b in bids if b.phone_id == phone_id)
            paper = algorithm2_payment(bids, schedule, winner, win_slot)
            exact = exact_critical_payment(bids, schedule, winner)
            assert paper == pytest.approx(exact), phone_id

    @given(instance=saturated_instances())
    @settings(max_examples=40, deadline=None)
    def test_payment_independent_of_own_bid_while_winning(self, instance):
        """A winner's payment must not move with its own claimed cost
        (as long as it keeps winning) — the signature of a critical-value
        scheme, and the reason truth-telling is safe."""
        bids, schedule = instance
        outcome = ONLINE.run(bids, schedule)
        assume(outcome.winners)
        phone_id = outcome.winners[0]
        original_payment = outcome.payment(phone_id)
        winner = outcome.bid_of(phone_id)
        assume(winner.cost > 0.2)

        cheaper = [
            b.with_cost(winner.cost * 0.5) if b.phone_id == phone_id else b
            for b in bids
        ]
        cheaper_outcome = ONLINE.run(cheaper, schedule)
        assert cheaper_outcome.is_winner(phone_id)  # monotonicity
        assert cheaper_outcome.payment(phone_id) == pytest.approx(
            original_payment
        )

    @given(instance=saturated_instances())
    @settings(max_examples=30, deadline=None)
    def test_threshold_behaviour(self, instance):
        """Bidding strictly below the payment wins; strictly above loses
        (saturated markets, where the payment is the critical value)."""
        bids, schedule = instance
        outcome = ONLINE.run(bids, schedule)
        assume(outcome.winners)
        phone_id = outcome.winners[0]
        payment = outcome.payment(phone_id)
        winner = outcome.bid_of(phone_id)
        assume(payment > winner.cost + 0.01)  # floor not binding

        below = [
            b.with_cost(payment - 0.005) if b.phone_id == phone_id else b
            for b in bids
        ]
        above = [
            b.with_cost(payment + 0.005) if b.phone_id == phone_id else b
            for b in bids
        ]
        assert ONLINE.run(below, schedule).is_winner(phone_id)
        assert not ONLINE.run(above, schedule).is_winner(phone_id)


class TestVCGProperties:
    @given(
        costs=st.lists(
            st.floats(
                min_value=0.1,
                max_value=20.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_single_slot_vcg_is_second_price(self, costs):
        """One task, all phones active: VCG = pay the second-lowest."""
        bids = [
            Bid(phone_id=i, arrival=1, departure=1, cost=c)
            for i, c in enumerate(costs)
        ]
        schedule = TaskSchedule.from_counts([1], value=50.0)
        outcome = OFFLINE.run(bids, schedule)
        ordered = sorted(costs)
        assume(ordered[0] < ordered[1])  # unique winner
        winner_id = outcome.winners[0]
        assert bids[winner_id].cost == pytest.approx(ordered[0])
        assert outcome.payment(winner_id) == pytest.approx(ordered[1])

    @given(instance=saturated_instances())
    @settings(max_examples=30, deadline=None)
    def test_vcg_payment_independent_of_own_bid_while_allocation_fixed(
        self, instance
    ):
        """Small own-cost perturbations that keep the allocation the
        same must keep the VCG payment the same up to the perturbation's
        effect on ω* ... i.e. utility is unchanged."""
        bids, schedule = instance
        outcome = OFFLINE.run(bids, schedule)
        assume(outcome.winners)
        phone_id = outcome.winners[0]
        winner = outcome.bid_of(phone_id)
        assume(winner.cost > 0.2)
        utility_before = outcome.payment(phone_id) - winner.cost

        # Undercutting keeps a winner winning under VCG.
        cheaper = [
            b.with_cost(winner.cost * 0.9) if b.phone_id == phone_id else b
            for b in bids
        ]
        cheaper_outcome = OFFLINE.run(cheaper, schedule)
        assume(cheaper_outcome.is_winner(phone_id))
        # True utility (against the REAL cost) must not improve.
        utility_after = cheaper_outcome.payment(phone_id) - winner.cost
        assert utility_after <= utility_before + 1e-6
