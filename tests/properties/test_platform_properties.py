"""Property-based equivalence: incremental platform == the cold batch
oracle (``tests/online_oracle.py``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction import replay_scenario
from repro.model import TaskSchedule
from repro.simulation import Scenario
from tests.online_oracle import online_outcome
from tests.properties.strategies import MAX_SLOTS, profile_lists


@st.composite
def scenarios(draw):
    profiles = draw(profile_lists(max_phones=8))
    counts = draw(
        st.lists(
            st.integers(0, 2), min_size=MAX_SLOTS, max_size=MAX_SLOTS
        )
    )
    schedule = TaskSchedule.from_counts(counts, value=25.0)
    return Scenario(profiles, schedule)


class TestPlatformEquivalenceProperty:
    @given(
        scenario=scenarios(),
        reserve=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_replay_equals_batch(self, scenario, reserve):
        incremental, _ = replay_scenario(scenario, reserve_price=reserve)
        batch = online_outcome(
            scenario.truthful_bids(),
            scenario.schedule,
            reserve_price=reserve,
        )
        assert incremental.allocation == batch.allocation
        assert set(incremental.payments) == set(batch.payments)
        for phone_id, amount in batch.payments.items():
            assert incremental.payment(phone_id) == pytest.approx(amount)
            assert incremental.payment_slot(phone_id) == (
                batch.payment_slot(phone_id)
            )

    @given(scenario=scenarios())
    @settings(max_examples=30, deadline=None)
    def test_replay_equals_batch_exact_rule(self, scenario):
        incremental, _ = replay_scenario(
            scenario, reserve_price=True, payment_rule="exact"
        )
        batch = online_outcome(
            scenario.truthful_bids(),
            scenario.schedule,
            reserve_price=True,
            payment_rule="exact",
        )
        assert incremental.allocation == batch.allocation
        for phone_id, amount in batch.payments.items():
            assert incremental.payment(phone_id) == pytest.approx(amount)

    @given(scenario=scenarios())
    @settings(max_examples=30, deadline=None)
    def test_event_log_consistent_with_outcome(self, scenario):
        from repro.auction.events import PaymentSettled, TaskAllocated

        outcome, events = replay_scenario(scenario)
        allocated = {
            e.task_id: e.phone_id
            for e in events
            if isinstance(e, TaskAllocated)
        }
        settled = {
            e.phone_id: e.amount
            for e in events
            if isinstance(e, PaymentSettled)
        }
        assert allocated == outcome.allocation
        assert set(settled) == set(outcome.payments)
        for phone_id, amount in settled.items():
            assert amount == pytest.approx(outcome.payment(phone_id))
