"""On-disk format stability of the write-ahead journal.

``data/paper-round/`` holds a journal written by an earlier build: the
paper's worked example (Figs. 4 and 5) run as a faulty round — phone 2
wins slot 1 and never delivers, phone 7 drops out during slot 2 — with
every command and every derived event.  The current build must open,
verify and replay it, and writing the same commands into a fresh
journal must reproduce it byte for byte.
"""

from __future__ import annotations

import pathlib
import pickle
import shutil

from repro.auction.events import RoundStarted
from repro.durability import (
    KIND_COMMAND,
    Journal,
    JournaledPlatform,
    execute_commands,
    replay_journal,
    round_commands,
    segment_paths,
)
from repro.faults import FaultPlan, PhoneFaults
from repro.simulation.paper_example import (
    paper_example_bids,
    paper_example_profiles,
    paper_example_schedule,
)
from repro.simulation.scenario import Scenario

FIXTURE = pathlib.Path(__file__).parent / "data" / "paper-round"


def paper_round_commands():
    """The faulty paper-example round the fixture journal records."""
    scenario = Scenario(paper_example_profiles(), paper_example_schedule())
    plan = FaultPlan(
        {
            2: PhoneFaults(phone_id=2, fails_task=True),
            7: PhoneFaults(phone_id=7, dropout_slot=2),
        }
    )
    return scenario, round_commands(paper_example_bids(), scenario, plan)


def write_paper_round(directory):
    """Journal the paper round into ``directory``; returns the outcome."""
    scenario, commands = paper_round_commands()
    with Journal(directory) as journal:
        platform = JournaledPlatform(journal, num_slots=scenario.num_slots)
        return execute_commands(platform, commands)


def fixture_bytes() -> bytes:
    (segment,) = segment_paths(FIXTURE)
    return segment.read_bytes()


class TestCommittedJournal:
    def test_opens_and_verifies(self, tmp_path):
        directory = tmp_path / "journal"
        shutil.copytree(FIXTURE, directory)
        _, commands = paper_round_commands()
        with Journal(directory) as journal:
            records = journal.records
        assert [r.seq for r in records] == list(range(1, len(records) + 1))
        header, *journaled = [
            r.event for r in records if r.kind == KIND_COMMAND
        ]
        assert isinstance(header, RoundStarted)
        assert journaled == commands
        assert len(records) > len(commands)  # derived events too
        assert fixture_bytes() == (
            next(iter(segment_paths(directory))).read_bytes()
        )

    def test_replays_to_the_live_outcome(self, tmp_path):
        directory = tmp_path / "journal"
        shutil.copytree(FIXTURE, directory)
        replayed = replay_journal(directory)
        assert replayed.finalized
        live = write_paper_round(tmp_path / "live")
        assert pickle.dumps(replayed.outcome) == pickle.dumps(live)
        assert replayed.outcome.payments  # the round pays someone

    def test_rewriting_the_commands_reproduces_the_bytes(self, tmp_path):
        write_paper_round(tmp_path / "fresh")
        (segment,) = segment_paths(tmp_path / "fresh")
        assert segment.read_bytes() == fixture_bytes()
