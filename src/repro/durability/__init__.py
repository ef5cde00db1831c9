"""Crash-consistent durability: write-ahead journal, replay, resume.

The ROADMAP's "auction-as-a-service" item needs a platform that can
lose power between a bid arriving and a payment settling.  This package
supplies four layers:

* :mod:`repro.durability.recordlog` — the append-only, hash-chained
  JSONL record log under the journal and the shard checkpoints: one
  framing, one fsync policy, one crash hook, and a recovery scan that
  truncates torn tails but refuses mid-log corruption with the
  client's typed error;
* :mod:`repro.durability.journal` — the write-ahead journal, the
  record log's auction-event codec;
* :mod:`repro.durability.journaled` — :class:`JournaledPlatform`, the
  wrapper that journals every command *before* the corresponding
  :class:`~repro.auction.CrowdsourcingPlatform` mutation (and every
  emitted :class:`~repro.auction.events.AuctionEvent` after it);
* :mod:`repro.durability.replay` — deterministic replay of a journal to
  a byte-identical :class:`~repro.model.AuctionOutcome`, plus
  :func:`resume_round`, which finishes a crashed round from its journal
  and a regenerated command stream.

Crash faults that exercise all of this live in
:mod:`repro.faults.crash`; the replay-fidelity guarantee is enforced at
runtime by :func:`repro.analysis.sanitizer.check_replay_fidelity`.
"""

from repro.durability.journal import (
    KIND_COMMAND,
    KIND_EVENT,
    Journal,
    JournalRecord,
    decode_line,
    record_hash,
    scan_journal,
    segment_paths,
)
from repro.durability.journaled import JournaledPlatform
from repro.durability.recordlog import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_OFF,
    GENESIS_HASH,
    RecordLog,
    ScanResult,
)
from repro.durability.replay import (
    ReplayResult,
    ResumeResult,
    apply_command,
    execute_commands,
    replay_journal,
    replay_records,
    resume_round,
    round_commands,
)

__all__ = [
    "Journal",
    "JournalRecord",
    "RecordLog",
    "ScanResult",
    "scan_journal",
    "segment_paths",
    "decode_line",
    "record_hash",
    "GENESIS_HASH",
    "KIND_COMMAND",
    "KIND_EVENT",
    "FSYNC_ALWAYS",
    "FSYNC_BATCH",
    "FSYNC_OFF",
    "JournaledPlatform",
    "ReplayResult",
    "ResumeResult",
    "apply_command",
    "execute_commands",
    "replay_journal",
    "replay_records",
    "resume_round",
    "round_commands",
]
