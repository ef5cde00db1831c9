"""The shared record log: write path and fsync policy.

The torn-tail and mid-log contract is exercised through both clients
(``test_journal.py``, ``tests/experiments/test_sharding.py``) and the
crash property suite; this file covers what only the primitive sees.
"""

from __future__ import annotations

import os

import pytest

from repro.durability import recordlog
from repro.durability.recordlog import (
    FSYNC_BATCH_RECORDS,
    RecordLog,
    scan,
)


def _decode(fields, seq, prev, digest):
    return fields["n"]


class TestWritePath:
    def test_failed_write_is_cut_off_and_retried(self, tmp_path, monkeypatch):
        """A write that lands half a record and then fails must not
        leave those bytes in front of the retried record."""
        real_write = os.write
        failures = []

        def flaky_write(fd, data):
            if not failures:
                failures.append(real_write(fd, bytes(data[:10])))
                raise OSError("transient")
            return real_write(fd, data)

        log = RecordLog(tmp_path / "log.jsonl", _decode)
        log.append({"n": 1})
        monkeypatch.setattr(recordlog.os, "write", flaky_write)
        log.append({"n": 2})
        monkeypatch.undo()
        log.close()
        assert failures == [10]
        result = scan(tmp_path / "log.jsonl", _decode)
        assert result.records == (1, 2)
        assert not result.torn


class TestFsyncPolicy:
    @pytest.mark.parametrize(
        "policy, appends, expected",
        [
            ("always", 3, 3),
            ("batch", FSYNC_BATCH_RECORDS + 1, 2),  # one batch + close
            ("off", 3, 0),
        ],
    )
    def test_fsync_calls(self, tmp_path, monkeypatch, policy, appends, expected):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            recordlog.os, "fsync", lambda fd: calls.append(real_fsync(fd))
        )
        log = RecordLog(tmp_path / "log.jsonl", _decode, fsync=policy)
        for n in range(appends):
            log.append({"n": n})
        log.close()
        assert len(calls) == expected
