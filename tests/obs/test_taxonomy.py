"""Metric-name taxonomy drift: emitted names ↔ the ARCHITECTURE table.

`docs/ARCHITECTURE.md` carries the authoritative "Metric taxonomy"
table.  This test AST-scans every ``obs.counter`` / ``obs.gauge`` /
``obs.observe`` call under ``src/`` for *literal* metric names and
fails in both directions: a name the code emits but the table omits
(undocumented telemetry), and a name the table lists but nothing emits
(documentation rot).  Computed names (``span.name + ".seconds"``,
``f"platform.events.{...}"``) belong to the dynamic families the table
documents in prose and are out of scope by construction — only string
constants are collected.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"

#: The ambient emission helpers whose first argument names a metric.
_EMITTERS = {"counter", "gauge", "observe"}


def emitted_metric_names():
    """Every literal metric name passed to an ``obs.*`` emitter."""
    names = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _EMITTERS
                and isinstance(func.value, ast.Name)
                and func.value.id == "obs"
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                names.add(first.value)
    return names


def documented_metric_names():
    """First-column names of the ARCHITECTURE "Metric taxonomy" table."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    match = re.search(
        r"### Metric taxonomy\n(.*?)(?=\n## |\n### |\Z)", text, re.DOTALL
    )
    assert match, "ARCHITECTURE.md lost its '### Metric taxonomy' section"
    names = set()
    for line in match.group(1).splitlines():
        row = re.match(r"\| `([^`]+)` \|", line)
        if row and "<" not in row.group(1):
            names.add(row.group(1))
    return names


class TestTaxonomyDrift:
    def test_every_emitted_name_is_documented(self):
        undocumented = emitted_metric_names() - documented_metric_names()
        assert not undocumented, (
            f"metrics emitted but missing from the ARCHITECTURE.md "
            f"taxonomy table: {sorted(undocumented)}"
        )

    def test_every_documented_name_is_emitted(self):
        rotted = documented_metric_names() - emitted_metric_names()
        assert not rotted, (
            f"metrics documented in ARCHITECTURE.md but emitted "
            f"nowhere under src/: {sorted(rotted)}"
        )

    def test_the_scan_actually_finds_the_new_instruments(self):
        # Guard against the scanner silently matching nothing.
        emitted = emitted_metric_names()
        for expected in (
            "ledger.appends",
            "heartbeat.emits",
            "recordlog.fsync.seconds",
            "platform.progress.slot",
            "platform.reassignments",
        ):
            assert expected in emitted

    def test_documented_names_follow_the_dotted_scheme(self):
        for name in documented_metric_names():
            assert re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)+", name), name
