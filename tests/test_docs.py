"""Checks on the repository's kept documents."""

from __future__ import annotations

from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"

# one entry is one line; the longest is a few thousand characters
MAX_LINE = 20_000


def test_changes_has_no_runaway_line():
    lines = CHANGES.read_text(encoding="utf-8").split("\n")
    longest = max(range(len(lines)), key=lambda i: len(lines[i]))
    assert len(lines[longest]) <= MAX_LINE, f"CHANGES.md line {longest + 1} has {len(lines[longest])} characters"
