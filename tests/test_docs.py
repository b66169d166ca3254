"""Checks on the repository's kept documents."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import kfactor

ROOT = Path(__file__).resolve().parents[1]
CHANGES = ROOT / "CHANGES.md"
README = ROOT / "README.md"

# one entry is one line; the longest is a few thousand characters
MAX_LINE = 20_000

# `a.b`, `a.b.c()` and the like: a backticked dotted name, call parentheses allowed
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def test_changes_has_no_runaway_line():
    lines = CHANGES.read_text(encoding="utf-8").split("\n")
    longest = max(range(len(lines)), key=lambda i: len(lines[i]))
    assert len(lines[longest]) <= MAX_LINE, f"CHANGES.md line {longest + 1} has {len(lines[longest])} characters"


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in README whose head is kfactor, one of its
    submodules or a name in kfactor.__all__ resolves attribute by attribute."""
    heads = {"kfactor": kfactor}
    for info in pkgutil.iter_modules(kfactor.__path__):
        if info.name != "__main__":  # importing it runs the command line
            heads[info.name] = importlib.import_module(f"kfactor.{info.name}")
    heads.update((name, getattr(kfactor, name)) for name in kfactor.__all__)
    checked = []
    for dotted in DOTTED.findall(README.read_text(encoding="utf-8")):
        head, *attrs = dotted.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for attr in attrs:
            assert hasattr(obj, attr), f"README names `{dotted}`, but {attr!r} does not resolve"
            obj = getattr(obj, attr)
        checked.append(dotted)
    assert len(checked) >= 5, checked
