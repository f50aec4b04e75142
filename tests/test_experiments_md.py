"""EXPERIMENTS.md must carry the table its generator renders today.

``benchmarks/make_experiments_md.py`` tabulates the committed
``BENCH_*.json`` documents; a regenerated document without a
regenerated EXPERIMENTS.md fails here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_experiments_md_has_the_current_bench_table(monkeypatch):
    # The generator puts benchmarks/ on sys.path; undo that afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md", ROOT / "benchmarks" / "make_experiments_md.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    table = module.bench_trajectory_table()
    assert table in (ROOT / "EXPERIMENTS.md").read_text(), (
        "EXPERIMENTS.md is stale: run python benchmarks/make_experiments_md.py")
