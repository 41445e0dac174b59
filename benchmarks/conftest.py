"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark regenerates one figure or table of the paper, prints
the series it reports (so ``pytest benchmarks/ --benchmark-only -s``
reproduces the numbers), and asserts the *shape* criteria listed in
DESIGN.md.  Timings come from pytest-benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

import pytest

#: Machine-readable speedup summary emitted by the backend benchmarks,
#: merged key-by-key so each benchmark owns its entry.  One file per
#: performance change: earlier ``BENCH_<n>.json`` records stay as they
#: were measured, so point this at a new file rather than rewriting one.
BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_14.json"


def record_bench(key: str, payload: Dict) -> None:
    """Merge one benchmark's speedup summary into :data:`BENCH_FILE`."""
    data = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except (json.JSONDecodeError, OSError):
            data = {}
    data[key] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n")


def print_table(title: str, rows: Sequence[Dict], columns=None) -> None:
    """Print a figure's data series as an aligned table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    header = " | ".join(f"{c:>22}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>22.6g}")
            else:
                cells.append(f"{value!s:>22}")
        print(" | ".join(cells))
