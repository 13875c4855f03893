"""EXPERIMENTS.md cites only benchmarks that exist.

Each table, figure and extension in EXPERIMENTS.md names the bench file
that checks its shape claim; a renamed or deleted bench must not leave
the document pointing at nothing.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_named_bench_file_exists():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    named = set(re.findall(r"\b(bench_\w+\.py)\b", text))
    assert named, "EXPERIMENTS.md names no bench file"
    missing = sorted(f for f in named if not (ROOT / "benchmarks" / f).is_file())
    assert missing == []
