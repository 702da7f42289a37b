"""Every script in demos/ runs to completion and prints exactly the report
pinned in tests/demo_output/ (wall times go to stderr, so stdout is
deterministic)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_output"


def test_all_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (PINNED / f"{script.stem}.txt").read_text()
