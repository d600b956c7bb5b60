"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_DIR / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=REPO_DIR, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
