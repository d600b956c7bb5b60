"""Every demo script runs to completion against the package, and prints
what it printed before: a sha256 prefix of each demo's stdout is pinned,
in the style of test_pinned_reports.py.  On a mismatch the new stdout is
printed, so a declared demo change can be read and re-pinned."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_DIR / "demos").glob("*.py"))

PINNED = {
    "demo_character_sums.py": "5d583ac0d80a",
    "demo_dual_and_secret_sharing.py": "3119a9eb3e4d",
    "demo_gray_map_and_lee_weight.py": "21e304d00419",
    "demo_three_weight_survey.py": "0ce26a041aa0",
    "demo_two_weight_code.py": "6c135766fbbe",
}


@functools.lru_cache(maxsize=None)
def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=REPO_DIR, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert sorted(PINNED) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_pinned(path):
    stdout = run_demo(path).stdout
    digest = hashlib.sha256(stdout.encode()).hexdigest()[:12]
    assert digest == PINNED[path.name], stdout
