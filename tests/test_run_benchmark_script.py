"""Smoke tests of ``scripts/run_benchmark.py``, run as a separate process
the way its docstring shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from swguide.trainer import SCHEMES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"


def _run_script(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_one_seed_one_episode_prints_every_scheme():
    done = _run_script("--seeds", "0", "--episodes", "1")
    assert done.returncode == 0, done.stderr
    header, row, means, footer = done.stdout.splitlines()
    assert header.split() == ["seed", "oracle", *SCHEMES]
    assert row.split()[0] == "0" and len(row.split()) == 2 + len(SCHEMES)
    assert means.split()[0] == "mean" and "nan" not in means
    assert footer.startswith(f"# 1 seeds x {len(SCHEMES)} schemes")


@pytest.mark.parametrize("seeds", ["x", "3-1", "", "0,,1"])
def test_a_bad_or_empty_seed_list_is_a_usage_error(seeds):
    done = _run_script("--seeds", seeds)
    assert done.returncode == 2
    assert "--seeds" in done.stderr and "Traceback" not in done.stderr
