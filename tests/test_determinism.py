"""The determinism promise across BLAS thread counts and sweep workers: a
run's artifacts do not depend on how many threads the BLAS library uses or
on whether a sweep trains it in a worker process.  Each run is a separate
``python -m swguide`` process, because a BLAS library reads its thread
count once, when it loads."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swguide.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A train_large-shaped step (batch 512, hidden 128) on a 750-row pair.
RUN_FLAGS = ["--episodes", "1", "--batch-size", "512", "--hidden-dim", "128"]


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    source, target = str(root / "source.txt"), str(root / "target.txt")
    assert main(["gen", "--out-source", source, "--out-target", target,
                 "--per-class", "150"]) == 0
    return source, target


def _swguide(threads: int, *args):
    env = dict(os.environ, **{name: str(threads) for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "swguide", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``run_dir``, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.iterdir())
    }


def test_artifacts_are_identical_across_blas_threads_and_sweep_jobs(pair, tmp_path):
    source, target = pair
    data = ["--source", source, "--target", target, *RUN_FLAGS]
    for threads in (1, 2):
        _swguide(threads, "train", *data, "--scheme", "v1", "--expansion-fraction", "0.5",
                 "--seed", "0", "--out", str(tmp_path / f"threads_{threads}"))
    _swguide(2, "sweep-expansion", *data, "--fractions", "0.5,1.0", "--seeds", "0",
             "--jobs", "2", "--out", str(tmp_path / "sweep"))
    solo = _digests(tmp_path / "threads_1")
    assert set(solo) >= {"config.txt", "checkpoint.txt", "metrics.txt", "predictions.txt"}
    assert _digests(tmp_path / "threads_2") == solo
    assert _digests(tmp_path / "sweep" / "fraction_0.5" / "seed_0") == solo
