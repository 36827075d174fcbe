"""The benchmark's workloads: one dataset size and a fixed list of CLI jobs each.

A pass runs a workload's jobs back to back through ``swguide.cli.main``.
Every job's argument list is built here from the workload, the seed and
the file paths, so the program only ever sees generated files and flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

LARGE_TRAIN_FLAGS = (
    "--episodes", "1", "--batch-size", "512", "--hidden-dim", "128", "--disc-hidden", "128",
)


@dataclass(frozen=True)
class Job:
    """One CLI command of a pass.

    ``kind`` is ``train``, ``eval`` or ``sweep``.  For ``eval``, ``of`` names
    the job whose checkpoint is evaluated (for a sweep, its last task's).
    ``label`` keys the job's timings and reference digests.
    """

    kind: str
    label: str
    flags: tuple[str, ...] = ()
    of: str = ""
    fractions: tuple[str, ...] = ()
    jobs: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    jobs: tuple[Job, ...]


def _small_pass(episodes: tuple[str, ...]) -> tuple[Job, ...]:
    return (
        Job("train", "v1", ("--scheme", "v1") + episodes),
        Job("train", "v2", ("--scheme", "v2") + episodes),
        Job("train", "cdan_only", ("--scheme", "cdan_only") + episodes),
        Job("eval", "eval", of="v1"),
    )


WORKLOADS = {
    "train_small": Workload("train_small", 40, _small_pass(())),
    "train_large": Workload(
        "train_large",
        4000,
        (Job("train", "v1", ("--scheme", "v1") + LARGE_TRAIN_FLAGS), Job("eval", "eval", of="v1")),
    ),
    "sweep": Workload(
        "sweep",
        40,
        (
            Job("sweep", "sweep", ("--episodes", "10"),
                fractions=("0", "0.25", "0.5", "0.75", "1.0"), jobs=2),
            Job("eval", "eval", of="sweep"),
        ),
    ),
}

# Minimal sizes for the self-check: same jobs and code paths, seconds to run.
SMOKE_WORKLOADS = {
    "train_small": Workload("train_small", 10, _small_pass(("--episodes", "1"))),
    "train_large": Workload(
        "train_large",
        20,
        (
            Job("train", "v1", ("--scheme", "v1", "--episodes", "1", "--batch-size", "16")),
            Job("eval", "eval", of="v1"),
        ),
    ),
    "sweep": Workload(
        "sweep",
        10,
        (
            Job("sweep", "sweep", ("--episodes", "1"), fractions=("0", "1.0"), jobs=2),
            Job("eval", "eval", of="sweep"),
        ),
    ),
}


def sweep_task_dirs(job: Job, seed: int) -> list[str]:
    """Task directories ``sweep-expansion --out`` writes, relative to its out dir."""
    return [
        os.path.join(f"fraction_{float(f)}", f"seed_{s}")
        for f in job.fractions
        for s in sweep_seeds(seed)
    ]


def sweep_seeds(seed: int) -> tuple[int, int]:
    return seed, seed + 1


def argv_for(job: Job, seed: int, source: str, target: str, out: str, outs: dict) -> list[str]:
    """The ``swguide`` argument list for ``job``.

    ``outs`` maps the labels of earlier jobs in the pass to the directory that
    holds their checkpoint (a sweep's last task directory).
    """
    if job.kind == "train":
        return ["train", "--source", source, "--target", target, "--out", out,
                "--seed", str(seed), *job.flags]
    if job.kind == "sweep":
        seeds = ",".join(str(s) for s in sweep_seeds(seed))
        return ["sweep-expansion", "--source", source, "--target", target, "--out", out,
                "--fractions", ",".join(job.fractions), "--seeds", seeds,
                "--jobs", str(job.jobs), *job.flags]
    if job.kind == "eval":
        return ["eval", "--checkpoint", os.path.join(outs[job.of], "checkpoint.txt"),
                "--dataset", target]
    raise ValueError(f"unknown job kind {job.kind!r}")


def training_runs(job: Job, seed: int) -> int:
    """Training runs one job performs (a v2 job counts once)."""
    if job.kind == "train":
        return 1
    if job.kind == "sweep":
        return len(sweep_task_dirs(job, seed))
    return 0
