"""Output checks for one job, independent of swguide's own readers.

A training run's directory must hold every artifact; its prediction rows
must each sum to 1; the accuracy recomputed from ``predictions.txt`` and
the labelled target file must equal the one in ``summary.txt``.  The
SHA-256 digests of the byte-identical artifacts are returned so callers
can compare them with earlier passes and with recorded references.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

DIGESTED = ("predictions.txt", "checkpoint.txt", "metrics.txt")
ROW_SUM_TOLERANCE = 1e-9


def read_labels(path: str) -> dict[str, int]:
    """Sample id -> label from a dataset file (``id,domain,label,...`` rows)."""
    labels = {}
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            sid, _, label, _ = line.split(",", 3)
            labels[sid] = int(label)
    return labels


def summary_accuracy(run_dir: str) -> float:
    with open(os.path.join(run_dir, "summary.txt"), "r", encoding="utf-8") as handle:
        fields = dict(token.split("=", 1) for token in handle.read().split())
    return float(fields["accuracy"])


def check_run(run_dir: str, labels: dict[str, int]) -> tuple[list[str], dict[str, str], float]:
    """Check one training run's artifacts; returns (problems, digests, accuracy)."""
    problems: list[str] = []
    missing = [
        name for name in DIGESTED + ("summary.txt", "config.txt")
        if not os.path.isfile(os.path.join(run_dir, name))
    ]
    if missing:
        return [f"{run_dir}: missing {', '.join(missing)}"], {}, float("nan")
    digests = {}
    for name in DIGESTED:
        with open(os.path.join(run_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()

    with open(os.path.join(run_dir, "predictions.txt"), "r", encoding="utf-8") as handle:
        next(handle)
        rows = [line.rstrip("\n").split(",") for line in handle]
    ids = [row[0] for row in rows]
    probs = np.array([[float(v) for v in row[1:]] for row in rows])
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOLERANCE:
        problems.append(f"{run_dir}: a prediction row sums to 1 {worst:+.3e}")
    if sorted(ids) != sorted(labels):
        problems.append(f"{run_dir}: predictions do not cover the target ids")
        return problems, digests, float("nan")
    truth = np.array([labels[sid] for sid in ids])
    accuracy = float((probs.argmax(axis=1) == truth).mean())
    reported = summary_accuracy(run_dir)
    if accuracy != reported:
        problems.append(f"{run_dir}: recomputed accuracy {accuracy!r} != summary {reported!r}")
    return problems, digests, accuracy


def eval_accuracy(stdout: str) -> float:
    """The ``accuracy=`` value ``swguide eval`` printed."""
    for line in stdout.splitlines():
        if line.startswith("accuracy="):
            return float(line.split("=", 1)[1])
    raise ValueError("eval printed no accuracy line")
