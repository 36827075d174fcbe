"""Confidence-ranked expansion of the source set with pseudo-labeled targets.

Target rows are scored by an (n, K) matrix row-aligned with the target —
the soft labels, optionally mixed with a previous run's predictions — the
top fraction of rows is selected, either globally or per predicted class,
and copies of the winners are appended to the source dataset with hard
pseudo-labels.  The originals stay in the target set untouched.  Sample
ids only break ties and name the selected rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import SoftLabelSet
from .data import DomainDataset
from .errors import (
    ClassMismatchError,
    FractionOutOfRangeError,
    IdMismatchError,
    UnknownSampleIdError,
)

POLICIES = ("global", "class_balanced")
DEFAULT_POLICY = "class_balanced"


@dataclass(frozen=True)
class ExpansionSelection:
    """The chosen target rows, ordered by descending winning score.

    ``rows`` index the target the scores were computed on; ``sample_ids``
    names those rows, so a selection can be checked against a dataset.
    """

    rows: np.ndarray
    pseudo_labels: np.ndarray
    sample_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.rows)


def mix_scores(prev: SoftLabelSet, zeroshot: SoftLabelSet) -> np.ndarray:
    """Second-run scores: previous predictions plus half the zero-shot row.

    Rows follow ``zeroshot``; ``prev`` is aligned to them by sample id.
    Vectors are deliberately not renormalized — a confident previous run
    (entries near 1) outranks any zero-shot disagreement, while uncertain
    previous rows let the zero-shot scores tip the winner.
    """
    if set(prev.sample_ids) != set(zeroshot.sample_ids):
        raise IdMismatchError("previous and zero-shot labels cover different samples")
    if prev.n_classes != zeroshot.n_classes:
        raise IdMismatchError(
            f"class counts differ: prev K={prev.n_classes}, zeroshot K={zeroshot.n_classes}"
        )
    return prev.rows_for(zeroshot.sample_ids) + 0.5 * zeroshot.probs


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def select_pseudo_source(
    scores, sample_ids, fraction: float, policy: str = DEFAULT_POLICY
) -> ExpansionSelection:
    """Keep the top ``fraction`` of rows of the (n, K) ``scores`` matrix.

    A row's winning class is its argmax (ties go to the lowest class) and
    its winning score the max.  ``global`` ranks the whole pool at once;
    ``class_balanced`` ranks within each winning class and keeps the
    fraction per class, so confident majority classes cannot monopolize
    the expansion.  Ties break by ascending sample id.
    """
    fraction = float(fraction)
    if not (0.0 <= fraction <= 1.0):
        raise FractionOutOfRangeError(f"fraction must lie in [0, 1], got {fraction}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != len(sample_ids):
        raise ClassMismatchError(
            f"scores of shape {scores.shape} do not cover {len(sample_ids)} samples"
        )

    winning_class = scores.argmax(axis=1)
    winning_score = scores.max(axis=1)
    ids = np.array(sample_ids, dtype=object)
    order = np.lexsort((ids, -winning_score))
    if policy == "global":
        chosen = order[: _round_half_up(fraction * len(order))]
    else:
        ranked_class = winning_class[order]
        keep = np.zeros(len(order), dtype=bool)
        for cls in range(scores.shape[1]):
            members = np.flatnonzero(ranked_class == cls)
            keep[members[: _round_half_up(fraction * len(members))]] = True
        chosen = order[keep]
    return ExpansionSelection(
        rows=chosen, pseudo_labels=winning_class[chosen], sample_ids=tuple(ids[chosen])
    )


def check_pair(source: DomainDataset, target: DomainDataset):
    """Raise ClassMismatchError unless both datasets have the same class
    count and feature width."""
    if source.n_classes != target.n_classes:
        raise ClassMismatchError(
            f"class counts differ: source {source.n_classes}, target {target.n_classes}"
        )
    if source.feature_dim != target.feature_dim:
        raise ClassMismatchError(
            f"feature widths differ: source {source.feature_dim}, "
            f"target {target.feature_dim}"
        )


def expand_dataset(
    source: DomainDataset, target: DomainDataset, selection: ExpansionSelection
) -> DomainDataset:
    """Append pseudo-source copies of the selected target samples to the source.

    Copies keep their original target sample ids (id spaces are disjoint),
    carry role ``pseudo_source``, and take the selection's pseudo-label as
    their label.  Downstream training treats them exactly like source data.
    """
    check_pair(source, target)
    if not len(selection):
        return source

    rows = np.asarray(selection.rows, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= len(target):
        raise UnknownSampleIdError(
            f"selected rows {rows.min()}..{rows.max()} fall outside the "
            f"{len(target)} target rows"
        )
    if len(selection.sample_ids) != len(rows):
        raise UnknownSampleIdError(
            f"{len(selection.sample_ids)} selected ids for {len(rows)} rows"
        )
    selected_ids = np.fromiter(selection.sample_ids, dtype=object, count=len(rows))
    wrong = np.fromiter(target.sample_ids, dtype=object, count=len(target))[rows] != selected_ids
    if wrong.any():
        first = wrong.argmax()
        raise UnknownSampleIdError(
            f"selected id {selected_ids[first]!r} is not the target sample at row {rows[first]}"
        )
    return DomainDataset(
        sample_ids=source.sample_ids + selection.sample_ids,
        roles=source.roles + ("pseudo_source",) * len(rows),
        labels=np.concatenate([source.labels, selection.pseudo_labels]),
        features=np.concatenate([source.features, target.features[rows]], axis=0),
        zeroshot=np.concatenate([source.zeroshot, target.zeroshot[rows]], axis=0),
    )
