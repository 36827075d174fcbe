"""Confidence-ranked expansion of the source set with pseudo-labeled targets.

Target samples are scored by their soft-label confidence (optionally mixed
with a previous run's predictions), the top fraction is selected — either
globally or per predicted class — and copies of the winners are appended
to the source dataset with hard pseudo-labels.  The originals stay in the
target set untouched.
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
class ExpansionScore:
    """Per-sample selection score with its implied hard prediction."""

    sample_id: str
    score_vector: np.ndarray
    winning_class: int
    winning_score: float

    @classmethod
    def from_vector(cls, sample_id: str, vector) -> "ExpansionScore":
        vector = np.ascontiguousarray(np.asarray(vector, dtype=np.float64))
        return cls(
            sample_id=sample_id,
            score_vector=vector,
            winning_class=int(np.argmax(vector)),  # ties go to the lowest class
            winning_score=float(vector.max()),
        )

    def __post_init__(self):
        vector = np.asarray(self.score_vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ClassMismatchError(f"score vector must be 1-D, got {vector.ndim}-D")
        if self.winning_class != int(np.argmax(vector)):
            raise ClassMismatchError(
                f"winning_class {self.winning_class} is not the argmax of the scores"
            )
        if self.winning_score != float(vector.max()):
            raise ClassMismatchError(
                f"winning_score {self.winning_score} is not the max of the scores"
            )


@dataclass(frozen=True)
class SelectionEntry:
    sample_id: str
    pseudo_label: int
    winning_score: float


@dataclass(frozen=True)
class ExpansionSelection:
    """The chosen target samples, ordered by descending confidence."""

    entries: tuple[SelectionEntry, ...]
    fraction: float
    policy: str

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = [e.sample_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ClassMismatchError("selection contains duplicate sample ids")
        scores = [e.winning_score for e in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ClassMismatchError("selection entries must be sorted by descending score")

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(e.sample_id for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def score_from_soft_labels(labels: SoftLabelSet) -> list[ExpansionScore]:
    """One score per sample; the score vector is the probability row itself."""
    return [
        ExpansionScore.from_vector(sid, labels.probs[i])
        for i, sid in enumerate(labels.sample_ids)
    ]


def mix_scores(prev: SoftLabelSet, zeroshot: SoftLabelSet) -> list[ExpansionScore]:
    """Second-run scores: previous predictions plus half the zero-shot row.

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
    prev_rows = prev.rows_for(zeroshot.sample_ids)
    mixed = prev_rows + 0.5 * zeroshot.probs
    return [
        ExpansionScore.from_vector(sid, mixed[i])
        for i, sid in enumerate(zeroshot.sample_ids)
    ]


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _ranked(scores) -> list[ExpansionScore]:
    return sorted(scores, key=lambda s: (-s.winning_score, s.sample_id))


def select_pseudo_source(
    scores, fraction: float, policy: str = DEFAULT_POLICY
) -> ExpansionSelection:
    """Keep the top ``fraction`` of samples by winning score.

    ``global`` ranks the whole pool at once; ``class_balanced`` ranks
    within each predicted class and keeps the fraction per class, so
    confident majority classes cannot monopolize the expansion.  Ties
    break by ascending sample id.
    """
    fraction = float(fraction)
    if not (0.0 <= fraction <= 1.0):
        raise FractionOutOfRangeError(f"fraction must lie in [0, 1], got {fraction}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")

    scores = list(scores)
    if policy == "global":
        chosen = _ranked(scores)[: _round_half_up(fraction * len(scores))]
    else:
        by_class: dict[int, list[ExpansionScore]] = {}
        for score in scores:
            by_class.setdefault(score.winning_class, []).append(score)
        chosen = []
        for cls in sorted(by_class):
            members = _ranked(by_class[cls])
            chosen.extend(members[: _round_half_up(fraction * len(members))])
        chosen = _ranked(chosen)
    return ExpansionSelection(
        entries=tuple(
            SelectionEntry(s.sample_id, s.winning_class, s.winning_score) for s in chosen
        ),
        fraction=fraction,
        policy=policy,
    )


def expand_dataset(
    source: DomainDataset, target: DomainDataset, selection: ExpansionSelection
) -> DomainDataset:
    """Append pseudo-source copies of the selected target samples to the source.

    Copies keep their original target sample ids (id spaces are disjoint),
    carry role ``pseudo_source``, and take the selection's pseudo-label as
    their label.  Downstream training treats them exactly like source data.
    """
    if source.feature_dim != target.feature_dim:
        raise ClassMismatchError(
            f"feature widths differ: source {source.feature_dim}, "
            f"target {target.feature_dim}"
        )
    if source.n_classes != target.n_classes:
        raise ClassMismatchError(
            f"class counts differ: source {source.n_classes}, target {target.n_classes}"
        )
    if not selection.entries:
        return source

    row_of = {sid: i for i, sid in enumerate(target.sample_ids)}
    try:
        indices = [row_of[entry.sample_id] for entry in selection.entries]
    except KeyError as exc:
        raise UnknownSampleIdError(f"no target sample with id {exc.args[0]!r}") from None
    ids = source.sample_ids + tuple(entry.sample_id for entry in selection.entries)
    roles = source.roles + ("pseudo_source",) * len(selection)
    labels = np.concatenate(
        [source.labels, np.array([e.pseudo_label for e in selection.entries], dtype=np.int64)]
    )
    features = np.concatenate([source.features, target.features[indices]], axis=0)
    zeroshot = np.concatenate([source.zeroshot, target.zeroshot[indices]], axis=0)
    return DomainDataset(
        sample_ids=ids, roles=roles, labels=labels, features=features, zeroshot=zeroshot
    )
