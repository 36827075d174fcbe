"""The three training losses: classification, distillation, adversarial.

Each loss is a tape-node builder: it records a 1x1 node on the tape of
its input, so gradients flow through it inside the training step.  The
total objective is their sum; the trainer scales only the distillation
term, by ``TrainConfig.w_kd`` (1 by default, 0 for ``cdan_only``).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import (
    EmptyMaskError,
    ShapeMismatchError,
    SingleDomainBatchError,
    UnlabeledError,
)


def classification_loss_node(probs: ad.Node, labels, mask) -> ad.Node:
    """Mean −log p[label] over the masked rows (the source-role subset)."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n, k = probs.value.shape
    if labels.shape != (n,) or mask.shape != (n,):
        raise ShapeMismatchError(
            f"labels {labels.shape} / mask {mask.shape} for batch of {n}"
        )
    count = int(mask.sum())
    if count == 0:
        raise EmptyMaskError("classification loss needs at least one masked row")
    rows = np.flatnonzero(mask)
    picked = labels[rows]
    unusable = (picked < 0) | (picked >= k)
    if unusable.any():
        i = rows[unusable.argmax()]
        raise UnlabeledError(f"masked row {i} has no usable label ({labels[i]})")
    weights = np.zeros((n, k))
    weights[rows, picked] = -1.0 / count
    return ad.weighted_sum(ad.log_rows(probs, ad.PROB_FLOOR), weights)


def kd_loss_node(probs: ad.Node, teacher_rows) -> ad.Node:
    """Mean KL(teacher ‖ p) over all rows, both distributions floored.

    The teacher-entropy part is constant in the parameters; it is added
    as a constant shift so the reported value is the true divergence.
    """
    teacher = np.asarray(teacher_rows, dtype=np.float64)
    if teacher.shape != probs.value.shape:
        raise ShapeMismatchError(
            f"teacher shape {teacher.shape} != probabilities shape {probs.value.shape}"
        )
    n = teacher.shape[0]
    cross = ad.weighted_sum(ad.log_rows(probs, ad.PROB_FLOOR), -teacher / n)
    entropy = float(np.sum(teacher * np.log(np.maximum(teacher, ad.PROB_FLOOR))) / n)
    return ad.shift(cross, [[entropy]])


def adversarial_loss_node(d_hat: ad.Node, domain_labels) -> ad.Node:
    """Mean BCE of the domain probabilities against 1=source, 0=target."""
    labels = np.asarray(domain_labels, dtype=np.float64).reshape(-1, 1)
    n = d_hat.value.shape[0]
    if labels.shape != (n, 1):
        raise ShapeMismatchError(f"{labels.shape[0]} domain labels for {n} rows")
    if d_hat.value.shape[1] != 1:
        raise ShapeMismatchError(
            f"domain probabilities must be a column, got {d_hat.value.shape}"
        )
    positives = labels.sum()
    if positives == 0 or positives == n:
        raise SingleDomainBatchError(
            "adversarial loss needs both domains in the batch"
        )
    term_pos = ad.weighted_sum(ad.log_rows(d_hat, ad.PROB_FLOOR), -labels / n)
    one_minus = ad.shift(ad.scale(d_hat, -1.0), 1.0)
    term_neg = ad.weighted_sum(ad.log_rows(one_minus, ad.PROB_FLOOR), -(1.0 - labels) / n)
    return ad.add(term_pos, term_neg)

