"""Temperature calibration of zero-shot class scores.

A single temperature ``T`` divides every logit before the softmax.  The
solver picks ``T`` so that the mean winning probability — averaged per
domain and then mixed half/half between source and target — hits a target
value ``tau``.  Sharpened probabilities become the soft teacher labels
used for distillation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import PROB_FLOOR, softmax_numerators, stable_softmax
from .errors import (
    ClassMismatchError,
    EmptyDomainError,
    InfeasibleError,
    NonFiniteError,
    NotBracketedError,
    UnknownSampleIdError,
)

DEFAULT_TAU = 0.9

MEAN_TOLERANCE = 1e-6
BRACKET_RELATIVE_WIDTH = 1e-9
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SoftLabelSet:
    """Row-stochastic adjusted predictions keyed by sample id."""

    probs: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if probs.ndim != 2 or probs.shape[1] < 2:
            raise ClassMismatchError(
                f"probs must be n x K with K >= 2, got shape {probs.shape}"
            )
        if len(self.sample_ids) != probs.shape[0]:
            raise ClassMismatchError(
                f"got {len(self.sample_ids)} ids for {probs.shape[0]} rows"
            )
        if len(set(self.sample_ids)) != probs.shape[0]:
            raise ClassMismatchError("sample ids must be unique")
        if not np.isfinite(probs).all():
            raise NonFiniteError("soft labels contain non-finite entries")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ClassMismatchError("soft label entries must lie in [0, 1]")
        sums = probs.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            worst = int(np.abs(sums - 1.0).argmax())
            raise ClassMismatchError(
                f"row {worst} sums to {sums[worst]!r}, expected 1 within 1e-9"
            )

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def __len__(self) -> int:
        return self.probs.shape[0]

    def rows_for(self, ids) -> np.ndarray:
        """Probability rows for ``ids``, in the requested order."""
        index = {sid: i for i, sid in enumerate(self.sample_ids)}
        for sid in ids:
            if sid not in index:
                raise UnknownSampleIdError(f"no soft label for sample id {sid!r}")
        return self.probs[[index[sid] for sid in ids]]


@dataclass(frozen=True)
class CalibrationResult:
    temperature: float
    achieved_mean: float
    iterations: int


def _check_logits(logits) -> np.ndarray:
    """``logits`` as a float64 array, n x K with K >= 2 and finite."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ClassMismatchError(f"logits must be n x K with K >= 2, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise NonFiniteError("logit matrix contains non-finite entries")
    return logits


def _check_pair(source, target) -> tuple[np.ndarray, np.ndarray]:
    """Both domains' checked logits; neither may be empty, and they share K."""
    source, target = _check_logits(source), _check_logits(target)
    if len(source) == 0 or len(target) == 0:
        raise EmptyDomainError(
            f"both domains need rows, got source={len(source)} target={len(target)}"
        )
    if source.shape[1] != target.shape[1]:
        raise ClassMismatchError(
            f"class counts differ: source K={source.shape[1]}, target K={target.shape[1]}"
        )
    return source, target


def _mean_max_prob(logits: np.ndarray, temperature: float) -> float:
    """Mean top softmax probability.  A row's largest softmax numerator is
    exactly 1.0, so its top probability is 1 / (sum of numerators), bit for
    bit, and no full softmax is needed."""
    return float((1.0 / softmax_numerators(logits, temperature).sum(axis=1)).mean())


def mean_winning_probability(source, target, temperature: float) -> float:
    """Half/half mix of each domain's mean top softmax probability at
    ``temperature``, for the (n, K) logit arrays of the two domains."""
    source, target = _check_pair(source, target)
    return 0.5 * _mean_max_prob(source, temperature) + 0.5 * _mean_max_prob(
        target, temperature
    )


def _cold_limit(logits: np.ndarray) -> float:
    """Mean winning probability in the limit T -> 0+ (ties split the mass)."""
    multiplicity = (logits == logits.max(axis=1, keepdims=True)).sum(axis=1)
    return float(np.mean(1.0 / multiplicity))


def solve_temperature(source, target, tau: float = DEFAULT_TAU) -> CalibrationResult:
    """Bisect for the temperature at which the mean winning probability of
    the two domains' (n, K) logit arrays equals ``tau``.

    The bracket starts at (1e-3, 1e3) and expands by decades to at most
    (1e-12, 1e12).  Iteration stops once the achieved mean is within
    ``MEAN_TOLERANCE`` of ``tau`` *and* the bracket width has collapsed to
    ``BRACKET_RELATIVE_WIDTH`` relative to the answer, so the returned
    temperature itself is pinned, not just the constraint value.
    """
    source, target = _check_pair(source, target)
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    floor = 1.0 / source.shape[1]
    if tau <= floor:
        raise InfeasibleError(
            f"mean winning probability only falls to 1/K = {floor:.6f} as T grows "
            f"without bound, so tau={tau} is unreachable"
        )

    ceiling = 0.5 * _cold_limit(source) + 0.5 * _cold_limit(target)
    if ceiling <= tau:
        raise InfeasibleError(
            f"mean winning probability cannot exceed {ceiling:.6f} "
            f"(tied maxima), so tau={tau} is unreachable"
        )

    def gap(temperature: float) -> float:
        return mean_winning_probability(source, target, temperature) - tau

    lo, hi = 1e-3, 1e3
    while gap(lo) < 0.0:
        lo /= 10.0
        if lo < 1e-12:
            raise NotBracketedError(f"no temperature above 1e-12 reaches tau={tau}")
    while gap(hi) > 0.0:
        hi *= 10.0
        if hi > 1e12:
            raise NotBracketedError(f"no temperature below 1e12 reaches tau={tau}")

    for iterations in range(1, MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        achieved = mean_winning_probability(source, target, mid)
        tight = (hi - lo) <= BRACKET_RELATIVE_WIDTH * max(1.0, mid)
        if abs(achieved - tau) <= MEAN_TOLERANCE and tight:
            break
        if achieved > tau:
            lo = mid
        else:
            hi = mid
    return CalibrationResult(
        temperature=float(mid), achieved_mean=float(achieved), iterations=iterations
    )


def sharpen(logits, sample_ids, temperature: float) -> SoftLabelSet:
    """Soft labels ``softmax(logits / temperature)``, floored away from {0, 1},
    for the rows of ``logits`` named by ``sample_ids``."""
    probs = stable_softmax(_check_logits(logits), temperature)
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return SoftLabelSet(probs=probs, sample_ids=sample_ids)
