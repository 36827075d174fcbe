"""Per-domain recalibration of normalization layers before training.

A pretrained norm layer carries statistics (μ_p, σ_p) and parameters
(γ, β).  Given the statistics (μ_c, σ_c) the layer actually sees on a
domain, the parameters are rewritten as

    γ̃ = γ · √σ_c / √σ_p
    β̃ = β − (μ_p − μ_c) · γ / √σ_p

so that normalizing with the new statistics reproduces the pretrained
layer's output exactly.  Each domain's states are adjusted independently
from its own data, once, before the first training episode.
"""

from __future__ import annotations

import numpy as np

from .data import DomainDataset
from .errors import EmptyDomainError, NonPositiveVarianceError
from .model import ModelParams, NormLayerState, extract

VAR_FLOOR = 1e-5
VAR_BLOCK_COLUMNS = 16  # about this many columns per variance block


def estimate_stats(
    params: ModelParams, dataset: DomainDataset, domain: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (mean, variance) of the activations entering each norm layer.

    One :func:`~swguide.model.extract` pass over ``dataset``, every sample
    normalized with ``domain``'s current (pretrained) statistics.
    Variances are population (biased) and floored at ``VAR_FLOOR``.  They
    follow ``np.var``'s arithmetic (the mean, then the sum of squared
    deviations over n) one column block at a time, so the deviation
    temporary is one block wide, and they are bit-equal to
    ``h.var(axis=0)``: NumPy sums a contiguous column pairwise but a wider
    block row by row, and ``np.array_split`` makes no block one column wide
    unless the layer is.
    """
    if len(dataset) == 0:
        raise EmptyDomainError("cannot estimate statistics from an empty dataset")
    stats = []

    def observe(h):
        mean = h.mean(axis=0, keepdims=True)
        parts = -(-h.shape[1] // VAR_BLOCK_COLUMNS)
        sums = []
        for block, block_mean in zip(
            np.array_split(h, parts, axis=1), np.array_split(mean, parts, axis=1)
        ):
            deviation = block - block_mean
            deviation *= deviation
            sums.append(deviation.sum(axis=0))
        var = np.concatenate(sums).reshape(1, -1) / h.shape[0]
        stats.append((mean, np.maximum(var, VAR_FLOOR)))

    extract(params, dataset.features, domain, observe)
    return stats


def adjust_params(state: NormLayerState, mu_c, sigma_c) -> NormLayerState:
    """Rewrite (γ, β) for the new statistics without changing the function."""
    mu_c = np.asarray(mu_c, dtype=np.float64).reshape(1, -1)
    sigma_c = np.asarray(sigma_c, dtype=np.float64).reshape(1, -1)
    if sigma_c.min() <= 0.0:
        raise NonPositiveVarianceError("estimated variance must be positive")
    sqrt_p = np.sqrt(state.running_var)
    sqrt_c = np.sqrt(sigma_c)
    gamma_new = state.gamma * sqrt_c / sqrt_p
    beta_new = state.beta - (state.running_mean - mu_c) * state.gamma / sqrt_p
    return NormLayerState(
        gamma=gamma_new, beta=beta_new, running_mean=mu_c, running_var=sigma_c
    )


def adapt_model(
    params: ModelParams, source: DomainDataset, target: DomainDataset
) -> ModelParams:
    """Adjust every layer's source states from ``source`` and target states
    from ``target``; returns a new ModelParams, inputs untouched."""
    adapted = params.copy()
    for domain, dataset in (("source", source), ("target", target)):
        for states, stats in zip(adapted.norm_states, estimate_stats(params, dataset, domain)):
            states[domain] = adjust_params(states[domain], *stats)
    return adapted
