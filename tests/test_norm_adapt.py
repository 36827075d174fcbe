"""Unit tests for the pre-training recalibration of norm layers."""

import numpy as np
import pytest

from swguide.data import DomainDataset, rng_for
from swguide.errors import EmptyDomainError, NonPositiveVarianceError
from swguide.model import ModelParams, NormLayerState, forward
from swguide.norm_adapt import VAR_FLOOR, adapt_model, adjust_params, estimate_stats

from helpers import tiny_model


def _dataset(seed, n, role, d_x=4, k=3):
    rng = rng_for(seed, "norm-adapt-data", role)
    prefix = "s" if role == "source" else "t"
    labels = (
        np.full(n, -1, dtype=np.int64)
        if role == "target"
        else rng.integers(0, k, size=n).astype(np.int64)
    )
    return DomainDataset(
        sample_ids=tuple(f"{prefix}{i:03d}" for i in range(n)),
        roles=(role,) * n,
        labels=labels,
        features=rng.standard_normal((n, d_x)) + (2.0 if role == "target" else 0.0),
        zeroshot=np.zeros((n, k)),
    )


def _identity_single_layer(width=2):
    return ModelParams(
        extractor=[(np.eye(width), np.zeros((1, width)))],
        norm_states=[{d: NormLayerState.identity(width) for d in ("source", "target")}],
        classifier=(np.eye(width), np.zeros((1, width))),
        discriminator=[
            (np.zeros((width * width, 2)), np.zeros((1, 2))),
            (np.zeros((2, 1)), np.zeros((1, 1))),
        ],
    )


# ---------------------------------------------------------------------------
# adjust_params
# ---------------------------------------------------------------------------


def test_adjustment_worked_example():
    state = NormLayerState(
        gamma=np.ones((1, 1)),
        beta=np.zeros((1, 1)),
        running_mean=np.zeros((1, 1)),
        running_var=np.ones((1, 1)),
    )
    adjusted = adjust_params(state, np.array([2.0]), np.array([4.0]))
    assert adjusted.gamma[0, 0] == 2.0
    assert adjusted.beta[0, 0] == 2.0
    assert adjusted.running_mean[0, 0] == 2.0
    assert adjusted.running_var[0, 0] == 4.0


def test_adjustment_second_worked_example():
    state = NormLayerState(
        gamma=np.full((1, 1), 3.0),
        beta=np.full((1, 1), 1.0),
        running_mean=np.full((1, 1), 5.0),
        running_var=np.full((1, 1), 9.0),
    )
    adjusted = adjust_params(state, np.array([2.0]), np.array([1.0]))
    assert adjusted.gamma[0, 0] == 1.0
    assert adjusted.beta[0, 0] == -2.0


@pytest.mark.parametrize("seed", range(6))
def test_adjustment_preserves_the_layer_function(seed):
    rng = rng_for(seed, "adjust-prop")
    width = 5
    state = NormLayerState(
        gamma=rng.standard_normal((1, width)),
        beta=rng.standard_normal((1, width)),
        running_mean=rng.standard_normal((1, width)),
        running_var=0.5 + rng.random((1, width)),
    )
    mu_c = rng.standard_normal((1, width))
    sigma_c = 0.5 + rng.random((1, width))
    adjusted = adjust_params(state, mu_c, sigma_c)
    h = rng.standard_normal((40, width))
    old = (h - state.running_mean) / np.sqrt(state.running_var) * state.gamma + state.beta
    new = (h - adjusted.running_mean) / np.sqrt(adjusted.running_var) * adjusted.gamma
    new = new + adjusted.beta
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)


def test_adjustment_rejects_nonpositive_variance():
    state = NormLayerState.identity(2)
    with pytest.raises(NonPositiveVarianceError):
        adjust_params(state, np.zeros(2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# estimate_stats
# ---------------------------------------------------------------------------


def test_estimate_stats_population_variance_by_hand():
    params = _identity_single_layer()
    data = DomainDataset(
        sample_ids=("a", "b"),
        roles=("source", "source"),
        labels=np.zeros(2, dtype=np.int64),
        features=np.array([[0.0, 0.0], [2.0, 2.0]]),
        zeroshot=np.zeros((2, 2)),
    )
    ((mu, var),) = estimate_stats(params, data, "source")
    np.testing.assert_array_equal(mu, [[1.0, 1.0]])  # mean of {0, 2}
    np.testing.assert_array_equal(var, [[1.0, 1.0]])  # population, not sample


def test_estimate_stats_floors_constant_activations():
    params = _identity_single_layer()
    data = DomainDataset(
        sample_ids=("a", "b", "c"),
        roles=("source",) * 3,
        labels=np.zeros(3, dtype=np.int64),
        features=np.full((3, 2), 1.5),
        zeroshot=np.zeros((3, 2)),
    )
    ((_, var),) = estimate_stats(params, data, "source")
    np.testing.assert_array_equal(var, [[VAR_FLOOR, VAR_FLOOR]])


def test_estimate_stats_rejects_empty_dataset():
    params = _identity_single_layer()
    empty = DomainDataset(
        sample_ids=(),
        roles=(),
        labels=np.zeros(0, dtype=np.int64),
        features=np.zeros((0, 2)),
        zeroshot=np.zeros((0, 2)),
    )
    with pytest.raises(EmptyDomainError):
        estimate_stats(params, empty, "source")


def test_estimate_stats_second_layer_sees_normalized_first_layer():
    params = tiny_model(0)
    data = _dataset(0, 30, "target")
    stats = estimate_stats(params, data, "target")
    assert len(stats) == 2
    # Independent recomputation of the layer-2 input.
    w1, b1 = params.extractor[0]
    s1 = params.norm_states[0]["target"]
    pre1 = data.features @ w1 + b1
    h1 = np.maximum(
        (pre1 - s1.running_mean) / np.sqrt(s1.running_var) * s1.gamma + s1.beta, 0.0
    )
    w2, b2 = params.extractor[1]
    pre2 = h1 @ w2 + b2
    np.testing.assert_allclose(stats[1][0], pre2.mean(axis=0, keepdims=True), atol=1e-12)
    np.testing.assert_allclose(
        stats[1][1],
        np.maximum(pre2.var(axis=0, keepdims=True), VAR_FLOOR),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# adapt_model
# ---------------------------------------------------------------------------


def test_adapt_model_preserves_the_forward_function():
    params = tiny_model(1)
    source, target = _dataset(1, 25, "source"), _dataset(1, 20, "target")
    adapted = adapt_model(params, source, target)
    for data, tag in ((source, "source"), (target, "target")):
        f_old, p_old = forward(params, data.features, tag)
        f_new, p_new = forward(adapted, data.features, tag)
        assert np.abs(f_new - f_old).max() < 1e-9
        assert np.abs(p_new - p_old).max() < 1e-9


def test_adapt_model_installs_the_estimated_statistics():
    params = tiny_model(2)
    source, target = _dataset(2, 15, "source"), _dataset(2, 15, "target")
    target_stats = estimate_stats(params, target, "target")
    adapted = adapt_model(params, source, target)
    for layer, (mu, var) in enumerate(target_stats):
        np.testing.assert_array_equal(
            adapted.norm_states[layer]["target"].running_mean, mu
        )
        np.testing.assert_array_equal(
            adapted.norm_states[layer]["target"].running_var, var
        )


def test_adapt_model_leaves_inputs_untouched():
    params = tiny_model(3)
    before = {k: v.copy() for k, v in params.named_arrays().items()}
    adapt_model(params, _dataset(3, 10, "source"), _dataset(3, 10, "target"))
    for name, array in params.named_arrays().items():
        np.testing.assert_array_equal(array, before[name])


def test_adapt_model_is_idempotent_up_to_float_noise():
    params = tiny_model(4)
    source, target = _dataset(4, 30, "source"), _dataset(4, 30, "target")
    once = adapt_model(params, source, target)
    twice = adapt_model(once, source, target)
    for layer in range(len(once.norm_states)):
        for domain in ("source", "target"):
            a, b = once.norm_states[layer][domain], twice.norm_states[layer][domain]
            np.testing.assert_allclose(b.gamma, a.gamma, atol=1e-9)
            np.testing.assert_allclose(b.beta, a.beta, atol=1e-9)


def test_adapt_model_domains_are_independent():
    params = tiny_model(5)
    source = _dataset(5, 20, "source")
    a = adapt_model(params, source, _dataset(5, 20, "target"))
    b = adapt_model(params, source, _dataset(6, 20, "target"))
    for layer in range(len(a.norm_states)):
        np.testing.assert_array_equal(
            a.norm_states[layer]["source"].gamma, b.norm_states[layer]["source"].gamma
        )
        np.testing.assert_array_equal(
            a.norm_states[layer]["source"].beta, b.norm_states[layer]["source"].beta
        )
        assert not np.array_equal(
            a.norm_states[layer]["target"].beta, b.norm_states[layer]["target"].beta
        )
