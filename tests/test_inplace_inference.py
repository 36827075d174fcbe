"""Tape-free inference keeps one (n, hidden) buffer and works in it in place:
square layers in row blocks, variances over column blocks.  These tests hold
it bit-equal to a whole-array reference that takes one ``@`` per layer and
``h.var(axis=0)``, at row counts around the block size and at widths where
NumPy changes how it sums."""

import numpy as np
import pytest

from swguide import autodiff as ad
from swguide.data import DomainDataset, rng_for
from swguide.model import INFER_BLOCK_ROWS, NORM_DOMAINS, ModelParams, NormLayerState, forward
from swguide.norm_adapt import VAR_FLOOR, adapt_model, adjust_params, estimate_stats
from swguide.trainer import predict_target

B = INFER_BLOCK_ROWS
ROWS = [1, 2, B - 1, B, B + 1, 2 * B + 1]
D_X, K = 5, 3
# Extractor widths: hidden widths as init_params lays them out, plus a
# checkpoint whose feature width (9) differs from its first hidden width.
WIDTHS = {f"hidden-{w}": (D_X, w, w) for w in (1, 2, 17, 128)}
WIDTHS["features-9-after-17"] = (D_X, 17, 9, 9)


def _model(widths, seed=0) -> ModelParams:
    rng = rng_for(seed, "inplace-inference", *widths)

    def dense(fan_in, fan_out):
        return (
            rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in),
            0.1 * rng.standard_normal((1, fan_out)),
        )

    def state(width):
        return NormLayerState(
            gamma=1.0 + 0.3 * rng.standard_normal((1, width)),
            beta=0.2 * rng.standard_normal((1, width)),
            running_mean=0.5 * rng.standard_normal((1, width)),
            running_var=0.5 + rng.random((1, width)),
        )

    features = widths[-1]
    return ModelParams(
        extractor=[dense(a, b) for a, b in zip(widths, widths[1:])],
        norm_states=[{d: state(w) for d in NORM_DOMAINS} for w in widths[1:]],
        classifier=dense(features, K),
        discriminator=[dense(features * K, 2), dense(2, 1)],
    )


def _dataset(x, role) -> DomainDataset:
    n = len(x)
    return DomainDataset(
        sample_ids=tuple(f"{role[0]}{i}" for i in range(n)),
        roles=(role,) * n,
        labels=np.arange(n, dtype=np.int64) % K if role == "source" else np.full(n, -1),
        features=x,
        zeroshot=np.full((n, K), 1.0 / K),
    )


def _reference(params, x, domain):
    """(features, probabilities, per-layer (mean, variance)) from whole arrays."""
    stats = []
    h = x
    for layer, (weight, bias) in enumerate(params.extractor):
        h = h @ weight + bias
        var = np.maximum(h.var(axis=0, keepdims=True), VAR_FLOOR)
        stats.append((h.mean(axis=0, keepdims=True), var))
        state = params.norm_states[layer][domain]
        offset, inv_std = -state.running_mean, 1.0 / np.sqrt(state.running_var)
        h = np.maximum(((h + offset) * inv_std) * state.gamma + state.beta, 0.0)
    logits = h @ params.classifier[0] + params.classifier[1]
    return h, ad.stable_softmax(logits, 1.0), stats


def _assert_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS.keys())
def test_inference_is_bit_equal_to_the_whole_array_reference(widths, n):
    params = _model(widths)
    rng = rng_for(n, "inplace-inference", "x")
    source = _dataset(rng.standard_normal((n, D_X)), "source")
    target = _dataset(rng.standard_normal((n, D_X)) + 1.0, "target")
    expected = {}
    for domain, dataset in (("source", source), ("target", target)):
        ref_f, ref_p, ref_stats = _reference(params, dataset.features, domain)
        features, probs = forward(params, dataset.features, domain)
        _assert_bits(features, ref_f)
        _assert_bits(probs, ref_p)
        stats = estimate_stats(params, dataset, domain)
        assert len(stats) == len(ref_stats)
        for (mean, var), (ref_mean, ref_var) in zip(stats, ref_stats):
            _assert_bits(mean, ref_mean)
            _assert_bits(var, ref_var)
        expected[domain] = ref_stats
    _assert_bits(predict_target(params, target), _reference(params, target.features, "target")[1])

    adapted = adapt_model(params, source, target)
    reference = params.copy()
    for domain in NORM_DOMAINS:
        for states, stats in zip(reference.norm_states, expected[domain]):
            states[domain] = adjust_params(states[domain], *stats)
    for name, array in reference.named_arrays().items():
        _assert_bits(adapted.named_arrays()[name], array)


def test_inference_never_writes_its_input():
    """The first layer's weight is square here, yet its input is the caller's
    array, so it gets a fresh output rather than being overwritten."""
    params = _model((D_X, D_X, D_X))
    x = rng_for(0, "inplace-inference", "input").standard_normal((B + 1, D_X))
    kept = x.copy()
    forward(params, x, "source")
    estimate_stats(params, _dataset(x, "target"), "target")
    _assert_bits(x, kept)
