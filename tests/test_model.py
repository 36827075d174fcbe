"""Unit tests for the model: parameter plumbing, per-domain normalization,
forward semantics, the discriminator, and gradients."""

import numpy as np
import pytest

from swguide.calibration import stable_softmax
from swguide.data import read_array_file, rng_for, write_array_file
from swguide.errors import (
    NonFiniteError,
    NonPositiveVarianceError,
    ShapeMismatchError,
    UnknownDomainTagError,
)
from swguide.model import (
    ModelParams,
    NormLayerState,
    forward,
    init_params,
    lift,
    pack_trainable,
    params_from_named,
)
from swguide import autodiff as ad
from swguide.losses import adversarial_loss_node
from swguide.model import NORM_DOMAINS, discriminate_on_tape, forward_on_tape

from helpers import (
    fd_reference_grads,
    model_loss_grads,
    rel_error,
    tiny_batch,
    tiny_model,
    trainable_names,
    zero_grad,
)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def test_init_params_shapes_and_zero_biases():
    params = init_params(rng_for(0, "init-test"), 6, 4, hidden_dim=5, disc_hidden=7)
    assert [w.shape for w, _ in params.extractor] == [(6, 5), (5, 5)]
    assert all(np.all(b == 0.0) and b.shape == (1, w.shape[1])
               for w, b in params.extractor)
    assert params.classifier[0].shape == (5, 4)
    assert [w.shape for w, _ in params.discriminator] == [(20, 7), (7, 1)]
    for states in params.norm_states:
        for state in states.values():
            np.testing.assert_array_equal(state.gamma, np.ones((1, 5)))
            np.testing.assert_array_equal(state.running_var, np.ones((1, 5)))


def test_init_params_respects_glorot_bounds_and_seed():
    params = init_params(rng_for(1, "init-test"), 8, 3)
    limit = np.sqrt(6.0 / (8 + 64))
    assert np.abs(params.extractor[0][0]).max() <= limit
    again = init_params(rng_for(1, "init-test"), 8, 3)
    np.testing.assert_array_equal(params.extractor[1][0], again.extractor[1][0])
    np.testing.assert_array_equal(params.discriminator[0][0], again.discriminator[0][0])


def test_norm_state_validation():
    with pytest.raises(NonPositiveVarianceError):
        NormLayerState(np.ones((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeMismatchError):
        NormLayerState(np.ones((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), np.ones((1, 2)))
    promoted = NormLayerState(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    assert promoted.gamma.shape == (1, 4)


def test_named_arrays_round_trip_via_checkpoint_file(tmp_path):
    params = tiny_model(0)
    path = tmp_path / "ckpt.txt"
    write_array_file(path, params.named_arrays())
    rebuilt = params_from_named(read_array_file(path))
    rebuilt_named = rebuilt.named_arrays()
    for name, array in params.named_arrays().items():
        np.testing.assert_array_equal(rebuilt_named[name], array)
    with pytest.raises(ShapeMismatchError):
        params_from_named({"classifier.weight": np.zeros((2, 2))})


def _set_width_one_norm_state(named):
    for key in ("gamma", "beta", "mean", "var"):
        named[f"norm.0.target.{key}"] = np.ones((1, 1))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda named: named.update({"extractor.0.bias": np.zeros((1, 1))}),
        lambda named: named.update({"classifier.bias": np.zeros((1, 1))}),
        _set_width_one_norm_state,
        lambda named: named.update({"extractor.1.weight": np.zeros((3, 4))}),
        lambda named: named.update({"classifier.weight": np.zeros((5, 3))}),
        lambda named: named.update({"discriminator.0.weight": np.zeros((11, 3))}),
        lambda named: named.update(
            {"discriminator.1.weight": np.zeros((3, 2)), "discriminator.1.bias": np.zeros((1, 2))}
        ),
        lambda named: named.update({"extractor.0.bias": np.zeros(4)}),
        lambda named: named.pop("classifier.bias"),
        lambda named: named.pop("norm.1.source.var"),
        lambda named: named.update({"norm.2.source.gamma": np.ones((1, 4))}),
    ],
    ids=[
        "extractor-bias-1x1", "classifier-bias-1x1", "norm-state-width-1",
        "extractor-fan-in", "classifier-fan-in", "discriminator-input-width",
        "discriminator-output-width", "one-dimensional-bias", "missing-bias",
        "missing-norm-field", "norm-layer-without-extractor",
    ],
)
def test_params_from_named_rejects_inconsistent_widths(corrupt):
    named = tiny_model(0).named_arrays()
    params_from_named(dict(named))  # the untouched layout is accepted
    corrupt(named)
    with pytest.raises(ShapeMismatchError):
        params_from_named(named)


def test_pack_trainable_makes_views_of_one_flat_vector():
    params = tiny_model(3)
    flat, packed = pack_trainable(params)
    trainable = packed.trainable_arrays()
    assert list(trainable) == trainable_names(params)
    assert flat.size == sum(array.size for array in trainable.values())
    for name, array in params.named_arrays().items():
        np.testing.assert_array_equal(packed.named_arrays()[name], array)
    flat += 1.0
    for name, array in trainable.items():
        np.testing.assert_array_equal(array, params.named_arrays()[name] + 1.0)
    assert packed.norm_states[0]["source"].running_var is params.norm_states[0]["source"].running_var


def test_lift_with_a_flat_gradient_fills_it_like_separate_leaves():
    params = tiny_model(4)
    batch = tiny_batch(4)
    expected = model_loss_grads(params, batch, "ad", lam=0.7)
    flat, packed = pack_trainable(params)
    grad = np.zeros_like(flat)
    tape = ad.Tape()
    nodes = lift(tape, packed, grad)
    features, _, probs = forward_on_tape(nodes, packed, tape.leaf(batch["x"]), batch["masks"])
    d_hat = discriminate_on_tape(nodes, ad.outer_rows(features, probs), 0.7)
    ad.backward(tape, adversarial_loss_node(d_hat, batch["domain_labels"]))
    np.testing.assert_array_equal(grad, np.concatenate([expected[n].ravel() for n in expected]))
    with pytest.raises(ShapeMismatchError):
        lift(ad.Tape(), packed, np.zeros(flat.size + 1))
    with pytest.raises(ShapeMismatchError):
        lift(ad.Tape(), packed, np.zeros(flat.size - 1))


def test_eager_forward_allocates_no_gradients():
    params = tiny_model(5)
    tape = ad.Tape()
    nodes = lift(tape, params, zero_grad(params))
    lifted = len(tape.nodes)  # each parameter leaf holds its view of the buffer
    forward_on_tape(nodes, params, tape.leaf(np.ones((2, 4))), _masks(["source", "target"]))
    assert all(node.grad is None for node in tape.nodes[lifted:])
    assert sum(node.op == "domain_affine" for node in tape.nodes) == len(params.extractor)


def test_copy_is_deep_for_trainables_and_stats():
    params = tiny_model(1)
    clone = params.copy()
    clone.extractor[0][0][...] = 0.0
    clone.norm_states[0]["target"].running_mean[...] = 99.0
    assert params.extractor[0][0].any()
    assert not (params.norm_states[0]["target"].running_mean == 99.0).any()


def test_lifted_nodes_cover_exactly_the_trainables():
    params = tiny_model(2)
    tape = ad.Tape()
    nodes = lift(tape, params, zero_grad(params))
    named = nodes.named_nodes()
    assert sorted(named) == sorted(trainable_names(params))
    for name, node in named.items():
        np.testing.assert_array_equal(node.value, params.named_arrays()[name])


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------


def _reference_forward(params, x, tags):
    """Independent numpy re-implementation of the forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for layer, (weight, bias) in enumerate(params.extractor):
        h = h @ weight + bias
        blended = np.zeros_like(h)
        for i, tag in enumerate(tags):
            state = params.norm_states[layer][tag]
            normed = (h[i] - state.running_mean[0]) / np.sqrt(state.running_var[0])
            blended[i] = normed * state.gamma[0] + state.beta[0]
        h = np.maximum(blended, 0.0)
    logits = h @ params.classifier[0] + params.classifier[1]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return h, logits, exp / exp.sum(axis=1, keepdims=True)


def _masks(tags):
    """``forward_on_tape`` masks for per-row tags that name both domains."""
    return {d: np.array([[float(tag == d)] for tag in tags]) for d in NORM_DOMAINS}


def _forward_on_tape(params, x, masks):
    """(features, logits, probabilities) values of one taped forward."""
    tape = ad.Tape()
    nodes = forward_on_tape(lift(tape, params, zero_grad(params)), params, tape.leaf(x), masks)
    return tuple(node.value for node in nodes)


def _discriminate_on_tape(params, joint, lam):
    tape = ad.Tape()
    return discriminate_on_tape(lift(tape, params, zero_grad(params)), tape.leaf(joint), lam).value


@pytest.mark.parametrize("seed", range(5))
def test_forward_matches_independent_reference(seed):
    params = tiny_model(seed)
    rng = rng_for(seed, "forward-ref")
    x = rng.standard_normal((7, 4))
    tags = [("source", "target")[int(b)] for b in rng.integers(0, 2, size=7)]
    if len(set(tags)) == 1:
        tags[0] = "target" if tags[0] == "source" else "source"
    features, logits, probs = _forward_on_tape(params, x, _masks(tags))
    ref_f, ref_logits, ref_p = _reference_forward(params, x, tags)
    np.testing.assert_allclose(features, ref_f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs, ref_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_forward_equals_forward_on_tape_bit_for_bit(seed):
    params = tiny_model(seed, d_x=3 + seed, k=2 + seed % 3, hidden=2 + 2 * seed)
    x = rng_for(seed, "forward-vs-tape").standard_normal((9, 3 + seed))
    for domain in NORM_DOMAINS:
        features, probs = forward(params, x, domain)
        tape_f, _, tape_p = _forward_on_tape(params, x, {domain: None})
        assert features.tobytes() == tape_f.tobytes()
        assert probs.tobytes() == tape_p.tobytes()


def test_forward_shapes_and_row_stochastic_output():
    params = tiny_model(3)
    x = rng_for(3, "shapes").standard_normal((5, 4))
    features, probs = forward(params, x, "source")
    assert features.shape == (5, 4) and probs.shape == (5, 3)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
    assert (probs > 0).all()


def test_zeroed_classifier_predicts_uniform():
    params = tiny_model(4)
    params.classifier[0][...] = 0.0
    params.classifier[1][...] = 0.0
    _, probs = forward(params, rng_for(4, "uniform").standard_normal((6, 4)), "target")
    np.testing.assert_array_equal(probs, np.full((6, 3), 1.0 / 3.0))


def test_identical_norm_states_make_domain_tags_irrelevant():
    params = tiny_model(5)
    for states in params.norm_states:
        src = states["source"]
        states["target"] = NormLayerState(
            gamma=src.gamma.copy(),
            beta=src.beta.copy(),
            running_mean=src.running_mean.copy(),
            running_var=src.running_var.copy(),
        )
    x = rng_for(5, "tags").standard_normal((6, 4))
    f_src, p_src = forward(params, x, "source")
    f_tgt, p_tgt = forward(params, x, "target")
    f_mix, _, p_mix = _forward_on_tape(params, x, _masks(["source", "target"] * 3))
    np.testing.assert_array_equal(f_src, f_tgt)
    np.testing.assert_array_equal(p_src, p_tgt)
    np.testing.assert_array_equal(f_mix, f_src)
    np.testing.assert_array_equal(p_mix, p_src)


def test_single_layer_norm_arithmetic_by_hand():
    params = ModelParams(
        extractor=[(np.eye(2), np.zeros((1, 2)))],
        norm_states=[
            {
                "source": NormLayerState.identity(2),
                "target": NormLayerState(
                    gamma=np.full((1, 2), 2.0),
                    beta=np.full((1, 2), 1.0),
                    running_mean=np.full((1, 2), 3.0),
                    running_var=np.full((1, 2), 4.0),
                ),
            }
        ],
        classifier=(np.eye(2), np.zeros((1, 2))),
        discriminator=[(np.zeros((4, 2)), np.zeros((1, 2))), (np.zeros((2, 1)), np.zeros((1, 1)))],
    )
    x = np.array([[7.0, 1.0]])
    features, _ = forward(params, x, "target")
    # (x - 3) / 2 * 2 + 1 = x - 2, then relu.
    np.testing.assert_array_equal(features, [[5.0, 0.0]])
    features_src, _ = forward(params, x, "source")
    np.testing.assert_array_equal(features_src, [[7.0, 1.0]])


def test_forward_validates_tags():
    params = tiny_model(6)
    x = np.zeros((3, 4))
    with pytest.raises(UnknownDomainTagError, match="'elsewhere'"):
        forward(params, x, "elsewhere")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_forward_keeps_the_checks_of_the_tape():
    params = tiny_model(6)
    x = rng_for(6, "forward-checks").standard_normal((3, 4))
    with pytest.raises(ShapeMismatchError, match="matmul inner dims differ"):
        forward(params, np.zeros((3, 5)), "source")
    with pytest.raises(NonFiniteError):
        forward(params, np.where(x > 0, np.inf, x), "source")
    overflow = params.copy()
    overflow.extractor[0][0][...] = 1e308
    with pytest.raises(NonFiniteError, match="layer 0"):
        forward(overflow, np.abs(x) + 1.0, "source")
    dead = params.copy()
    dead.norm_states[1]["target"].gamma[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="norm 1"):
        forward(dead, x, "target")
    forward(dead, x, "source")  # the other domain's states are not read
    loud = params.copy()
    loud.classifier[0][...] = 1e308
    with pytest.raises(NonFiniteError, match="logits"):
        forward(loud, x + 10.0, "source")


def test_probs_are_softmax_of_logits():
    params = tiny_model(8)
    x = rng_for(8, "probs").standard_normal((5, 4))
    _, probs = forward(params, x, "target")
    _, logits, _ = _forward_on_tape(params, x, {"target": None})
    np.testing.assert_array_equal(probs, stable_softmax(logits, 1.0))


# ---------------------------------------------------------------------------
# Discriminator input and forward
# ---------------------------------------------------------------------------


def test_discriminate_outputs_probabilities_and_ignores_lambda_forward():
    params = tiny_model(9)
    rng = rng_for(9, "disc")
    joint = rng.standard_normal((6, 4 * 3))  # tiny_model's features x classes
    out = _discriminate_on_tape(params, joint, lam=1.0)
    assert out.shape == (6, 1)
    assert ((out > 0) & (out < 1)).all()
    np.testing.assert_array_equal(_discriminate_on_tape(params, joint, lam=0.25), out)
    with pytest.raises(ShapeMismatchError):
        _discriminate_on_tape(params, joint[:, :-1], lam=1.0)


# ---------------------------------------------------------------------------
# Gradients through the full model (spot checks; the acceptance suite
# sweeps many seeds)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["ce", "kd", "ad"])
@pytest.mark.parametrize("seed", [0, 1])
def test_full_model_gradients_match_finite_differences(kind, seed):
    params = tiny_model(seed)
    batch = tiny_batch(seed)
    grads = model_loss_grads(params, batch, kind)
    numeric = fd_reference_grads(params, batch, kind)
    for name in trainable_names(params):
        assert rel_error(grads[name], numeric[name]) < 1e-4, name


def test_gradient_reversal_flips_extractor_gradients_only():
    params = tiny_model(10)
    batch = tiny_batch(10)
    plus = model_loss_grads(params, batch, "ad", lam=1.0)
    minus = model_loss_grads(params, batch, "ad", lam=0.0)
    for name in trainable_names(params):
        if name.startswith("discriminator."):
            np.testing.assert_allclose(plus[name], minus[name], atol=1e-12)
        elif name.startswith(("extractor.", "norm.", "classifier.")):
            # With lam=0 nothing leaks past the reversal layer.
            np.testing.assert_array_equal(minus[name], np.zeros_like(minus[name]))
