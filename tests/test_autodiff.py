"""Unit tests for the tape-based reverse-mode differentiation core.

Forward values are checked against hand fixtures and scipy; every
operation's gradient is checked against central finite differences on
randomly conditioned inputs (kinked ops get inputs pushed away from
their kinks so the differences are valid).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from swguide import autodiff as ad
from swguide.data import rng_for
from swguide.errors import (
    ConfigInvalidError,
    DoubleBackwardError,
    GuidanceError,
    NonFiniteError,
    NotScalarError,
    ShapeMismatchError,
    TapeReleasedError,
)

from helpers import rel_error


def _fd_check(build, inputs, seed, tol=1e-6, h=1e-6):
    """Compare tape gradients of scalar weighted_sum(build(inputs)) to FD."""
    probe_tape = ad.Tape()
    probe = build(*[probe_tape.leaf(a) for a in inputs])
    weights = rng_for(seed, "fd-weights").standard_normal(probe.value.shape)

    def scalar(arrays):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        return float(ad.weighted_sum(build(*leaves), weights).value[0, 0])

    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in inputs]
    loss = ad.weighted_sum(build(*leaves), weights)
    ad.backward(tape, loss)

    for which, leaf in enumerate(leaves):
        grad_fd = np.zeros_like(leaf.value)
        it = np.nditer(grad_fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            perturbed = [a.copy() for a in inputs]
            perturbed[which][idx] += h
            plus = scalar(perturbed)
            perturbed[which][idx] -= 2 * h
            minus = scalar(perturbed)
            grad_fd[idx] = (plus - minus) / (2 * h)
        assert rel_error(leaf.grad, grad_fd) < tol, (
            f"input {which}: tape grad and finite differences disagree"
        )


# ---------------------------------------------------------------------------
# Forward fixtures
# ---------------------------------------------------------------------------


def test_matmul_matches_numpy():
    rng = rng_for(0, "matmul")
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    tape = ad.Tape()
    out = ad.matmul(tape.leaf(a), tape.leaf(b))
    np.testing.assert_array_equal(out.value, a @ b)


def test_add_mul_broadcast_match_numpy():
    rng = rng_for(1, "broadcast")
    a = rng.standard_normal((4, 3))
    row = rng.standard_normal((1, 3))
    col = rng.standard_normal((4, 1))
    tape = ad.Tape()
    np.testing.assert_array_equal(ad.add(tape.leaf(a), tape.leaf(row)).value, a + row)
    np.testing.assert_array_equal(ad.mul(tape.leaf(a), tape.leaf(col)).value, a * col)


def test_incompatible_shapes_raise():
    tape = ad.Tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatchError):
        ad.add(a, b)
    with pytest.raises(ShapeMismatchError):
        ad.matmul(a, tape.leaf(np.zeros((2, 3))))


def test_sigmoid_matches_scipy_and_is_stable():
    x = np.array([[-800.0, -5.0, 0.0, 5.0, 800.0]])
    tape = ad.Tape()
    out = ad.sigmoid(tape.leaf(x)).value
    np.testing.assert_allclose(out, special.expit(x), rtol=0, atol=1e-15)
    assert np.isfinite(out).all()


def test_softmax_rows_matches_scipy():
    rng = rng_for(2, "softmax")
    x = rng.standard_normal((5, 7)) * 10
    for temperature in (0.25, 1.0, 4.0):
        tape = ad.Tape()
        out = ad.softmax_rows(tape.leaf(x), temperature).value
        np.testing.assert_allclose(
            out, special.softmax(x / temperature, axis=1), rtol=1e-12, atol=1e-15
        )


def test_softmax_hand_fixture():
    tape = ad.Tape()
    out = ad.softmax_rows(tape.leaf([[np.log(9.0), 0.0]]), 1.0).value
    np.testing.assert_allclose(out, [[0.9, 0.1]], rtol=0, atol=1e-12)


def test_softmax_rejects_bad_temperature():
    tape = ad.Tape()
    with pytest.raises(ConfigInvalidError):
        ad.softmax_rows(tape.leaf([[1.0, 2.0]]), 0.0)


def test_log_rows_floors_small_values():
    tape = ad.Tape()
    out = ad.log_rows(tape.leaf([[1.0, 1e-30]]))
    np.testing.assert_allclose(out.value, [[0.0, np.log(1e-12)]])


def test_mean_and_weighted_sum_fixtures():
    tape = ad.Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    assert ad.weighted_sum(a, np.full((2, 2), 0.25)).value[0, 0] == 2.5  # the mean
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert ad.weighted_sum(a, w).value[0, 0] == 1.0 + 8.0


def test_outer_rows_fixture():
    tape = ad.Tape()
    out = ad.outer_rows(tape.leaf([[1.0, 0.0]]), tape.leaf([[0.5, 0.5]]))
    np.testing.assert_array_equal(out.value, [[0.5, 0.5, 0.0, 0.0]])


def test_outer_rows_one_hot_places_feature_block():
    rng = rng_for(4, "outer")
    f = rng.standard_normal((1, 3))
    p = np.array([[0.0, 1.0, 0.0]])
    tape = ad.Tape()
    out = ad.outer_rows(tape.leaf(f), tape.leaf(p)).value.reshape(3, 3)
    np.testing.assert_array_equal(out[:, 1], f[0])
    assert np.all(out[:, [0, 2]] == 0.0)


def test_outer_rows_checks_each_entry_when_the_magnitude_bound_overflows():
    tape = ad.Tape()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="'outer_rows'"):
            ad.outer_rows(tape.leaf([[1e200, 1.0]]), tape.leaf([[1e200, 0.5]]))
    # The largest magnitudes multiply to inf, but no row's products do.
    f, p = [[1e200], [1e-200]], [[1e-200], [1e200]]
    out = ad.outer_rows(tape.leaf(f), tape.leaf(p))
    np.testing.assert_array_equal(out.value, [[1e200 * 1e-200], [1e-200 * 1e200]])


def test_gradient_reverse_forward_identity():
    rng = rng_for(5, "grl")
    x = rng.standard_normal((3, 4))
    tape = ad.Tape()
    np.testing.assert_array_equal(ad.gradient_reverse(tape.leaf(x), 1.0).value, x)
    with pytest.raises(ConfigInvalidError):
        ad.gradient_reverse(tape.leaf(x), -0.5)


def test_gradient_reverse_backward_flips_sign():
    x = np.array([[1.0, 2.0]])
    for lam in (0.0, 0.5, 1.0):
        tape = ad.Tape()
        leaf = tape.leaf(x)
        loss = ad.weighted_sum(ad.gradient_reverse(leaf, lam), np.full((1, 2), 0.5))
        ad.backward(tape, loss)
        np.testing.assert_allclose(leaf.grad, -lam * np.full((1, 2), 0.5))


# ---------------------------------------------------------------------------
# Backward pass mechanics
# ---------------------------------------------------------------------------


def test_reused_node_accumulates_gradient():
    tape = ad.Tape()
    x = tape.leaf([[3.0]])
    loss = ad.add(x, x)
    ad.backward(tape, loss)
    assert x.grad[0, 0] == 2.0


def test_backward_requires_scalar():
    tape = ad.Tape()
    x = tape.leaf([[1.0, 2.0]])
    with pytest.raises(NotScalarError):
        ad.backward(tape, x)


def test_backward_twice_rejected():
    tape = ad.Tape()
    x = tape.leaf([[1.0]])
    loss = ad.weighted_sum(x, np.ones((1, 1)))
    ad.backward(tape, loss)
    with pytest.raises(DoubleBackwardError):
        ad.backward(tape, loss)


def test_nonfinite_values_rejected():
    tape = ad.Tape()
    with pytest.raises(NonFiniteError):
        tape.leaf([[np.inf]])
    with pytest.raises(NonFiniteError):
        tape.leaf([[np.nan, 1.0]])


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ShapeMismatchError):
        ad.add(t1.leaf([[1.0]]), t2.leaf([[1.0]]))


def test_one_dim_inputs_promoted_to_rows():
    tape = ad.Tape()
    leaf = tape.leaf([1.0, 2.0, 3.0])
    assert leaf.value.shape == (1, 3)


def test_op_on_a_node_whose_tape_was_released_is_an_error():
    leaf = ad.Tape().leaf([[1.0, -2.0]])  # nothing keeps the tape alive
    with pytest.raises(TapeReleasedError, match="released") as info:
        ad.relu(leaf)
    assert isinstance(info.value, GuidanceError)
    np.testing.assert_array_equal(leaf.value, [[1.0, -2.0]])  # the value survives


def test_gradients_are_allocated_only_by_backward():
    tape = ad.Tape()
    x = tape.leaf([[1.0, 2.0]])
    y = ad.relu(ad.scale(x, 3.0))
    assert x.grad is None and y.grad is None
    ad.backward(tape, ad.weighted_sum(y, np.full((1, 2), 0.5)))
    np.testing.assert_array_equal(x.grad, [[1.5, 1.5]])
    assert all(node.grad.shape == node.value.shape for node in tape.nodes)


def test_leaf_accumulates_into_the_gradient_array_it_is_given():
    buffer = np.zeros(4)
    tape = ad.Tape()
    a = tape.leaf([[1.0, 2.0]], buffer[:2].reshape(1, 2))
    b = tape.leaf([[3.0, 4.0]], buffer[2:].reshape(1, 2))
    ad.backward(tape, ad.weighted_sum(ad.mul(a, b), np.ones((1, 2))))
    np.testing.assert_array_equal(buffer, [3.0, 4.0, 1.0, 2.0])
    with pytest.raises(ShapeMismatchError):
        tape.leaf([[1.0, 2.0]], np.zeros((2, 1)))


def test_backward_gives_every_node_its_own_gradient_array():
    buffer = np.full((2, 3), 5.0)
    tape = ad.Tape()
    w = tape.leaf(np.arange(6.0).reshape(2, 3), buffer)
    x = tape.leaf(np.ones((2, 3)))
    idle = tape.leaf([[1.0, 2.0]])  # reaches no loss
    dead_end = ad.relu(x)  # neither does this op
    h = ad.add(x, w)  # pass-through gradient to both parents
    r = ad.gradient_reverse(h, 0.5)
    s = ad.shift(r, 1.0)  # pass-through
    row = tape.leaf([[0.5, -1.0, 2.0]])
    gamma, beta = tape.leaf([[2.0, 1.0, 0.5]]), tape.leaf([[0.0, 1.0, 0.0]])
    one, sixth = np.ones((1, 3)), np.full((2, 3), 1 / 6)
    affine = ad.domain_affine(row, [(None, -one, one, gamma, beta)])  # relu drops two entries
    loss = ad.add(
        ad.add(ad.weighted_sum(s, sixth), ad.weighted_sum(w, sixth)),
        ad.weighted_sum(affine, one),
    )
    ad.backward(tape, loss)

    assert r.value is h.value
    grads = [node.grad for node in tape.nodes]
    assert all(
        isinstance(g, np.ndarray) and g.shape == node.value.shape
        for g, node in zip(grads, tape.nodes)
    )
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(idle.grad, np.zeros((1, 2)))
    np.testing.assert_array_equal(dead_end.grad, np.zeros((2, 3)))
    # The given buffer accumulated: 5, then 1/6 from w's own term, then h's share.
    assert w.grad is buffer
    np.testing.assert_array_equal(buffer, np.full((2, 3), (5.0 + 1 / 6) + (1 / 6) * -0.5))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), (1 / 6) * -0.5))
    np.testing.assert_array_equal(beta.grad, [[0.0, 0.0, 1.0]])


def test_backward_allocates_a_gradient_only_once_a_contribution_reaches_it(monkeypatch):
    tape = ad.Tape()
    w = tape.leaf(np.arange(6.0).reshape(2, 3), np.zeros((2, 3)))
    x = tape.leaf(np.ones((2, 3)))
    idle = ad.relu(x)  # reaches no loss
    h = ad.relu(ad.add(x, w))
    sixth = np.full((2, 3), 1 / 6)
    loss = ad.add(ad.weighted_sum(h, sixth), ad.weighted_sum(ad.sigmoid(h), sixth))
    reached = {id(w), id(loss)}  # the given buffer and the seed
    for op, step in list(ad._BACKWARD.items()):
        def checked(node, _step=step):
            holding = {id(n) for n in tape.nodes if n.grad is not None}
            assert holding <= reached, "a node holds a gradient before any reached it"
            _step(node)
            reached.update(id(parent) for parent in node.parents)

        monkeypatch.setitem(ad._BACKWARD, op, checked)
    ad.backward(tape, loss)
    assert len(reached) < len(tape.nodes)
    np.testing.assert_array_equal(idle.grad, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, every op, many seeds
# ---------------------------------------------------------------------------

SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul(seed):
    rng = rng_for(seed, "g-matmul")
    _fd_check(ad.matmul, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_broadcast(seed):
    rng = rng_for(seed, "g-add")
    _fd_check(ad.add, [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mul_broadcast(seed):
    rng = rng_for(seed, "g-mul")
    _fd_check(ad.mul, [rng.standard_normal((3, 4)), rng.standard_normal((3, 1))], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_scale(seed):
    rng = rng_for(seed, "g-scale")
    _fd_check(lambda a: ad.scale(a, -2.5), [rng.standard_normal((3, 3))], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_scale_by_constant_array(seed):
    """scale takes numbers only; a product with a constant array is
    weighted_sum's, as in the losses' per-row weights.  Weights made of a
    row times a column, against finite differences and the NumPy sum."""
    rng = rng_for(seed, "g-scale-array")
    weights = rng.standard_normal((1, 3)) * rng.standard_normal((4, 1))
    x = rng.standard_normal((4, 3))
    _fd_check(lambda a: ad.weighted_sum(a, weights), [x], seed)
    tape = ad.Tape()
    assert ad.weighted_sum(tape.leaf(x), weights).value[0, 0] == np.sum(x * weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_shift(seed):
    rng = rng_for(seed, "g-shift")
    offset = rng.standard_normal(3)
    _fd_check(lambda a: ad.mul(ad.shift(a, offset), a), [rng.standard_normal((4, 3))], seed)


def test_constant_ops_match_leaf_ops_bit_for_bit():
    rng = rng_for(0, "const-vs-leaf")
    x, offset, factor = rng.standard_normal((5, 3)), rng.standard_normal((1, 3)), 0.75
    grads, values = [], []
    for constants in (False, True):
        tape = ad.Tape()
        leaf = tape.leaf(x)
        shifted = ad.shift(leaf, offset) if constants else ad.add(leaf, tape.leaf(offset))
        out = ad.scale(shifted, factor)
        ad.backward(tape, ad.weighted_sum(out, x))
        values.append(out.value)
        grads.append(leaf.grad)
    np.testing.assert_array_equal(values[0], values[1])
    np.testing.assert_array_equal(grads[0], grads[1])
    # scale is the NumPy product with the number, both ways.
    np.testing.assert_array_equal(values[1], (x + offset) * factor)
    np.testing.assert_array_equal(grads[1], x * factor)


def test_constant_ops_reject_shapes_that_grow_the_value():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        ad.shift(a, np.ones((3, 3)))
    for constant in (np.ones((2, 3)), np.ones((1, 1)), [2.0]):  # scale takes numbers only
        with pytest.raises(ShapeMismatchError, match="number"):
            ad.scale(a, constant)
    assert ad.scale(a, np.float64(2.0)).value[0, 0] == 2.0


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_linear(seed):
    rng = rng_for(seed, "g-linear")
    inputs = [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal((1, 5))]
    _fd_check(ad.linear, inputs, seed)
    _fd_check(lambda h, w, b: ad.linear(h, w, b, relu=True), inputs, seed)


@pytest.mark.parametrize("rows", [6, 1])
@pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
def test_linear_matches_the_unfused_ops_bit_for_bit(relu, rows):
    rng = rng_for(rows, "linear-vs-unfused")
    inputs = [rng.standard_normal((rows, 4)), rng.standard_normal((4, 5)), rng.standard_normal((1, 5))]
    weights = rng.standard_normal((rows, 5))
    results = []
    for fused in (True, False):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in inputs]
        if fused:
            out = ad.linear(*leaves, relu=relu)
        else:
            out = ad.add(ad.matmul(leaves[0], leaves[1]), leaves[2])
            out = ad.relu(out) if relu else out
        ad.backward(tape, ad.weighted_sum(out, weights))
        results.append([out.value] + [leaf.grad for leaf in leaves])
        grads = [node.grad for node in tape.nodes]  # one row: the bias's is a pass-through
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])
    for fused, unfused in zip(*results):
        assert fused.tobytes() == unfused.tobytes()


def test_linear_rejects_bad_shapes():
    tape = ad.Tape()
    h, w, b = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((2, 4))), tape.leaf(np.ones((1, 4)))
    with pytest.raises(ShapeMismatchError):
        ad.linear(h, tape.leaf(np.ones((3, 4))), b)
    with pytest.raises(ShapeMismatchError):
        ad.linear(h, w, tape.leaf(np.ones((3, 4))))  # the bias is one row


def test_fused_relus_check_finiteness_before_the_relu():
    """A -inf before the relu would read 0 after it; the fused op names itself."""
    tape = ad.Tape()
    h = tape.leaf([[1e308, 1.0]])
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="'linear'"):
            ad.linear(h, tape.leaf([[-10.0], [0.0]]), tape.leaf([[0.0]]), relu=True)
        with pytest.raises(NonFiniteError, match="'domain_affine'"):
            ad.domain_affine(
                tape.leaf([[-1e308]]), [(None, zero, 10.0 * one, tape.leaf(one), tape.leaf(zero))]
            )


def _affine_branches(rng, n, d, split):
    """Per-domain constants for ``domain_affine``: rows before ``split`` are
    source, the rest target; a single-domain batch gets one unmasked branch."""
    source = (np.arange(n) < split).astype(np.float64).reshape(n, 1)
    masks = [source, 1.0 - source]
    present = [m for m in masks if m.any()]
    constants = []
    for mask in present:
        offset = rng.standard_normal((1, d))
        inv_std = 1.0 / np.sqrt(0.5 + rng.random((1, d)))
        constants.append((mask if len(present) > 1 else None, offset, inv_std))
    return constants


def _affine(constants, h, *params):
    branches = [
        (mask, offset, inv_std, params[2 * i], params[2 * i + 1])
        for i, (mask, offset, inv_std) in enumerate(constants)
    ]
    return ad.domain_affine(h, branches)


def _numpy_affine(constants, weights, h, *params):
    """Value, and the gradients of ``sum(value * weights)`` for ``h`` and
    every (gamma, beta), of the blend in plain NumPy: each branch is
    ``((h + offset) * inv_std * gamma + beta) * mask``, summed in branch
    order, then relu; the backward walk takes the last branch first."""
    out = None
    for i, (mask, offset, inv_std) in enumerate(constants):
        y = (h + offset) * inv_std * params[2 * i] + params[2 * i + 1]
        y = y if mask is None else y * mask
        out = y if out is None else out + y
    g = weights * (out > 0.0)
    h_grad, param_grads = None, [None] * len(params)
    for i in range(len(constants) - 1, -1, -1):
        mask, offset, inv_std = constants[i]
        gy = g if mask is None else g * mask
        param_grads[2 * i + 1] = gy.sum(axis=0, keepdims=True)
        param_grads[2 * i] = (gy * ((h + offset) * inv_std)).sum(axis=0, keepdims=True)
        contribution = (gy * params[2 * i]) * inv_std
        h_grad = contribution if h_grad is None else h_grad + contribution
    return np.maximum(out, 0.0), [h_grad] + param_grads


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_domain_affine(seed):
    rng = rng_for(seed, "g-domain-affine")
    n, d = 5, 3
    constants = _affine_branches(rng, n, d, split=2)
    inputs = [rng.standard_normal((n, d))] + [
        rng.standard_normal((1, d)) for _ in range(2 * len(constants))
    ]
    _fd_check(lambda *leaves: _affine(constants, *leaves), inputs, seed)


@pytest.mark.parametrize("split", [3, 6, 0], ids=["mixed", "source-only", "target-only"])
def test_domain_affine_matches_the_unfused_ops_bit_for_bit(split):
    rng = rng_for(split, "domain-affine-vs-unfused")
    n, d = 6, 4
    constants = _affine_branches(rng, n, d, split)
    inputs = [rng.standard_normal((n, d))] + [
        rng.standard_normal((1, d)) for _ in range(2 * len(constants))
    ]
    weights = rng.standard_normal((n, d))
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in inputs]
    out = _affine(constants, *leaves)
    ad.backward(tape, ad.weighted_sum(out, weights))
    fused_grads = [leaf.grad for leaf in leaves]
    unfused, unfused_grads = _numpy_affine(constants, weights, *inputs)
    np.testing.assert_array_equal(out.value, unfused)
    for a, b in zip(fused_grads, unfused_grads):
        np.testing.assert_array_equal(a, b)


def test_domain_affine_rejects_bad_shapes():
    tape = ad.Tape()
    h = tape.leaf(np.ones((3, 2)))
    row = tape.leaf(np.ones((1, 2)))
    ok = (np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ShapeMismatchError):
        ad.domain_affine(h, [(None, *ok, tape.leaf(np.ones((1, 3))), row)])
    with pytest.raises(ShapeMismatchError):
        ad.domain_affine(h, [(np.ones((2, 1)), *ok, row, row)])
    with pytest.raises(ShapeMismatchError):
        ad.domain_affine(h, [])


def _trainer_masks(batch_size):
    """The trainer's domain masks: a batch is [source, target, augmented
    source, augmented target] halves."""
    src_half, tgt_half = -(-batch_size // 2), batch_size // 2
    source = np.array(([1.0] * src_half + [0.0] * tgt_half) * 2).reshape(-1, 1)
    return source, 1.0 - source


def _assert_matches_numpy_affine(rng, masks, d):
    """``domain_affine``'s value and gradients equal ``_numpy_affine``'s bit
    for bit, for one branch per mask with random constants and inputs."""
    n = len(masks[0])
    constants = [
        (mask, rng.standard_normal((1, d)), 1.0 / np.sqrt(0.5 + rng.random((1, d))))
        for mask in masks
    ]
    inputs = [rng.standard_normal((n, d))] + [
        rng.standard_normal((1, d)) for _ in range(2 * len(masks))
    ]
    weights = rng.standard_normal((n, d))
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in inputs]
    out = _affine(constants, *leaves)
    ad.backward(tape, ad.weighted_sum(out, weights))
    expected, expected_grads = _numpy_affine(constants, weights, *inputs)
    np.testing.assert_array_equal(out.value, expected)
    for leaf, grad in zip(leaves, expected_grads):
        np.testing.assert_array_equal(leaf.grad, grad)
    return leaves


@pytest.mark.parametrize("batch_size, d", [(7, 1), (300, 1), (301, 1), (300, 3), (64, 64)])
def test_domain_affine_matches_the_masked_blend_on_the_trainers_blocks(batch_size, d):
    """Each branch computes on its own rows; the sums stay those of the
    masked full-batch blend, also at width 1, where NumPy sums an (n, 1)
    column pairwise and so depends on where the other branch's rows sit."""
    rng = rng_for(batch_size * 1000 + d, "domain-affine-blocks")
    _assert_matches_numpy_affine(rng, _trainer_masks(batch_size), d)


@pytest.mark.parametrize("d", [1, 4])
def test_domain_affine_on_a_single_domain_batch(d):
    """Every row in one domain, the other branch's mask all zeros: that
    branch's gamma and beta get zero gradients."""
    rng = rng_for(d, "domain-affine-single-domain")
    everything = np.ones((40, 1))
    leaves = _assert_matches_numpy_affine(rng, [1.0 - everything, everything], d)
    assert not leaves[1].grad.any() and not leaves[2].grad.any()


def test_domain_affine_rejects_masks_that_do_not_partition_the_rows():
    tape = ad.Tape()
    h = tape.leaf(np.ones((3, 2)))
    row = tape.leaf(np.ones((1, 2)))
    ok = (np.zeros((1, 2)), np.ones((1, 2)))
    ones, zeros = np.ones((3, 1)), np.zeros((3, 1))
    first = np.array([[1.0], [0.0], [0.0]])
    for masks in (
        [ones, first],  # overlap
        [None, first],  # overlap with a branch that covers every row
        [zeros, zeros],  # no branch takes any row
        [first, zeros],  # two rows in no branch
        [np.full((3, 1), 0.5), np.full((3, 1), 0.5)],  # not 0/1
        [2.0 * first, 1.0 - first],  # not 0/1
    ):
        with pytest.raises(GuidanceError, match="mask"):
            ad.domain_affine(h, [(mask, *ok, row, row) for mask in masks])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu_away_from_kink(seed):
    rng = rng_for(seed, "g-relu")
    x = rng.standard_normal((4, 4))
    x[np.abs(x) < 1e-2] += 0.05  # keep finite differences off the kink
    _fd_check(ad.relu, [x], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_sigmoid(seed):
    rng = rng_for(seed, "g-sigmoid")
    _fd_check(ad.sigmoid, [rng.standard_normal((3, 4)) * 2], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mean(seed):
    """The mean over every entry, as the losses take it: weighted_sum with
    weights of one over the entry count."""
    rng = rng_for(seed, "g-mean")
    x = rng.standard_normal((3, 5))
    uniform = np.full(x.shape, 1.0 / x.size)
    _fd_check(lambda a: ad.weighted_sum(a, uniform), [x], seed)
    tape = ad.Tape()
    mean = ad.weighted_sum(tape.leaf(x), uniform).value
    np.testing.assert_allclose(mean, [[x.mean()]], rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_rows(seed):
    rng = rng_for(seed, "g-softmax")
    temperature = (seed % 3 + 1) * 0.5
    _fd_check(
        lambda a: ad.softmax_rows(a, temperature), [rng.standard_normal((4, 5))], seed
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_log_rows_above_floor(seed):
    rng = rng_for(seed, "g-log")
    x = np.abs(rng.standard_normal((3, 4))) + 0.5
    _fd_check(ad.log_rows, [x], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_outer_rows(seed):
    rng = rng_for(seed, "g-outer")
    _fd_check(
        ad.outer_rows, [rng.standard_normal((3, 4)), rng.standard_normal((3, 2))], seed
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_gradient_reverse_scales_by_minus_lambda(seed):
    rng = rng_for(seed, "g-grl")
    x = rng.standard_normal((3, 3))
    weights = rng.standard_normal((3, 3))
    lam = 0.7
    tape = ad.Tape()
    leaf = tape.leaf(x)
    ad.backward(tape, ad.weighted_sum(ad.gradient_reverse(leaf, lam), weights))
    tape2 = ad.Tape()
    leaf2 = tape2.leaf(x)
    ad.backward(tape2, ad.weighted_sum(leaf2, weights))
    np.testing.assert_allclose(leaf.grad, -lam * leaf2.grad, rtol=1e-12)


def test_grad_log_rows_zero_below_floor():
    tape = ad.Tape()
    leaf = tape.leaf([[0.5, 1e-30]])
    ad.backward(tape, ad.weighted_sum(ad.log_rows(leaf), np.ones((1, 2))))
    assert leaf.grad[0, 0] == pytest.approx(2.0)
    assert leaf.grad[0, 1] == 0.0


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(2, 6),
    st.integers(0, 10_000),
    st.floats(0.1, 10.0),
)
def test_softmax_rows_stochastic_and_order_preserving(n, k, seed, temperature):
    x = rng_for(seed, "prop-softmax").standard_normal((n, k)) * 5
    tape = ad.Tape()
    out = ad.softmax_rows(tape.leaf(x), temperature).value
    np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-9)
    assert (out > 0).all()
    np.testing.assert_array_equal(out.argmax(axis=1), x.argmax(axis=1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_add_gradient_is_sum_preserving(n, k, seed):
    # d(sum(a+b))/da is all ones regardless of broadcasting.
    rng = rng_for(seed, "prop-add")
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((1, k))
    tape = ad.Tape()
    la, lb = tape.leaf(a), tape.leaf(b)
    ad.backward(tape, ad.weighted_sum(ad.add(la, lb), np.ones((n, k))))
    np.testing.assert_array_equal(la.grad, np.ones((n, k)))
    np.testing.assert_array_equal(lb.grad, np.full((1, k), float(n)))
