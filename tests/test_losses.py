"""Unit tests for the three training losses against hand-worked fixtures,
a scipy divergence oracle, and finite differences at the node level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from swguide import autodiff as ad
from swguide.data import rng_for
from swguide.errors import (
    EmptyMaskError,
    ShapeMismatchError,
    SingleDomainBatchError,
    UnlabeledError,
)
from swguide.losses import (
    adversarial_loss_node,
    classification_loss_node,
    kd_loss_node,
)

from helpers import rel_error


def _value(builder, value, *args) -> float:
    tape = ad.Tape()
    return float(builder(tape.leaf(value), *args).value[0, 0])


def _node_fd(builder, value, *args, h=1e-6):
    """Central differences of a loss node with respect to its input leaf."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = value.copy()
        bumped[idx] += h
        tape = ad.Tape()
        plus = builder(tape.leaf(bumped), *args).value[0, 0]
        bumped[idx] -= 2 * h
        tape = ad.Tape()
        minus = builder(tape.leaf(bumped), *args).value[0, 0]
        grad[idx] = (plus - minus) / (2 * h)
    return grad


def _node_grad(builder, value, *args):
    tape = ad.Tape()
    leaf = tape.leaf(value)
    ad.backward(tape, builder(leaf, *args))
    return leaf.grad.copy()


# ---------------------------------------------------------------------------
# Classification loss
# ---------------------------------------------------------------------------


def test_classification_uniform_fixture():
    probs = np.full((1, 4), 0.25)
    value = _value(classification_loss_node, probs, [2], [True])
    assert value == pytest.approx(np.log(4.0), abs=1e-12)


def test_classification_confident_prediction_costs_nothing():
    assert _value(classification_loss_node, np.array([[1.0, 0.0]]), [0], [True]) == 0.0


def test_classification_averages_over_masked_rows_only():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    value = _value(classification_loss_node, probs, [0, 1, -1], [True, True, False])
    assert value == pytest.approx((np.log(2.0) + np.log(4.0 / 3.0)) / 2, abs=1e-12)


def test_classification_errors():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(EmptyMaskError):
        _value(classification_loss_node, probs, [0], [False])
    with pytest.raises(UnlabeledError):
        _value(classification_loss_node, probs, [-1], [True])
    with pytest.raises(UnlabeledError):
        _value(classification_loss_node, probs, [2], [True])
    with pytest.raises(ShapeMismatchError):
        _value(classification_loss_node, probs, [0, 1], [True])


def test_classification_gradient_touches_only_masked_label_entries():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    grad = _node_grad(classification_loss_node, probs, [0, 1], [True, False])
    np.testing.assert_allclose(grad, [[-2.0, 0.0], [0.0, 0.0]], atol=1e-12)
    numeric = _node_fd(classification_loss_node, probs, [0, 1], [True, False])
    assert rel_error(grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# Distillation loss
# ---------------------------------------------------------------------------


def test_kd_hand_fixture():
    value = _value(kd_loss_node, np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]))
    expected = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.368064, abs=1e-6)


def test_kd_zero_iff_equal():
    rows = np.array([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]])
    assert _value(kd_loss_node, rows, rows) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(2, 5))
def test_kd_matches_scipy_and_is_nonnegative(seed, n, k):
    rng = rng_for(seed, "kd-prop")
    teacher = rng.random((n, k)) + 0.05
    teacher /= teacher.sum(axis=1, keepdims=True)
    student = rng.random((n, k)) + 0.05
    student /= student.sum(axis=1, keepdims=True)
    value = _value(kd_loss_node, student, teacher)
    oracle = float(rel_entr(teacher, student).sum() / n)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value >= -1e-12


def test_kd_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        _value(kd_loss_node, np.ones((2, 3)) / 3, np.ones((1, 3)) / 3)


def test_kd_gradient_matches_finite_differences():
    rng = rng_for(0, "kd-fd")
    teacher = rng.random((3, 4)) + 0.05
    teacher /= teacher.sum(axis=1, keepdims=True)
    student = rng.random((3, 4)) + 0.05
    student /= student.sum(axis=1, keepdims=True)
    grad = _node_grad(kd_loss_node, student, teacher)
    numeric = _node_fd(kd_loss_node, student, teacher)
    assert rel_error(grad, numeric) < 1e-6
    np.testing.assert_allclose(grad, -teacher / student / 3, atol=1e-9)


# ---------------------------------------------------------------------------
# Adversarial loss
# ---------------------------------------------------------------------------


def test_adversarial_coin_flip_fixture():
    value = _value(adversarial_loss_node, np.array([[0.5], [0.5]]), [1.0, 0.0])
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_adversarial_hand_fixture():
    value = _value(adversarial_loss_node, np.array([[0.8], [0.3]]), [1.0, 0.0])
    assert value == pytest.approx(-(np.log(0.8) + np.log(0.7)) / 2, abs=1e-12)


def test_adversarial_perfect_discrimination_costs_nothing():
    value = _value(adversarial_loss_node, np.array([[1.0], [1e-12]]), [1.0, 0.0])
    assert value == pytest.approx(0.0, abs=1e-9)


def test_adversarial_errors():
    with pytest.raises(SingleDomainBatchError):
        _value(adversarial_loss_node, np.array([[0.5], [0.6]]), [1.0, 1.0])
    with pytest.raises(SingleDomainBatchError):
        _value(adversarial_loss_node, np.array([[0.5], [0.6]]), [0.0, 0.0])
    with pytest.raises(ShapeMismatchError):
        _value(adversarial_loss_node, np.array([[0.5], [0.6]]), [1.0])
    with pytest.raises(ShapeMismatchError):
        _value(adversarial_loss_node, np.array([[0.5, 0.5]]), [1.0])


def test_adversarial_gradient_matches_finite_differences():
    rng = rng_for(1, "ad-fd")
    d_hat = 0.05 + 0.9 * rng.random((6, 1))
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    grad = _node_grad(adversarial_loss_node, d_hat, labels)
    numeric = _node_fd(adversarial_loss_node, d_hat, labels)
    assert rel_error(grad, numeric) < 1e-6
    expected = np.where(
        labels.reshape(-1, 1) == 1.0, -1.0 / d_hat, 1.0 / (1.0 - d_hat)
    ) / 6
    np.testing.assert_allclose(grad, expected, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_adversarial_matches_direct_formula(seed):
    rng = rng_for(seed, "ad-prop")
    n = int(rng.integers(2, 9))
    d_hat = 0.01 + 0.98 * rng.random((n, 1))
    labels = np.zeros(n)
    labels[: max(1, n // 2)] = 1.0
    value = _value(adversarial_loss_node, d_hat, labels)
    y = labels.reshape(-1, 1)
    direct = float(np.mean(-(y * np.log(d_hat) + (1 - y) * np.log(1 - d_hat))))
    assert value == pytest.approx(direct, abs=1e-10)

