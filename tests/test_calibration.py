"""Unit tests for temperature calibration of zero-shot scores.

The solver is cross-checked against an independent coarse-to-fine grid
scan; fixtures are hand-derived softmax values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swguide.calibration import (
    SoftLabelSet,
    mean_winning_probability,
    sharpen,
    solve_temperature,
    stable_softmax,
)
from swguide.data import rng_for
from swguide.errors import (
    ClassMismatchError,
    EmptyDomainError,
    InfeasibleError,
    NonFiniteError,
    NotBracketedError,
    UnknownSampleIdError,
)

from helpers import grid_scan_temperature


def lm(logits):
    return np.asarray(logits, dtype=np.float64)


def ids(logits):
    return tuple(f"x{i}" for i in range(len(logits)))


LN9_ROW = [[np.log(9.0), 0.0]]


# ---------------------------------------------------------------------------
# Logit pair / SoftLabelSet validation
# ---------------------------------------------------------------------------


def test_logit_matrix_rejects_single_class():
    ok = lm([[1.0, 0.0]])
    for bad in (lm([[1.0]]), lm([1.0, 0.0])):
        for pair in ((bad, ok), (ok, bad)):
            with pytest.raises(ClassMismatchError, match="K >= 2"):
                mean_winning_probability(*pair, 1.0)
            with pytest.raises(ClassMismatchError, match="K >= 2"):
                solve_temperature(*pair, 0.9)
        with pytest.raises(ClassMismatchError, match="K >= 2"):
            sharpen(bad, ("a",), 1.0)


def test_logit_matrix_rejects_nonfinite():
    ok = lm([[1.0, 0.0]])
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFiniteError):
            solve_temperature(ok, lm([[bad, 0.0]]), 0.9)
        with pytest.raises(NonFiniteError):
            mean_winning_probability(lm([[bad, 0.0]]), ok, 1.0)
        with pytest.raises(NonFiniteError, match="logit"):
            sharpen(lm([[bad, 0.0]]), ("a",), 1.0)


def test_logit_matrix_rejects_duplicate_ids():
    with pytest.raises(ClassMismatchError):
        sharpen(np.zeros((2, 2)), ("a", "a"), 1.0)
    with pytest.raises(ClassMismatchError):
        sharpen(np.zeros((2, 2)), ("a",), 1.0)


def test_soft_label_set_requires_unit_rows():
    with pytest.raises(ClassMismatchError):
        SoftLabelSet(np.array([[0.5, 0.4]]), ("a",))


def test_soft_label_set_rejects_entries_outside_unit_interval():
    with pytest.raises(ClassMismatchError):
        SoftLabelSet(np.array([[1.2, -0.2]]), ("a",))


def test_soft_label_rows_for_orders_and_validates():
    labels = SoftLabelSet(np.array([[0.7, 0.3], [0.2, 0.8]]), ("a", "b"))
    np.testing.assert_array_equal(
        labels.rows_for(["b", "a"]), np.array([[0.2, 0.8], [0.7, 0.3]])
    )
    with pytest.raises(UnknownSampleIdError):
        labels.rows_for(["missing"])


# ---------------------------------------------------------------------------
# mean_winning_probability
# ---------------------------------------------------------------------------


def test_mean_winning_probability_hand_fixture():
    value = mean_winning_probability(lm(LN9_ROW), lm(LN9_ROW), 1.0)
    assert value == pytest.approx(0.9, abs=1e-12)


def test_mean_winning_probability_per_domain_average():
    source = lm([[np.log(4.0), 0.0], [np.log(4.0), 0.0]])
    target = lm([[np.log(1.5), 0.0]])
    assert mean_winning_probability(source, target, 1.0) == pytest.approx(0.7, abs=1e-12)


def test_mean_winning_probability_uniform_limit():
    rng = rng_for(0, "uniform-limit")
    source = lm(rng.standard_normal((5, 4)))
    target = lm(rng.standard_normal((6, 4)))
    assert mean_winning_probability(source, target, 1e9) == pytest.approx(0.25, abs=1e-6)


def test_mean_winning_probability_errors():
    source = lm([[1.0, 0.0]])
    with pytest.raises(EmptyDomainError):
        mean_winning_probability(source, lm(np.zeros((0, 2))), 1.0)
    with pytest.raises(ClassMismatchError):
        mean_winning_probability(source, lm([[1.0, 0.0, 0.0]]), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 8))
def test_mean_winning_probability_monotone_in_temperature(seed, k, n):
    rng = rng_for(seed, "monotone")
    source = lm(rng.standard_normal((n, k)) * 3)
    target = lm(rng.standard_normal((n, k)) * 3)
    temperatures = np.geomspace(0.01, 100.0, 12)
    values = [mean_winning_probability(source, target, t) for t in temperatures]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # Gaussian logits are non-uniform with probability one: strictly decreasing.
    assert values[0] > values[-1]


# ---------------------------------------------------------------------------
# solve_temperature
# ---------------------------------------------------------------------------


def test_solver_pins_the_unit_temperature_fixture():
    result = solve_temperature(lm(LN9_ROW), lm(LN9_ROW), 0.9)
    assert result.temperature == pytest.approx(1.0, abs=1e-6)
    assert result.achieved_mean == pytest.approx(0.9, abs=1e-6)
    assert result.iterations <= 200


def test_solver_ties_raise_infeasible():
    tied = lm([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError):
        solve_temperature(tied, lm([[0.0, 0.0]]), 0.9)


def test_solver_partial_ties_account_for_multiplicity():
    # Source rows tied two ways cap the source mean at 1/2, so the overall
    # ceiling is 1/2 + 1/2 * 1 = 3/4 < 0.9.
    source = lm([[1.0, 1.0, 0.0]])
    target = lm([[5.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleError):
        solve_temperature(source, target, 0.9)
    result = solve_temperature(source, target, 0.7)
    assert abs(result.achieved_mean - 0.7) <= 1e-6


def test_solver_tau_at_most_one_over_k_is_infeasible():
    rng = rng_for(1, "low-tau")
    source = lm(rng.standard_normal((4, 2)))
    target = lm(rng.standard_normal((4, 2)))
    for tau in (0.2, 0.5):  # the T -> infinity limit is 1/K = 0.5
        with pytest.raises(InfeasibleError, match="1/K"):
            solve_temperature(source, target, tau)


def test_solver_rejects_tau_outside_unit_interval():
    source = lm([[1.0, 0.0]])
    target = lm([[1.0, 0.0]])
    with pytest.raises(ValueError):
        solve_temperature(source, target, 1.5)


@pytest.mark.parametrize(
    "gap, message",
    [(1e-15, "no temperature above 1e-12"), (1e15, "no temperature below 1e12")],
)
def test_solver_raises_not_bracketed_beyond_its_search_range(gap, message):
    # Feasible for tau = 0.9 (no ties), but reached only at T below 1e-12
    # for a tiny score gap, or above 1e12 for a huge one.
    scores = lm([[0.0, gap], [gap, 0.0]])
    with pytest.raises(NotBracketedError, match=message):
        solve_temperature(scores, scores, 0.9)


@pytest.mark.parametrize("seed", range(8))
def test_solver_matches_grid_scan_oracle(seed):
    rng = rng_for(seed, "solver-oracle")
    source_logits = rng.standard_normal((50, 10)) * 2
    target_logits = rng.standard_normal((40, 10)) * 2
    result = solve_temperature(source_logits, target_logits, 0.9)
    assert abs(result.achieved_mean - 0.9) <= 1e-6
    scanned = grid_scan_temperature(source_logits, target_logits, 0.9)
    assert result.temperature == pytest.approx(scanned, rel=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.55, 0.95))
def test_solver_hits_arbitrary_targets(seed, tau):
    rng = rng_for(seed, "solver-prop")
    source = lm(rng.standard_normal((12, 5)) * 3)
    target = lm(rng.standard_normal((9, 5)) * 3)
    result = solve_temperature(source, target, tau)
    assert abs(result.achieved_mean - tau) <= 1e-6
    assert mean_winning_probability(source, target, result.temperature) == pytest.approx(
        result.achieved_mean
    )


# ---------------------------------------------------------------------------
# sharpen
# ---------------------------------------------------------------------------


def test_sharpen_hand_fixtures():
    logits = lm([[2.0, 0.0]])
    np.testing.assert_allclose(
        sharpen(logits, ("a",), 1.0).probs, [[0.8808, 0.1192]], atol=1e-4
    )
    np.testing.assert_allclose(
        sharpen(logits, ("a",), 0.5).probs, [[0.9820, 0.0180]], atol=1e-4
    )


def test_sharpen_carries_ids_and_temperature():
    logits = lm([[1.0, 0.0], [0.0, 1.0]])
    labels = sharpen(logits, ["a", "b"], 0.7)
    assert labels.sample_ids == ("a", "b")
    np.testing.assert_array_equal(labels.probs, stable_softmax(logits, 0.7))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 50.0))
def test_sharpen_preserves_argmax_and_mass(seed, temperature):
    rng = rng_for(seed, "sharpen-prop")
    logits_arr = rng.standard_normal((6, 4)) * 4
    labels = sharpen(logits_arr, ids(logits_arr), temperature)
    np.testing.assert_array_equal(
        labels.probs.argmax(axis=1), logits_arr.argmax(axis=1)
    )
    np.testing.assert_allclose(labels.probs.sum(axis=1), np.ones(6), atol=1e-9)
    assert labels.probs.min() >= 1e-12


def test_sharpen_then_renormalize_is_a_no_op():
    rng = rng_for(2, "renormalize")
    logits = rng.standard_normal((5, 3))
    labels = sharpen(logits, ids(logits), 0.8)
    renormalized = labels.probs / labels.probs.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(renormalized, labels.probs, rtol=0, atol=1e-12)
