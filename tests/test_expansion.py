"""Unit tests for confidence-ranked pseudo-source selection.

Selection is cross-checked against an exhaustive subset search on small
pools; mixing fixtures are worked by hand.  Scores are (n, K) matrices
row-aligned with a tuple of sample ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swguide.calibration import SoftLabelSet
from swguide.data import DomainDataset, rng_for
from swguide.errors import (
    ClassMismatchError,
    ConfigInvalidError,
    FractionOutOfRangeError,
    IdMismatchError,
    UnknownSampleIdError,
)
from swguide.expansion import (
    ExpansionSelection,
    expand_dataset,
    mix_scores,
    select_pseudo_source,
)

from helpers import brute_force_class_balanced, brute_force_global, score_records


def soft(rows, prefix="t"):
    rows = np.asarray(rows, dtype=np.float64)
    ids = tuple(f"{prefix}{i:02d}" for i in range(rows.shape[0]))
    return SoftLabelSet(probs=rows, sample_ids=ids)


def scores_from(winning, prefix="t"):
    """Two-class scores whose winning class is 0 with the given scores, and ids."""
    ids = tuple(f"{prefix}{i:02d}" for i in range(len(winning)))
    return np.array([[w, 0.0] for w in winning]), ids


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def test_score_from_soft_labels_reads_rows():
    labels = soft([[0.7, 0.3], [0.1, 0.9]])
    selection = select_pseudo_source(labels.probs, labels.sample_ids, 1.0, "global")
    # Ranked by winning score: t01 (0.9) before t00 (0.7).
    assert selection.sample_ids == ("t01", "t00")
    np.testing.assert_array_equal(selection.rows, [1, 0])
    assert selection.pseudo_labels.tolist() == [1, 0]
    assert labels.probs.max(axis=1)[selection.rows].tolist() == [0.9, 0.7]


def test_score_tie_goes_to_lowest_class():
    selection = select_pseudo_source(np.array([[0.5, 0.5]]), ("a",), 1.0, "global")
    assert selection.pseudo_labels.tolist() == [0]


def test_selection_rejects_scores_that_do_not_cover_the_ids():
    with pytest.raises(ClassMismatchError):
        select_pseudo_source(np.array([[0.4, 0.6]]), ("a", "b"), 0.5)
    with pytest.raises(ClassMismatchError):
        select_pseudo_source(np.array([0.4, 0.6]), ("a", "b"), 0.5)


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mix_flips_winner_when_previous_run_is_unsure():
    mixed = mix_scores(soft([[0.6, 0.4]]), soft([[0.2, 0.8]]))
    np.testing.assert_allclose(mixed[0], [0.7, 0.8])
    assert mixed[0].argmax() == 1
    assert mixed[0].max() == pytest.approx(0.8)


def test_mix_keeps_winner_when_previous_run_is_confident():
    mixed = mix_scores(soft([[1.0, 0.0]]), soft([[0.0, 1.0]]))
    np.testing.assert_allclose(mixed[0], [1.0, 0.5])
    assert mixed[0].argmax() == 0


def test_mix_agreement_scores_three_halves():
    mixed = mix_scores(soft([[0.0, 1.0]]), soft([[0.0, 1.0]]))
    np.testing.assert_allclose(mixed[0], [0.0, 1.5])
    assert mixed[0].max() == pytest.approx(1.5)


def test_mix_aligns_rows_by_sample_id():
    prev = SoftLabelSet(np.array([[1.0, 0.0], [0.0, 1.0]]), ("b", "a"))
    zs = SoftLabelSet(np.array([[0.5, 0.5], [0.5, 0.5]]), ("a", "b"))
    mixed = dict(zip(zs.sample_ids, mix_scores(prev, zs)))
    np.testing.assert_allclose(mixed["a"], [0.25, 1.25])
    np.testing.assert_allclose(mixed["b"], [1.25, 0.25])


def test_mix_rejects_mismatched_inputs():
    with pytest.raises(IdMismatchError):
        mix_scores(soft([[1.0, 0.0]]), soft([[1.0, 0.0]], prefix="other"))
    with pytest.raises(IdMismatchError):
        mix_scores(soft([[1.0, 0.0]]), soft([[1.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_global_selection_takes_top_half():
    scores, ids = scores_from([0.9, 0.2, 0.8, 0.5])
    selection = select_pseudo_source(scores, ids, 0.5, "global")
    assert selection.sample_ids == ("t00", "t02")
    np.testing.assert_array_equal(selection.rows, [0, 2])
    assert scores.max(axis=1)[selection.rows].tolist() == [0.9, 0.8]


def test_selection_rounds_half_up():
    scores, ids = scores_from([0.9, 0.8, 0.7])
    assert len(select_pseudo_source(scores, ids, 0.5, "global")) == 2  # 1.5 -> 2
    assert len(select_pseudo_source(scores, ids, 0.4, "global")) == 1  # 1.2 -> 1
    assert len(select_pseudo_source(scores, ids, 0.0, "global")) == 0
    assert len(select_pseudo_source(scores, ids, 1.0, "global")) == 3


def test_selection_breaks_ties_by_sample_id():
    scores = np.array([[0.8, 0.2], [0.8, 0.2], [0.8, 0.2]])
    selection = select_pseudo_source(scores, ("t02", "t00", "t01"), 2 / 3, "global")
    assert selection.sample_ids == ("t00", "t01")
    np.testing.assert_array_equal(selection.rows, [1, 2])


def test_class_balanced_takes_fraction_per_predicted_class():
    scores = np.array(
        [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4], [0.1, 0.9], [0.45, 0.55]]
    )
    ids = ("a0", "a1", "a2", "a3", "b0", "b1")
    selection = select_pseudo_source(scores, ids, 0.5, "class_balanced")
    # Class 0 keeps its top 2 of 4; class 1 keeps its top 1 of 2.  A global
    # cut at the same fraction would drop b1's 0.55 for a2's 0.7.
    assert set(selection.sample_ids) == {"a0", "a1", "b0"}
    assert scores.max(axis=1)[selection.rows].tolist() == [0.9, 0.9, 0.8]
    assert selection.pseudo_labels.tolist() == [0, 1, 0]


def test_selection_fraction_out_of_range():
    scores, ids = scores_from([0.9])
    with pytest.raises(FractionOutOfRangeError):
        select_pseudo_source(scores, ids, -0.1)
    with pytest.raises(FractionOutOfRangeError):
        select_pseudo_source(scores, ids, 1.1)
    with pytest.raises(ConfigInvalidError):
        select_pseudo_source(scores, ids, 0.5, policy="best_effort")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 12),
    st.integers(2, 4),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_selection_matches_exhaustive_search(seed, n, k, fraction, balanced):
    rng = rng_for(seed, "exhaustive")
    rows = rng.random((n, k))
    rows /= rows.sum(axis=1, keepdims=True)
    labels = soft(rows)
    policy = "class_balanced" if balanced else "global"
    selection = select_pseudo_source(labels.probs, labels.sample_ids, fraction, policy)
    records = score_records(labels.sample_ids, labels.probs)
    oracle = (
        brute_force_class_balanced(records, fraction)
        if balanced
        else brute_force_global(records, fraction)
    )
    assert set(selection.sample_ids) == oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_global_selection_grows_by_prefix(seed, n):
    rng = rng_for(seed, "prefix")
    rows = rng.random((n, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    labels = soft(rows)
    previous: tuple[str, ...] = ()
    for fraction in np.linspace(0.0, 1.0, 7):
        selection = select_pseudo_source(labels.probs, labels.sample_ids, float(fraction), "global")
        ids = selection.sample_ids
        assert ids[: len(previous)] == previous
        previous = ids


# ---------------------------------------------------------------------------
# Dataset expansion
# ---------------------------------------------------------------------------


def _pair_of_datasets():
    rng = rng_for(0, "expand")
    source = DomainDataset(
        sample_ids=("s00", "s01"),
        roles=("source", "source"),
        labels=np.array([0, 1], dtype=np.int64),
        features=rng.standard_normal((2, 3)),
        zeroshot=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )
    target = DomainDataset(
        sample_ids=("t00", "t01", "t02"),
        roles=("target",) * 3,
        labels=np.array([-1, -1, -1], dtype=np.int64),
        features=rng.standard_normal((3, 3)),
        zeroshot=np.array([[0.6, 0.4], [0.3, 0.7], [0.55, 0.45]]),
    )
    return source, target


def _selection_of(rows, sample_ids):
    rows = np.array(rows, dtype=np.int64)
    return ExpansionSelection(
        rows=rows,
        pseudo_labels=np.zeros(len(rows), dtype=np.int64),
        sample_ids=sample_ids,
    )


def test_expand_appends_pseudo_source_copies():
    source, target = _pair_of_datasets()
    selection = select_pseudo_source(target.zeroshot, target.sample_ids, 2 / 3, "global")
    expanded = expand_dataset(source, target, selection)
    # t01 wins with 0.7 (class 1), t00 with 0.6 (class 0); t02's 0.55 is cut.
    assert expanded.sample_ids == ("s00", "s01", "t01", "t00")
    assert expanded.roles == ("source", "source", "pseudo_source", "pseudo_source")
    np.testing.assert_array_equal(expanded.labels, [0, 1, 1, 0])
    np.testing.assert_array_equal(expanded.features[2], target.features[1])
    np.testing.assert_array_equal(expanded.zeroshot[3], target.zeroshot[0])
    # The originals are untouched.
    assert target.roles == ("target",) * 3
    assert source.sample_ids == ("s00", "s01")


def test_expand_with_empty_selection_returns_source_unchanged():
    source, target = _pair_of_datasets()
    selection = select_pseudo_source(target.zeroshot, target.sample_ids, 0.0)
    assert expand_dataset(source, target, selection) is source


def test_expand_rejects_a_selected_id_missing_from_the_target():
    source, target = _pair_of_datasets()
    selection = _selection_of(rows=[0, 1], sample_ids=("t00", "nope"))
    with pytest.raises(UnknownSampleIdError, match="nope"):
        expand_dataset(source, target, selection)


@pytest.mark.parametrize(
    "rows, sample_ids, cause",
    [
        ([0, 3], ("t00", "t01"), "outside"),
        ([-1, 0], ("t00", "t01"), "outside"),
        ([0, 2], ("t00", "t01"), "'t01'"),
        ([0, 1], ("t00",), "1 selected ids for 2 rows"),
    ],
    ids=["past-the-end", "negative", "id-not-at-its-row", "too-few-ids"],
)
def test_expand_rejects_a_selection_that_does_not_fit_the_target(rows, sample_ids, cause):
    source, target = _pair_of_datasets()
    with pytest.raises(UnknownSampleIdError, match=cause):
        expand_dataset(source, target, _selection_of(rows, sample_ids))


def test_expand_rejects_incompatible_datasets():
    source, target = _pair_of_datasets()
    narrow = DomainDataset(
        sample_ids=target.sample_ids,
        roles=target.roles,
        labels=target.labels,
        features=target.features[:, :2],
        zeroshot=target.zeroshot,
    )
    selection = select_pseudo_source(target.zeroshot, target.sample_ids, 1.0)
    with pytest.raises(ClassMismatchError):
        expand_dataset(source, narrow, selection)
