"""Unit tests for confidence-ranked pseudo-source selection.

Selection is cross-checked against an exhaustive subset search on small
pools; mixing fixtures are worked by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swguide.calibration import SoftLabelSet
from swguide.data import DomainDataset, rng_for
from swguide.errors import (
    ClassMismatchError,
    FractionOutOfRangeError,
    IdMismatchError,
    UnknownSampleIdError,
)
from swguide.expansion import (
    ExpansionScore,
    ExpansionSelection,
    SelectionEntry,
    expand_dataset,
    mix_scores,
    score_from_soft_labels,
    select_pseudo_source,
)

from helpers import brute_force_class_balanced, brute_force_global


def soft(rows, prefix="t"):
    rows = np.asarray(rows, dtype=np.float64)
    ids = tuple(f"{prefix}{i:02d}" for i in range(rows.shape[0]))
    return SoftLabelSet(probs=rows, sample_ids=ids, temperature_used=1.0)


def scores_from(winning, prefix="t"):
    """Build two-class scores whose winning class is 0 with the given scores."""
    return [
        ExpansionScore.from_vector(f"{prefix}{i:02d}", [w, 0.0])
        for i, w in enumerate(winning)
    ]


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def test_score_from_soft_labels_reads_rows():
    labels = soft([[0.7, 0.3], [0.1, 0.9]])
    scores = score_from_soft_labels(labels)
    assert [s.sample_id for s in scores] == ["t00", "t01"]
    assert [s.winning_class for s in scores] == [0, 1]
    assert [s.winning_score for s in scores] == [0.7, 0.9]


def test_score_tie_goes_to_lowest_class():
    score = ExpansionScore.from_vector("a", [0.5, 0.5])
    assert score.winning_class == 0


def test_score_consistency_is_enforced():
    with pytest.raises(ClassMismatchError):
        ExpansionScore("a", np.array([0.4, 0.6]), winning_class=0, winning_score=0.6)
    with pytest.raises(ClassMismatchError):
        ExpansionScore("a", np.array([0.4, 0.6]), winning_class=1, winning_score=0.4)
    with pytest.raises(ClassMismatchError):
        ExpansionScore.from_vector("a", [[0.4, 0.6]])


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mix_flips_winner_when_previous_run_is_unsure():
    mixed = mix_scores(soft([[0.6, 0.4]]), soft([[0.2, 0.8]]))
    np.testing.assert_allclose(mixed[0].score_vector, [0.7, 0.8])
    assert mixed[0].winning_class == 1
    assert mixed[0].winning_score == pytest.approx(0.8)


def test_mix_keeps_winner_when_previous_run_is_confident():
    mixed = mix_scores(soft([[1.0, 0.0]]), soft([[0.0, 1.0]]))
    np.testing.assert_allclose(mixed[0].score_vector, [1.0, 0.5])
    assert mixed[0].winning_class == 0


def test_mix_agreement_scores_three_halves():
    mixed = mix_scores(soft([[0.0, 1.0]]), soft([[0.0, 1.0]]))
    np.testing.assert_allclose(mixed[0].score_vector, [0.0, 1.5])
    assert mixed[0].winning_score == pytest.approx(1.5)


def test_mix_aligns_rows_by_sample_id():
    prev = SoftLabelSet(np.array([[1.0, 0.0], [0.0, 1.0]]), ("b", "a"), 1.0)
    zs = SoftLabelSet(np.array([[0.5, 0.5], [0.5, 0.5]]), ("a", "b"), 1.0)
    mixed = {s.sample_id: s.score_vector for s in mix_scores(prev, zs)}
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
    scores = scores_from([0.9, 0.2, 0.8, 0.5])
    selection = select_pseudo_source(scores, 0.5, policy="global")
    assert selection.sample_ids == ("t00", "t02")
    assert [e.winning_score for e in selection.entries] == [0.9, 0.8]


def test_selection_rounds_half_up():
    scores = scores_from([0.9, 0.8, 0.7])
    assert len(select_pseudo_source(scores, 0.5, policy="global")) == 2  # 1.5 -> 2
    assert len(select_pseudo_source(scores, 0.4, policy="global")) == 1  # 1.2 -> 1
    assert len(select_pseudo_source(scores, 0.0, policy="global")) == 0
    assert len(select_pseudo_source(scores, 1.0, policy="global")) == 3


def test_selection_breaks_ties_by_sample_id():
    scores = [
        ExpansionScore.from_vector("t02", [0.8, 0.2]),
        ExpansionScore.from_vector("t00", [0.8, 0.2]),
        ExpansionScore.from_vector("t01", [0.8, 0.2]),
    ]
    selection = select_pseudo_source(scores, 2 / 3, policy="global")
    assert selection.sample_ids == ("t00", "t01")


def test_class_balanced_takes_fraction_per_predicted_class():
    scores = [
        ExpansionScore.from_vector("a0", [0.9, 0.1]),
        ExpansionScore.from_vector("a1", [0.8, 0.2]),
        ExpansionScore.from_vector("a2", [0.7, 0.3]),
        ExpansionScore.from_vector("a3", [0.6, 0.4]),
        ExpansionScore.from_vector("b0", [0.1, 0.9]),
        ExpansionScore.from_vector("b1", [0.45, 0.55]),
    ]
    selection = select_pseudo_source(scores, 0.5, policy="class_balanced")
    # Class 0 keeps its top 2 of 4; class 1 keeps its top 1 of 2.  A global
    # cut at the same fraction would drop b1's 0.55 for a2's 0.7.
    assert set(selection.sample_ids) == {"a0", "a1", "b0"}
    assert [e.winning_score for e in selection.entries] == [0.9, 0.9, 0.8]


def test_selection_fraction_out_of_range():
    scores = scores_from([0.9])
    with pytest.raises(FractionOutOfRangeError):
        select_pseudo_source(scores, -0.1)
    with pytest.raises(FractionOutOfRangeError):
        select_pseudo_source(scores, 1.1)
    with pytest.raises(ValueError):
        select_pseudo_source(scores, 0.5, policy="best_effort")


def test_selection_rejects_duplicate_ids_and_bad_order():
    with pytest.raises(ClassMismatchError):
        ExpansionSelection(
            entries=(SelectionEntry("a", 0, 0.9), SelectionEntry("a", 0, 0.8)),
            fraction=1.0,
            policy="global",
        )
    with pytest.raises(ClassMismatchError):
        ExpansionSelection(
            entries=(SelectionEntry("a", 0, 0.5), SelectionEntry("b", 0, 0.9)),
            fraction=1.0,
            policy="global",
        )


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
    scores = score_from_soft_labels(soft(rows))
    policy = "class_balanced" if balanced else "global"
    selection = select_pseudo_source(scores, fraction, policy=policy)
    oracle = (
        brute_force_class_balanced(scores, fraction)
        if balanced
        else brute_force_global(scores, fraction)
    )
    assert set(selection.sample_ids) == oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_global_selection_grows_by_prefix(seed, n):
    rng = rng_for(seed, "prefix")
    rows = rng.random((n, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    scores = score_from_soft_labels(soft(rows))
    previous: tuple[str, ...] = ()
    for fraction in np.linspace(0.0, 1.0, 7):
        ids = select_pseudo_source(scores, float(fraction), policy="global").sample_ids
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


def test_expand_appends_pseudo_source_copies():
    source, target = _pair_of_datasets()
    selection = select_pseudo_source(
        score_from_soft_labels(soft(target.zeroshot)), 2 / 3, policy="global"
    )
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
    selection = select_pseudo_source(
        score_from_soft_labels(soft(target.zeroshot)), 0.0
    )
    assert expand_dataset(source, target, selection) is source


def test_expand_rejects_a_selected_id_missing_from_the_target():
    source, target = _pair_of_datasets()
    selection = ExpansionSelection(
        entries=(SelectionEntry("t00", 0, 0.6), SelectionEntry("nope", 1, 0.5)),
        fraction=1.0,
        policy="global",
    )
    with pytest.raises(UnknownSampleIdError):
        expand_dataset(source, target, selection)


def test_expand_rejects_incompatible_datasets():
    source, target = _pair_of_datasets()
    narrow = DomainDataset(
        sample_ids=target.sample_ids,
        roles=target.roles,
        labels=target.labels,
        features=target.features[:, :2],
        zeroshot=target.zeroshot,
    )
    selection = select_pseudo_source(
        score_from_soft_labels(soft(target.zeroshot)), 1.0
    )
    with pytest.raises(ClassMismatchError):
        expand_dataset(source, narrow, selection)
