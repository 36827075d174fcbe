"""Unit tests for seeded streams, the synthetic benchmark, and file formats."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swguide.cli import read_config_file
from swguide.data import (
    DomainDataset,
    EpisodeMetrics,
    SyntheticSpec,
    generate,
    make_benchmark,
    read_array_file,
    read_dataset,
    read_metrics,
    read_predictions,
    rng_for,
    simulate_zeroshot,
    target_means,
    write_array_file,
    write_dataset,
    write_metrics,
    write_predictions,
)
from swguide.errors import (
    ClassMismatchError,
    GuidanceError,
    InvalidSpecError,
    NonFiniteError,
    ParseError,
    UnknownDomainTagError,
    WidthMismatchError,
)


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------


def test_rng_for_is_deterministic_per_path():
    a = rng_for(7, "batch", "run1", "source").standard_normal(5)
    b = rng_for(7, "batch", "run1", "source").standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_rng_for_streams_are_distinct():
    draws = {
        name: tuple(rng_for(7, *path).standard_normal(4))
        for name, path in {
            "a": ("batch", "run1", "source"),
            "b": ("batch", "run1", "target"),
            "c": ("batch", "run2", "source"),
            "d": ("aug", "run1"),
            "e": ("init", "run1"),
            "swapped": ("run1", "batch", "source"),
        }.items()
    }
    assert len(set(draws.values())) == len(draws)


def test_rng_for_depends_on_master_seed():
    a = rng_for(0, "init").standard_normal(3)
    b = rng_for(1, "init").standard_normal(3)
    assert not np.array_equal(a, b)


def test_rng_for_accepts_non_string_parts():
    a = rng_for(0, "gen", 3).standard_normal(2)
    b = rng_for(0, "gen", "3").standard_normal(2)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# DomainDataset
# ---------------------------------------------------------------------------


def _small_dataset():
    return DomainDataset(
        sample_ids=("s0", "t0", "p0"),
        roles=("source", "target", "pseudo_source"),
        labels=np.array([2, -1, 1], dtype=np.int64),
        features=np.arange(6.0).reshape(3, 2),
        zeroshot=np.array([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5]]),
    )


def test_dataset_accessors():
    ds = _small_dataset()
    assert len(ds) == 3
    assert ds.feature_dim == 2
    assert ds.n_classes == 2


def test_dataset_without_labels_erases_only_targets():
    ds = _small_dataset()
    view = ds.without_labels()
    np.testing.assert_array_equal(view.labels, [2, -1, 1])
    richer = DomainDataset(
        sample_ids=ds.sample_ids,
        roles=ds.roles,
        labels=np.array([2, 4, 1], dtype=np.int64),
        features=ds.features,
        zeroshot=ds.zeroshot,
    )
    np.testing.assert_array_equal(richer.without_labels().labels, [2, -1, 1])
    np.testing.assert_array_equal(richer.labels, [2, 4, 1])  # original untouched


@pytest.mark.parametrize(
    "mutation, error",
    [
        (dict(sample_ids=("a", "a", "b")), ClassMismatchError),
        (dict(roles=("source", "elsewhere", "source")), UnknownDomainTagError),
        (dict(roles=("source", "target")), ClassMismatchError),
        (dict(labels=np.array([0, -1], dtype=np.int64)), ClassMismatchError),
        (dict(features=np.zeros((2, 2))), ClassMismatchError),
        (dict(features=np.full((3, 2), np.nan)), NonFiniteError),
        (dict(zeroshot=np.full((3, 2), np.inf)), NonFiniteError),
        (dict(labels=np.array([-1, -1, 1], dtype=np.int64)), ClassMismatchError),
    ],
)
def test_dataset_validation(mutation, error):
    base = dict(
        sample_ids=("s0", "t0", "p0"),
        roles=("source", "target", "pseudo_source"),
        labels=np.array([2, -1, 1], dtype=np.int64),
        features=np.arange(6.0).reshape(3, 2),
        zeroshot=np.ones((3, 2)),
    )
    base.update(mutation)
    with pytest.raises(error):
        DomainDataset(**base)


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------


def test_spec_validation():
    good = SyntheticSpec.standard(seed=0)
    good.validate()
    with pytest.raises(InvalidSpecError):
        SyntheticSpec.standard(n_classes=1)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec.standard(class_std=0.0)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec.standard(noise_scale=-1.0)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(
            n_classes=2,
            feature_dim=2,
            class_means=np.zeros((3, 2)),
            per_class=(4, 4),
            shift=np.zeros(2),
            rotation=0.0,
            class_std=1.0,
            noise_scale=0.0,
        )


@pytest.mark.parametrize("per_class", [4000, ("4",) * 5, (4.0,) * 5, "44444"])
def test_spec_per_class_must_be_a_sequence_of_integers(per_class):
    with pytest.raises(InvalidSpecError, match="per_class"):
        dataclasses.replace(SyntheticSpec.standard(), per_class=per_class)


def test_standard_spec_is_seed_deterministic():
    a, b = SyntheticSpec.standard(seed=3), SyntheticSpec.standard(seed=3)
    np.testing.assert_array_equal(a.class_means, b.class_means)
    np.testing.assert_array_equal(a.shift, b.shift)
    c = SyntheticSpec.standard(seed=4)
    assert not np.array_equal(a.class_means, c.class_means)
    np.testing.assert_allclose(np.linalg.norm(a.class_means, axis=1), 3.0)
    assert np.linalg.norm(a.shift) == pytest.approx(1.5)


def test_target_means_rotation_and_shift_fixture():
    spec = SyntheticSpec(
        n_classes=2,
        feature_dim=2,
        class_means=np.array([[1.0, 0.0], [0.0, 1.0]]),
        per_class=(1, 1),
        shift=np.array([1.0, 1.0]),
        rotation=np.pi / 2,
        class_std=1.0,
        noise_scale=0.0,
    )
    np.testing.assert_allclose(target_means(spec), [[1.0, 2.0], [0.0, 1.0]], atol=1e-12)


def test_generate_layout_and_determinism():
    spec = SyntheticSpec.standard(seed=1, per_class=6, n_classes=3)
    source, target = generate(spec)
    assert len(source) == len(target) == 18
    assert source.sample_ids[0] == "s0000" and target.sample_ids[-1] == "t0017"
    assert set(source.roles) == {"source"} and set(target.roles) == {"target"}
    np.testing.assert_array_equal(source.labels, np.repeat([0, 1, 2], 6))
    np.testing.assert_array_equal(source.zeroshot, np.zeros((18, 3)))
    again_source, again_target = generate(spec)
    np.testing.assert_array_equal(source.features, again_source.features)
    np.testing.assert_array_equal(target.features, again_target.features)


def test_generate_samples_cluster_around_their_means():
    spec = SyntheticSpec.standard(seed=2, per_class=400, class_std=0.5)
    source, target = generate(spec)
    for cls in range(spec.n_classes):
        rows = source.features[source.labels == cls]
        np.testing.assert_allclose(
            rows.mean(axis=0), spec.class_means[cls], atol=0.15
        )
        rows_t = target.features[target.labels == cls]
        np.testing.assert_allclose(
            rows_t.mean(axis=0), target_means(spec)[cls], atol=0.15
        )


def _oracle_accuracy(dataset):
    return float(np.mean(dataset.zeroshot.argmax(axis=1) == dataset.labels))


def test_noise_free_oracle_is_perfect_without_shift():
    spec = SyntheticSpec.standard(
        seed=0, shift_magnitude=0.0, rotation=0.0, class_std=0.05, noise_scale=0.0
    )
    source, target = make_benchmark(spec)
    assert _oracle_accuracy(source) == 1.0
    assert _oracle_accuracy(target) == 1.0


def test_extreme_noise_drives_oracle_to_chance():
    spec = SyntheticSpec.standard(seed=0, noise_scale=1000.0)
    source, target = make_benchmark(spec)
    assert _oracle_accuracy(source) < 0.35  # chance is 0.2 for K=5
    assert _oracle_accuracy(target) < 0.35


def test_simulate_zeroshot_scores_against_own_domain_means():
    spec = SyntheticSpec.standard(seed=5, noise_scale=0.0, per_class=3)
    source, target = make_benchmark(spec)
    for dataset, means in ((source, spec.class_means), (target, target_means(spec))):
        diffs = dataset.features[:, None, :] - means[None, :, :]
        expected = -spec.oracle_sharpness * np.einsum("nkd,nkd->nk", diffs, diffs)
        np.testing.assert_allclose(dataset.zeroshot, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def test_dataset_round_trip_is_byte_exact(tmp_path):
    spec = SyntheticSpec.standard(seed=9, per_class=4, n_classes=2, feature_dim=4)
    source, _ = make_benchmark(spec)
    path = tmp_path / "source.txt"
    write_dataset(path, source)
    loaded = read_dataset(path)
    assert loaded.sample_ids == source.sample_ids
    assert loaded.roles == source.roles
    np.testing.assert_array_equal(loaded.labels, source.labels)
    np.testing.assert_array_equal(loaded.features, source.features)
    np.testing.assert_array_equal(loaded.zeroshot, source.zeroshot)
    rewritten = tmp_path / "again.txt"
    write_dataset(rewritten, loaded)
    assert path.read_bytes() == rewritten.read_bytes()


def test_dataset_round_trip_preserves_missing_labels(tmp_path):
    ds = _small_dataset()
    path = tmp_path / "mixed.txt"
    write_dataset(path, ds)
    assert read_dataset(path).labels[1] == -1


def test_read_dataset_reports_row_width_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("id,domain,label,f:2,z:2\ns0,source,0,1.0,2.0,0.5,0.5\ns1,source,1,1.0\n")
    with pytest.raises(WidthMismatchError) as excinfo:
        read_dataset(path)
    assert excinfo.value.line_number == 3


def test_read_dataset_rejects_bad_numbers_and_headers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("id,domain,label,f:2,z:2\ns0,source,0,1.0,oops,0.5,0.5\n")
    with pytest.raises(ParseError) as excinfo:
        read_dataset(path)
    assert excinfo.value.line_number == 2

    path.write_text("id,domain,f:2,z:2\n")
    with pytest.raises(ParseError):
        read_dataset(path)
    path.write_text("id,domain,label,feat:2,z:2\ns0,source,0,1,2,3,4\n")
    with pytest.raises(ParseError):
        read_dataset(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_dataset(path)
    path.write_text("id,domain,label,f:2,z:2\n")
    with pytest.raises(ParseError):
        read_dataset(path)


def test_read_dataset_rejects_a_label_beyond_int64(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(
        "id,domain,label,f:1,z:2\ns0,source,99999999999999999999999,1.0,0.5,0.5\n"
    )
    with pytest.raises(ParseError, match="int64") as excinfo:
        read_dataset(path)
    assert excinfo.value.line_number == 2


def test_read_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text(
        "id,domain,label,f:1,z:2\n\ns0,source,0,1.5,0.25,0.75\n\n"
    )
    assert read_dataset(path).sample_ids == ("s0",)


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------


def test_predictions_round_trip_bit_exact(tmp_path):
    rng = rng_for(0, "pred-io")
    probs = rng.random((5, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    path = tmp_path / "pred.txt"
    write_predictions(path, [f"t{i}" for i in range(5)], probs)
    ids, loaded = read_predictions(path)
    assert ids == tuple(f"t{i}" for i in range(5))
    np.testing.assert_array_equal(loaded, probs)


def test_predictions_renormalize_only_slightly_off_rows(tmp_path):
    path = tmp_path / "pred.txt"
    path.write_text("id,p:2\nt0,0.5000003,0.5\n")
    _, probs = read_predictions(path)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert probs[0, 0] != 0.5000003  # was scaled down

    path.write_text("id,p:2\nt0,0.25,0.75\n")
    _, probs = read_predictions(path)
    assert probs[0, 0] == 0.25 and probs[0, 1] == 0.75  # untouched


def test_predictions_reject_rows_far_from_unit_mass(tmp_path):
    path = tmp_path / "pred.txt"
    path.write_text("id,p:2\nt0,0.6,0.6\n")
    with pytest.raises(ParseError) as excinfo:
        read_predictions(path)
    assert excinfo.value.line_number == 2
    path.write_text("id,p:2\nt0,0.5\n")
    with pytest.raises(WidthMismatchError):
        read_predictions(path)
    path.write_text("id,q:2\n")
    with pytest.raises(ParseError):
        read_predictions(path)


@pytest.mark.parametrize(
    "row", ["2.0,-1.0", "-0.0,1.0,nan", "inf,0.0"], ids=["unit-mass", "nan", "inf"]
)
def test_predictions_reject_entries_outside_the_unit_interval(tmp_path, row):
    path = tmp_path / "pred.txt"
    width = row.count(",") + 1
    path.write_text(f"id,p:{width}\nt0,0.5,0.5{',0.0' * (width - 2)}\nt1,{row}\n")
    with pytest.raises(ParseError, match=r"outside \[0, 1\]") as excinfo:
        read_predictions(path)
    assert excinfo.value.line_number == 3


def test_write_predictions_validates_shape(tmp_path):
    with pytest.raises(ClassMismatchError):
        write_predictions(tmp_path / "x.txt", ["a", "b"], np.ones((1, 2)))


# ---------------------------------------------------------------------------
# Metrics files
# ---------------------------------------------------------------------------


def test_metrics_round_trip(tmp_path):
    records = [
        EpisodeMetrics(0, 1.5, 0.25, 0.6931, 0.5),
        EpisodeMetrics(1, 1.25, 0.125, 0.7, 0.625),
    ]
    path = tmp_path / "metrics.txt"
    write_metrics(path, records)
    assert read_metrics(path) == records
    write_metrics(path, read_metrics(path))
    assert read_metrics(path) == records


def test_metrics_parse_errors(tmp_path):
    path = tmp_path / "metrics.txt"
    path.write_text("episode=0 l_ce=1.0 l_kd=0.1 l_ad=0.7 bogus=1\n")
    with pytest.raises(ParseError):
        read_metrics(path)
    path.write_text("episode=0 l_ce=1.0\n")
    with pytest.raises(ParseError) as excinfo:
        read_metrics(path)
    assert "missing" in str(excinfo.value)
    path.write_text("episode=zero l_ce=1.0 l_kd=0.1 l_ad=0.7 target_accuracy=0.5\n")
    with pytest.raises(ParseError):
        read_metrics(path)


# ---------------------------------------------------------------------------
# Array files (checkpoints)
# ---------------------------------------------------------------------------


def test_array_file_round_trip(tmp_path):
    rng = rng_for(0, "array-io")
    arrays = {
        "classifier.weight": rng.standard_normal((4, 3)),
        "classifier.bias": np.zeros((1, 3)),
        "tiny": np.array([[-0.0]]),
    }
    path = tmp_path / "ckpt.txt"
    write_array_file(path, arrays)
    loaded = read_array_file(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
    rewritten = tmp_path / "again.txt"
    write_array_file(rewritten, loaded)
    assert path.read_bytes() == rewritten.read_bytes()


def test_array_file_errors(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("not the magic\n")
    with pytest.raises(ParseError):
        read_array_file(path)
    path.write_text("# swguide arrays v1\narray w 2 2\n1.0,2.0\n")
    with pytest.raises(ParseError):
        read_array_file(path)
    path.write_text("# swguide arrays v1\narray w 1 2\n1.0,2.0,3.0\n")
    with pytest.raises(WidthMismatchError):
        read_array_file(path)
    path.write_text("# swguide arrays v1\narray w 1 2\n1.0,2.0\narray w 1 2\n1.0,2.0\n")
    with pytest.raises(ParseError):
        read_array_file(path)
    path.write_text("# swguide arrays v1\nnonsense header\n")
    with pytest.raises(ParseError):
        read_array_file(path)
    with pytest.raises(ClassMismatchError):
        write_array_file(path, {"w": np.zeros(3)})


@pytest.mark.parametrize("dims", ["-3 2", "0 -2", "-1 -1", "0 99999999999999999999"])
def test_array_file_rejects_negative_or_oversized_dims(tmp_path, dims):
    path = tmp_path / "ckpt.txt"
    path.write_text(f"# swguide arrays v1\narray w {dims}\n")
    with pytest.raises(ParseError) as excinfo:
        read_array_file(path)
    assert excinfo.value.line_number == 2


# ---------------------------------------------------------------------------
# Every reader on arbitrary input
# ---------------------------------------------------------------------------

_FORMAT_HEADS = (
    "",
    "id,domain,label,f:1,z:2\n",
    "id,p:2\n",
    "# swguide arrays v1\narray w 1 2\n",
    "episode=0 l_ce=0.5 l_kd=0.1 l_ad=0.7 target_accuracy=",
    "episodes=",
)
# Characters that make up numbers, roles, ids and separators, so that
# generated text gets past the headers into the field parsers.
_FIELD_CHARS = "0123456789+-.,:=e \nsourcetagpnifx_#"


@pytest.mark.parametrize(
    "reader",
    [read_dataset, read_predictions, read_metrics, read_array_file, read_config_file],
)
@settings(max_examples=60, deadline=None)
@given(
    content=st.one_of(
        st.binary(max_size=200),
        st.tuples(
            st.sampled_from(_FORMAT_HEADS),
            st.text(max_size=120) | st.text(_FIELD_CHARS, max_size=120),
        ).map(lambda parts: "".join(parts).encode("utf-8")),
    )
)
def test_readers_return_or_raise_a_guidance_error(tmp_path_factory, reader, content):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{reader.__name__}.txt"
    path.write_bytes(content)
    try:
        reader(path)
    except GuidanceError:
        pass
