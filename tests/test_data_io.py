"""Unit tests for seeded streams, the synthetic benchmark, and file formats."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swguide.cli import read_config_file
from swguide.data import (
    READ_BLOCK_ROWS,
    DomainDataset,
    EpisodeMetrics,
    SyntheticSpec,
    generate,
    make_benchmark,
    read_array_file,
    read_dataset,
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
    ConfigInvalidError,
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


def test_rng_for_rejects_a_huge_negative_seed_by_its_bit_count():
    with pytest.raises(ConfigInvalidError, match="16610 bits"):
        rng_for(-(10**5000))


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


def test_spec_beyond_any_address_space_is_rejected_before_it_is_built():
    spec = SyntheticSpec.standard(n_classes=2, feature_dim=2, per_class=1)
    with pytest.raises(InvalidSpecError, match="per_class"):
        dataclasses.replace(spec, per_class=(10**18, 10**18))


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


def _read_outcome(path):
    """What ``read_dataset`` makes of ``path``: every column's bytes, or the
    error's type, message and line number."""
    try:
        ds = read_dataset(path)
    except GuidanceError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return (
        ds.sample_ids, ds.roles,
        ds.labels.tobytes(), ds.features.tobytes(), ds.zeroshot.tobytes(),
    )


def _row_loop_outcome(path):
    """``_read_outcome`` with every block refused by ``np.loadtxt``, so the
    reader parses each row with ``int()`` and ``float()``."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return _read_outcome(path)


def _dataset_text(rows, blank_before=()):
    """A dataset file with ``f:2,z:2`` and a row of byte fields per entry of
    ``rows``; a blank line goes before each row index in ``blank_before``."""
    lines = [b"id,domain,label,f:2,z:2"]
    for i, row in enumerate(rows):
        lines += [b""] * list(blank_before).count(i)
        lines.append(b",".join(row))
    return b"\n".join(lines) + b"\n"


def _plain_rows(n):
    return [
        [b"s%d" % i, b"source", b"%d" % (i % 3), repr(0.1 * i).encode(), b"-2.5",
         b"0.25", repr(1.0 / (i + 1)).encode()]
        for i in range(n)
    ]


# Tokens where np.loadtxt and float() or int() might part ways.
_READER_TOKENS = (
    b"1_0", b"#", b" 1.5", "\u0661\u0662".encode(), b"0x1p3", b"nan", b"1e400", b"",
    b"99999999999999999999999", b"\xff\xfe", b"-0.0", b"1.5,2", b" 2 ",
    " 1.5".encode(), "１".encode(), b"infinity", b"1 2",
)


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(1, 2 * READ_BLOCK_ROWS + 1),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(2, 6), st.sampled_from(_READER_TOKENS)),
        max_size=3,
    ),
    blank_before=st.lists(st.integers(0, 2 * READ_BLOCK_ROWS + 1), max_size=2),
)
def test_block_reader_matches_the_row_loop(tmp_path_factory, n_rows, edits, blank_before):
    rows = _plain_rows(n_rows)
    for row, column, token in edits:
        rows[row % n_rows][column] = token
    path = tmp_path_factory.getbasetemp() / "block-vs-row-loop.txt"
    path.write_bytes(_dataset_text(rows, blank_before))
    assert _read_outcome(path) == _row_loop_outcome(path)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_dataset_round_trip_around_the_block_size(tmp_path, extra):
    n = READ_BLOCK_ROWS + extra
    rng = rng_for(n, "block-size-round-trip")
    dataset = DomainDataset(
        sample_ids=tuple(f"s{i}" for i in range(n)),
        roles=("source",) * n,
        labels=rng.integers(0, 5, n),
        features=rng.standard_normal((n, 3)),
        zeroshot=rng.standard_normal((n, 2)),
    )
    path = tmp_path / "rows.txt"
    write_dataset(path, dataset)
    loaded = read_dataset(path)
    assert loaded.sample_ids == dataset.sample_ids
    for name in ("labels", "features", "zeroshot"):
        assert getattr(loaded, name).tobytes() == getattr(dataset, name).tobytes()


def test_a_bad_token_mid_block_reports_the_row_loops_line(tmp_path):
    rows = _plain_rows(2 * READ_BLOCK_ROWS + 3)
    bad = READ_BLOCK_ROWS + READ_BLOCK_ROWS // 2
    rows[bad][4] = b"oops"
    path = tmp_path / "bad.txt"
    path.write_bytes(_dataset_text(rows, blank_before=(5,)))
    with pytest.raises(ParseError, match="oops") as excinfo:
        read_dataset(path)
    assert excinfo.value.line_number == bad + 3  # the header and one blank line come first
    assert _read_outcome(path) == _row_loop_outcome(path)


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------


def test_write_predictions_validates_shape(tmp_path):
    with pytest.raises(ClassMismatchError):
        write_predictions(tmp_path / "x.txt", ["a", "b"], np.ones((1, 2)))


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
# Writers: the bytes of the whole-file rendering
# ---------------------------------------------------------------------------

_AWKWARD = [-0.0, 5e-324, 1e22, 0.1 + 0.2, 1 / 3]


def _joined(lines):
    """The whole-file rendering the writers must reproduce byte for byte."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cells(row):
    return [repr(float(v)) for v in row]


def test_writers_match_the_whole_file_rendering_on_awkward_floats(tmp_path):
    values = np.array([_AWKWARD, _AWKWARD[::-1], [-v for v in _AWKWARD]])
    ids, roles, labels = ("a", "b", "c"), ("source", "target", "pseudo_source"), [2, -1, 0]
    dataset = DomainDataset(
        sample_ids=ids, roles=roles, labels=labels,
        features=values[:, :3], zeroshot=values[:, 3:],
    )
    write_dataset(tmp_path / "d.txt", dataset)
    assert (tmp_path / "d.txt").read_bytes() == _joined(
        ["id,domain,label,f:3,z:2"]
        + [",".join([i, r, str(y)] + _cells(row)) for i, r, y, row in zip(ids, roles, labels, values)]
    )

    write_predictions(tmp_path / "p.txt", ids, values)
    assert (tmp_path / "p.txt").read_bytes() == _joined(
        ["id,p:5"] + [",".join([i] + _cells(row)) for i, row in zip(ids, values)]
    )

    rows = [(episode, *row[:4]) for episode, row in enumerate(values.tolist())]
    write_metrics(tmp_path / "m.txt", [EpisodeMetrics(*row) for row in rows])
    assert (tmp_path / "m.txt").read_bytes() == _joined(
        f"episode={episode} l_ce={l_ce!r} l_kd={l_kd!r} l_ad={l_ad!r} target_accuracy={acc!r}"
        for episode, l_ce, l_kd, l_ad, acc in rows
    )

    arrays = {"w": values, "row": values[:1, ::2], "empty": np.zeros((2, 0))}
    write_array_file(tmp_path / "a.txt", arrays)
    lines = ["# swguide arrays v1"]
    for name, array in arrays.items():
        lines.append(f"array {name} {array.shape[0]} {array.shape[1]}")
        lines.extend(",".join(_cells(row)) for row in array)
    assert (tmp_path / "a.txt").read_bytes() == _joined(lines)


def test_write_array_file_checks_every_array_before_creating_the_file(tmp_path):
    path = tmp_path / "ckpt.txt"
    with pytest.raises(ClassMismatchError):
        write_array_file(path, {"ok": np.zeros((1, 2)), "flat": np.zeros(3)})
    assert not path.exists()


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
    [read_dataset, read_array_file, read_config_file],
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
