"""Synthetic domain-shift data, simulated zero-shot scores, and file formats.

The benchmark is a pair of Gaussian-mixture datasets: the source domain
samples around K class means; the target domain turns each mean toward
its own random direction (same radius), then rotates and translates the
lot.  A noisy oracle scores every sample against its own domain's class
means, standing in for an external zero-shot model that is competent on
both domains.

All file formats are plain comma-separated text.  Floats are written with
``repr`` so that write → read round-trips bit-exactly.  Writers format and
write one row at a time, and readers stream the file line by line, so no
whole-file text or list of lines is built; the dataset reader parses blocks
of ``READ_BLOCK_ROWS`` rows straight into preallocated arrays, so it holds
at most one block's lines and floats besides them.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (
    ClassMismatchError,
    ConfigInvalidError,
    InvalidSpecError,
    NonFiniteError,
    ParseError,
    UnknownDomainTagError,
    WidthMismatchError,
)

ROLES = ("source", "target", "pseudo_source")
LABEL_ABSENT = -1


def rng_for(seed: int, *path) -> np.random.Generator:
    """Independent generator for stream ``path`` under the master ``seed``.

    Each path component is hashed to two 32-bit words that become the
    spawn key of a ``SeedSequence``, so streams never depend on call
    order and never touch global random state.
    """
    seed = int(seed)
    if seed < 0:
        # str() of an int beyond the digit limit would raise ValueError.
        shown = seed if seed.bit_length() <= 64 else f"an integer of {seed.bit_length()} bits"
        raise ConfigInvalidError(f"seed must be >= 0, got {shown}")
    key = []
    for part in path:
        digest = hashlib.blake2s(str(part).encode("utf-8")).digest()
        key.append(int.from_bytes(digest[0:4], "little"))
        key.append(int.from_bytes(digest[4:8], "little"))
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(sequence)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainDataset:
    """Feature rows with ids, roles, optional labels, and zero-shot scores."""

    sample_ids: tuple[str, ...]
    roles: tuple[str, ...]
    labels: np.ndarray  # int vector; LABEL_ABSENT marks a missing label
    features: np.ndarray  # n x d_x float64
    zeroshot: np.ndarray  # n x K float64

    def __post_init__(self):
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(
            self, "labels", np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        )
        object.__setattr__(
            self,
            "features",
            np.ascontiguousarray(np.asarray(self.features, dtype=np.float64)),
        )
        object.__setattr__(
            self,
            "zeroshot",
            np.ascontiguousarray(np.asarray(self.zeroshot, dtype=np.float64)),
        )
        self.validate()

    def validate(self):
        n = len(self.sample_ids)
        if len(set(self.sample_ids)) != n:
            raise ClassMismatchError("sample ids must be unique")
        if len(self.roles) != n:
            raise ClassMismatchError(f"{len(self.roles)} roles for {n} samples")
        roles = np.fromiter(self.roles, dtype=object, count=n)
        known = np.any([roles == role for role in ROLES], axis=0)
        if not known.all():
            raise UnknownDomainTagError(
                f"unknown sample role {roles[known.argmin()]!r}"
            )
        if self.labels.shape != (n,):
            raise ClassMismatchError(f"labels shape {self.labels.shape}, expected ({n},)")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ClassMismatchError(
                f"features shape {self.features.shape}, expected ({n}, d_x)"
            )
        if self.zeroshot.ndim != 2 or self.zeroshot.shape[0] != n:
            raise ClassMismatchError(
                f"zeroshot shape {self.zeroshot.shape}, expected ({n}, K)"
            )
        if not np.isfinite(self.features).all():
            raise NonFiniteError("features contain non-finite entries")
        if not np.isfinite(self.zeroshot).all():
            raise NonFiniteError("zero-shot scores contain non-finite entries")
        unlabelled = (roles != "target") & (self.labels == LABEL_ABSENT)
        if unlabelled.any():
            i = int(unlabelled.argmax())
            raise ClassMismatchError(
                f"sample {self.sample_ids[i]!r} has role {roles[i]!r} but no label"
            )

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.zeroshot.shape[1]

    def without_labels(self) -> "DomainDataset":
        """Copy with every target-role label erased (the training view)."""
        is_target = np.fromiter(self.roles, dtype=object, count=len(self)) == "target"
        return replace(self, labels=np.where(is_target, LABEL_ABSENT, self.labels))


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything needed to generate one source/target benchmark pair."""

    n_classes: int
    feature_dim: int
    class_means: np.ndarray  # K x d_x, source-domain means
    per_class: tuple[int, ...]  # samples per class, same for both domains
    shift: np.ndarray  # d_x translation applied to target means
    rotation: float  # radians, applied in feature axes (0, 1)
    class_std: float
    noise_scale: float  # stddev of the zero-shot oracle's logit noise
    class_angle: float = 0.0  # radians each target mean turns toward a random direction
    oracle_sharpness: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "class_means",
            np.ascontiguousarray(np.asarray(self.class_means, dtype=np.float64)),
        )
        object.__setattr__(
            self, "shift", np.ascontiguousarray(np.asarray(self.shift, dtype=np.float64))
        )
        try:
            per_class = tuple(operator.index(c) for c in self.per_class)
        except TypeError:
            raise InvalidSpecError(
                f"per_class must be a sequence of integers, got {self.per_class!r}"
            ) from None
        object.__setattr__(self, "per_class", per_class)
        self.validate()

    def validate(self):
        if self.n_classes < 2:
            raise InvalidSpecError(f"need at least 2 classes, got {self.n_classes}")
        if self.feature_dim < 2:
            raise InvalidSpecError(
                f"need at least 2 feature dims for the rotation, got {self.feature_dim}"
            )
        if self.class_means.shape != (self.n_classes, self.feature_dim):
            raise InvalidSpecError(
                f"class_means shape {self.class_means.shape}, expected "
                f"({self.n_classes}, {self.feature_dim})"
            )
        if self.shift.shape != (self.feature_dim,):
            raise InvalidSpecError(
                f"shift shape {self.shift.shape}, expected ({self.feature_dim},)"
            )
        for name in ("class_means", "shift"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidSpecError(f"{name} must be finite")
        if not -math.inf < self.rotation < math.inf:
            raise InvalidSpecError(f"rotation must be finite, got {self.rotation}")
        if len(self.per_class) != self.n_classes:
            raise InvalidSpecError(
                f"{len(self.per_class)} per-class counts for {self.n_classes} classes"
            )
        if any(c < 1 for c in self.per_class):
            raise InvalidSpecError("every class needs at least one sample")
        # NaN fails every comparison, so each bound is one that NaN cannot pass.
        if not 0.0 < self.class_std < math.inf:
            raise InvalidSpecError(
                f"class_std must be positive and finite, got {self.class_std}"
            )
        if not 0.0 <= self.noise_scale < math.inf:
            raise InvalidSpecError(
                f"noise_scale must be non-negative and finite, got {self.noise_scale}"
            )
        if not (0.0 <= self.class_angle <= math.pi):
            raise InvalidSpecError(
                f"class_angle must lie in [0, pi], got {self.class_angle}"
            )
        if not 0.0 < self.oracle_sharpness < math.inf:
            raise InvalidSpecError(
                f"oracle_sharpness must be positive and finite, got {self.oracle_sharpness}"
            )

    @staticmethod
    def standard(
        seed: int = 0,
        n_classes: int = 5,
        feature_dim: int = 20,
        per_class: int = 40,
        mean_scale: float = 3.0,
        class_std: float = 1.0,
        shift_magnitude: float = 1.5,
        rotation: float = 0.3,
        noise_scale: float = 0.80,
        class_angle: float = 1.3,
        oracle_sharpness: float = 0.1,
    ) -> "SyntheticSpec":
        """The benchmark used throughout the test suite and the scripts.

        Class means are a random orthonormal frame scaled to
        ``mean_scale``, so every pair of means sits ``mean_scale * sqrt(2)``
        apart regardless of the seed; the target shift is a random
        direction scaled to ``shift_magnitude``.  Both depend only on the
        seed.
        """
        if n_classes > feature_dim:
            raise InvalidSpecError(
                "standard() needs feature_dim >= n_classes for an orthonormal frame"
            )
        means_rng = rng_for(seed, "means")
        raw = means_rng.standard_normal((feature_dim, n_classes))
        q, r = np.linalg.qr(raw)
        means = (q * np.sign(np.diag(r))).T * mean_scale
        shift_rng = rng_for(seed, "shift")
        direction = shift_rng.standard_normal(feature_dim)
        shift = direction * (shift_magnitude / np.linalg.norm(direction))
        return SyntheticSpec(
            n_classes=n_classes,
            feature_dim=feature_dim,
            class_means=means,
            per_class=(per_class,) * n_classes,
            shift=shift,
            rotation=rotation,
            class_std=class_std,
            noise_scale=noise_scale,
            class_angle=class_angle,
            oracle_sharpness=oracle_sharpness,
            seed=seed,
        )


def _rotation_matrix(dim: int, angle: float) -> np.ndarray:
    rot = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    rot[0, 0] = c
    rot[0, 1] = -s
    rot[1, 0] = s
    rot[1, 1] = c
    return rot


def target_means(spec: SyntheticSpec) -> np.ndarray:
    """Source class means after the per-class turn, rotation, and shift.

    ``class_angle`` turns every class mean toward its own random direction
    while keeping its radius, so the target's class geometry looks just
    like the source's but the class *correspondence* between domains
    erodes as the angle grows.  A global shift or rotation is largely
    neutralized by per-domain feature standardization; the per-class turns
    are not, which is what makes the target genuinely hard for purely
    marginal alignment.
    """
    means = spec.class_means.copy()
    if spec.class_angle > 0.0:
        # Transverse directions orthogonal to every class mean and to each
        # other, so each turned mean keeps its radius and the pairwise
        # angles between the target means match the source's exactly.
        directions = []
        span = [
            means[cls] / np.linalg.norm(means[cls])
            for cls in range(spec.n_classes)
            if np.linalg.norm(means[cls]) > 1e-12
        ]
        for cls in range(spec.n_classes):
            vector = rng_for(spec.seed, "class_angle", cls).standard_normal(
                spec.feature_dim
            )
            for basis in span + directions:
                vector = vector - (vector @ basis) * basis
            norm = np.linalg.norm(vector)
            if norm <= 1e-9:
                raise InvalidSpecError(
                    "class_angle needs feature_dim >= 2 * n_classes "
                    "to fit the transverse directions"
                )
            directions.append(vector / norm)
        cos_a, sin_a = math.cos(spec.class_angle), math.sin(spec.class_angle)
        for cls in range(spec.n_classes):
            radius = np.linalg.norm(means[cls])
            if radius <= 1e-12:
                continue
            axis = means[cls] / radius
            means[cls] = radius * (cos_a * axis + sin_a * directions[cls])
    rot = _rotation_matrix(spec.feature_dim, spec.rotation)
    return means @ rot.T + spec.shift


def generate(spec: SyntheticSpec) -> tuple[DomainDataset, DomainDataset]:
    """Draw both domains; zero-shot scores are left zero (see simulate_zeroshot)."""
    datasets = []
    for role, prefix, means in (
        ("source", "s", spec.class_means),
        ("target", "t", target_means(spec)),
    ):
        ids, labels, rows = [], [], []
        counter = 0
        for cls in range(spec.n_classes):
            rng = rng_for(spec.seed, "gen", role, cls)
            count = spec.per_class[cls]
            rows.append(
                means[cls] + spec.class_std * rng.standard_normal((count, spec.feature_dim))
            )
            for _ in range(count):
                ids.append(f"{prefix}{counter:04d}")
                labels.append(cls)
                counter += 1
        features = np.concatenate(rows, axis=0)
        datasets.append(
            DomainDataset(
                sample_ids=tuple(ids),
                roles=(role,) * counter,
                labels=np.array(labels, dtype=np.int64),
                features=features,
                zeroshot=np.zeros((counter, spec.n_classes)),
            )
        )
    return datasets[0], datasets[1]


def simulate_zeroshot(
    datasets: tuple[DomainDataset, DomainDataset], spec: SyntheticSpec
) -> tuple[DomainDataset, DomainDataset]:
    """Score every sample against its own domain's class means, plus noise.

    This stands in for an external model that is already competent on both
    domains, so its quality does not degrade with the inter-domain shift:
    accuracy is controlled by ``noise_scale`` alone.  Scores are
    ``-sharpness * squared distance`` — deliberately diffuse so that
    calibration has real work to do.
    """
    means = {"source": spec.class_means, "target": target_means(spec)}
    out = []
    for dataset in datasets:
        role = dataset.roles[0] if dataset.roles else "source"
        diffs = dataset.features[:, None, :] - means[role][None, :, :]
        sq_dist = np.einsum("nkd,nkd->nk", diffs, diffs)
        rng = rng_for(spec.seed, "zeroshot", role)
        noise = spec.noise_scale * rng.standard_normal(sq_dist.shape)
        out.append(replace(dataset, zeroshot=-spec.oracle_sharpness * sq_dist + noise))
    return out[0], out[1]


def make_benchmark(spec: SyntheticSpec) -> tuple[DomainDataset, DomainDataset]:
    """Generate both domains and fill in their zero-shot scores."""
    return simulate_zeroshot(generate(spec), spec)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def _text_lines(handle, path):
    """The lines of the open UTF-8 text file ``handle``, one at a time, split
    as ``str.splitlines`` splits the whole text; ParseError naming the file
    for bytes that are not UTF-8."""
    try:
        for physical in handle:
            yield from physical.splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", path) from None


def _write_lines(path, lines):
    """Write each string of the iterable ``lines`` and a newline, as it comes."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _csv_row(head, *rows: np.ndarray) -> str:
    """The strings of ``head``, then every float of ``rows`` as ``repr``
    text, joined by commas."""
    return ",".join(chain(head, *(map(repr, row.tolist()) for row in rows)))


def write_dataset(path, dataset: DomainDataset):
    rows = zip(
        dataset.sample_ids, dataset.roles, dataset.labels.tolist(),
        dataset.features, dataset.zeroshot,
    )
    _write_lines(path, chain(
        [f"id,domain,label,f:{dataset.feature_dim},z:{dataset.n_classes}"],
        (_csv_row((sid, role, str(label)), x, z) for sid, role, label, x, z in rows),
    ))


def _parse_header_width(token: str, prefix: str, path, line_number: int) -> int:
    if not token.startswith(prefix):
        raise ParseError(f"expected header field {prefix}<n>, got {token!r}", path, line_number)
    try:
        width = int(token[len(prefix):])
    except ValueError:
        raise ParseError(f"bad width in header field {token!r}", path, line_number) from None
    if width < 1:
        raise ParseError(f"width must be positive in {token!r}", path, line_number)
    return width


def _rows_of_width(lines, n_fields: int) -> int:
    """How many non-empty ``lines`` come before the first one that does not
    have ``n_fields`` comma-separated fields."""
    rows = 0
    for line in lines:
        if line:
            if line.count(",") != n_fields - 1:
                break
            rows += 1
    return rows


def _dataset_widths(line: str, path) -> tuple[int, int]:
    """(d_x, k) from a dataset file's header line."""
    header = line.split(",")
    if len(header) != 5 or header[0] != "id" or header[1] != "domain" or header[2] != "label":
        raise ParseError(f"bad dataset header {line!r}", path, 1)
    return (
        _parse_header_width(header[3], "f:", path, 1),
        _parse_header_width(header[4], "z:", path, 1),
    )


# Rows ``read_dataset`` parses with one ``np.loadtxt`` call: enough that the
# call's fixed cost is small beside the parse, few enough that a block's text
# and its parsed copy add little to the arrays they fill.
READ_BLOCK_ROWS = 128


class _DatasetRows:
    """The columns ``read_dataset``'s second pass fills, sized for ``n`` rows."""

    def __init__(self, n: int, d_x: int, k: int, path):
        self.path = path
        self.d_x = d_x
        self.n_fields = 3 + d_x + k
        self.ids, self.roles = [], []
        self.labels = np.empty(n, dtype=np.int64)
        self.features = np.empty((n, d_x)) if n else None
        self.zeroshot = np.empty((n, k)) if n else None

    def add_row(self, line_number: int, line: str):
        """Parse one non-empty line with ``int()`` and ``float()``: the
        reference parser, whose errors and line numbers the reader reports."""
        fields = line.split(",")
        if len(fields) != self.n_fields:
            raise WidthMismatchError(
                f"row has {len(fields)} fields, header implies {self.n_fields}",
                self.path,
                line_number,
            )
        row = len(self.ids)
        try:
            label = int(fields[2])
            self.features[row] = [float(v) for v in fields[3 : 3 + self.d_x]]
            self.zeroshot[row] = [float(v) for v in fields[3 + self.d_x :]]
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", self.path, line_number) from None
        if not -(2**63) <= label < 2**63:
            raise ParseError(
                f"label {fields[2]!r} does not fit in int64", self.path, line_number
            )
        self.labels[row] = label
        self.ids.append(fields[0])
        self.roles.append(fields[1])

    def add_block(self, block):
        """Parse ``block``, a list of (line number, non-empty line), with one
        ``np.loadtxt`` call for its numbers.  A block that call or a label
        rejects goes through :meth:`add_row` instead, which parses what
        ``float()`` and ``int()`` accept and raises the row loop's error, as
        does a block that the first pass did not count (the file changed)."""
        start = len(self.ids)
        stop = start + len(block)
        if stop <= len(self.labels):
            try:
                heads = [line.split(",", 3) for _, line in block]
                self.labels[start:stop] = [int(head[2]) for head in heads]
                values = np.loadtxt(
                    [head[3] for head in heads],
                    delimiter=",", comments=None, quotechar=None, ndmin=2,
                )
            except (ValueError, IndexError, OverflowError):
                pass
            else:
                if values.shape == (len(block), self.n_fields - 3):
                    self.features[start:stop] = values[:, : self.d_x]
                    self.zeroshot[start:stop] = values[:, self.d_x :]
                    self.ids.extend(head[0] for head in heads)
                    self.roles.extend(head[1] for head in heads)
                    return
        for line_number, line in block:
            self.add_row(line_number, line)


def read_dataset(path) -> DomainDataset:
    """Read a dataset file in two passes over its lines, holding neither its
    text nor a list of its lines.  The first pass decodes the whole file, so
    bytes that are not UTF-8 are reported before any other fault wherever
    they are, and counts the leading rows that have the header's width; the
    second parses those rows into arrays sized for them, ``READ_BLOCK_ROWS``
    at a time."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = _text_lines(handle, path)
        first = next(lines, None)
        if first is None:
            raise ParseError("empty dataset file", path, 1)
        try:
            d_x, k = _dataset_widths(first, path)
        except ParseError:
            deque(lines, maxlen=0)  # decode the rest: bytes that are not UTF-8 come first
            raise
        # Arrays are sized by the leading rows whose width has been checked (none
        # if the first row is too narrow or wide, which the row loop then rejects),
        # so a header that claims a huge width allocates nothing.
        n = _rows_of_width(lines, 3 + d_x + k)
        deque(lines, maxlen=0)
        rows = _DatasetRows(n, d_x, k, path)
        handle.seek(0)
        lines = _text_lines(handle, path)
        next(lines)
        block = []
        for line_number, line in enumerate(lines, start=2):
            if line:
                block.append((line_number, line))
                if len(block) == READ_BLOCK_ROWS:
                    rows.add_block(block)
                    block = []
        if block:
            rows.add_block(block)
    if not rows.ids:
        raise ParseError("dataset file has a header but no rows", path, 1)
    return DomainDataset(
        sample_ids=tuple(rows.ids),
        roles=tuple(rows.roles),
        labels=rows.labels,
        features=rows.features,
        zeroshot=rows.zeroshot,
    )


def write_predictions(path, sample_ids, probs: np.ndarray):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != len(sample_ids):
        raise ClassMismatchError(
            f"probs shape {probs.shape} does not match {len(sample_ids)} ids"
        )
    _write_lines(path, chain(
        [f"id,p:{probs.shape[1]}"],
        (_csv_row((sid,), row) for sid, row in zip(sample_ids, probs)),
    ))


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    l_ce: float
    l_kd: float
    l_ad: float
    target_accuracy: float


def write_metrics(path, records):
    _write_lines(path, (
        f"episode={rec.episode} l_ce={_fmt(rec.l_ce)} l_kd={_fmt(rec.l_kd)} "
        f"l_ad={_fmt(rec.l_ad)} target_accuracy={_fmt(rec.target_accuracy)}"
        for rec in records
    ))


ARRAY_FILE_MAGIC = "# swguide arrays v1"


def write_array_file(path, named_arrays: dict[str, np.ndarray]):
    arrays = {name: np.asarray(array, dtype=np.float64) for name, array in named_arrays.items()}
    for name, array in arrays.items():
        if array.ndim != 2:
            raise ClassMismatchError(f"array {name!r} must be 2-D, got {array.ndim}-D")

    def lines():
        yield ARRAY_FILE_MAGIC
        for name, array in arrays.items():
            yield f"array {name} {array.shape[0]} {array.shape[1]}"
            for row in array:
                yield _csv_row((), row)

    _write_lines(path, lines())


def read_array_file(path) -> dict[str, np.ndarray]:
    """Read an array file in one pass over its lines, reporting the first
    fault in the file; a file whose lines run out inside an array is
    truncated."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = _text_lines(handle, path)
        if next(lines, None) != ARRAY_FILE_MAGIC:
            raise ParseError(f"missing magic line {ARRAY_FILE_MAGIC!r}", path, 1)
        named: dict[str, np.ndarray] = {}
        line_number = 1
        for header in lines:
            line_number += 1
            if not header:
                continue
            parts = header.split()
            if len(parts) != 4 or parts[0] != "array":
                raise ParseError(f"expected array header, got {header!r}", path, line_number)
            name = parts[1]
            if name in named:
                raise ParseError(f"duplicate array name {name!r}", path, line_number)
            try:
                n_rows, n_cols = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad array dims in {header!r}", path, line_number) from None
            if n_rows < 0 or n_cols < 0:
                raise ParseError(f"negative array dims in {header!r}", path, line_number)
            rows = []
            for _ in range(n_rows):
                line = next(lines, None)
                if line is None:
                    raise ParseError(f"array {name!r} is truncated", path, line_number)
                line_number += 1
                fields = line.split(",")
                if len(fields) != n_cols:
                    raise WidthMismatchError(
                        f"array {name!r} row has {len(fields)} fields, expected {n_cols}",
                        path,
                        line_number,
                    )
                try:
                    rows.append([float(v) for v in fields])
                except ValueError as exc:
                    raise ParseError(f"bad array value: {exc}", path, line_number) from None
            try:
                named[name] = np.array(rows, dtype=np.float64).reshape(n_rows, n_cols)
            except ValueError:
                raise ParseError(
                    f"array dims too large in {header!r}", path, line_number
                ) from None
    return named
