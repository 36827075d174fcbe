"""Synthetic domain-shift data, simulated zero-shot scores, and file formats.

The benchmark is a pair of Gaussian-mixture datasets: the source domain
samples around K class means; the target domain turns each mean toward
its own random direction (same radius), then rotates and translates the
lot.  A noisy oracle scores every sample against its own domain's class
means, standing in for an external zero-shot model that is competent on
both domains.

All file formats are plain comma-separated text.  Floats are written with
``repr`` so that write → read round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, replace

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
    if int(seed) < 0:
        raise ConfigInvalidError(f"seed must be >= 0, got {seed}")
    key = []
    for part in path:
        digest = hashlib.blake2s(str(part).encode("utf-8")).digest()
        key.append(int.from_bytes(digest[0:4], "little"))
        key.append(int.from_bytes(digest[4:8], "little"))
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
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
        if len(self.per_class) != self.n_classes:
            raise InvalidSpecError(
                f"{len(self.per_class)} per-class counts for {self.n_classes} classes"
            )
        if any(c < 1 for c in self.per_class):
            raise InvalidSpecError("every class needs at least one sample")
        if self.class_std <= 0.0:
            raise InvalidSpecError(f"class_std must be positive, got {self.class_std}")
        if self.noise_scale < 0.0:
            raise InvalidSpecError(
                f"noise_scale must be non-negative, got {self.noise_scale}"
            )
        if not (0.0 <= self.class_angle <= math.pi):
            raise InvalidSpecError(
                f"class_angle must lie in [0, pi], got {self.class_angle}"
            )
        if self.oracle_sharpness <= 0.0:
            raise InvalidSpecError(
                f"oracle_sharpness must be positive, got {self.oracle_sharpness}"
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
    spec.validate()
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


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; ParseError naming the file if it is not."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}", path) from None


def write_dataset(path, dataset: DomainDataset):
    d_x, k = dataset.feature_dim, dataset.n_classes
    lines = [f"id,domain,label,f:{d_x},z:{k}"]
    for i, sid in enumerate(dataset.sample_ids):
        fields = [sid, dataset.roles[i], str(int(dataset.labels[i]))]
        fields.extend(_fmt(v) for v in dataset.features[i])
        fields.extend(_fmt(v) for v in dataset.zeroshot[i])
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


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


def read_dataset(path) -> DomainDataset:
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty dataset file", path, 1)
    header = lines[0].split(",")
    if len(header) != 5 or header[0] != "id" or header[1] != "domain" or header[2] != "label":
        raise ParseError(f"bad dataset header {lines[0]!r}", path, 1)
    d_x = _parse_header_width(header[3], "f:", path, 1)
    k = _parse_header_width(header[4], "z:", path, 1)

    ids, roles, labels, features, zeroshot = [], [], [], [], []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3 + d_x + k:
            raise WidthMismatchError(
                f"row has {len(fields)} fields, header implies {3 + d_x + k}",
                path,
                line_number,
            )
        ids.append(fields[0])
        roles.append(fields[1])
        try:
            labels.append(int(fields[2]))
            features.append([float(v) for v in fields[3 : 3 + d_x]])
            zeroshot.append([float(v) for v in fields[3 + d_x :]])
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", path, line_number) from None
        if not -(2**63) <= labels[-1] < 2**63:
            raise ParseError(
                f"label {fields[2]!r} does not fit in int64", path, line_number
            )
    if not ids:
        raise ParseError("dataset file has a header but no rows", path, 1)
    return DomainDataset(
        sample_ids=tuple(ids),
        roles=tuple(roles),
        labels=np.array(labels, dtype=np.int64),
        features=np.array(features, dtype=np.float64),
        zeroshot=np.array(zeroshot, dtype=np.float64),
    )


def write_predictions(path, sample_ids, probs: np.ndarray):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != len(sample_ids):
        raise ClassMismatchError(
            f"probs shape {probs.shape} does not match {len(sample_ids)} ids"
        )
    lines = [f"id,p:{probs.shape[1]}"]
    for sid, row in zip(sample_ids, probs):
        lines.append(",".join([sid] + [_fmt(v) for v in row]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_predictions(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a predictions file; entries must lie in [0, 1] and rows sum
    to 1 within 1e-6.

    Rows already within 1e-12 of unit mass are kept bit-exact;
    anything looser (but within tolerance) is renormalized.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty predictions file", path, 1)
    header = lines[0].split(",")
    if len(header) != 2 or header[0] != "id":
        raise ParseError(f"bad predictions header {lines[0]!r}", path, 1)
    k = _parse_header_width(header[1], "p:", path, 1)

    ids, rows = [], []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 1 + k:
            raise WidthMismatchError(
                f"row has {len(fields)} fields, header implies {1 + k}", path, line_number
            )
        try:
            row = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"bad probability field: {exc}", path, line_number) from None
        if not ((row >= 0.0) & (row <= 1.0)).all():
            raise ParseError("a probability lies outside [0, 1]", path, line_number)
        total = row.sum()
        if abs(total - 1.0) > 1e-6:
            raise ParseError(
                f"row mass {total!r} is not 1 within 1e-6", path, line_number
            )
        if abs(total - 1.0) > 1e-12:
            row = row / total
        ids.append(fields[0])
        rows.append(row)
    if not ids:
        raise ParseError("predictions file has a header but no rows", path, 1)
    return tuple(ids), np.array(rows, dtype=np.float64)


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    l_ce: float
    l_kd: float
    l_ad: float
    target_accuracy: float


_METRIC_KEYS = ("episode", "l_ce", "l_kd", "l_ad", "target_accuracy")


def write_metrics(path, records):
    lines = []
    for rec in records:
        lines.append(
            f"episode={rec.episode} l_ce={_fmt(rec.l_ce)} l_kd={_fmt(rec.l_kd)} "
            f"l_ad={_fmt(rec.l_ad)} target_accuracy={_fmt(rec.target_accuracy)}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n" if lines else "")


def read_metrics(path) -> list[EpisodeMetrics]:
    lines = _read_lines(path)
    records = []
    for line_number, line in enumerate(lines, start=1):
        if not line:
            continue
        parsed = {}
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep or key not in _METRIC_KEYS:
                raise ParseError(f"unexpected metrics token {token!r}", path, line_number)
            parsed[key] = value
        if set(parsed) != set(_METRIC_KEYS):
            missing = sorted(set(_METRIC_KEYS) - set(parsed))
            raise ParseError(f"missing metrics keys {missing}", path, line_number)
        try:
            records.append(
                EpisodeMetrics(
                    episode=int(parsed["episode"]),
                    l_ce=float(parsed["l_ce"]),
                    l_kd=float(parsed["l_kd"]),
                    l_ad=float(parsed["l_ad"]),
                    target_accuracy=float(parsed["target_accuracy"]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"bad metrics value: {exc}", path, line_number) from None
    return records


ARRAY_FILE_MAGIC = "# swguide arrays v1"


def write_array_file(path, named_arrays: dict[str, np.ndarray]):
    lines = [ARRAY_FILE_MAGIC]
    for name, array in named_arrays.items():
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ClassMismatchError(f"array {name!r} must be 2-D, got {array.ndim}-D")
        lines.append(f"array {name} {array.shape[0]} {array.shape[1]}")
        for row in array:
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_array_file(path) -> dict[str, np.ndarray]:
    lines = _read_lines(path)
    if not lines or lines[0] != ARRAY_FILE_MAGIC:
        raise ParseError(f"missing magic line {ARRAY_FILE_MAGIC!r}", path, 1)
    named: dict[str, np.ndarray] = {}
    line_number = 1
    total = len(lines)
    while line_number < total:
        header = lines[line_number]
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
            if line_number >= total:
                raise ParseError(f"array {name!r} is truncated", path, line_number)
            fields = lines[line_number].split(",")
            line_number += 1
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
