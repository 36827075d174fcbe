"""Orchestration of a full strong-weak guidance run.

Pipeline per run: calibrate the zero-shot scores → sharpen into soft
teachers → select and append pseudo-source samples → adapt norm layers
per domain → episodic mini-batch training on classification +
distillation + adversarial losses → per-episode target evaluation.

Schemes:
    v1             one run at the configured expansion fraction
    v2             two runs (1/3 then 2/3 expansion); the second run mixes
                   the first run's predictions into the scores and
                   restarts from fresh parameters
    weak_only      v1 with expansion fraction 0
    cdan_only      weak_only with the distillation term removed
    zeroshot_only  no training; the zero-shot argmax is the prediction

Every random draw flows through a named stream of the master seed, so a
given (config, datasets) pair always produces identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .calibration import LogitMatrix, SoftLabelSet, sharpen, solve_temperature
from .data import DomainDataset, EpisodeMetrics, rng_for
from .errors import ConfigInvalidError, ShapeMismatchError, UnlabeledError
from .expansion import (
    POLICIES,
    check_pair,
    expand_dataset,
    mix_scores,
    select_pseudo_source,
)
from .losses import (
    adversarial_loss_node,
    classification_loss_node,
    kd_loss_node,
)
from .model import (
    ModelParams,
    discriminate_on_tape,
    forward,
    forward_on_tape,
    init_params,
    lift,
    pack_trainable,
)
from .norm_adapt import adapt_model

SCHEMES = ("v1", "v2", "weak_only", "cdan_only", "zeroshot_only")
# Largest accepted batch_size.  Runs use at most 512; the bound stops a
# mistyped size before a step allocates arrays that cannot fit in memory.
MAX_BATCH_SIZE = 65536
LAMBDA_MODES = ("fixed", "ramp")
# Config fields that must be finite numbers (tau may also be None).
_FLOAT_FIELDS = (
    "tau",
    "expansion_fraction",
    "v2_fraction_first",
    "v2_fraction_second",
    "lr_extractor",
    "lr_heads",
    "lambda_value",
    "augment_noise",
    "w_ce",
    "w_kd",
    "w_ad",
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs beyond the datasets themselves."""

    scheme: str = "v1"
    tau: float | None = 0.9  # None: teachers are the raw T=1 softmax
    expansion_fraction: float = 0.5
    v2_fraction_first: float = 1.0 / 3.0
    v2_fraction_second: float = 2.0 / 3.0
    episodes: int = 25
    batch_size: int = 32
    lr_extractor: float = 5e-4
    lr_heads: float = 5e-3
    lambda_mode: str = "fixed"
    lambda_value: float = 1.0
    augment_noise: float = 0.1
    selection_policy: str = "class_balanced"
    seed: int = 0
    w_ce: float = 1.0
    w_kd: float = 1.0
    w_ad: float = 1.0
    hidden_dim: int = 64
    disc_hidden: int = 64
    pseudo_source_adversarial_domain: str = "source"

    def validate(self, n_classes: int | None = None):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigInvalidError(f"{name} must be a finite number, got {value}")
        if self.scheme not in SCHEMES:
            raise ConfigInvalidError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.tau is not None:
            if not (0.0 < self.tau < 1.0):
                raise ConfigInvalidError(f"tau must lie in (0, 1), got {self.tau}")
            if n_classes is not None and self.tau <= 1.0 / n_classes:
                raise ConfigInvalidError(
                    f"tau must exceed 1/K = {1.0 / n_classes:.4f}, got {self.tau}"
                )
        for name in ("expansion_fraction", "v2_fraction_first", "v2_fraction_second"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigInvalidError(f"{name} must lie in [0, 1], got {value}")
        if self.episodes < 1:
            raise ConfigInvalidError(f"episodes must be >= 1, got {self.episodes}")
        if not 2 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ConfigInvalidError(
                f"batch_size must lie in [2, {MAX_BATCH_SIZE}], got {self.batch_size}"
            )
        if self.lr_extractor <= 0.0 or self.lr_heads <= 0.0:
            raise ConfigInvalidError("learning rates must be positive")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigInvalidError(
                f"lambda_mode must be one of {LAMBDA_MODES}, got {self.lambda_mode!r}"
            )
        if self.lambda_value < 0.0:
            raise ConfigInvalidError(f"lambda_value must be >= 0, got {self.lambda_value}")
        if self.augment_noise < 0.0:
            raise ConfigInvalidError(
                f"augment_noise must be >= 0, got {self.augment_noise}"
            )
        if self.selection_policy not in POLICIES:
            raise ConfigInvalidError(
                f"selection_policy must be one of {POLICIES}, got {self.selection_policy!r}"
            )
        for name in ("w_ce", "w_kd", "w_ad"):
            if getattr(self, name) < 0.0:
                raise ConfigInvalidError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.w_ce == 0.0 and self.w_kd == 0.0 and self.w_ad == 0.0:
            raise ConfigInvalidError("at least one loss weight must be positive")
        if self.hidden_dim < 1 or self.disc_hidden < 1:
            raise ConfigInvalidError("layer widths must be >= 1")
        if self.pseudo_source_adversarial_domain not in ("source", "target"):
            raise ConfigInvalidError(
                "pseudo_source_adversarial_domain must be 'source' or 'target'"
            )


@dataclass
class RunResult:
    params: ModelParams
    metrics: list[EpisodeMetrics]
    prediction_ids: tuple[str, ...]
    prediction_probs: np.ndarray
    temperature: float
    fraction: float
    accuracy: float
    scheme: str
    seed: int
    first_run: "RunResult | None" = field(default=None, repr=False)


class Adam:
    """Standard Adam moments over one flat parameter vector, updated in place.

    ``learning_rates`` holds one rate per entry of ``params``.  Every op is
    elementwise and runs in the order of the textbook per-array update

        m = β1·m + (1−β1)·g;  v = β2·v + (1−β2)·g²
        p -= lr · (m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε)

    so each entry's arithmetic is exactly that of a separate per-array
    update; two scratch vectors hold the temporaries.
    """

    def __init__(self, params: np.ndarray, learning_rates: np.ndarray,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if params.ndim != 1 or learning_rates.shape != params.shape:
            raise ShapeMismatchError(
                f"Adam needs a flat parameter vector and one learning rate per entry, "
                f"got {params.shape} and {learning_rates.shape}"
            )
        self.params = params
        self.learning_rates = learning_rates
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._denom = np.empty_like(params)
        self._update = np.empty_like(params)

    def step(self, grad: np.ndarray):
        self.t += 1
        m, v, denom, update = self.m, self.v, self._denom, self._update
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.multiply(grad, grad, out=update)
        update *= 1.0 - self.beta2
        v += update
        np.divide(v, 1.0 - self.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1.0 - self.beta1 ** self.t, out=update)
        update *= self.learning_rates
        update /= denom
        self.params -= update


def learning_rate_for(name: str, config: TrainConfig) -> float:
    """Extractor and norm parameters train slow; the new heads train fast."""
    if name.startswith("extractor.") or name.startswith("norm."):
        return config.lr_extractor
    return config.lr_heads


class _IndexStream:
    """Endless stream of dataset indices in reshuffled-permutation order."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        out: list[int] = []
        while len(out) < k:
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(k - len(out), self.n - self.pos)
            out.extend(self.order[self.pos : self.pos + grab])
            self.pos += grab
        return np.array(out, dtype=np.int64)


def lambda_at(config: TrainConfig, global_step: int, total_steps: int) -> float:
    if config.lambda_mode == "fixed":
        return config.lambda_value
    progress = global_step / max(1, total_steps - 1)
    return 2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0


def evaluate(params: ModelParams, target: DomainDataset) -> float:
    """Fraction of target samples whose argmax prediction is correct."""
    if len(target) == 0:
        raise UnlabeledError("cannot evaluate on an empty dataset")
    if (target.labels < 0).any():
        raise UnlabeledError("evaluation needs ground-truth labels for every sample")
    _, probs = forward(params, target.features, "target")
    return float((probs.argmax(axis=1) == target.labels).mean())


def predict_target(params: ModelParams, target: DomainDataset) -> np.ndarray:
    """Temperature-1 class probabilities for every target sample."""
    _, probs = forward(params, target.features, "target")
    return probs


def build_teachers(
    config: TrainConfig, source: DomainDataset, target: DomainDataset
) -> tuple[float, SoftLabelSet, SoftLabelSet]:
    """Calibrate (unless tau is None) and sharpen both domains' zero-shot
    scores; returns (T, source teacher, target teacher), each teacher
    row-aligned with its dataset."""
    source_lm = LogitMatrix(source.zeroshot, source.sample_ids)
    target_lm = LogitMatrix(target.zeroshot, target.sample_ids)
    if config.tau is None:
        temperature = 1.0
    else:
        temperature = solve_temperature(source_lm, target_lm, config.tau).temperature
    teacher_source = sharpen(source_lm, temperature)
    teacher_target = sharpen(target_lm, temperature)
    return temperature, teacher_source, teacher_target


def _single_run(
    config: TrainConfig,
    source: DomainDataset,
    target: DomainDataset,
    run_tag: str = "run1",
    fraction: float | None = None,
    scores_override=None,
    episode_offset: int = 0,
    teachers=None,
) -> RunResult:
    """One calibrate → expand → adapt → train cycle; the heart of every scheme.

    ``scores_override`` is an (n_target, K) score matrix row-aligned with
    ``target`` (default: the target teacher).  ``teachers`` is the result
    of :func:`build_teachers` for these inputs, when the caller already has
    it.
    """
    if fraction is None:
        fraction = config.expansion_fraction
    target_train = target.without_labels()

    if teachers is None:
        teachers = build_teachers(config, source, target)
    temperature, teacher_source, teacher_target = teachers
    scores = teacher_target.probs if scores_override is None else scores_override
    selection = select_pseudo_source(
        scores, target.sample_ids, fraction, config.selection_policy
    )
    expanded = expand_dataset(source, target_train, selection)

    init_rng = rng_for(config.seed, "init", run_tag)
    params = init_params(
        init_rng,
        input_dim=source.feature_dim,
        n_classes=source.n_classes,
        hidden_dim=config.hidden_dim,
        disc_hidden=config.disc_hidden,
    )
    # Trainable arrays become views of one flat vector, and each step's
    # gradients land in one flat vector, so Adam is a few vector ops.
    flat, params = pack_trainable(adapt_model(params, expanded, target_train))
    grad = np.zeros_like(flat)
    learning_rates = np.concatenate(
        [
            np.full(array.size, learning_rate_for(name, config))
            for name, array in params.trainable_arrays().items()
        ]
    )
    optimizer = Adam(flat, learning_rates)

    # Row-aligned with ``expanded`` (the source rows, then the selected
    # target rows) and ``target_train``, so each batch gathers its teacher
    # rows and domain labels with the indices that gather features.
    teacher_src = np.concatenate(
        [teacher_source.probs, teacher_target.probs[selection.rows]], axis=0
    )
    teacher_tgt = teacher_target.probs
    pseudo_domain = float(config.pseudo_source_adversarial_domain == "source")
    src_adversarial = np.concatenate(
        [np.ones(len(source)), np.full(len(selection), pseudo_domain)]
    )

    src_half = math.ceil(config.batch_size / 2)
    tgt_half = config.batch_size // 2
    src_stream = _IndexStream(len(expanded), rng_for(config.seed, "batch", run_tag, "source"))
    tgt_stream = _IndexStream(len(target_train), rng_for(config.seed, "batch", run_tag, "target"))
    aug_rng = rng_for(config.seed, "aug", run_tag)

    steps_per_episode = max(
        math.ceil(len(expanded) / src_half), math.ceil(len(target_train) / tgt_half)
    )
    total_steps = config.episodes * steps_per_episode
    global_step = 0

    # Every batch is laid out as [source, target, augmented source,
    # augmented target] halves, so its domain masks are fixed for the run.
    ce_mask = np.array(([True] * src_half + [False] * tgt_half) * 2)
    source_rows = ce_mask.astype(np.float64).reshape(-1, 1)
    domain_masks = {"source": source_rows, "target": 1.0 - source_rows}

    metrics: list[EpisodeMetrics] = []
    for episode in range(config.episodes):
        step_ce, step_kd, step_ad = [], [], []
        for _ in range(steps_per_episode):
            src_idx = src_stream.take(src_half)
            tgt_idx = tgt_stream.take(tgt_half)
            noise = aug_rng.standard_normal(
                (src_half + tgt_half, source.feature_dim)
            ) * config.augment_noise

            src_feats = expanded.features[src_idx]
            tgt_feats = target_train.features[tgt_idx]
            batch_x = np.concatenate(
                [
                    src_feats,
                    tgt_feats,
                    src_feats + noise[:src_half],
                    tgt_feats + noise[src_half:],
                ],
                axis=0,
            )
            src_labels = expanded.labels[src_idx]
            tgt_blank = np.full(tgt_half, -1, dtype=np.int64)
            batch_labels = np.concatenate([src_labels, tgt_blank, src_labels, tgt_blank])

            half_labels = np.concatenate([src_adversarial[src_idx], np.zeros(tgt_half)])
            domain_labels = np.concatenate([half_labels, half_labels]).reshape(-1, 1)

            tape = ad.Tape()
            grad.fill(0.0)
            nodes = lift(tape, params, grad)
            x = tape.leaf(batch_x)
            features, _, probs = forward_on_tape(nodes, params, x, domain_masks)

            terms: list[ad.Node] = []
            l_ce = l_kd = l_ad = 0.0
            if config.w_ce > 0.0:
                ce_node = classification_loss_node(probs, batch_labels, ce_mask)
                l_ce = float(ce_node.value[0, 0])
                terms.append(ce_node if config.w_ce == 1.0 else ad.scale(ce_node, config.w_ce))
            if config.w_kd > 0.0:
                src_rows, tgt_rows = teacher_src[src_idx], teacher_tgt[tgt_idx]
                teacher_rows = np.concatenate([src_rows, tgt_rows, src_rows, tgt_rows])
                kd_node = kd_loss_node(probs, teacher_rows)
                l_kd = float(kd_node.value[0, 0])
                terms.append(kd_node if config.w_kd == 1.0 else ad.scale(kd_node, config.w_kd))
            both_domains = 0.0 < domain_labels.sum() < domain_labels.shape[0]
            if config.w_ad > 0.0 and both_domains:
                lam = lambda_at(config, global_step, total_steps)
                joint = ad.outer_rows(features, probs)
                d_hat = discriminate_on_tape(nodes, joint, lam)
                ad_node = adversarial_loss_node(d_hat, domain_labels)
                l_ad = float(ad_node.value[0, 0])
                terms.append(ad_node if config.w_ad == 1.0 else ad.scale(ad_node, config.w_ad))

            total = terms[0]
            for term in terms[1:]:
                total = ad.add(total, term)
            ad.backward(tape, total)
            optimizer.step(grad)

            step_ce.append(l_ce)
            step_kd.append(l_kd)
            step_ad.append(l_ad)
            global_step += 1

        metrics.append(
            EpisodeMetrics(
                episode=episode_offset + episode,
                l_ce=float(np.mean(step_ce)),
                l_kd=float(np.mean(step_kd)),
                l_ad=float(np.mean(step_ad)),
                target_accuracy=evaluate(params, target),
            )
        )

    probs = predict_target(params, target)
    return RunResult(
        params=params,
        metrics=metrics,
        prediction_ids=target.sample_ids,
        prediction_probs=probs,
        temperature=temperature,
        fraction=fraction,
        accuracy=metrics[-1].target_accuracy,
        scheme=config.scheme,
        seed=config.seed,
    )


def _zeroshot_only(config, source, target) -> RunResult:
    if (target.labels < 0).any():
        raise UnlabeledError("zero-shot evaluation needs target ground truth")
    probs = ad.stable_softmax(target.zeroshot, 1.0)
    accuracy = float((probs.argmax(axis=1) == target.labels).mean())
    params = init_params(
        rng_for(config.seed, "init", "run1"),
        input_dim=source.feature_dim,
        n_classes=source.n_classes,
        hidden_dim=config.hidden_dim,
        disc_hidden=config.disc_hidden,
    )
    return RunResult(
        params=params,
        metrics=[EpisodeMetrics(0, 0.0, 0.0, 0.0, accuracy)],
        prediction_ids=target.sample_ids,
        prediction_probs=probs,
        temperature=1.0,
        fraction=0.0,
        accuracy=accuracy,
        scheme=config.scheme,
        seed=config.seed,
    )


def run_v2(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> RunResult:
    """Two-run scheme: run-1 predictions are mixed into run-2 scores."""
    teachers = build_teachers(config, source, target)
    _, _, teacher_target = teachers
    run1 = _single_run(
        config,
        source,
        target,
        run_tag="run1",
        fraction=config.v2_fraction_first,
        teachers=teachers,
    )
    previous = SoftLabelSet(
        probs=run1.prediction_probs, sample_ids=run1.prediction_ids, temperature_used=1.0
    )

    scores = mix_scores(previous, teacher_target)
    run2 = _single_run(
        config,
        source,
        target,
        run_tag="run2",
        fraction=config.v2_fraction_second,
        scores_override=scores,
        episode_offset=config.episodes,
        teachers=teachers,
    )
    run2.metrics = run1.metrics + run2.metrics
    run2.first_run = run1
    return run2


def run(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> RunResult:
    """Dispatch on the scheme; see the module docstring for the catalogue."""
    config.validate(n_classes=source.n_classes)
    check_pair(source, target)
    if config.scheme == "v1":
        return _single_run(config, source, target)
    if config.scheme == "v2":
        return run_v2(config, source, target)
    if config.scheme == "weak_only":
        effective = replace(config, expansion_fraction=0.0)
        return _single_run(effective, source, target)
    if config.scheme == "cdan_only":
        effective = replace(config, expansion_fraction=0.0, w_kd=0.0)
        return _single_run(effective, source, target)
    if config.scheme == "zeroshot_only":
        return _zeroshot_only(config, source, target)
    raise ConfigInvalidError(f"unhandled scheme {config.scheme!r}")
