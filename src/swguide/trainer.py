"""Orchestration of a full strong-weak guidance run.

Pipeline per run: calibrate the zero-shot scores → sharpen into soft
teachers → select and append pseudo-source samples → adapt norm layers
per domain → episodic mini-batch training on classification +
distillation + adversarial losses → per-episode target evaluation.

The objective is the unweighted sum CE + KD + CDAN adversarial loss, but
for ``w_kd`` on KD (``cdan_only`` sets it to 0).  Pseudo-source rows count
as source data everywhere, for the discriminator too.

Schemes:
    v1             one run at the configured expansion fraction
    v2             two runs at the V2_FRACTIONS expansion (1/3, then 2/3);
                   the second run mixes the first run's predictions into
                   the scores and restarts from fresh parameters
    weak_only      v1 with expansion fraction 0
    cdan_only      weak_only with the distillation term removed
    zeroshot_only  no training; the zero-shot argmax is the prediction

Every random draw flows through a named stream of the master seed, so a
given (config, datasets) pair always produces identical artifacts.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .calibration import SoftLabelSet, sharpen, solve_temperature
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
V2_FRACTIONS = (1.0 / 3.0, 2.0 / 3.0)
# Largest accepted batch_size.  Runs use at most 512; the bound stops a
# mistyped size before a step allocates arrays that cannot fit in memory.
MAX_BATCH_SIZE = 65536
LAMBDA_MODES = ("fixed", "ramp")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs beyond the datasets themselves."""

    scheme: str = "v1"
    tau: float | None = 0.9  # None: teachers are the raw T=1 softmax
    expansion_fraction: float = 0.5
    episodes: int = 25
    batch_size: int = 32
    lr_extractor: float = 5e-4
    lr_heads: float = 5e-3
    lambda_mode: str = "fixed"
    lambda_value: float = 1.0
    augment_noise: float = 0.1
    selection_policy: str = "class_balanced"
    seed: int = 0
    w_kd: float = 1.0
    hidden_dim: int = 64
    disc_hidden: int = 64

    def validate(self, n_classes: int | None = None):
        # A field with an int default takes ints, one with a float default
        # real numbers; bools are neither, and only tau may be None.
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            if value is None and f.name == "tau":
                continue
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if kind is int and not (real and isinstance(value, int)):
                raise ConfigInvalidError(f"{f.name} must be an integer, got {value!r}")
            if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
                # math.isfinite would overflow, and repr may exceed the digit limit.
                raise ConfigInvalidError(
                    f"{f.name} must fit a float, got an integer of {value.bit_length()} bits"
                )
            if kind is float and not (real and math.isfinite(value)):
                raise ConfigInvalidError(f"{f.name} must be a finite number, got {value!r}")
        if self.scheme not in SCHEMES:
            raise ConfigInvalidError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.tau is not None:
            if not (0.0 < self.tau < 1.0):
                raise ConfigInvalidError(f"tau must lie in (0, 1), got {self.tau}")
            if n_classes is not None and self.tau <= 1.0 / n_classes:
                raise ConfigInvalidError(
                    f"tau must exceed 1/K = {1.0 / n_classes:.4f}, got {self.tau}"
                )
        if not (0.0 <= self.expansion_fraction <= 1.0):
            raise ConfigInvalidError(f"expansion_fraction must lie in [0, 1], got "
                                     f"{self.expansion_fraction}")
        if self.seed < 0:
            raise ConfigInvalidError(f"seed must be >= 0, got {self.seed}")
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
        if self.w_kd < 0.0:
            raise ConfigInvalidError(f"w_kd must be >= 0, got {self.w_kd}")
        if self.hidden_dim < 1 or self.disc_hidden < 1:
            raise ConfigInvalidError("layer widths must be >= 1")


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


def _evaluation_labels(target: DomainDataset) -> np.ndarray:
    """The target's labels; UnlabeledError unless every sample has one."""
    if len(target) == 0:
        raise UnlabeledError("cannot evaluate on an empty dataset")
    if (target.labels < 0).any():
        raise UnlabeledError("evaluation needs ground-truth labels for every sample")
    return target.labels


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float((probs.argmax(axis=1) == labels).mean())


def evaluate(params: ModelParams, target: DomainDataset) -> float:
    """Fraction of target samples whose argmax prediction is correct."""
    labels = _evaluation_labels(target)
    return _accuracy(predict_target(params, target), labels)


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
    if config.tau is None:
        temperature = 1.0
    else:
        temperature = solve_temperature(source.zeroshot, target.zeroshot, config.tau).temperature
    teacher_source = sharpen(source.zeroshot, source.sample_ids, temperature)
    teacher_target = sharpen(target.zeroshot, target.sample_ids, temperature)
    return temperature, teacher_source, teacher_target


def _untrained_params(config: TrainConfig, source: DomainDataset, run_tag: str) -> ModelParams:
    """The seeded model a run starts from, before norm adaptation."""
    return init_params(
        rng_for(config.seed, "init", run_tag),
        input_dim=source.feature_dim,
        n_classes=source.n_classes,
        hidden_dim=config.hidden_dim,
        disc_hidden=config.disc_hidden,
    )


def _single_run(
    config: TrainConfig,
    source: DomainDataset,
    target: DomainDataset,
    teachers: tuple[float, SoftLabelSet, SoftLabelSet],
    fraction: float,
    scores: np.ndarray,
    run_tag: str,
    episode_offset: int,
) -> RunResult:
    """One expand → adapt → train cycle; the heart of every trained scheme.

    ``teachers`` is :func:`build_teachers`'s result for these inputs, and
    ``scores`` an (n_target, K) matrix, row-aligned with ``target``, that
    ranks the target rows for expansion at ``fraction``.
    """
    temperature, teacher_source, teacher_target = teachers
    target_train = target.without_labels()
    selection = select_pseudo_source(
        scores, target.sample_ids, fraction, config.selection_policy
    )
    expanded = expand_dataset(source, target_train, selection)

    params = _untrained_params(config, source, run_tag)
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
    # rows with the indices that gather features.
    teacher_src = np.concatenate(
        [teacher_source.probs, teacher_target.probs[selection.rows]], axis=0
    )
    teacher_tgt = teacher_target.probs

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
    # Pseudo-source rows are source data, so ``source_rows`` is also the
    # discriminator's domain labels.
    ce_mask = np.array(([True] * src_half + [False] * tgt_half) * 2)
    source_rows = ce_mask.astype(np.float64).reshape(-1, 1)
    domain_masks = {"source": source_rows, "target": 1.0 - source_rows}
    tgt_blank = np.full(tgt_half, -1, dtype=np.int64)

    labels = _evaluation_labels(target)
    metrics: list[EpisodeMetrics] = []
    for episode in range(config.episodes):
        step_ce, step_kd, step_ad = [], [], []
        for _ in range(steps_per_episode):
            src_idx = src_stream.take(src_half)
            tgt_idx = tgt_stream.take(tgt_half)
            noise = aug_rng.standard_normal(
                (src_half + tgt_half, source.feature_dim)
            ) * config.augment_noise

            x = np.concatenate([expanded.features[src_idx], target_train.features[tgt_idx]])
            batch_x = np.concatenate([x, x + noise])
            labels_x = np.concatenate([expanded.labels[src_idx], tgt_blank])
            batch_labels = np.concatenate([labels_x, labels_x])
            teacher_x = np.concatenate([teacher_src[src_idx], teacher_tgt[tgt_idx]])
            teacher_rows = np.concatenate([teacher_x, teacher_x])

            l_ce, l_kd, l_ad = _train_step(
                config, params, grad, optimizer, batch_x, batch_labels, ce_mask,
                domain_masks, teacher_rows, source_rows,
                lambda_at(config, global_step, total_steps),
            )
            step_ce.append(l_ce)
            step_kd.append(l_kd)
            step_ad.append(l_ad)
            global_step += 1

        # The last episode's probabilities are the run's predictions.
        probs = predict_target(params, target)
        accuracy = _accuracy(probs, labels)
        metrics.append(
            EpisodeMetrics(
                episode=episode_offset + episode,
                l_ce=float(np.mean(step_ce)),
                l_kd=float(np.mean(step_kd)),
                l_ad=float(np.mean(step_ad)),
                target_accuracy=accuracy,
            )
        )

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


def _train_step(
    config: TrainConfig,
    params: ModelParams,
    grad: np.ndarray,
    optimizer: Adam,
    batch_x: np.ndarray,
    batch_labels: np.ndarray,
    ce_mask: np.ndarray,
    domain_masks: dict,
    teacher_rows: np.ndarray,
    domain_labels: np.ndarray,
    lam: float,
) -> tuple[float, float, float]:
    """One optimizer step on one batch; returns its (ce, kd, adversarial)
    loss values.  The step's tape lives only in this frame, so it is freed
    as soon as the step returns."""
    tape = ad.Tape()
    grad.fill(0.0)
    nodes = lift(tape, params, grad)
    x = tape.leaf(batch_x)
    features, _, probs = forward_on_tape(nodes, params, x, domain_masks)

    total = classification_loss_node(probs, batch_labels, ce_mask)
    l_ce = float(total.value[0, 0])
    l_kd = 0.0
    if config.w_kd > 0.0:
        kd_node = kd_loss_node(probs, teacher_rows)
        l_kd = float(kd_node.value[0, 0])
        total = ad.add(total, kd_node if config.w_kd == 1.0 else ad.scale(kd_node, config.w_kd))
    joint = ad.outer_rows(features, probs)
    d_hat = discriminate_on_tape(nodes, joint, lam)
    ad_node = adversarial_loss_node(d_hat, domain_labels)
    l_ad = float(ad_node.value[0, 0])
    total = ad.add(total, ad_node)
    ad.backward(tape, total)
    optimizer.step(grad)
    return l_ce, l_kd, l_ad


def _zeroshot_only(config, source, target) -> RunResult:
    labels = _evaluation_labels(target)
    probs = ad.stable_softmax(target.zeroshot, 1.0)
    accuracy = _accuracy(probs, labels)
    return RunResult(
        params=_untrained_params(config, source, "run1"),
        metrics=[EpisodeMetrics(0, 0.0, 0.0, 0.0, accuracy)],
        prediction_ids=target.sample_ids,
        prediction_probs=probs,
        temperature=1.0,
        fraction=0.0,
        accuracy=accuracy,
        scheme=config.scheme,
        seed=config.seed,
    )


def run(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> RunResult:
    """Check the inputs, then run the scheme; see the module docstring for
    the catalogue.  The only library entry point that trains."""
    config.validate(n_classes=source.n_classes)
    check_pair(source, target)
    if config.scheme == "zeroshot_only":
        return _zeroshot_only(config, source, target)
    if config.scheme == "weak_only":
        config = replace(config, expansion_fraction=0.0)
    elif config.scheme == "cdan_only":
        config = replace(config, expansion_fraction=0.0, w_kd=0.0)
    teachers = build_teachers(config, source, target)
    teacher_target = teachers[2]
    if config.scheme != "v2":
        return _single_run(config, source, target, teachers, config.expansion_fraction,
                           teacher_target.probs, "run1", 0)
    # v2: run 1's predictions, mixed with the target teacher, re-rank the
    # target rows for run 2, which restarts from fresh parameters.
    run1 = _single_run(config, source, target, teachers, V2_FRACTIONS[0],
                       teacher_target.probs, "run1", 0)
    previous = SoftLabelSet(probs=run1.prediction_probs, sample_ids=run1.prediction_ids)
    run2 = _single_run(config, source, target, teachers, V2_FRACTIONS[1],
                       mix_scores(previous, teacher_target), "run2", config.episodes)
    run2.metrics = run1.metrics + run2.metrics
    run2.first_run = run1
    return run2
