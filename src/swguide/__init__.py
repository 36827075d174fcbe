"""Strong-weak guidance for unsupervised domain adaptation, desk scale.

Zero-shot class scores steer a small adversarially-aligned classifier in
two ways: a *strong* path that promotes the most confident target samples
into the source set with hard pseudo-labels, and a *weak* path that
distills every prediction toward temperature-calibrated soft labels.
Everything — including reverse-mode differentiation — runs on numpy.
"""

from .calibration import (
    DEFAULT_TAU,
    CalibrationResult,
    SoftLabelSet,
    mean_winning_probability,
    sharpen,
    solve_temperature,
)
from .data import (
    DomainDataset,
    EpisodeMetrics,
    SyntheticSpec,
    generate,
    make_benchmark,
    read_dataset,
    rng_for,
    simulate_zeroshot,
    write_dataset,
)
from .expansion import (
    ExpansionSelection,
    expand_dataset,
    mix_scores,
    select_pseudo_source,
)
from .model import ModelParams, NormLayerState, forward, init_params
from .norm_adapt import adapt_model, adjust_params, estimate_stats
from .trainer import RunResult, TrainConfig, evaluate, run

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TAU",
    "CalibrationResult",
    "SoftLabelSet",
    "mean_winning_probability",
    "sharpen",
    "solve_temperature",
    "DomainDataset",
    "EpisodeMetrics",
    "SyntheticSpec",
    "generate",
    "make_benchmark",
    "read_dataset",
    "rng_for",
    "simulate_zeroshot",
    "write_dataset",
    "ExpansionSelection",
    "expand_dataset",
    "mix_scores",
    "select_pseudo_source",
    "ModelParams",
    "NormLayerState",
    "forward",
    "init_params",
    "adapt_model",
    "adjust_params",
    "estimate_stats",
    "RunResult",
    "TrainConfig",
    "evaluate",
    "run",
]
