"""Command-line interface: dataset generation, calibration, training,
sweeps, and checkpoint evaluation.

Every command echoes its full effective configuration to stdout before
any result line, so a printed run is reproducible from its own output.
Train-style commands accept a flat ``key=value`` config file plus
per-field flags; flags override file keys, and unknown keys are errors.
They echo the configuration only after it passes the checks that need no
data, so a rejected configuration is never printed as if accepted.
"""

from __future__ import annotations

import argparse
import inspect
import multiprocessing
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .calibration import DEFAULT_TAU, solve_temperature
from .data import (
    SyntheticSpec,
    _text_lines,
    _write_lines,
    make_benchmark,
    read_array_file,
    read_dataset,
    write_array_file,
    write_dataset,
    write_metrics,
    write_predictions,
)
from .errors import ConfigInvalidError, GuidanceError
from .model import params_from_named
from .trainer import RunResult, TrainConfig, evaluate, run

_CONFIG_FIELDS = {f.name: f for f in fields(TrainConfig)}
# Largest accepted sweep --jobs.  Each worker is a forked process with its own
# copy of the datasets, and sweeps run at most a few dozen tasks, so the bound
# only stops a mistyped count from asking the system for that many processes.
MAX_JOBS = 256


def _parse_config_value(name: str, raw: str):
    if name not in _CONFIG_FIELDS:
        raise ConfigInvalidError(f"unknown config key {name!r}")
    if name == "tau" and raw.lower() == "none":
        return None
    kind = type(_CONFIG_FIELDS[name].default)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigInvalidError(
            f"bad value {raw!r} for {name} (--{name.replace('_', '-')}): "
            f"expected {kind.__name__}"
        ) from None


def read_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(_text_lines(handle, path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigInvalidError(
                    f"{path}: line {line_number} is not key=value: {line!r}"
                )
            values[key.strip()] = _parse_config_value(key.strip(), raw.strip())
    return values


def config_to_lines(config: TrainConfig) -> list[str]:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name}={'none' if value is None else value}")
    return lines


def _add_train_config_flags(parser: argparse.ArgumentParser):
    for f in fields(TrainConfig):
        parser.add_argument(
            f"--{f.name.replace('_', '-')}", dest=f.name, default=None, metavar="V"
        )


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_config_value(name, str(raw))
    return TrainConfig(**values)


def _echo_config(config: TrainConfig):
    print("# config")
    for line in config_to_lines(config):
        print(line)


def summary_line(result: RunResult) -> str:
    return (
        f"scheme={result.scheme} seed={result.seed} "
        f"accuracy={result.accuracy!r} T={result.temperature!r} "
        f"fraction={result.fraction!r}"
    )


def write_run_artifacts(out_dir, config: TrainConfig, result: RunResult):
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "config.txt"), config_to_lines(config))
    write_metrics(os.path.join(out_dir, "metrics.txt"), result.metrics)
    write_array_file(
        os.path.join(out_dir, "checkpoint.txt"), result.params.named_arrays()
    )
    write_predictions(
        os.path.join(out_dir, "predictions.txt"),
        result.prediction_ids,
        result.prediction_probs,
    )
    if result.first_run is not None:
        write_predictions(
            os.path.join(out_dir, "predictions_run1.txt"),
            result.first_run.prediction_ids,
            result.first_run.prediction_probs,
        )
    _write_lines(os.path.join(out_dir, "summary.txt"), [summary_line(result)])


def _train_job(config: TrainConfig, source_path, target_path, out_dir) -> RunResult:
    """Read both datasets, run the configured scheme, write its artifacts."""
    result = run(config, read_dataset(source_path), read_dataset(target_path))
    if out_dir:
        write_run_artifacts(out_dir, config, result)
    return result


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# gen's settings (``--feature-dim`` sets ``feature_dim``) and the
# ``SyntheticSpec.standard`` parameters they fill; each flag's type and
# default are that parameter's.
_GEN_SETTINGS = (
    ("seed", "seed"),
    ("classes", "n_classes"),
    ("feature_dim", "feature_dim"),
    ("per_class", "per_class"),
    ("mean_scale", "mean_scale"),
    ("class_std", "class_std"),
    ("shift", "shift_magnitude"),
    ("rotation", "rotation"),
    ("noise", "noise_scale"),
    ("class_angle", "class_angle"),
    ("oracle_sharpness", "oracle_sharpness"),
)


def _cmd_gen(args) -> int:
    spec = SyntheticSpec.standard(
        **{param: getattr(args, key) for key, param in _GEN_SETTINGS}
    )
    source, target = make_benchmark(spec)
    write_dataset(args.out_source, source)
    write_dataset(args.out_target, target)
    oracle = float(
        (target.zeroshot.argmax(axis=1) == target.labels).mean()
    )
    print("# config")
    print(" ".join(f"{key}={getattr(args, key)}" for key, _ in _GEN_SETTINGS))
    print("# result")
    print(f"source={args.out_source} n={len(source)}")
    print(f"target={args.out_target} n={len(target)}")
    print(f"target_oracle_accuracy={oracle!r}")
    return 0


def _cmd_calibrate(args) -> int:
    if not 0.0 < args.tau < 1.0:
        raise ConfigInvalidError(f"--tau must lie in (0, 1), got {args.tau}")
    source = read_dataset(args.source)
    target = read_dataset(args.target)
    result = solve_temperature(source.zeroshot, target.zeroshot, args.tau)
    print(f"T={result.temperature:.6f}")
    print(f"achieved_mean={result.achieved_mean:.6f}")
    print(f"iterations={result.iterations}")
    return 0


def _cmd_train(args) -> int:
    config = build_train_config(args)
    config.validate()
    _echo_config(config)
    result = _train_job(config, args.source, args.target, args.out)
    print("# result")
    print(summary_line(result))
    return 0


def _run_one(task) -> tuple[str, float]:
    """Worker for sweep commands: one (label, config, paths) training run."""
    label, config, source_path, target_path, out_dir = task
    return label, _train_job(config, source_path, target_path, out_dir).accuracy


def _run_sweep(tasks, jobs: int) -> list[tuple[str, float]]:
    workers = min(jobs, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            # One task at a time: tasks differ in length, and the default
            # chunks of two leave one worker idle while the other finishes.
            return pool.map(_run_one, tasks, chunksize=1)
    return [_run_one(task) for task in tasks]


def _parse_list(flag: str, raw: str, parse, key=lambda value: value) -> list:
    """``parse`` of each stripped entry of a comma-separated ``--flag`` value.
    Two entries with equal ``key`` would train the same runs into one
    directory, so they are an error."""
    try:
        values = [parse(v.strip()) for v in raw.split(",") if v != ""]
    except ValueError:
        raise ConfigInvalidError(f"bad value {raw!r} for --{flag}") from None
    if not values:
        raise ConfigInvalidError(f"--{flag} needs at least one value, got {raw!r}")
    keys = [key(value) for value in values]
    if any(k in keys[:i] for i, k in enumerate(keys)):
        raise ConfigInvalidError(f"--{flag} repeats a value: {raw!r}")
    return values


def _sweep_table(pairs, key: str) -> list[str]:
    """Mean accuracy per swept value, in the order the values were given."""
    by_value: dict[str, list[float]] = {}
    for label, accuracy in pairs:
        by_value.setdefault(label, []).append(accuracy)
    lines = []
    for label, accs in by_value.items():
        lines.append(
            f"{key}={label} accuracy={float(np.mean(accs))!r} n_seeds={len(accs)}"
        )
    return lines


def _sweep(args, flag: str, key: str, setting) -> int:
    """Train every (swept value, seed) pair and print mean accuracy per value.

    ``setting`` maps one entry of ``--flag`` to its table label and the
    config fields it overrides; runs go to ``OUT/{key}_{label}/seed_{seed}``.
    """
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ConfigInvalidError(f"--jobs must lie in [1, {MAX_JOBS}], got {args.jobs}")
    config = build_train_config(args)
    settings = _parse_list(
        flag, getattr(args, flag), setting, key=lambda labelled: labelled[1]
    )
    seeds = _parse_list("seeds", args.seeds, int)
    tasks = []
    for label, overrides in settings:
        for seed in seeds:
            cfg = replace(config, seed=seed, **overrides)
            cfg.validate()
            out_dir = (
                os.path.join(args.out, f"{key}_{label}", f"seed_{seed}")
                if args.out
                else None
            )
            tasks.append((label, cfg, args.source, args.target, out_dir))
    _echo_config(config)
    pairs = _run_sweep(tasks, args.jobs)
    print("# result")
    lines = _sweep_table(pairs, key)
    for line in lines:
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "table.txt"), lines)
    return 0


def _fraction_setting(token: str):
    fraction = float(token)
    return str(fraction), {"scheme": "v1", "expansion_fraction": fraction}


def _tau_setting(token: str):
    return token, {"tau": None if token.lower() == "none" else float(token)}


def _cmd_sweep_expansion(args) -> int:
    return _sweep(args, "fractions", "fraction", _fraction_setting)


def _cmd_sweep_tau(args) -> int:
    return _sweep(args, "taus", "tau", _tau_setting)


def _cmd_eval(args) -> int:
    params = params_from_named(read_array_file(args.checkpoint))
    dataset = read_dataset(args.dataset)
    accuracy = evaluate(params, dataset)
    print(f"accuracy={accuracy!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swguide",
        description="Strong-weak guidance experiments on synthetic domain shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic source/target pair")
    gen.add_argument("--out-source", required=True)
    gen.add_argument("--out-target", required=True)
    standard = inspect.signature(SyntheticSpec.standard).parameters
    for key, param in _GEN_SETTINGS:
        default = standard[param].default
        gen.add_argument(f"--{key.replace('_', '-')}", type=type(default), default=default)
    gen.set_defaults(func=_cmd_gen)

    cal = sub.add_parser("calibrate", help="solve the soft-label temperature")
    cal.add_argument("--source", required=True)
    cal.add_argument("--target", required=True)
    cal.add_argument("--tau", type=float, default=DEFAULT_TAU)
    cal.set_defaults(func=_cmd_calibrate)

    train = sub.add_parser("train", help="run one training scheme end to end")
    train.add_argument("--source", required=True)
    train.add_argument("--target", required=True)
    train.add_argument("--config", default=None, help="key=value config file")
    train.add_argument("--out", default=None, help="artifact directory")
    _add_train_config_flags(train)
    train.set_defaults(func=_cmd_train)

    swe = sub.add_parser("sweep-expansion", help="accuracy per expansion fraction")
    swe.add_argument("--source", required=True)
    swe.add_argument("--target", required=True)
    swe.add_argument("--config", default=None)
    swe.add_argument("--out", default=None)
    swe.add_argument("--fractions", required=True, help="comma-separated fractions")
    swe.add_argument("--seeds", default="0", help="comma-separated seeds")
    swe.add_argument("--jobs", type=int, default=1)
    _add_train_config_flags(swe)
    swe.set_defaults(func=_cmd_sweep_expansion)

    swt = sub.add_parser("sweep-tau", help="accuracy per calibration target")
    swt.add_argument("--source", required=True)
    swt.add_argument("--target", required=True)
    swt.add_argument("--config", default=None)
    swt.add_argument("--out", default=None)
    swt.add_argument("--taus", required=True, help="comma-separated taus, 'none' allowed")
    swt.add_argument("--seeds", default="0", help="comma-separated seeds")
    swt.add_argument("--jobs", type=int, default=1)
    _add_train_config_flags(swt)
    swt.set_defaults(func=_cmd_sweep_tau)

    ev = sub.add_parser("eval", help="accuracy of a checkpoint on a labeled dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuidanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
