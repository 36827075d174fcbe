#!/usr/bin/env python3
"""Sweep the expansion fraction and the calibration target on the benchmark.

Two experiments over the same seeds:

  1. expansion fraction in {0, 0.25, 0.5, 0.75, 1} — how much confident
     target data to copy into the source set (0 disables the copying,
     1 copies everything regardless of confidence);
  2. calibration target tau in {none, 0.7, 0.8, 0.9, 0.95} — none skips
     temperature solving and distills from the raw T=1 softmax.

Each prints mean target accuracy per setting, averaged over the seeds.

    python3 scripts/run_ablations.py --seeds 0-4
"""

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from run_benchmark import parse_seeds
from swguide.data import SyntheticSpec, make_benchmark
from swguide.trainer import TrainConfig, run

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
TAUS = (None, 0.7, 0.8, 0.9, 0.95)


def sweep(benchmarks, configs, label, key):
    print(f"# {label}")
    print(f"{key:>10}  {'mean_acc':>9}  per-seed")
    for setting, config in configs:
        accs = [
            run(replace(config, seed=seed), source, target).accuracy
            for seed, (source, target) in benchmarks.items()
        ]
        per_seed = " ".join(f"{a:.3f}" for a in accs)
        print(f"{setting:>10}  {np.mean(accs):>9.4f}  {per_seed}", flush=True)
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-4", help="range 0-4 or list 0,2,5")
    parser.add_argument("--episodes", type=int, default=25)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    benchmarks = {
        seed: make_benchmark(SyntheticSpec.standard(seed=seed)) for seed in seeds
    }
    base = TrainConfig(episodes=args.episodes)
    start = time.time()

    sweep(
        benchmarks,
        [(f"{f:g}", replace(base, expansion_fraction=f)) for f in FRACTIONS],
        "expansion fraction sweep (scheme v1, tau 0.9)",
        "fraction",
    )
    sweep(
        benchmarks,
        [("none" if t is None else f"{t:g}", replace(base, tau=t)) for t in TAUS],
        "calibration target sweep (scheme v1, fraction 0.5)",
        "tau",
    )
    print(f"# total {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
