#!/usr/bin/env python3
"""Compare all training schemes on the standard synthetic benchmark.

For every seed the script generates the benchmark pair, reports the
zero-shot oracle's target accuracy, trains each scheme, and prints a
per-seed table plus per-scheme means.  Expect roughly ten seconds per
seed with the default episode count.

    python3 scripts/run_benchmark.py --seeds 0-4
    python3 scripts/run_benchmark.py --seeds 0,3,7 --episodes 10 --out runs/
"""

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from swguide.cli import write_run_artifacts
from swguide.data import SyntheticSpec, make_benchmark
from swguide.trainer import SCHEMES, TrainConfig, run


def parse_seeds(raw: str) -> list[int]:
    """The --seeds value: a range "0-4" or a list "0,2,5", never empty."""
    try:
        if "-" in raw:
            lo, hi = raw.split("-", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {raw!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {raw!r}")
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=parse_seeds, default="0-4", help="range 0-4 or list 0,2,5"
    )
    parser.add_argument("--episodes", type=int, default=25)
    parser.add_argument("--tau", type=float, default=0.9)
    parser.add_argument("--fraction", type=float, default=0.5)
    parser.add_argument("--out", default=None, help="directory for run artifacts")
    args = parser.parse_args()

    base = TrainConfig(
        episodes=args.episodes, tau=args.tau, expansion_fraction=args.fraction
    )

    header = ["seed", "oracle"] + list(SCHEMES)
    print("  ".join(f"{name:>13}" for name in header))
    accs: dict[str, list[float]] = {scheme: [] for scheme in SCHEMES}
    start = time.time()
    for seed in args.seeds:
        spec = SyntheticSpec.standard(seed=seed)
        source, target = make_benchmark(spec)
        oracle = float((target.zeroshot.argmax(axis=1) == target.labels).mean())
        row = [f"{seed:>13}", f"{oracle:>13.3f}"]
        for scheme in SCHEMES:
            config = replace(base, scheme=scheme, seed=seed)
            result = run(config, source, target)
            accs[scheme].append(result.accuracy)
            row.append(f"{result.accuracy:>13.3f}")
            if args.out:
                out_dir = os.path.join(args.out, scheme, f"seed_{seed}")
                write_run_artifacts(out_dir, config, result)
        print("  ".join(row), flush=True)

    means = ["         mean", "             "] + [
        f"{np.mean(accs[scheme]):>13.3f}" for scheme in SCHEMES
    ]
    print("  ".join(means))
    print(f"# {len(args.seeds)} seeds x {len(SCHEMES)} schemes in {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
