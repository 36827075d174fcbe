"""swguide benchmark: end-to-end and per-layer metrics of three CLI workloads.

Run from the repository root:

    python3 bench/run.py --workload train_small --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 30      # every workload, one table
    python3 bench/run.py --smoke                          # minimal sizes, self-check
    python3 bench/run.py --record 0-15,100                # re-record reference digests

Each run starts child processes (``child.py``) with one BLAS thread pinned:
a few that only set up, to time set-up, then one that sets up and runs
passes of the workload for ``--seconds``.  The last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from child import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up samples per run: set-up-only children until at least SETUPS_MIN - 1 and, while
# they took under SETUP_BUDGET_S in all, up to SETUPS_MAX - 1; the measuring child is the last.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 9, 3.0
RUN_LIMIT_S = 170.0
WORK_ROOT = ".bench_work"
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = "BENCHMARK.json"
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("target_acc", "fraction"))


class BenchError(Exception):
    """A child failed to start, set up, or finish in time."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], deadline: float) -> float:
    """Start ``child.py``; return seconds from start to its ``ready`` line once it exits."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    killer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child {' '.join(args[:4])} exited with {proc.returncode}")
    return ready


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, reference: str | None = REFERENCE) -> dict:
    """Set up several times, run the workload's passes, return the child's result."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    try:
        setups: list[float] = []
        while len(setups) < SETUPS_MIN - 1 or (
            len(setups) < SETUPS_MAX - 1 and sum(setups) < SETUP_BUDGET_S
        ):
            setup_work = os.path.join(work, f"setup{len(setups)}")
            setups.append(run_child(common + ["--work", setup_work, "--setup-only"], deadline))
            shutil.rmtree(setup_work)
        result_path = os.path.join(work, "result.json")
        args = common + ["--work", os.path.join(work, "main"), "--result", result_path,
                         "--seconds", str(seconds), "--trace", str(trace)]
        if reference and os.path.isfile(reference):
            args += ["--reference", reference]
        setups.append(run_child(args, deadline))
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_if_empty(WORK_ROOT)
    result["setups_s"] = setups
    return result


def _remove_if_empty(path: str):
    try:
        os.rmdir(path)
    except OSError:
        pass


# -- statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    got = tail(values)
    if got:
        out[f"p{got[0]}"] = got[1]
    return out


def timed(result: dict) -> list[dict]:
    """The passes that count for timings: neither the warm-up nor traced."""
    return [p for p in result["passes"] if not p["warmup"] and not p["traced"]]


def job_walls(result: dict) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for p in timed(result):
        for job in p["jobs"]:
            walls.setdefault(job["label"], []).append(job["wall_s"])
    return walls


def counts(result: dict) -> tuple[int, int, list[str]]:
    jobs = [job for p in result["passes"] for job in p["jobs"]]
    problems = [msg for job in jobs for msg in job["problems"]]
    return len(jobs), sum(1 for job in jobs if job["problems"]), problems


def end_to_end(result: dict) -> dict[str, float]:
    passes = timed(result)
    return {
        "setup_s": statistics.median(result["setups_s"]),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "target_acc": statistics.median(p["target_acc"] for p in passes),
    }


def per_layer(result: dict) -> dict[str, float]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = timed(result)
    metrics = spans.median_metrics([p["layer"] for p in traced])
    traced_s = statistics.median(p["wall_s"] for p in traced)
    metrics["trace_overhead_frac"] = traced_s / statistics.median(p["wall_s"] for p in plain) - 1.0
    return metrics


def report_metrics(result: dict) -> list[tuple[str, str, dict]]:
    """Every end-to-end metric of the workload, named by job: (name, unit, summary)."""
    rows = [("setup_s", "s", summary(result["setups_s"])),
            ("pass_s", "s", summary([p["wall_s"] for p in timed(result)])),
            ("first_pass_s", "s", {"value": result["passes"][0]["wall_s"]})]
    jobs = {job["label"]: job for job in result["passes"][0]["jobs"]}
    for label, walls in job_walls(result).items():
        kind = jobs[label]["kind"]
        if kind == "train":
            rows.append((f"run_s.{label}", "s", summary(walls)))
        elif kind == "eval":
            rows.append(("eval_s", "s", summary(walls)))
        else:
            runs = jobs[label]["runs"]
            rows.append(("sweep_runs_per_min", "runs/min", summary([60 * runs / w for w in walls])))
    attempted, failed, _ = counts(result)
    rows += [
        ("peak_rss_mb", "MB", {"value": result["peak_rss_mb"]}),
        ("target_acc", "fraction", summary([p["target_acc"] for p in timed(result)])),
        ("failed_frac", "fraction", {"value": failed / attempted, "base": f"{attempted} jobs"}),
    ]
    return rows


# -- output -----------------------------------------------------------------------


def report(name: str, seed: int, result: dict, trace: int) -> list[str]:
    env = result["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    lines = [
        f"# workload={name} seed={seed} passes={len(result['passes'])} trace={trace}",
        f"# env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
        f"({env['blas_config']}), nproc {env['nproc']}, {threads}",
        f"# reference digests: {result['reference']}",
    ]
    for metric, unit, values in report_metrics(result):
        fields = " ".join(f"{k}={v}" for k, v in values.items())
        lines.append(f"{metric:<20} {unit:<9} {fields}")
    if trace:
        traced = [p for p in result["passes"] if p["traced"]]
        lines.append("# spans of the last traced pass, by self time:")
        lines += traced[-1]["spans"]
        if traced[-1]["absent"]:
            gone = ", ".join(traced[-1]["absent"])
            lines.append(f"# absent (function or attribute gone): {gone}")
        for metric, value in sorted(per_layer(result).items()):
            lines.append(f"{metric:<34} {spans.UNITS[metric]:<9} {value}")
    _, _, problems = counts(result)
    lines += [f"# FAILED: {msg}" for msg in problems[:20]]
    return lines


def contract_line(result: dict, trace: int) -> dict:
    attempted, failed, _ = counts(result)
    if trace:
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in per_layer(result).items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end(result).items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- modes --------------------------------------------------------------------------


# Per-job end-to-end metrics each workload's report must print, besides the common ones.
REPORTED = {
    "train_small": {"run_s.v1", "run_s.v2", "run_s.cdan_only", "eval_s"},
    "train_large": {"run_s.v1", "eval_s"},
    "sweep": {"sweep_runs_per_min", "eval_s"},
}
REPORTED_ALL = {"setup_s", "pass_s", "peak_rss_mb", "target_acc", "failed_frac"}


def smoke() -> int:
    """Run every workload at minimal size, traced and not; check what is printed."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 0, 0.0, trace, smoke=True, reference=None)
            line = contract_line(result, trace)
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from {BENCHMARK_JSON}: "
                                f"{sorted(set(printed) ^ set(wanted[trace]))}")
            if line["failed"]:
                problems.append(f"{name} trace={trace}: {counts(result)[2]}")
            rows = {metric: (unit, values) for metric, unit, values in report_metrics(result)}
            missing = (REPORTED[name] | REPORTED_ALL) - {m for m, (unit, _) in rows.items() if unit}
            if missing:
                problems.append(f"{name}: report lacks {sorted(missing)}")
            if rows["failed_frac"][1]["value"] != 0:
                problems.append(f"{name} trace={trace}: failed_frac is not 0")
            print(f"smoke {name} trace={trace}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} jobs, {line['failed']} failed", flush=True)
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    return 1 if problems else 0


def parse_seeds(raw: str) -> list[int]:
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(seeds: list[int], held_back: int) -> int:
    """Run one pass per workload and seed and write their digests to reference.json."""
    digests: dict[str, dict[str, dict]] = {}
    platform = None
    for name in WORKLOADS:
        for seed in seeds:
            result = run_workload(name, seed, 0.0, 0, reference=None)
            attempted, failed, problems = counts(result)
            if failed:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            platform = result["platform"]
            first = result["passes"][0]["jobs"]
            digests.setdefault(name, {})[str(seed)] = {
                key: value for job in first for key, value in job["digests"].items()
            }
            print(f"recorded {name} seed {seed}", flush=True)
    reference = {
        "about": "SHA-256 of each job's predictions.txt, checkpoint.txt and metrics.txt, "
                 "by workload and seed; compared only on the same platform.",
        "held_back_seed": held_back,
        "platform": platform,
        "digests": digests,
    }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print each report")
    parser.add_argument("--smoke", action="store_true", help="minimal sizes; check the output")
    parser.add_argument("--record", metavar="SEEDS",
                        help="re-record digests, e.g. 0-15,100; the last seed is the held-back one")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "swguide", "__init__.py")):
        print("error: run from the repository root; src/swguide is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record:
            seeds = parse_seeds(args.record)
            return record(seeds, held_back=seeds[-1])
        names = sorted(WORKLOADS) if args.all else [args.workload]
        if names == [None]:
            parser.error("give --workload, --all, --smoke or --record")
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(report(name, args.seed, result, args.trace)))
            print(json.dumps(contract_line(result, args.trace)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
