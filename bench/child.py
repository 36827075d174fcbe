"""One benchmark process: set up a workload's data, then run its passes.

Started by ``run.py`` with one BLAS thread pinned in its environment and
``src`` on its path.  It prints ``ready`` once the dataset files are
written and read back (the end of set-up), then, unless ``--setup-only``,
runs a warm-up pass and more passes back to back within ``--seconds``, and
writes what it measured to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import check
import spans
from workloads import SMOKE_WORKLOADS, WORKLOADS, argv_for, sweep_task_dirs, training_runs

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "cpu_features": _cpu_features(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _cpu_features() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    return ",".join(sorted(name for name, on in __cpu_features__.items() if on))


def platform_key(env: dict) -> dict:
    """What must match for recorded digests to be comparable."""
    return {key: env[key] for key in ("python", "numpy", "blas", "blas_config", "cpu_features")}


def run_job(cli, job, argv: list[str], out: str, labels, outs: dict, seed: int):
    """Run one CLI job and check its outputs; returns its record."""
    shutil.rmtree(out, ignore_errors=True)
    captured = io.StringIO()
    cpu_start = os.times()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the job fails; the benchmark keeps running
        traceback.print_exc()
        code = "raised"
    wall = time.perf_counter() - start
    cpu = sum(os.times()[:4]) - sum(cpu_start[:4])
    record = {"label": job.label, "kind": job.kind, "wall_s": wall, "cpu_s": cpu,
              "runs": training_runs(job, seed), "jobs": job.jobs,
              "problems": [], "digests": {}, "accuracies": []}
    if code != 0:
        record["problems"].append(f"{job.label}: exit {code}")
        return record
    try:
        _check_job(record, job, out, labels, outs, captured.getvalue(), seed)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        record["problems"].append(f"{job.label}: output check raised {exc!r}")
    return record


def _check_job(record: dict, job, out: str, labels, outs: dict, printed: str, seed: int):
    if job.kind == "train":
        _check_into(record, job.label, out, labels)
    elif job.kind == "sweep":
        for rel in sweep_task_dirs(job, seed):
            _check_into(record, f"{job.label}/{rel}", os.path.join(out, rel), labels)
        table = os.path.join(out, "table.txt")
        with open(table, "r", encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        if len(rows) != len(job.fractions):
            record["problems"].append(
                f"{table}: {len(rows)} rows for {len(job.fractions)} fractions"
            )
    else:
        accuracy = check.eval_accuracy(printed)
        expected = check.summary_accuracy(outs[job.of])
        if accuracy != expected:
            record["problems"].append(f"eval accuracy {accuracy!r} != training's {expected!r}")


def _check_into(record: dict, key: str, run_dir: str, labels):
    problems, digests, accuracy = check.check_run(run_dir, labels)
    record["problems"].extend(problems)
    record["digests"][key] = digests
    record["accuracies"].append(accuracy)


def run_pass(cli, workload, seed: int, source: str, target: str, out_root: str, labels) -> dict:
    outs: dict[str, str] = {}
    jobs = []
    for job in workload.jobs:
        out = os.path.join(out_root, job.label)
        argv = argv_for(job, seed, source, target, out, outs)
        jobs.append(run_job(cli, job, argv, out, labels, outs, seed))
        outs[job.label] = (
            os.path.join(out, sweep_task_dirs(job, seed)[-1]) if job.kind == "sweep" else out
        )
    accuracies = [acc for job in jobs for acc in job["accuracies"] if np.isfinite(acc)]
    return {
        "wall_s": sum(job["wall_s"] for job in jobs),
        "cpu_s": sum(job["cpu_s"] for job in jobs),
        "busy_base_s": sum(job["jobs"] * job["wall_s"] for job in jobs if job["runs"]),
        # A pass whose runs all failed reads 0; its jobs already count as failed.
        "target_acc": float(np.mean(accuracies)) if accuracies else 0.0,
        "jobs": jobs,
    }


def compare_digests(passes: list[dict], expected: dict | None):
    """Fail a job whose digests differ from the first pass's or the recorded ones."""
    first: dict[str, dict] = {}
    for record in (job for p in passes for job in p["jobs"]):
        for key, digests in record["digests"].items():
            want = first.setdefault(key, digests)
            if digests != want:
                record["problems"].append(f"{key}: artifacts differ from the run's first pass")
            if expected is not None and digests and digests != expected.get(key):
                record["problems"].append(f"{key}: artifacts differ from the recorded digests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for files")
    parser.add_argument("--result", help="where to write the measurements as JSON")
    parser.add_argument("--reference", help="recorded digests to compare with")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from swguide import cli, data

    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    os.makedirs(args.work, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(os.path.join(args.work, "spans"))
        os.makedirs(tracer.dump_dir, exist_ok=True)
        tracer.install()
    source = os.path.join(args.work, "source.txt")
    target = os.path.join(args.work, "target.txt")
    spec = data.SyntheticSpec.standard(seed=args.seed, per_class=workload.per_class)
    source_set, target_set = data.make_benchmark(spec)
    data.write_dataset(source, source_set)
    data.write_dataset(target, target_set)
    data.read_dataset(source)
    data.read_dataset(target)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    setup_stats = {}
    if tracer is not None:
        setup_stats = {k: v for k, v in tracer.stats.items() if k.startswith("data.")}
        tracer.uninstall()
    labels = check.read_labels(target)
    env = environment()
    expected, reference_note = None, "not recorded for this seed"
    if args.reference:
        with open(args.reference, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        recorded = reference["digests"].get(args.workload, {}).get(str(args.seed))
        if recorded is not None and reference["platform"] != platform_key(env):
            reference_note = "skipped: recorded on another platform"
        elif recorded is not None:
            expected, reference_note = recorded, "compared"

    out_root = os.path.join(args.work, "out")
    start = time.perf_counter()
    # Pass 0 warms up (allocator, caches) and is left out of the timings; traced
    # runs then alternate traced and untraced passes, starting with a traced one.
    min_passes = 3 if tracer is not None else 2
    passes = []
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        record = run_pass(cli, workload, args.seed, source, target, out_root, labels)
        record["traced"] = traced
        record["warmup"] = not passes
        if traced:
            tracer.uninstall()
            tracer.merge_worker_dumps()
            stats = dict(tracer.stats)
            stats.update((k, v) for k, v in setup_stats.items() if k != "data.read_dataset")
            record["layer"] = spans.pass_metrics(stats, tracer.counts, tracer.absent, record)
            record["spans"] = spans.span_table(stats)
            record["absent"] = sorted(tracer.absent)
        passes.append(record)
        # Stop before a pass that, as long as the last one, would end past --seconds.
        now = time.perf_counter()
        if len(passes) >= min_passes and now + (now - pass_start) > start + args.seconds:
            break
    compare_digests(passes, expected)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "passes": passes,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "env": env,
        "platform": platform_key(env),
        "reference": reference_note,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
