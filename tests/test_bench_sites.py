"""Guard on the benchmark's tracer (``bench/spans.py``), which wraps swguide's
functions by the names it looks them up under: every lookup site must still
exist, and one traced training job must yield every per-layer metric."""

import importlib.util
import json
import math
import time
from pathlib import Path

import pytest

from swguide import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_lookup_site(spans, tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()


def test_a_traced_training_job_yields_every_per_layer_metric(spans, tmp_path):
    source, target = str(tmp_path / "source.txt"), str(tmp_path / "target.txt")
    gen = ["gen", "--out-source", source, "--out-target", target,
           "--classes", "3", "--feature-dim", "6", "--per-class", "6"]
    assert cli.main(gen) == 0
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        code = cli.main(
            ["train", "--source", source, "--target", target, "--scheme", "v2",
             "--episodes", "1", "--batch-size", "8", "--hidden-dim", "8",
             "--disc-hidden", "8", "--out", str(tmp_path / "run")]
        )
        pass_info = {
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            "busy_base_s": 0.0,
        }
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = spans.pass_metrics(dict(tracer.stats), tracer.counts, tracer.absent, pass_info)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {entry["name"] for entry in declared} - {"trace_overhead_frac"}
    assert sorted(wanted - set(metrics)) == []
    assert all(math.isfinite(metrics[name]) for name in wanted)
    # The hooks ran on what they wrap: a selection with rows, tapes with nodes.
    assert metrics["expansion.selected_rows"] > 0
    assert metrics["autodiff.nodes_per_step"] > 0
