"""Spans around swguide's public functions, installed from the benchmark.

Each wrapper replaces a name at the site where swguide looks it up, so
``swguide.trainer.forward_on_tape`` is wrapped rather than the function in
``swguide.model``; tape ops are wrapped on ``swguide.autodiff`` because
callers use ``ad.<op>``.  Spans are aggregated in memory by name: calls,
inclusive time, and self time (inclusive minus the time of child spans).
A lookup site that no longer exists is skipped, and the metrics that need
it are reported as absent.

Sweep workers are forked with the wrappers in place; each task resets the
worker's totals and dumps them to a file that the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import uuid
from collections import defaultdict

import numpy as np

OPS = (
    "leaf", "matmul", "add", "mul", "scale", "relu", "sigmoid", "weighted_sum",
    "softmax_rows", "log_rows", "outer_rows", "gradient_reverse",
)
EAGER_OP = "autodiff.eager_op"

# (lookup site, attribute, span name, hook); a site ``module:Class`` wraps a method.
SITES = (
    ("swguide.trainer", "lift", "model.lift", "tag_params"),
    ("swguide.trainer", "forward_on_tape", "model.forward_on_tape", None),
    ("swguide.trainer", "discriminate_on_tape", "model.discriminate_on_tape", None),
    ("swguide.trainer", "forward", "model.forward", "eager"),
    ("swguide.trainer", "classification_loss_node", "losses.build", None),
    ("swguide.trainer", "kd_loss_node", "losses.build", None),
    ("swguide.trainer", "adversarial_loss_node", "losses.build", None),
    ("swguide.trainer", "_single_run", "trainer.run", None),
    ("swguide.trainer:Adam", "step", "trainer.adam", None),
    ("swguide.trainer", "evaluate", "trainer.evaluate", None),
    ("swguide.cli", "evaluate", "trainer.evaluate", None),
    ("swguide.trainer", "solve_temperature", "calibration.solve", None),
    ("swguide.calibration", "mean_winning_probability", "calibration.mwp", None),
    ("swguide.trainer", "sharpen", "calibration.sharpen", None),
    ("swguide.calibration:SoftLabelSet", "rows_for", "calibration.rows_for", None),
    ("swguide.trainer", "score_from_soft_labels", "expansion.score", None),
    ("swguide.trainer", "mix_scores", "expansion.score", None),
    ("swguide.trainer", "select_pseudo_source", "expansion.select", "count_selected"),
    ("swguide.trainer", "expand_dataset", "expansion.expand", None),
    ("swguide.trainer", "adapt_model", "norm_adapt.adapt", "eager"),
    ("swguide.data", "make_benchmark", "data.make_benchmark", None),
    ("swguide.data", "write_dataset", "data.write_dataset", None),
    ("swguide.data", "read_dataset", "data.read_dataset", None),
    ("swguide.cli", "read_dataset", "data.read_dataset", "bytes_read"),
    ("swguide.cli", "write_run_artifacts", "data.write_artifacts", "dir_written"),
    ("swguide.cli", "write_predictions", "data.predictions_io", None),
    ("swguide.trainer", "write_predictions", "data.predictions_io", None),
    ("swguide.trainer", "read_predictions", "data.predictions_io", "bytes_read"),
    ("swguide.cli", "read_array_file", "data.read_array", "bytes_read"),
    ("swguide.cli", "_cmd_train", "cli.task", None),
    ("swguide.cli", "_run_one", "cli.task", "worker_task"),
)


class Absent(Exception):
    """A metric's span could not be installed: its function no longer exists."""


class Tracer:
    """In-memory span totals for one process, plus the counters the hooks keep."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.installed: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.reset()

    def reset(self):
        self.stack = []
        self.eager = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl s, self s
        self.counts = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name: str, hook=None, eager: bool = False, op: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = EAGER_OP if op and tracer.eager else name
            frame = [0.0]
            tracer.stack.append(frame)
            tracer.eager += eager
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.eager -= eager
                tracer.stack.pop()
            entry = tracer.stats[span]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if hook is not None:
                hook_fn, marker = hook
                try:
                    hook_fn(tracer, args, result)
                except (AttributeError, TypeError, KeyError):
                    tracer.absent.add(marker)  # the object no longer looks as the hook expects
            if tracer.stack:
                # The whole wrapper, bookkeeping included, is child time of the caller.
                tracer.stack[-1][0] += time.perf_counter() - start
            return result

        return wrapper

    def _set(self, owner, attr: str, value):
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every lookup site that exists; note the spans that have none."""
        found: set[str] = set()
        wanted: set[str] = set()
        for site, attr, name, hook in SITES:
            wanted.add(name)
            owner = _resolve(site)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            found.add(name)
            if hook == "worker_task":
                wrapped = self._worker_task(self.wrap(fn, name))
            else:
                wrapped = self.wrap(fn, name, HOOKS.get(hook), eager=hook == "eager")
            self._set(owner, attr, wrapped)
        self._install_autodiff(found, wanted)
        self.absent = wanted - found

    def _install_autodiff(self, found: set[str], wanted: set[str]):
        ad = importlib.import_module("swguide.autodiff")
        for op in OPS:
            wanted.add(f"autodiff.op.{op}")
        wanted.update(("autodiff.backward", "autodiff.nodes", "autodiff.grad_alloc"))
        for op in OPS[1:]:
            fn = getattr(ad, op, None)
            if fn is not None:
                self._set(ad, op, self.wrap(fn, f"autodiff.op.{op}", op=True))
                found.add(f"autodiff.op.{op}")
        backward = getattr(ad, "backward", None)
        if backward is not None:
            self._set(ad, "backward", self.wrap(backward, "autodiff.backward", HOOKS["count_tape"]))
            found.update(("autodiff.backward", "autodiff.nodes"))
        tape_cls = getattr(ad, "Tape", None)
        if tape_cls is None:
            return
        members = {}
        if hasattr(tape_cls, "leaf"):
            members["leaf"] = self.wrap(tape_cls.leaf, "autodiff.op.leaf", op=True)
            found.add("autodiff.op.leaf")
        if hasattr(tape_cls, "_record"):
            record = tape_cls._record
            tracer = self

            def _record(tape, value, *args, **kwargs):
                node = record(tape, value, *args, **kwargs)
                tracer.counts["grad_alloc_bytes"] += _nbytes(getattr(node, "grad", None))
                return node

            members["_record"] = _record
            found.add("autodiff.grad_alloc")
        self._set(ad, "Tape", type(tape_cls.__name__, (tape_cls,), members))

    def uninstall(self):
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    # -- forked sweep workers ---------------------------------------------------

    def _worker_task(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def task(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return wrapped(*args, **kwargs)
            tracer.reset()
            try:
                return wrapped(*args, **kwargs)
            finally:
                path = os.path.join(tracer.dump_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"stats": tracer.stats, "counts": tracer.counts}, handle)

        return task

    def merge_worker_dumps(self):
        """Add the totals sweep workers dumped, and remove the dump files."""
        for name in sorted(os.listdir(self.dump_dir)):
            path = os.path.join(self.dump_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                dump = json.load(handle)
            os.remove(path)
            for span, (calls, incl, self_s) in dump["stats"].items():
                entry = self.stats[span]
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
            for key, value in dump["counts"].items():
                self.counts[key] += value


def _resolve(site: str):
    module_name, _, cls = site.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, cls, None) if cls else module


def _nbytes(array) -> int:
    return array.nbytes if isinstance(array, np.ndarray) else 0


def _size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


# -- hooks: (tracer, call args, result) ---------------------------------------


def _tag_params(tracer, args, nodes):
    """Mark the lifted parameter leaves: their gradients are read by Adam."""
    args[0].bench_param_ids = {id(node) for node in nodes.named_nodes().values()}


def _count_selected(tracer, args, selection):
    tracer.counts["selected_rows"] += len(selection)


def _bytes_read(tracer, args, result):
    tracer.counts["bytes_read"] += _size(args[0])


def _dir_written(tracer, args, result):
    """Artifacts of one training run: every file in its out directory."""
    out_dir = args[0]
    tracer.counts["bytes_written"] += sum(
        _size(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
    )


def _count_tape(tracer, args, result):
    """After one training backward: node counts, bytes, and skipped nodes."""
    tape = args[0]
    params = getattr(tape, "bench_param_ids", set())
    counts = tracer.counts
    counts["steps"] += 1
    counts["nodes"] += len(tape.nodes)
    for node in tape.nodes:
        counts[f"nodes.{node.op}"] += 1
        grad_bytes = _nbytes(node.grad)
        counts["step_bytes"] += node.value.nbytes + grad_bytes
        counts["grad_trained_bytes"] += grad_bytes
        if node.op == "leaf":
            if id(node) not in params:
                counts["grad_unread_bytes"] += grad_bytes
        else:
            counts["nonleaf_nodes"] += 1
            counts["skipped_nodes"] += not node.grad.any()


# hook name -> (hook, what to report as absent if it fails)
HOOKS = {
    "tag_params": (_tag_params, "autodiff.grad_alloc"),
    "count_tape": (_count_tape, "autodiff.nodes"),
    "count_selected": (_count_selected, "expansion.selected_rows"),
    "bytes_read": (_bytes_read, "data.bytes_read"),
    "dir_written": (_dir_written, "data.bytes_written"),
}

# -- per-layer metrics ----------------------------------------------------------

# (metric, unit); the order is the order BENCHMARK.json lists them in.
PER_LAYER = (
    [("autodiff.nodes_per_step", "count")]
    + [(f"autodiff.op_nodes.{op}", "count") for op in OPS]
    + [(f"autodiff.op_ms.{op}", "ms") for op in OPS]
    + [
        ("autodiff.eager_op_ms", "ms"),
        ("autodiff.backward_ms", "ms"),
        ("autodiff.value_mb_per_step", "MB"),
        ("autodiff.const_grad_frac", "fraction"),
        ("autodiff.backward_skip_frac", "fraction"),
        ("model.forward_on_tape_ms", "ms"),
        ("model.discriminate_on_tape_ms", "ms"),
        ("model.lift_ms", "ms"),
        ("model.forward_ms", "ms"),
        ("losses.build_ms", "ms"),
        ("trainer.steps", "count"),
        ("trainer.loop_self_ms", "ms"),
        ("trainer.adam_ms", "ms"),
        ("trainer.evaluate_ms", "ms"),
        ("calibration.solve_ms", "ms"),
        ("calibration.mwp_evals", "count"),
        ("calibration.sharpen_ms", "ms"),
        ("calibration.rows_for_ms", "ms"),
        ("expansion.score_ms", "ms"),
        ("expansion.select_ms", "ms"),
        ("expansion.expand_ms", "ms"),
        ("expansion.selected_rows", "count"),
        ("norm_adapt.adapt_ms", "ms"),
        ("data.make_benchmark_ms", "ms"),
        ("data.write_dataset_ms", "ms"),
        ("data.read_dataset_ms", "ms"),
        ("data.write_artifacts_ms", "ms"),
        ("data.read_array_ms", "ms"),
        ("data.predictions_io_ms", "ms"),
        ("data.bytes_read", "bytes"),
        ("data.bytes_written", "bytes"),
        ("cli.tasks", "count"),
        ("cli.task_s", "s"),
        ("cli.worker_busy_frac", "fraction"),
        ("proc.cpu_per_wall", "fraction"),
        ("trace_overhead_frac", "fraction"),
    ]
)
UNITS = dict(PER_LAYER)


class _Reader:
    """Span and counter lookups for one pass; an absent span raises Absent."""

    def __init__(self, stats, counts, absent):
        self.stats, self.counts, self.absent = stats, counts, absent
        self.steps = counts.get("steps", 0.0)

    def _entry(self, span):
        if span in self.absent:
            raise Absent(span)
        return self.stats.get(span, (0, 0.0, 0.0))

    def self_ms(self, span) -> float:
        return 1e3 * self._entry(span)[2]

    def incl_ms(self, span) -> float:
        return 1e3 * self._entry(span)[1]

    def calls(self, span) -> int:
        return self._entry(span)[0]

    def per_call_ms(self, span) -> float:
        return self.incl_ms(span) / max(1, self.calls(span))

    def per_step(self, value) -> float:
        return value / self.steps if self.steps else 0.0

    def count(self, key, *spans) -> float:
        for span in spans:
            self._entry(span)
        return self.counts.get(key, 0.0)


def pass_metrics(stats, counts, absent, pass_info) -> dict[str, float]:
    """Per-layer metrics of one traced pass (setup spans come in ``stats`` too).

    ``pass_info`` gives the pass's ``cpu_s``, ``wall_s`` and ``busy_base_s``
    (the sum over task-running commands of jobs x wall time).
    """
    r = _Reader(stats, counts, absent)
    nonleaf = counts.get("nonleaf_nodes", 0.0)
    grad_alloc = counts.get("grad_alloc_bytes", 0.0)
    busy_base = pass_info["busy_base_s"]
    getters = {
        "autodiff.nodes_per_step": lambda: r.per_step(r.count("nodes", "autodiff.nodes")),
        "autodiff.eager_op_ms": lambda: r.self_ms(EAGER_OP),
        "autodiff.backward_ms": lambda: r.per_step(r.self_ms("autodiff.backward")),
        "autodiff.value_mb_per_step": lambda: (
            r.per_step(r.count("step_bytes", "autodiff.nodes")) / 1e6
        ),
        "autodiff.const_grad_frac": lambda: 1.0 - (
            r.count("grad_trained_bytes", "autodiff.grad_alloc", "autodiff.nodes")
            - counts.get("grad_unread_bytes", 0.0)
        ) / grad_alloc if grad_alloc else 0.0,
        "autodiff.backward_skip_frac": lambda: (
            r.count("skipped_nodes", "autodiff.nodes") / nonleaf if nonleaf else 0.0
        ),
        "model.forward_on_tape_ms": lambda: r.per_step(r.self_ms("model.forward_on_tape")),
        "model.discriminate_on_tape_ms": lambda: (
            r.per_step(r.self_ms("model.discriminate_on_tape"))
        ),
        "model.lift_ms": lambda: r.per_step(r.self_ms("model.lift")),
        "model.forward_ms": lambda: r.per_call_ms("model.forward"),
        "losses.build_ms": lambda: r.per_step(r.self_ms("losses.build")),
        "trainer.steps": lambda: r.count("steps", "autodiff.backward"),
        "trainer.loop_self_ms": lambda: r.per_step(r.self_ms("trainer.run")),
        "trainer.adam_ms": lambda: r.per_step(r.self_ms("trainer.adam")),
        "trainer.evaluate_ms": lambda: r.per_call_ms("trainer.evaluate"),
        "calibration.solve_ms": lambda: r.incl_ms("calibration.solve"),
        "calibration.mwp_evals": lambda: r.calls("calibration.mwp"),
        "calibration.sharpen_ms": lambda: r.self_ms("calibration.sharpen"),
        "calibration.rows_for_ms": lambda: r.per_step(r.self_ms("calibration.rows_for")),
        "expansion.score_ms": lambda: r.self_ms("expansion.score"),
        "expansion.select_ms": lambda: r.self_ms("expansion.select"),
        "expansion.expand_ms": lambda: r.self_ms("expansion.expand"),
        "expansion.selected_rows": lambda: r.count(
            "selected_rows", "expansion.select", "expansion.selected_rows"
        ),
        "norm_adapt.adapt_ms": lambda: r.incl_ms("norm_adapt.adapt"),
        "data.make_benchmark_ms": lambda: r.self_ms("data.make_benchmark"),
        "data.write_dataset_ms": lambda: r.self_ms("data.write_dataset"),
        "data.read_dataset_ms": lambda: r.self_ms("data.read_dataset"),
        "data.write_artifacts_ms": lambda: r.self_ms("data.write_artifacts"),
        "data.read_array_ms": lambda: r.self_ms("data.read_array"),
        "data.predictions_io_ms": lambda: r.self_ms("data.predictions_io"),
        "data.bytes_read": lambda: r.count("bytes_read", "data.read_dataset", "data.bytes_read"),
        "data.bytes_written": lambda: r.count(
            "bytes_written", "data.write_artifacts", "data.bytes_written"
        ),
        "cli.tasks": lambda: r.calls("cli.task"),
        "cli.task_s": lambda: r.per_call_ms("cli.task") / 1e3,
        "cli.worker_busy_frac": lambda: (
            r.incl_ms("cli.task") / 1e3 / busy_base if busy_base else 0.0
        ),
        "proc.cpu_per_wall": lambda: pass_info["cpu_s"] / pass_info["wall_s"],
    }
    for op in OPS:
        getters[f"autodiff.op_nodes.{op}"] = functools.partial(
            lambda op: r.per_step(r.count(f"nodes.{op}", f"autodiff.op.{op}")), op
        )
        getters[f"autodiff.op_ms.{op}"] = functools.partial(
            lambda op: r.per_step(r.self_ms(f"autodiff.op.{op}")), op
        )
    out = {}
    for name, getter in getters.items():
        try:
            out[name] = float(getter())
        except Absent:
            pass
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes; a metric absent in any pass stays absent."""
    return {
        name: statistics.median(s[name] for s in samples)
        for name, _ in PER_LAYER
        if samples and all(name in s for s in samples)
    }


def span_table(stats) -> list[str]:
    """Human-readable span totals: calls, inclusive and self time."""
    lines = [f"{'span':<34}{'calls':>10}{'incl_ms':>12}{'self_ms':>12}"]
    for name, (calls, incl, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<34}{calls:>10}{1e3 * incl:>12.1f}{1e3 * self_s:>12.1f}")
    return lines
