"""Acceptance battery: one test per release criterion, one verdict line each.

Every test prints a single ``[criterion N] PASS/FAIL`` line directly on the
terminal (capture disabled) so the battery reads as a checklist, then asserts
the same condition.  Tolerances sit inline next to the checks they guard.
The heavyweight entry is criterion 6, a five-seed training battery on the
standard synthetic benchmark (~1 minute); everything else is seconds.
"""

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from swguide.calibration import LogitMatrix, sharpen, solve_temperature
from swguide.cli import main, write_run_artifacts
from swguide.data import SyntheticSpec, make_benchmark, rng_for
from swguide.errors import InfeasibleError
from swguide.expansion import mix_scores, select_pseudo_source
from swguide.calibration import SoftLabelSet
from swguide.model import NormLayerState, forward
from swguide.norm_adapt import adapt_model, adjust_params
from swguide.trainer import TrainConfig, run

from helpers import (
    brute_force_class_balanced,
    brute_force_global,
    fd_reference_grads,
    mirror_cdan_run,
    model_loss_grads,
    rel_error,
    score_records,
    tiny_batch,
    tiny_model,
)


def _verdict(capsys, label: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def _small_pair(seed: int):
    spec = SyntheticSpec.standard(
        seed=seed,
        n_classes=3,
        feature_dim=6,
        per_class=6,
        shift_magnitude=0.8,
        noise_scale=0.6,
        class_std=0.6,
    )
    return make_benchmark(spec)


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences(capsys):
    """All three loss gradients match central differences, 20 seeds, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for kind in ("ce", "kd", "ad"):
        for seed in range(20):
            lam = 0.7 if kind == "ad" else 1.0
            params = tiny_model(seed)
            batch = tiny_batch(1000 + seed)
            analytic = model_loss_grads(params, batch, kind, lam=lam)
            numeric = fd_reference_grads(params, batch, kind, lam=lam)
            for name, grad in analytic.items():
                worst = max(worst, rel_error(grad, numeric[name]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(
        capsys,
        "criterion 1: gradient correctness",
        ok,
        f"max rel error {worst:.2e} (tol 1e-4) over 3 losses x 20 seeds "
        f"in {elapsed:.1f}s (limit 10s)",
    )


# ---------------------------------------------------------------------------
# 2. Calibration
# ---------------------------------------------------------------------------


def _np_mean_winning(logits: np.ndarray, temperature: float) -> float:
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return float(p.max(axis=1).mean())


def _logit_matrix(rows: np.ndarray, prefix: str) -> LogitMatrix:
    ids = tuple(f"{prefix}{i:04d}" for i in range(rows.shape[0]))
    return LogitMatrix(logits=rows, sample_ids=ids)


def test_criterion_2_calibration(capsys):
    """Solver hits tau to 1e-6 on random 200x10 sets; fixture, ties, argmax."""
    worst_gap = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.5, 3.0)
        src = _logit_matrix(rng.normal(size=(100, 10)) * scale, "s")
        tgt = _logit_matrix(rng.normal(size=(100, 10)) * scale, "t")
        tau = float(rng.uniform(0.2, 0.95))
        result = solve_temperature(src, tgt, tau)
        # Recompute the achieved mean from the raw logits, independently.
        achieved = 0.5 * _np_mean_winning(src.logits, result.temperature)
        achieved += 0.5 * _np_mean_winning(tgt.logits, result.temperature)
        worst_gap = max(worst_gap, abs(achieved - tau))

    fixture = _logit_matrix(np.array([[math.log(9.0), 0.0]]), "s")
    fixture_t = _logit_matrix(np.array([[math.log(9.0), 0.0]]), "t")
    t_fixture = solve_temperature(fixture, fixture_t, 0.9).temperature
    fixture_ok = abs(t_fixture - 1.0) <= 1e-6

    tied = _logit_matrix(np.zeros((5, 4)), "s")
    tied_t = _logit_matrix(np.zeros((5, 4)), "t")
    try:
        solve_temperature(tied, tied_t, 0.9)
        ties_ok = False
    except InfeasibleError:
        ties_ok = True

    argmax_ok = True
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        logits = _logit_matrix(rng.normal(size=(200, 10)), "t")
        raw = logits.logits.argmax(axis=1)
        for temperature in np.logspace(-3.0, 3.0, 13):
            soft = sharpen(logits, float(temperature))
            argmax_ok &= bool((soft.probs.argmax(axis=1) == raw).all())

    ok = worst_gap <= 1e-6 and fixture_ok and ties_ok and argmax_ok
    _verdict(
        capsys,
        "criterion 2: calibration",
        ok,
        f"max |achieved-tau| {worst_gap:.2e} (tol 1e-6), T(fixture)={t_fixture!r}, "
        f"tie-only raises={ties_ok}, argmax invariant={argmax_ok}",
    )


# ---------------------------------------------------------------------------
# 3. Norm adjustment
# ---------------------------------------------------------------------------


def test_criterion_3_norm_adjustment(capsys):
    """Adjusted layers reproduce the pretrained function; worked example exact."""
    base = NormLayerState(
        gamma=[1.0], beta=[0.0], running_mean=[0.0], running_var=[1.0]
    )
    adjusted = adjust_params(base, [2.0], [4.0])
    example_ok = (
        float(adjusted.gamma[0, 0]) == 2.0 and float(adjusted.beta[0, 0]) == 2.0
    )

    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 9))
        state = NormLayerState(
            gamma=rng.normal(size=width),
            beta=rng.normal(size=width),
            running_mean=rng.normal(size=width),
            running_var=rng.uniform(0.1, 4.0, size=width),
        )
        mu_c = rng.normal(size=width)
        var_c = rng.uniform(0.1, 4.0, size=width)
        adj = adjust_params(state, mu_c, var_c)
        x = rng.normal(size=(50, width)) * 3.0
        with_old = (x - state.running_mean) / np.sqrt(state.running_var)
        with_old = with_old * state.gamma + state.beta
        with_new = (x - adj.running_mean) / np.sqrt(adj.running_var)
        with_new = with_new * adj.gamma + adj.beta
        worst = max(worst, float(np.abs(with_new - with_old).max()))

    # Whole-model version: adapting to fresh domain statistics must not
    # change any output on the data the statistics came from.
    params = tiny_model(7)
    source, target = _small_pair(7)
    source = replace(source, features=source.features[:, :4], zeroshot=source.zeroshot[:, :3])
    target = replace(target, features=target.features[:, :4], zeroshot=target.zeroshot[:, :3])
    adapted = adapt_model(params, source, target)
    model_dev = 0.0
    for data, tag in ((source, "source"), (target, "target")):
        f_old, p_old = forward(params, data.features, tag)
        f_new, p_new = forward(adapted, data.features, tag)
        model_dev = max(model_dev, float(np.abs(f_new - f_old).max()))
        model_dev = max(model_dev, float(np.abs(p_new - p_old).max()))

    ok = example_ok and worst < 1e-9 and model_dev < 1e-9
    _verdict(
        capsys,
        "criterion 3: norm adjustment",
        ok,
        f"worked example exact={example_ok}, layer dev {worst:.2e}, "
        f"model dev {model_dev:.2e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# 4. Selection oracle equivalence
# ---------------------------------------------------------------------------


def _soft(rows, prefix="x") -> SoftLabelSet:
    rows = np.asarray(rows, dtype=np.float64)
    ids = tuple(f"{prefix}{i}" for i in range(rows.shape[0]))
    return SoftLabelSet(probs=rows, sample_ids=ids, temperature_used=1.0)


def test_criterion_4_selection_matches_brute_force(capsys):
    """Both policies equal subset enumeration for n_t <= 12; mixing fixtures."""
    fractions = (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0)
    instances = 0
    for n_t in range(1, 13):
        for trial in range(30):
            rng = rng_for(4000 + trial, "acceptance-selection", n_t)
            k = int(rng.integers(2, 5))
            if trial % 3 == 0:
                # Quantized scores force ties between samples and classes.
                vectors = rng.integers(0, 4, size=(n_t, k)) / 4.0
            else:
                vectors = rng.random((n_t, k))
            ids = tuple(f"t{i:02d}" for i in range(n_t))
            scores = score_records(ids, vectors)
            fraction = (
                float(fractions[int(rng.integers(0, len(fractions)))])
                if trial % 2
                else float(rng.random())
            )
            chosen = select_pseudo_source(vectors, ids, fraction, "global")
            assert set(chosen.sample_ids) == brute_force_global(scores, fraction)
            balanced = select_pseudo_source(vectors, ids, fraction, "class_balanced")
            assert set(balanced.sample_ids) == brute_force_class_balanced(
                scores, fraction
            )
            instances += 1

    mixed = mix_scores(_soft([[0.0, 0.0, 1.0]]), _soft([[0.0, 0.0, 1.0]]))
    fix1 = np.allclose(mixed[0], [0.0, 0.0, 1.5]) and mixed[0].argmax() == 2
    mixed = mix_scores(_soft([[0.6, 0.4]]), _soft([[0.2, 0.8]]))
    fix2 = np.allclose(mixed[0], [0.7, 0.8]) and mixed[0].argmax() == 1
    mixed = mix_scores(_soft([[1.0, 0.0]]), _soft([[0.0, 1.0]]))
    fix3 = np.allclose(mixed[0], [1.0, 0.5]) and mixed[0].argmax() == 0

    ok = fix1 and fix2 and fix3
    _verdict(
        capsys,
        "criterion 4: selection oracle equivalence",
        ok,
        f"{instances} instances x 2 policies vs enumeration, "
        f"mixing fixtures {fix1}/{fix2}/{fix3}",
    )


# ---------------------------------------------------------------------------
# 5. Ablation degeneracies
# ---------------------------------------------------------------------------


def test_criterion_5_ablation_degeneracies(tmp_path, capsys):
    """fraction=0 + kd=0 is the adversarial baseline, fraction=0 is weak-only."""
    source, target = _small_pair(11)
    base = TrainConfig(episodes=4, batch_size=8, hidden_dim=8, disc_hidden=8, seed=11)

    ablated = run(replace(base, expansion_fraction=0.0, w_kd=0.0), source, target)
    pure = run(replace(base, scheme="cdan_only"), source, target)
    trace_ok = ablated.metrics == pure.metrics and np.array_equal(
        ablated.prediction_probs, pure.prediction_probs
    )

    # Independent plain-numpy reimplementation of the adversarial baseline:
    # the engine must reproduce its loss trace bit for bit.
    records, mirror_preds, _ = mirror_cdan_run(
        replace(base, scheme="cdan_only"), source, target
    )
    mirror_ok = all(
        m.l_ce == ce and m.l_ad == adl and m.target_accuracy == acc
        for m, (_, ce, adl, acc) in zip(pure.metrics, records)
    ) and np.array_equal(pure.prediction_probs, mirror_preds)

    fraction0_cfg = replace(base, expansion_fraction=0.0)
    weak_cfg = replace(base, scheme="weak_only")
    dir_a, dir_b = tmp_path / "fraction0", tmp_path / "weak_only"
    write_run_artifacts(dir_a, fraction0_cfg, run(fraction0_cfg, source, target))
    write_run_artifacts(dir_b, weak_cfg, run(weak_cfg, source, target))
    weak_ok = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("metrics.txt", "predictions.txt", "checkpoint.txt")
    )

    ok = trace_ok and mirror_ok and weak_ok
    _verdict(
        capsys,
        "criterion 5: ablation degeneracies",
        ok,
        f"ablated==baseline trace {trace_ok}, engine==numpy mirror {mirror_ok}, "
        f"fraction0==weak_only artifacts {weak_ok}",
    )


# ---------------------------------------------------------------------------
# 6. Directional end-to-end
# ---------------------------------------------------------------------------


def test_criterion_6_directional_benchmark(capsys):
    """Five-seed margins on the standard benchmark (K=5, d_x=20)."""
    start = time.perf_counter()
    variants = {
        "v1": TrainConfig(scheme="v1"),
        "cdan": TrainConfig(scheme="cdan_only"),
        "zs": TrainConfig(scheme="zeroshot_only"),
        "f0": TrainConfig(expansion_fraction=0.0),
        "f1": TrainConfig(expansion_fraction=1.0),
        "nocal": TrainConfig(tau=None),
        "v2": TrainConfig(scheme="v2"),
    }
    accs: dict[str, list[float]] = {name: [] for name in variants}
    oracle_window = True
    for seed in range(5):
        spec = SyntheticSpec.standard(seed=seed)
        source, target = make_benchmark(spec)
        oracle = float((target.zeroshot.argmax(axis=1) == target.labels).mean())
        oracle_window &= 0.70 <= oracle <= 0.80
        for name, config in variants.items():
            result = run(replace(config, seed=seed), source, target)
            accs[name].append(result.accuracy)
    mean = {name: float(np.mean(values)) for name, values in accs.items()}
    elapsed = time.perf_counter() - start

    a_ok = mean["v1"] >= mean["cdan"] and mean["v1"] >= mean["zs"]
    b_ok = mean["v1"] >= mean["f0"] and mean["v1"] >= mean["f1"] - 0.01
    c_ok = mean["v1"] - mean["nocal"] >= 0.02
    d_ok = mean["v2"] >= mean["v1"] - 0.01
    ok = oracle_window and a_ok and b_ok and c_ok and d_ok and elapsed < 240.0
    _verdict(
        capsys,
        "criterion 6: directional benchmark",
        ok,
        "means "
        + " ".join(f"{name}={value:.3f}" for name, value in mean.items())
        + f"; oracle in [0.70,0.80]={oracle_window}, margins a={a_ok} b={b_ok} "
        f"c={c_ok} d={d_ok}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------


def test_criterion_7_command_determinism(tmp_path, capsys):
    """Repeating any command with the same seed gives byte-identical files."""

    def gen(out: Path) -> list[Path]:
        out.mkdir()
        code = main(
            [
                "gen", "--out-source", str(out / "s.txt"),
                "--out-target", str(out / "t.txt"),
                "--seed", "4", "--classes", "3", "--feature-dim", "6",
                "--per-class", "6", "--shift", "0.8", "--noise", "0.6",
                "--class-std", "0.6",
            ]
        )
        assert code == 0
        return [out / "s.txt", out / "t.txt"]

    first = gen(tmp_path / "gen_a")
    second = gen(tmp_path / "gen_b")
    gen_ok = all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))

    source, target = first

    def train(out: Path, *extra: str) -> list[Path]:
        code = main(
            [
                "train", "--source", str(source), "--target", str(target),
                "--episodes", "2", "--batch-size", "8", "--hidden-dim", "8",
                "--disc-hidden", "8", "--seed", "4", "--out", str(out), *extra,
            ]
        )
        assert code == 0
        return sorted(out.iterdir())

    v1_a = train(tmp_path / "v1_a")
    v1_b = train(tmp_path / "v1_b")
    v1_ok = [p.name for p in v1_a] == [p.name for p in v1_b] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(v1_a, v1_b)
    )

    v2_a = train(tmp_path / "v2_a", "--scheme", "v2")
    v2_b = train(tmp_path / "v2_b", "--scheme", "v2")
    v2_ok = [p.name for p in v2_a] == [p.name for p in v2_b] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(v2_a, v2_b)
    )
    v2_ok &= any(p.name == "predictions_run1.txt" for p in v2_a)

    ok = gen_ok and v1_ok and v2_ok
    _verdict(
        capsys,
        "criterion 7: determinism",
        ok,
        f"gen byte-identical={gen_ok}, train v1={v1_ok}, train v2={v2_ok}",
    )
