"""Unit tests for the training orchestration: configuration, optimizer,
schedules, scheme dispatch, and run determinism."""

import dataclasses
import gc
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from swguide.calibration import (
    mean_winning_probability,
    solve_temperature,
    stable_softmax,
)
from swguide.data import (
    SyntheticSpec,
    make_benchmark,
    rng_for,
)
from swguide.errors import ConfigInvalidError, ShapeMismatchError, UnlabeledError
from swguide.model import forward
from swguide import autodiff as ad
from swguide.norm_adapt import adapt_model
from swguide import trainer
from swguide.trainer import (
    MAX_BATCH_SIZE,
    SCHEMES,
    V2_FRACTIONS,
    Adam,
    TrainConfig,
    _IndexStream,
    build_teachers,
    evaluate,
    lambda_at,
    learning_rate_for,
    predict_target,
    run,
)

from helpers import tiny_model


def small_benchmark(seed=0, per_class=6):
    spec = SyntheticSpec.standard(
        seed=seed,
        n_classes=3,
        feature_dim=6,
        per_class=per_class,
        shift_magnitude=0.8,
        noise_scale=0.6,
        class_std=0.6,
    )
    return make_benchmark(spec)


def small_config(**overrides):
    base = dict(episodes=2, batch_size=8, hidden_dim=8, disc_hidden=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scheme="v3"),
        dict(tau=0.0),
        dict(tau=1.0),
        dict(expansion_fraction=1.5),
        dict(episodes=0),
        dict(batch_size=1),
        dict(lr_extractor=0.0),
        dict(lr_heads=-1.0),
        dict(lambda_mode="linear"),
        dict(lambda_value=-0.5),
        dict(augment_noise=-0.1),
        dict(selection_policy="alphabetical"),
        dict(w_kd=-1.0),
        dict(hidden_dim=0),
        dict(lr_extractor=float("nan")),
        dict(lr_heads=float("inf")),
        dict(lambda_value=float("nan")),
        dict(augment_noise=float("inf")),
        dict(w_kd=float("nan")),
        dict(seed=-1),
    ],
)
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ConfigInvalidError):
        TrainConfig(**overrides).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("episodes", 1.5),
        ("batch_size", 32.0),
        ("hidden_dim", "64"),
        ("disc_hidden", None),
        ("seed", 1.5),
        ("seed", True),
        ("tau", "0.9"),
        ("expansion_fraction", None),
        ("lr_extractor", "5e-4"),
        ("lambda_value", [1.0]),
        ("augment_noise", 1j),
        ("w_kd", False),
        pytest.param("lr_heads", 10**400, id="lr_heads-10**400"),
        pytest.param("tau", 10**400, id="tau-10**400"),
        pytest.param("w_kd", 10**5000, id="w_kd-10**5000"),  # beyond repr's digit limit
    ],
)
def test_config_validation_rejects_a_mistyped_field_by_name(field, value):
    with pytest.raises(ConfigInvalidError, match=field):
        TrainConfig(**{field: value}).validate()


def test_config_validation_accepts_ints_for_float_fields():
    TrainConfig(tau=None, expansion_fraction=1, lr_heads=np.float64(0.01), w_kd=0).validate()


def test_config_batch_size_has_a_documented_upper_bound():
    TrainConfig(batch_size=MAX_BATCH_SIZE).validate()
    with pytest.raises(ConfigInvalidError, match=f"batch_size.*{MAX_BATCH_SIZE}"):
        TrainConfig(batch_size=10**8).validate()


def test_config_tau_must_beat_chance_for_the_class_count():
    TrainConfig(tau=0.35).validate(n_classes=3)
    with pytest.raises(ConfigInvalidError):
        TrainConfig(tau=0.3).validate(n_classes=3)  # 0.3 <= 1/3
    with pytest.raises(ConfigInvalidError):
        TrainConfig(tau=0.25).validate(n_classes=4)  # equality also fails
    TrainConfig(tau=None).validate(n_classes=2)  # uncalibrated mode is always fine


def test_default_config_is_valid():
    TrainConfig().validate(n_classes=5)


# ---------------------------------------------------------------------------
# Optimizer and schedules
# ---------------------------------------------------------------------------


def test_adam_first_steps_by_hand():
    p = np.array([0.0])
    opt = Adam(p, np.array([0.01]))
    opt.step(np.array([1.0]))
    # Bias correction makes the first update a full learning-rate step.
    assert p[0] == pytest.approx(-0.01, rel=1e-6)
    opt.step(np.array([1.0]))
    assert p[0] == pytest.approx(-0.02, rel=1e-6)


def test_adam_updates_each_entry_independently():
    p = np.zeros(2)
    opt = Adam(p, np.array([0.1, 0.1]))
    opt.step(np.array([1.0, 0.0]))
    assert p[0] < 0.0
    assert p[1] == 0.0


def test_flat_adam_matches_separate_per_array_updates_bit_for_bit():
    rng = rng_for(0, "flat-adam")
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))]
    rates = [5e-4, 5e-3]
    flat = np.concatenate([a.ravel() for a in arrays])
    opt = Adam(flat, np.concatenate([np.full(a.size, r) for a, r in zip(arrays, rates)]))
    moments = [[np.zeros_like(a), np.zeros_like(a)] for a in arrays]
    for t in range(1, 6):
        grads = [rng.standard_normal(a.shape) for a in arrays]
        opt.step(np.concatenate([g.ravel() for g in grads]))
        for p, g, (m, v), lr in zip(arrays, grads, moments, rates):
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * (g * g)
            p -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
    np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


def test_adam_needs_a_flat_vector_and_one_rate_per_entry():
    with pytest.raises(ShapeMismatchError):
        Adam(np.zeros((1, 2)), np.full((1, 2), 0.1))
    with pytest.raises(ShapeMismatchError):
        Adam(np.zeros(3), np.full(2, 0.1))


def test_learning_rate_routing():
    config = TrainConfig(lr_extractor=1e-4, lr_heads=1e-2)
    assert learning_rate_for("extractor.0.weight", config) == 1e-4
    assert learning_rate_for("norm.1.target.gamma", config) == 1e-4
    assert learning_rate_for("classifier.bias", config) == 1e-2
    assert learning_rate_for("discriminator.0.weight", config) == 1e-2


def test_lambda_schedule_fixed_and_ramp():
    fixed = TrainConfig(lambda_mode="fixed", lambda_value=0.7)
    assert lambda_at(fixed, 0, 100) == 0.7
    assert lambda_at(fixed, 99, 100) == 0.7

    ramp = TrainConfig(lambda_mode="ramp")
    assert lambda_at(ramp, 0, 100) == pytest.approx(0.0, abs=1e-12)
    assert lambda_at(ramp, 99, 100) == pytest.approx(
        2.0 / (1.0 + math.exp(-10.0)) - 1.0, abs=1e-12
    )
    mid = lambda_at(ramp, 50, 101)  # progress one half
    assert mid == pytest.approx(2.0 / (1.0 + math.exp(-5.0)) - 1.0, abs=1e-12)
    values = [lambda_at(ramp, s, 20) for s in range(20)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert lambda_at(ramp, 0, 1) == pytest.approx(0.0)  # no division by zero


def test_index_stream_covers_every_index_each_pass():
    stream = _IndexStream(5, rng_for(0, "stream-test"))
    first_pass = stream.take(5)
    assert sorted(first_pass) == list(range(5))
    straddling = np.concatenate([stream.take(3), stream.take(4)])
    two_passes = np.concatenate([first_pass, straddling[:5]])
    counts = np.bincount(two_passes, minlength=5)
    np.testing.assert_array_equal(counts, np.full(5, 2))


def test_index_stream_reshuffles_between_passes():
    stream = _IndexStream(50, rng_for(1, "stream-test"))
    a, b = stream.take(50), stream.take(50)
    assert sorted(a) == sorted(b)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def test_evaluate_matches_manual_argmax_accuracy():
    params = tiny_model(0)
    _, target = small_benchmark()
    target = dataclasses.replace(
        target,
        features=target.features[:, :4],
        zeroshot=target.zeroshot,
    )
    accuracy = evaluate(params, target)
    probs = predict_target(params, target)
    expected = float((probs.argmax(axis=1) == target.labels).mean())
    assert accuracy == expected
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_evaluate_requires_labels():
    params = tiny_model(0)
    _, target = small_benchmark()
    target = dataclasses.replace(target, features=target.features[:, :4])
    with pytest.raises(UnlabeledError):
        evaluate(params, target.without_labels())


def test_evaluate_does_not_mutate_params():
    params = tiny_model(1)
    before = {k: v.copy() for k, v in params.named_arrays().items()}
    _, target = small_benchmark()
    target = dataclasses.replace(target, features=target.features[:, :4])
    evaluate(params, target)
    for name, array in params.named_arrays().items():
        np.testing.assert_array_equal(array, before[name])


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------


def test_build_teachers_calibrates_to_tau():
    source, target = small_benchmark()
    temperature, t_src, t_tgt = build_teachers(small_config(tau=0.8), source, target)
    achieved = mean_winning_probability(source.zeroshot, target.zeroshot, temperature)
    assert abs(achieved - 0.8) <= 1e-6
    # Each teacher is row-aligned with its dataset; the trainer gathers by row.
    assert t_src.sample_ids == source.sample_ids
    assert t_tgt.sample_ids == target.sample_ids
    np.testing.assert_array_equal(t_src.probs.argmax(axis=1), source.zeroshot.argmax(axis=1))
    np.testing.assert_array_equal(t_tgt.probs.argmax(axis=1), target.zeroshot.argmax(axis=1))


def test_build_teachers_uncalibrated_mode_uses_unit_temperature():
    source, target = small_benchmark()
    temperature, _, t_tgt = build_teachers(small_config(tau=None), source, target)
    assert temperature == 1.0
    np.testing.assert_array_equal(t_tgt.probs, stable_softmax(target.zeroshot, 1.0))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_run_is_deterministic():
    source, target = small_benchmark()
    config = small_config(scheme="v1")
    a, b = run(config, source, target), run(config, source, target)
    assert a.metrics == b.metrics
    np.testing.assert_array_equal(a.prediction_probs, b.prediction_probs)
    assert a.temperature == b.temperature
    for name, array in a.params.named_arrays().items():
        np.testing.assert_array_equal(array, b.params.named_arrays()[name])


def test_run_result_bookkeeping():
    source, target = small_benchmark()
    result = run(small_config(scheme="v1"), source, target)
    assert result.prediction_ids == target.sample_ids
    assert result.accuracy == result.metrics[-1].target_accuracy
    assert len(result.metrics) == 2
    assert [m.episode for m in result.metrics] == [0, 1]
    assert result.fraction == 0.5 and result.scheme == "v1"
    np.testing.assert_allclose(result.prediction_probs.sum(axis=1), 1.0, atol=1e-12)


def test_weak_only_equals_v1_at_zero_expansion():
    source, target = small_benchmark()
    weak = run(small_config(scheme="weak_only"), source, target)
    v1_zero = run(small_config(scheme="v1", expansion_fraction=0.0), source, target)
    assert weak.metrics == v1_zero.metrics
    np.testing.assert_array_equal(weak.prediction_probs, v1_zero.prediction_probs)


def test_cdan_only_disables_distillation():
    source, target = small_benchmark()
    result = run(small_config(scheme="cdan_only"), source, target)
    assert all(m.l_kd == 0.0 for m in result.metrics)
    assert all(m.l_ce > 0.0 for m in result.metrics)
    assert all(m.l_ad > 0.0 for m in result.metrics)


def test_zeroshot_only_reports_the_oracle_argmax():
    source, target = small_benchmark()
    result = run(small_config(scheme="zeroshot_only"), source, target)
    expected_probs = stable_softmax(target.zeroshot, 1.0)
    np.testing.assert_array_equal(result.prediction_probs, expected_probs)
    expected_acc = float((target.zeroshot.argmax(axis=1) == target.labels).mean())
    assert result.accuracy == expected_acc
    assert len(result.metrics) == 1


def test_v2_concatenates_two_runs_and_persists_predictions():
    source, target = small_benchmark()
    config = small_config(scheme="v2")
    result = run(config, source, target)
    assert len(result.metrics) == 4  # 2 episodes per run
    assert [m.episode for m in result.metrics] == [0, 1, 2, 3]
    assert result.first_run is not None
    assert result.fraction == V2_FRACTIONS[1]
    assert result.first_run.fraction == V2_FRACTIONS[0]
    assert result.first_run.prediction_ids == target.sample_ids
    assert result.first_run.prediction_probs.shape == result.prediction_probs.shape


def test_v2_first_run_equals_a_plain_v1_at_the_first_fraction():
    source, target = small_benchmark()
    v2 = run(small_config(scheme="v2"), source, target)
    v1 = run(
        small_config(scheme="v1", expansion_fraction=1.0 / 3.0), source, target
    )
    assert v2.first_run.metrics == v1.metrics
    np.testing.assert_array_equal(v2.first_run.prediction_probs, v1.prediction_probs)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("overrides", [dict(episodes=0), dict(batch_size=1)],
                         ids=["episodes-0", "batch_size-1"])
def test_no_scheme_trains_on_an_invalid_config(monkeypatch, scheme, overrides):
    def fail(*args):
        raise AssertionError("trained on an invalid config")

    for name in ("build_teachers", "_single_run", "_zeroshot_only"):
        monkeypatch.setattr(trainer, name, fail)
    source, target = small_benchmark()
    with pytest.raises(ConfigInvalidError, match=next(iter(overrides))):
        run(small_config(scheme=scheme, **overrides), source, target)


def test_run_rejects_invalid_config():
    source, target = small_benchmark()
    with pytest.raises(ConfigInvalidError):
        run(small_config(scheme="nope"), source, target)
    with pytest.raises(ConfigInvalidError):
        # K = 3 here, so tau must exceed 1/3.
        run(small_config(tau=0.3), source, target)


def test_training_beats_chance_on_an_easy_benchmark():
    spec = SyntheticSpec.standard(
        seed=0,
        n_classes=3,
        feature_dim=6,
        per_class=10,
        shift_magnitude=0.5,
        noise_scale=0.4,
        class_std=0.4,
    )
    source, target = make_benchmark(spec)
    result = run(small_config(scheme="v1", episodes=8), source, target)
    assert result.accuracy > 0.6  # chance is 1/3


def test_seed_changes_the_run():
    source, target = small_benchmark()
    a = run(small_config(seed=0), source, target)
    b = run(small_config(seed=1), source, target)
    assert not np.array_equal(a.prediction_probs, b.prediction_probs)


def test_v2_calibrates_once(monkeypatch):
    import swguide.trainer as trainer

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_temperature(*args, **kwargs)

    monkeypatch.setattr(trainer, "solve_temperature", counting)
    source, target = small_benchmark()
    run(small_config(scheme="v2"), source, target)
    assert len(calls) == 1


def test_inference_and_norm_adaptation_record_no_tape(monkeypatch):
    source, target = small_benchmark()
    params = tiny_model(0, d_x=source.feature_dim, k=source.n_classes)
    tapes = []
    init = ad.Tape.__init__

    def counting_init(self):
        tapes.append(self)
        init(self)

    monkeypatch.setattr(ad.Tape, "__init__", counting_init)
    evaluate(params, target)
    predict_target(params, target)
    adapt_model(params, source, target.without_labels())
    assert tapes == []
    ad.Tape()  # the counter itself works
    assert len(tapes) == 1


def test_finished_tapes_are_freed_without_the_garbage_collector():
    source, target = small_benchmark()
    config = small_config(scheme="v1")
    gc.collect()
    gc.disable()
    try:
        result = run(config, source, target)
        forward(result.params, target.features, "target")
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_no_step_tape_is_alive_when_the_run_predicts(monkeypatch):
    import swguide.trainer as trainer

    tapes = []
    init = ad.Tape.__init__

    def tracked_init(self):
        init(self)
        tapes.append(weakref.ref(self))

    monkeypatch.setattr(ad.Tape, "__init__", tracked_init)
    entered = []
    predict = trainer.predict_target

    def entry(*args):
        entered.append(sum(ref() is not None for ref in tapes))
        return predict(*args)

    monkeypatch.setattr(trainer, "predict_target", entry)
    source, target = small_benchmark()
    gc.collect()
    gc.disable()  # tapes must go by reference counting alone
    try:
        run(small_config(scheme="v1", episodes=2), source, target)
    finally:
        gc.enable()
    assert len(tapes) > 2
    assert entered == [0, 0]  # one prediction per episode, no tape alive


@pytest.mark.parametrize("scheme, nodes", [("v1", 44), ("cdan_only", 40)])
def test_a_training_step_records_one_node_per_fused_layer(monkeypatch, scheme, nodes):
    """19 leaves, then a linear and a relu-folded domain_affine per extractor
    layer, a classifier linear, softmax, the losses, and a discriminator of
    reversal, relu-folded linear, linear and sigmoid."""
    counts = []
    backward = ad.backward

    def counting(tape, loss):
        counts.append(len(tape.nodes))
        backward(tape, loss)

    monkeypatch.setattr(ad, "backward", counting)
    source, target = small_benchmark()
    run(small_config(scheme=scheme, episodes=1), source, target)
    assert counts and set(counts) == {nodes}


def test_trained_params_are_views_of_one_flat_buffer():
    source, target = small_benchmark()
    result = run(small_config(scheme="v1"), source, target)
    trainable = list(result.params.trainable_arrays().values())
    base = trainable[0].base
    assert base is not None and base.ndim == 1
    assert all(array.base is base for array in trainable)
    assert base.size == sum(array.size for array in trainable)


def _keep_rows(dataset, keep):
    rows = np.flatnonzero(keep)
    return dataclasses.replace(
        dataset,
        sample_ids=tuple(dataset.sample_ids[i] for i in rows),
        roles=tuple(dataset.roles[i] for i in rows),
        labels=dataset.labels[rows],
        features=dataset.features[rows],
        zeroshot=dataset.zeroshot[rows],
    )


def _never_predicted(dataset, cls):
    shifted = dataset.zeroshot - 100.0 * np.eye(dataset.n_classes)[cls]
    return dataclasses.replace(dataset, zeroshot=shifted)


@pytest.mark.parametrize("tau", [0.9, None], ids=["tau0.9", "tau-none"])
@pytest.mark.parametrize("scheme", ["v1", "v2"])
@pytest.mark.parametrize("case", ["single_class_target", "never_predicted_class"])
def test_degenerate_class_layouts_train_to_row_stochastic_predictions(case, scheme, tau):
    source, target = small_benchmark(per_class=10)
    if case == "single_class_target":
        target = _keep_rows(target, target.labels == 1)
        assert set(target.labels) == {1}
    else:
        source, target = _never_predicted(source, 2), _never_predicted(target, 2)
        assert (target.zeroshot.argmax(axis=1) != 2).all()
    result = run(small_config(scheme=scheme, tau=tau), source, target)
    probs = result.prediction_probs
    assert probs.shape == (len(target), 3)
    assert np.isfinite(probs).all() and (probs >= 0.0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert 0.0 <= result.accuracy <= 1.0


def test_every_backward_rule_is_recorded_by_training_or_traced_by_the_benchmark(monkeypatch):
    """A backward rule that no training step records, and that the
    benchmark's tracer (``bench/spans.py``) does not look up, belongs to an
    op only tests call."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorded = set()
    backward = ad.backward

    def recording(tape, loss):
        recorded.update(node.op for node in tape.nodes)
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", recording)
    source, target = small_benchmark()
    for scheme in ("v1", "v2", "cdan_only"):
        run(small_config(scheme=scheme, episodes=1), source, target)
    assert {"linear", "domain_affine", "weighted_sum"} <= recorded
    assert sorted(set(ad._BACKWARD) - recorded - set(spans.OPS)) == []
