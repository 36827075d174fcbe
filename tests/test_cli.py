"""End-to-end tests of the command-line interface, run in-process."""

import numpy as np
import pytest

from swguide.cli import main
from swguide.data import (
    DomainDataset,
    SyntheticSpec,
    make_benchmark,
    read_array_file,
    read_dataset,
    write_array_file,
    write_dataset,
)

@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One small generated benchmark shared by the training-command tests."""
    root = tmp_path_factory.mktemp("bench")
    source, target = str(root / "source.txt"), str(root / "target.txt")
    code = main(
        [
            "gen", "--out-source", source, "--out-target", target,
            "--seed", "0", "--classes", "3", "--feature-dim", "6",
            "--per-class", "6", "--shift", "0.8", "--noise", "0.6",
            "--class-std", "0.6",
        ]
    )
    assert code == 0
    return source, target


def _train_args(source, target, *extra):
    return [
        "train", "--source", source, "--target", target,
        "--episodes", "2", "--batch-size", "8",
        "--hidden-dim", "8", "--disc-hidden", "8",
        *extra,
    ]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_parseable_deterministic_files(tmp_path, capsys):
    args = [
        "gen", "--out-source", str(tmp_path / "s.txt"),
        "--out-target", str(tmp_path / "t.txt"),
        "--seed", "3", "--classes", "3", "--feature-dim", "6", "--per-class", "5",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "target_oracle_accuracy=" in out
    source = read_dataset(tmp_path / "s.txt")
    target = read_dataset(tmp_path / "t.txt")
    assert len(source) == len(target) == 15
    assert set(source.roles) == {"source"}
    assert set(target.roles) == {"target"}

    args2 = [
        "gen", "--out-source", str(tmp_path / "s2.txt"),
        "--out-target", str(tmp_path / "t2.txt"),
        "--seed", "3", "--classes", "3", "--feature-dim", "6", "--per-class", "5",
    ]
    assert main(args2) == 0
    assert (tmp_path / "s.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()
    assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "t2.txt").read_bytes()


def test_gen_defaults_are_the_standard_spec(tmp_path, capsys):
    args = ["gen", "--out-source", str(tmp_path / "s.txt"),
            "--out-target", str(tmp_path / "t.txt")]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "# config",
        "seed=0 classes=5 feature_dim=20 per_class=40 mean_scale=3.0 class_std=1.0 "
        "shift=1.5 rotation=0.3 noise=0.8 class_angle=1.3 oracle_sharpness=0.1",
    ]
    source, target = make_benchmark(SyntheticSpec.standard())
    write_dataset(tmp_path / "s_ref.txt", source)
    write_dataset(tmp_path / "t_ref.txt", target)
    for name in ("s", "t"):
        expected = (tmp_path / f"{name}_ref.txt").read_bytes()
        assert (tmp_path / f"{name}.txt").read_bytes() == expected


def test_gen_class_angle_flag_changes_only_the_target(tmp_path):
    def gen(tag, *extra):
        args = [
            "gen", "--out-source", str(tmp_path / f"s{tag}.txt"),
            "--out-target", str(tmp_path / f"t{tag}.txt"),
            "--seed", "1", "--classes", "3", "--feature-dim", "6",
            "--per-class", "4", *extra,
        ]
        assert main(args) == 0

    gen("a")
    gen("b", "--class-angle", "0")
    assert (tmp_path / "sa.txt").read_bytes() == (tmp_path / "sb.txt").read_bytes()
    assert (tmp_path / "ta.txt").read_bytes() != (tmp_path / "tb.txt").read_bytes()
    straight = read_dataset(tmp_path / "tb.txt")
    assert len(straight) == 12


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _write_pair(tmp_path, zeroshot):
    """A source and a target file whose zero-shot scores are both ``zeroshot``."""
    zeroshot = np.asarray(zeroshot, dtype=np.float64)
    n = len(zeroshot)
    paths = []
    for role, label in (("source", 0), ("target", -1)):
        path = tmp_path / f"{role[0]}.txt"
        write_dataset(
            path,
            DomainDataset(
                sample_ids=tuple(f"{role[0]}{i}" for i in range(n)),
                roles=(role,) * n,
                labels=np.full(n, label, dtype=np.int64),
                features=np.zeros((n, 2)),
                zeroshot=zeroshot,
            ),
        )
        paths.append(str(path))
    return paths


def test_calibrate_prints_the_unit_temperature_fixture(tmp_path, capsys):
    source, target = _write_pair(tmp_path, [[np.log(9.0), 0.0]])
    code = main(["calibrate", "--source", source, "--target", target, "--tau", "0.9"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "T=1.000000"
    assert out[1] == "achieved_mean=0.900000"
    assert out[2].startswith("iterations=")


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--class-std", "nan", "class_std"),
        ("--noise", "nan", "noise_scale"),
        ("--mean-scale", "inf", "class_means"),
        ("--rotation", "nan", "rotation"),
        ("--shift", "nan", "shift"),
        ("--oracle-sharpness", "inf", "oracle_sharpness"),
    ],
)
def test_gen_rejects_a_non_finite_setting_naming_its_field(tmp_path, capsys, flag, value, field):
    source, target = str(tmp_path / "s.txt"), str(tmp_path / "t.txt")
    code = main(
        ["gen", "--out-source", source, "--out-target", target, "--per-class", "2", flag, value]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be" in err


def test_calibrate_infeasible_exits_with_error(tmp_path, capsys):
    # Tied scores cap the mean at 1/2.
    source, target = _write_pair(tmp_path, np.zeros((1, 2)))
    code = main(["calibrate", "--source", source, "--target", target])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_calibrate_with_no_temperature_in_range_exits_2(tmp_path, capsys):
    # Scores 1e-15 apart stay near 1/2 even at the coldest temperature tried.
    source, target = _write_pair(tmp_path, [[0.0, 1e-15], [1e-15, 0.0]])
    code = main(["calibrate", "--source", source, "--target", target])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no temperature above 1e-12" in err


def test_calibrate_tau_at_most_one_over_k_names_the_limit(tmp_path, capsys):
    source, target = str(tmp_path / "s.txt"), str(tmp_path / "t.txt")
    assert main(["gen", "--out-source", source, "--out-target", target]) == 0
    capsys.readouterr()
    code = main(["calibrate", "--source", source, "--target", target, "--tau", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1/K = 0.200000" in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts_and_summary(bench, tmp_path, capsys):
    source, target = bench
    out_dir = tmp_path / "run"
    assert main(_train_args(source, target, "--out", str(out_dir))) == 0
    stdout = capsys.readouterr().out
    assert "# config" in stdout and "# result" in stdout
    assert "scheme=v1" in stdout

    for name in ("config.txt", "metrics.txt", "checkpoint.txt",
                 "predictions.txt", "summary.txt"):
        assert (out_dir / name).exists(), name
    assert len((out_dir / "metrics.txt").read_text().splitlines()) == 2
    predictions = (out_dir / "predictions.txt").read_text().splitlines()
    assert predictions[0] == "id,p:3" and len(predictions) == 1 + 18
    summary = (out_dir / "summary.txt").read_text()
    assert summary.rstrip("\n") in stdout


def test_train_artifacts_are_reproducible(bench, tmp_path):
    source, target = bench
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(source, target, "--out", str(a))) == 0
    assert main(_train_args(source, target, "--out", str(b))) == 0
    for name in ("metrics.txt", "predictions.txt", "checkpoint.txt",
                 "config.txt", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_eval_reproduces_the_training_accuracy(bench, tmp_path, capsys):
    source, target = bench
    out_dir = tmp_path / "run"
    assert main(_train_args(source, target, "--out", str(out_dir))) == 0
    summary = (out_dir / "summary.txt").read_text()
    accuracy_repr = summary.split("accuracy=")[1].split()[0]
    capsys.readouterr()
    code = main(
        ["eval", "--checkpoint", str(out_dir / "checkpoint.txt"),
         "--dataset", target]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == f"accuracy={accuracy_repr}"


def test_train_config_file_with_flag_override(bench, tmp_path, capsys):
    source, target = bench
    config_path = tmp_path / "config.txt"
    config_path.write_text(
        "# a comment\nepisodes=1\nbatch_size=8\nhidden_dim=8\ndisc_hidden=8\n"
        "tau=none\n"
    )
    code = main(
        ["train", "--source", source, "--target", target,
         "--config", str(config_path), "--episodes", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "episodes=2" in out  # flag beats file
    assert "tau=none" in out
    assert "batch_size=8" in out


def test_train_rejects_unknown_config_key(bench, tmp_path, capsys):
    source, target = bench
    config_path = tmp_path / "config.txt"
    config_path.write_text("not_a_field=1\n")
    code = main(
        ["train", "--source", source, "--target", target,
         "--config", str(config_path)]
    )
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "w_ce=1.0",
        "w_ad=1.0",
        "v2_fraction_first=0.3333333333333333",
        "v2_fraction_second=0.6666666666666666",
        "pseudo_source_adversarial_domain=source",
    ],
)
def test_a_removed_config_key_is_unknown_and_has_no_flag(bench, tmp_path, capsys, line):
    source, target = bench
    key = line.partition("=")[0]
    config_path = tmp_path / "config.txt"
    config_path.write_text(line + "\n")
    code = main(
        ["train", "--source", source, "--target", target,
         "--config", str(config_path)]
    )
    assert code == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    assert "--" + key.replace("_", "-") not in capsys.readouterr().out


def test_train_rejects_invalid_config_value(bench, capsys):
    source, target = bench
    code = main(_train_args(source, target, "--tau", "0.2"))
    assert code == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [("train", ()), ("sweep-expansion", ("--fractions", "0.5")),
     ("sweep-tau", ("--taus", "0.9"))],
    ids=["train", "sweep-expansion", "sweep-tau"],
)
def test_an_invalid_config_exits_2_before_its_config_is_echoed(
    bench, capsys, command, extra
):
    source, target = bench
    code = main([command, "--source", source, "--target", target,
                 "--batch-size", "100000000", *extra])
    assert code == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "batch_size" in err
    assert "# config" not in out


def test_a_layer_width_past_its_bound_exits_2_before_allocating(bench, capsys):
    source, target = bench
    code = main(_train_args(source, target, "--hidden-dim", "1000000000000000"))
    assert code == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "hidden_dim" in err and "4096" in err
    assert "# config" not in out


def test_train_v2_persists_first_run_predictions(bench, tmp_path):
    source, target = bench
    out_dir = tmp_path / "v2"
    assert main(
        _train_args(source, target, "--scheme", "v2", "--out", str(out_dir))
    ) == 0
    predictions = (out_dir / "predictions_run1.txt").read_text().splitlines()
    assert predictions[0] == "id,p:3" and len(predictions) == 1 + 18
    metrics = (out_dir / "metrics.txt").read_text().splitlines()
    assert len(metrics) == 4  # both runs' episodes concatenated


@pytest.mark.parametrize(
    "command, extra",
    [
        ("train", ("--episodes", "0")),
        ("train", ("--batch-size", "1")),
        ("sweep-tau", ("--taus", "0.9", "--episodes", "0")),
    ],
    ids=["train-episodes", "train-batch-size", "sweep-tau-episodes"],
)
def test_v2_with_an_out_dir_still_validates_the_config(
    bench, tmp_path, capsys, command, extra
):
    source, target = bench
    code = main(
        [command, "--source", source, "--target", target,
         "--scheme", "v2", "--out", str(tmp_path / "v2"), *extra]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, flag",
    [
        ("train", ("--episodes", "abc"), "--episodes"),
        ("sweep-expansion", ("--fractions", "x"), "--fractions"),
        ("sweep-tau", ("--taus", "0.9", "--seeds", "a"), "--seeds"),
    ],
    ids=["train", "sweep-expansion", "sweep-tau"],
)
def test_non_numeric_flag_values_exit_2_naming_the_flag(
    bench, capsys, command, extra, flag
):
    source, target = bench
    code = main([command, "--source", source, "--target", target, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "command, extra",
    [("train", ("--seed", "-1")), ("calibrate", ("--tau", "1.5"))],
    ids=["train-seed", "calibrate-tau"],
)
def test_out_of_range_flag_values_exit_2(bench, capsys, command, extra):
    source, target = bench
    code = main([command, "--source", source, "--target", target, *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--lr-heads", "lr_heads"),
        ("--lambda-value", "lambda_value"),
        ("--augment-noise", "augment_noise"),
        ("--w-kd", "w_kd"),
        ("--expansion-fraction", "expansion_fraction"),
    ],
    ids=["learning-rate", "lambda", "augment-noise", "loss-weight", "fraction"],
)
def test_nan_config_values_exit_2_naming_the_field(bench, capsys, flag, field):
    source, target = bench
    code = main(_train_args(source, target, flag, "nan"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "non-finite" not in err


@pytest.fixture(scope="module")
def checkpoint(bench, tmp_path_factory):
    """The checkpoint of one small training run."""
    source, target = bench
    out_dir = tmp_path_factory.mktemp("ckpt") / "run"
    assert main(_train_args(source, target, "--out", str(out_dir))) == 0
    return read_array_file(out_dir / "checkpoint.txt")


@pytest.mark.parametrize(
    "changes",
    [
        {"extractor.0.bias": np.zeros((1, 1))},
        {"classifier.bias": np.zeros((1, 1))},
        {f"norm.0.target.{key}": np.ones((1, 1)) for key in ("gamma", "beta", "mean", "var")},
    ],
    ids=["extractor-bias", "classifier-bias", "norm-target-states"],
)
def test_eval_rejects_a_checkpoint_with_a_broadcastable_width(
    bench, checkpoint, tmp_path, capsys, changes
):
    _, target = bench
    path = tmp_path / "checkpoint.txt"
    write_array_file(path, {**checkpoint, **changes})
    code = main(["eval", "--checkpoint", str(path), "--dataset", target])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and next(iter(changes)) in err


@pytest.mark.parametrize(
    "name, value",
    [("norm.1.target.gamma", np.inf), ("classifier.weight", np.nan),
     ("discriminator.0.weight", np.inf)],
    ids=["norm-gamma-inf", "classifier-nan", "discriminator-inf"],
)
def test_eval_rejects_a_checkpoint_with_a_non_finite_array(
    bench, checkpoint, tmp_path, capsys, name, value
):
    _, target = bench
    array = checkpoint[name].copy()
    array[0, -1] = value
    path = tmp_path / "checkpoint.txt"
    write_array_file(path, {**checkpoint, name: array})
    code = main(["eval", "--checkpoint", str(path), "--dataset", target])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and name in err


def test_eval_of_a_dataset_wider_than_the_checkpoint_exits_2(
    checkpoint, wide_sources, tmp_path, capsys
):
    path = tmp_path / "checkpoint.txt"
    write_array_file(path, checkpoint)
    code = main(["eval", "--checkpoint", str(path), "--dataset", wide_sources["3"][1]])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "matmul inner dims differ" in err


@pytest.mark.parametrize("width", ["999999999999", "1" + "0" * 30])
def test_eval_of_a_dataset_claiming_a_huge_width_exits_2_naming_the_line(
    checkpoint, tmp_path, capsys, width
):
    path = tmp_path / "checkpoint.txt"
    write_array_file(path, checkpoint)
    dataset = tmp_path / "huge.txt"
    dataset.write_text(f"id,domain,label,f:{width},z:3\nt0,target,0,1.0\n")
    code = main(["eval", "--checkpoint", str(path), "--dataset", str(dataset)])
    assert code == 2
    out, err = capsys.readouterr()
    implied = int(width) + 6
    assert out == "" and err.startswith("error:")
    assert f"row has 4 fields, header implies {implied}" in err and "(line 2)" in err


def test_train_missing_dataset_file_is_a_clean_error(tmp_path, capsys):
    code = main(
        ["train", "--source", str(tmp_path / "missing.txt"),
         "--target", str(tmp_path / "also_missing.txt")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("slot", ["target", "config", "checkpoint"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(bench, tmp_path, capsys, slot):
    source, target = bench
    bad = tmp_path / "random.bin"
    bad.write_bytes(np.random.default_rng(0).bytes(500))
    args = {
        "target": _train_args(source, str(bad)),
        "config": _train_args(source, target, "--config", str(bad)),
        "checkpoint": ["eval", "--checkpoint", str(bad), "--dataset", target],
    }[slot]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "UTF-8" in err


@pytest.fixture(scope="module")
def wide_sources(tmp_path_factory):
    """Ten-feature sources with three and with five classes, to pair with bench."""
    root = tmp_path_factory.mktemp("wide")
    paths = {}
    for classes in ("3", "5"):
        source, target = str(root / f"s{classes}.txt"), str(root / f"t{classes}.txt")
        code = main(["gen", "--out-source", source, "--out-target", target,
                     "--classes", classes, "--feature-dim", "10", "--per-class", "4"])
        assert code == 0
        paths[classes] = source, target
    return paths


@pytest.mark.parametrize(
    "scheme, extra",
    [("v1", ()), ("v1", ("--tau", "none")), ("v2", ()), ("weak_only", ()),
     ("cdan_only", ()), ("zeroshot_only", ())],
    ids=["v1", "v1-tau-none", "v2", "weak_only", "cdan_only", "zeroshot_only"],
)
@pytest.mark.parametrize("mismatch", ["classes", "features"])
def test_a_pair_of_different_shapes_exits_2_under_every_scheme(
    bench, wide_sources, capsys, scheme, extra, mismatch
):
    if mismatch == "classes":
        source, target = wide_sources["5"][0], wide_sources["3"][1]
        cause = "class counts differ: source 5, target 3"
    else:
        source, target = wide_sources["3"][0], bench[1]
        cause = "feature widths differ: source 10, target 6"
    code = main(_train_args(source, target, "--scheme", scheme, *extra))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and cause in err


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_expansion_table_and_directories(bench, tmp_path, capsys):
    source, target = bench
    out_dir = tmp_path / "sweep"
    code = main(
        ["sweep-expansion", "--source", source, "--target", target,
         "--fractions", "0.0,0.5", "--seeds", "0,1", "--out", str(out_dir),
         "--episodes", "1", "--batch-size", "8",
         "--hidden-dim", "8", "--disc-hidden", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    table = (out_dir / "table.txt").read_text().splitlines()
    assert len(table) == 2
    assert table[0].startswith("fraction=0.0 accuracy=")
    assert table[1].startswith("fraction=0.5 accuracy=")
    assert all("n_seeds=2" in line for line in table)
    for line in table:
        assert line in out
    for fraction in ("0.0", "0.5"):
        for seed in ("0", "1"):
            run_dir = out_dir / f"fraction_{fraction}" / f"seed_{seed}"
            assert (run_dir / "metrics.txt").exists()


def test_sweep_tau_handles_the_uncalibrated_setting(bench, tmp_path, capsys):
    source, target = bench
    out_dir = tmp_path / "sweep"
    code = main(
        ["sweep-tau", "--source", source, "--target", target,
         "--taus", "none,0.9", "--seeds", "0", "--out", str(out_dir),
         "--episodes", "1", "--batch-size", "8",
         "--hidden-dim", "8", "--disc-hidden", "8"]
    )
    assert code == 0
    table = (out_dir / "table.txt").read_text().splitlines()
    assert len(table) == 2
    assert table[0].startswith("tau=none accuracy=")
    assert table[1].startswith("tau=0.9 accuracy=")
    assert (out_dir / "tau_none" / "seed_0" / "predictions.txt").exists()
    assert (out_dir / "tau_0.9" / "seed_0" / "predictions.txt").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, extra, flag",
    [
        ("sweep-expansion", ("--fractions", ""), "--fractions"),
        ("sweep-expansion", ("--fractions", "0.5", "--seeds", ","), "--seeds"),
        ("sweep-tau", ("--taus", ","), "--taus"),
    ],
    ids=["fractions", "seeds", "taus"],
)
def test_empty_sweep_lists_exit_2_naming_the_flag(bench, capsys, command, extra, flag):
    source, target = bench
    code = main([command, "--source", source, "--target", target,
                 "--episodes", "1", "--batch-size", "8", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "command, extra, flag",
    [
        ("sweep-expansion", ("--fractions", "0.5,0.50"), "--fractions"),
        ("sweep-expansion", ("--fractions", "0.5", "--seeds", "0,1,00"), "--seeds"),
        ("sweep-tau", ("--taus", "none,0.9,None"), "--taus"),
    ],
    ids=["fractions", "seeds", "taus"],
)
def test_repeated_sweep_values_exit_2_naming_the_flag(bench, capsys, command, extra, flag):
    source, target = bench
    code = main([command, "--source", source, "--target", target,
                 "--episodes", "1", "--batch-size", "8", *extra])
    assert code == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and f"{flag} repeats a value" in err
    assert "# config" not in out


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "command, values", [("sweep-expansion", "--fractions"), ("sweep-tau", "--taus")]
)
def test_sweep_jobs_below_one_exit_2(bench, capsys, command, values, jobs):
    source, target = bench
    code = main([command, "--source", source, "--target", target, values, "0.9",
                 "--jobs", jobs, "--episodes", "1", "--batch-size", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err
