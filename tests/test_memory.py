"""Memory regression bounds, measured with tracemalloc.

tracemalloc counts every Python and NumPy allocation exactly, so its peak
is deterministic where a process's resident size is not.  Each bound is
the peak this code measured plus 25% headroom; see CHANGES.md for the
figures.  A change may tighten these bounds but never loosen them.
"""

import tracemalloc

import numpy as np

from swguide import trainer
from swguide.data import (
    SyntheticSpec,
    make_benchmark,
    read_array_file,
    read_dataset,
    rng_for,
    write_array_file,
    write_dataset,
)
from swguide.model import INFER_BLOCK_ROWS, init_params, pack_trainable
from swguide.norm_adapt import adapt_model

MB = 1e6
# Measured peaks (Python 3.11, NumPy 2.4): read 2.90, write 0.056, run 19.03,
# adapt and predict 13.81, step 32.47, checkpoint read 3.55.
READ_PAIR_PEAK_MB = 3.62
WRITE_PEAK_MB = 0.07
RUN_PEAK_MB = 23.79
ADAPT_PREDICT_PEAK_MB = 17.26
STEP_PEAK_MB = 40.58
CHECKPOINT_READ_PEAK_MB = 4.44


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_writing_and_reading_a_4000_row_pair_stay_under_their_peaks(tmp_path):
    source, target = make_benchmark(SyntheticSpec.standard(seed=0, per_class=800))
    paths = [tmp_path / "source.txt", tmp_path / "target.txt"]
    write_peak = _peak_mb(write_dataset, paths[0], source)
    assert write_peak <= WRITE_PEAK_MB, f"peak {write_peak:.3f} MB"
    write_dataset(paths[1], target)
    loaded = []
    peak = _peak_mb(lambda: loaded.extend(read_dataset(path) for path in paths))
    assert [len(dataset) for dataset in loaded] == [4000, 4000]
    assert peak <= READ_PAIR_PEAK_MB, f"peak {peak:.2f} MB"


def test_reading_a_checkpoint_of_train_large_shape_stays_under_its_peak(tmp_path):
    """A 2.1 MB checkpoint (K=5, hidden and discriminator width 128) is read
    line by line, never as a whole-file list of lines."""
    params = init_params(
        rng_for(0, "memory", "checkpoint"), input_dim=20, n_classes=5,
        hidden_dim=128, disc_hidden=128,
    )
    path = tmp_path / "checkpoint.txt"
    write_array_file(path, params.named_arrays())
    peak = _peak_mb(read_array_file, path)
    assert peak <= CHECKPOINT_READ_PEAK_MB, f"peak {peak:.2f} MB"


def test_a_batch_512_run_stays_under_its_peak():
    """The peak across every step of a run and its episode-end forward.  It
    stays low only while each step's tape is gone before that forward."""
    source, target = make_benchmark(SyntheticSpec.standard(seed=0, per_class=200))
    config = trainer.TrainConfig(
        scheme="v1", episodes=1, batch_size=512, hidden_dim=64, disc_hidden=64, seed=0
    )
    trainer.run(config, source, target)  # warm-up: first-call allocations are not the run's
    peak = _peak_mb(trainer.run, config, source, target)
    assert peak <= RUN_PEAK_MB, f"peak {peak:.2f} MB"


def _model(dataset, hidden):
    return init_params(
        rng_for(0, "memory", "model"), dataset.feature_dim, dataset.n_classes,
        hidden_dim=hidden, disc_hidden=hidden,
    )


def test_adapting_and_predicting_a_large_pair_stay_under_their_peak():
    """Inference keeps one (n, hidden) buffer and works in it in place, so
    the peak is about one such array, not three."""
    source, target = make_benchmark(SyntheticSpec.standard(seed=0, per_class=1700))
    assert len(target) > 2 * INFER_BLOCK_ROWS
    params = _model(source, 128)
    peak = _peak_mb(
        lambda: trainer.predict_target(adapt_model(params, source, target), target)
    )
    assert peak <= ADAPT_PREDICT_PEAK_MB, f"peak {peak:.2f} MB"


def test_a_batch_512_hidden_128_step_stays_under_its_peak():
    """One v1 step of train_large's shape: 1024 rows and a 1024 x 640 joint
    map.  Fused dense nodes keep no array for a product or a pre-relu value."""
    source, _ = make_benchmark(SyntheticSpec.standard(seed=0, per_class=40))
    config = trainer.TrainConfig(
        scheme="v1", episodes=1, batch_size=512, hidden_dim=128, disc_hidden=128, seed=0
    )
    flat, params = pack_trainable(_model(source, 128))
    optimizer = trainer.Adam(flat, np.full(flat.size, 1e-3))
    rng = rng_for(0, "memory", "step")
    half = config.batch_size // 2
    ce_mask = np.array(([True] * half + [False] * half) * 2)
    source_rows = ce_mask.astype(np.float64).reshape(-1, 1)
    args = (
        config, params, np.zeros_like(flat), optimizer,
        rng.standard_normal((4 * half, source.feature_dim)),
        np.where(ce_mask, rng.integers(0, source.n_classes, 4 * half), -1),
        ce_mask,
        {"source": source_rows, "target": 1.0 - source_rows},
        rng.dirichlet(np.ones(source.n_classes), 4 * half),
        source_rows,
        0.5,
    )
    trainer._train_step(*args)  # warm-up: first-call allocations are not the step's
    peak = _peak_mb(trainer._train_step, *args)
    assert peak <= STEP_PEAK_MB, f"peak {peak:.2f} MB"
