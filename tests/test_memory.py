"""Memory regression bounds, measured with tracemalloc.

tracemalloc counts every Python and NumPy allocation exactly, so its peak
is deterministic where a process's resident size is not.  Each bound is
the peak this code measured plus 25% headroom; see CHANGES.md for the
figures.  A change may tighten these bounds but never loosen them.
"""

import tracemalloc

from swguide import trainer
from swguide.data import SyntheticSpec, make_benchmark, read_dataset, write_dataset

MB = 1e6
# Measured peaks (Python 3.11, NumPy 2.4): read 5.58, write 0.056, run 24.18.
READ_PAIR_PEAK_MB = 7.0
WRITE_PEAK_MB = 0.07
RUN_PEAK_MB = 30.2


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
