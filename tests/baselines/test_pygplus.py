"""Tests for the PyG+ baseline."""

import numpy as np
import pytest

from repro.baselines import PyGPlus
from repro.bench.runner import build_system
from repro.core.base import TrainConfig
from repro.errors import OutOfMemoryError, OutOfTimeError
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec


def build(host_gb=32, sample_only=False):
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=host_gb))
    s = PyGPlus(m, ds, TrainConfig(batch_size=20), sample_only=sample_only)
    return m, s


def test_epoch_runs_and_learns():
    m, s = build()
    stats = s.run_epochs(3, eval_every=3)
    assert len(stats) == 3
    assert stats[-1].loss < stats[0].loss
    assert stats[-1].val_acc > 0.2
    s.shutdown()


def test_feature_faults_go_through_page_cache():
    m, s = build()
    stats = s.run_epochs(1)
    # Both topology and feature pages fault through the shared cache.
    assert stats[0].cache_misses > 0
    assert m.page_cache.misses > 0
    s.shutdown()


def test_sample_only_mode_skips_extract_and_train():
    m, s = build(sample_only=True)
    stats = s.run_epochs(1)
    assert stats[0].stages.extract == 0.0
    assert stats[0].stages.train == 0.0
    assert stats[0].stages.sample > 0.0
    assert np.isnan(stats[0].loss)
    s.shutdown()


@pytest.mark.parametrize("system", ["gnndrive-gpu", "pyg+", "ginex"])
def test_sample_only_epochs_report_nan_loss_and_skip_eval(system):
    """One rule for Fig. 2's '-only' epochs in every system: no batch
    trains, so the loss is NaN and no untrained model is evaluated."""
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=32))
    s = build_system(system, m, ds, TrainConfig(batch_size=20),
                     sample_only=True)
    stats = s.run_epochs(2, eval_every=1)
    s.shutdown()
    for st in stats:
        assert np.isnan(st.loss)
        assert np.isnan(st.val_acc)
        assert st.train_acc == 0.0
        assert st.num_batches == s.plan.num_batches
        assert st.stages.sample > 0.0
        assert st.stages.extract == st.stages.train == 0.0


def test_sample_only_faster_than_full_epoch():
    """The Fig. 2 mechanism: extraction slows sampling down."""
    m1, only = build(sample_only=True)
    t_only = only.run_epochs(2)[-1].stages.sample
    only.shutdown()
    m2, full = build(sample_only=False)
    t_full = full.run_epochs(2)[-1].stages.sample
    full.shutdown()
    assert t_full >= t_only * 0.9  # contention never helps sampling


def test_more_memory_speeds_up_pygplus():
    """Fig. 9: PyG+ is highly sensitive to page-cache size.

    The tiny dataset's working set is ~0.4 MB; a 0.3 MB-scaled host
    forces steady-state thrashing while a large host caches everything
    after the first epoch.
    """
    _, small = build(host_gb=0.3)
    s_small = small.run_epochs(2)[-1]
    small.shutdown()
    _, big = build(host_gb=512)
    s_big = big.run_epochs(2)[-1]
    big.shutdown()
    assert s_big.epoch_time < s_small.epoch_time
    assert s_big.cache_misses < s_small.cache_misses


def test_gpu_oom_on_tiny_device():
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=32, gpu_capacity=1 << 14))
    with pytest.raises(OutOfMemoryError):
        s = PyGPlus(m, ds, TrainConfig(batch_size=20))
        s.run_epochs(1)


def test_out_of_time():
    _, s = build()
    with pytest.raises(OutOfTimeError):
        s.run_epochs(10, time_budget=1e-9)
