"""Tests for the MariusGNN baseline."""

import numpy as np
import pytest

from repro.baselines import MariusGNN, MariusConfig
from repro.core.base import TrainConfig
from repro.errors import OutOfMemoryError
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec


def build(host_gb=32, **kw):
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=host_gb))
    s = MariusGNN(m, ds, TrainConfig(batch_size=20),
                  MariusConfig(num_partitions=8, **kw))
    return m, s


def test_marius_runs_and_learns():
    m, s = build()
    stats = s.run_epochs(3, eval_every=3)
    assert stats[-1].loss < stats[0].loss * 1.2
    assert stats[-1].val_acc > 0.2


def test_data_preparation_on_critical_path():
    m, s = build()
    stats = s.run_epochs(1)
    assert stats[0].stages.data_prep > 0
    # Nothing overlaps preparation: the rest of the epoch is exactly the
    # sample, swap and train stages that follow it.
    assert stats[0].epoch_time - stats[0].stages.data_prep == pytest.approx(
        stats[0].stages.sample + stats[0].stages.extract
        + stats[0].stages.train)


def test_data_prep_repeats_every_epoch():
    m, s = build()
    stats = s.run_epochs(2)
    assert stats[0].stages.data_prep > 0
    assert stats[1].stages.data_prep > 0


def test_every_train_seed_used_once_per_epoch():
    m, s = build()
    stats = s.run_epochs(1)
    # All trainable seeds consumed: batch count covers the training set.
    total_seeds = sum(len(p) for p in s._seeds_by_part)
    assert total_seeds == len(s.dataset.train_idx)
    assert stats[0].num_batches >= total_seeds // s.train_cfg.batch_size


def test_low_iowait_during_training_phase():
    """Fig. 3c: MariusGNN's in-epoch I/O is minimal after data prep."""
    m, s = build()
    stats = s.run_epochs(1)
    prep_end = stats[0].stages.data_prep
    io_after = m.probe.io.utilization(prep_end, m.sim.now)
    io_during = m.probe.io.utilization(0.0, prep_end)
    assert io_during > io_after


def test_buffer_partitions_respect_memory():
    m, s = build(host_gb=32)
    assert 2 <= s.buffer_partitions <= 8
    m2, s2 = build(host_gb=512)
    assert s2.buffer_partitions >= s.buffer_partitions


def test_oom_when_scratch_exceeds_host():
    ds = make_dataset("tiny", seed=0, dim=768)  # big feature table
    m = Machine(MachineSpec.paper_scaled(host_gb=1))
    with pytest.raises(OutOfMemoryError):
        MariusGNN(m, ds, TrainConfig(batch_size=20),
                  MariusConfig(num_partitions=8))


def test_restricted_sampling_drops_nonresident_edges():
    m, s = build()
    from repro.sampling import NeighborSampler
    sampler = NeighborSampler(s.dataset.graph, s.fanouts,
                              np.random.default_rng(0))
    sub = sampler.sample(s.dataset.train_idx[:10])
    resident = np.zeros(8, dtype=bool)
    resident[0] = True  # only partition 0 resident
    restricted = s._restrict_to_buffer(sub, resident)
    assert restricted.total_edges() <= sub.total_edges()
    # Every surviving edge has a resident source.
    for layer in restricted.layers:
        src_global = restricted.all_nodes[layer.src_pos]
        assert np.all(resident[s.part[src_global]])


def test_explicit_buffer_partitions():
    m, s = build(buffer_partitions=3)
    assert s.buffer_partitions == 3


def test_config_validation():
    with pytest.raises(ValueError):
        MariusConfig(num_partitions=0)
    with pytest.raises(ValueError):
        MariusConfig(buffer_partitions=1)
