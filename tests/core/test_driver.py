"""Integration tests for the GNNDrive driver."""

import numpy as np
import pytest

from repro.core import GNNDrive, GNNDriveConfig, MultiGPUGNNDrive
from repro.core.base import TrainConfig
from repro.errors import OutOfMemoryError, OutOfTimeError
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec


@pytest.fixture(scope="module")
def tiny_ds():
    return make_dataset("tiny", seed=0)


def build(tiny_ds, device="gpu", host_gb=32, batch_size=20, **cfg_kw):
    machine = Machine(MachineSpec.paper_scaled(host_gb=host_gb))
    sysm = GNNDrive(machine, tiny_ds,
                    TrainConfig(batch_size=batch_size),
                    GNNDriveConfig(device=device, **cfg_kw))
    return machine, sysm


def fresh_ds():
    return make_dataset("tiny", seed=0)


def test_epoch_runs_and_learns(tiny_ds):
    machine, sysm = build(fresh_ds())
    stats = sysm.run_epochs(3, eval_every=1)
    assert len(stats) == 3
    assert stats[-1].val_acc > stats[0].loss * 0  # defined
    assert stats[-1].loss < stats[0].loss
    assert all(s.epoch_time > 0 for s in stats)
    assert stats[0].num_batches == sysm.plan.num_batches
    sysm.shutdown()


def test_gpu_time_charged_on_gpu(tiny_ds):
    machine, sysm = build(fresh_ds(), device="gpu")
    sysm.run_epochs(1)
    assert machine.gpu_busy[0].busy_time() > 0
    sysm.shutdown()


def test_cpu_variant_runs_without_gpu_time(tiny_ds):
    machine, sysm = build(fresh_ds(), device="cpu")
    sysm.run_epochs(1)
    assert machine.gpu_busy[0].busy_time() == 0
    assert machine.gpus[0].used == 0
    sysm.shutdown()


def test_cpu_variant_slower_training_stage(tiny_ds):
    _, gpu_sys = build(fresh_ds(), device="gpu")
    gpu_stats = gpu_sys.run_epochs(2)
    gpu_sys.shutdown()
    _, cpu_sys = build(fresh_ds(), device="cpu")
    cpu_stats = cpu_sys.run_epochs(2)
    cpu_sys.shutdown()
    assert cpu_stats[1].stages.train > gpu_stats[1].stages.train


def test_feature_buffer_reuse_grows_across_epochs(tiny_ds):
    # Tiny graph fits the buffer: epoch 2 should mostly reuse.
    _, sysm = build(fresh_ds())
    stats = sysm.run_epochs(2)
    assert stats[1].reuse_ratio > stats[0].reuse_ratio
    sysm.shutdown()


def test_bytes_read_scale_with_loads(tiny_ds):
    _, sysm = build(fresh_ds())
    stats = sysm.run_epochs(1)
    expected_min = stats[0].loaded_nodes * sysm.io_size
    assert stats[0].bytes_read >= expected_min
    sysm.shutdown()


def test_out_of_time_raises(tiny_ds):
    _, sysm = build(fresh_ds())
    with pytest.raises(OutOfTimeError):
        sysm.run_epochs(100, time_budget=1e-6)


def test_oom_when_feature_buffer_cannot_fit():
    ds = fresh_ds()
    machine = Machine(MachineSpec.paper_scaled(host_gb=32,
                                               gpu_capacity=1 << 16))
    with pytest.raises(OutOfMemoryError):
        GNNDrive(machine, ds, TrainConfig(batch_size=20),
                 GNNDriveConfig(device="gpu"))


def test_train_queue_depth_adapts_to_device_memory():
    ds = fresh_ds()
    probe_machine = Machine(MachineSpec.paper_scaled(host_gb=32))
    probe = GNNDrive(probe_machine, ds, TrainConfig(batch_size=20),
                     GNNDriveConfig())
    rec = ds.features.record_nbytes
    # Device memory just big enough for the deadlock-free minimum
    # ((Ne+1+1) batches of slots) plus model state and activations.
    needed_min = (probe.num_extractors + 2) * probe.max_batch_nodes
    tight = int(needed_min * rec + probe.model_state_bytes()
                + probe._probe_act_bytes + rec)
    machine = Machine(MachineSpec.paper_scaled(host_gb=32,
                                               gpu_capacity=tight))
    sysm = GNNDrive(machine, fresh_ds(), TrainConfig(batch_size=20),
                    GNNDriveConfig())
    assert sysm.train_queue_depth <= probe.train_queue_depth
    assert sysm.num_feature_slots <= probe.num_feature_slots
    # The tight system still trains correctly.
    stats = sysm.run_epochs(1)
    assert stats[0].num_batches > 0
    sysm.shutdown()


def test_reordering_does_not_change_convergence(tiny_ds):
    """Fig. 14's claim: reordering leaves accuracy unaffected —
    GNNDrive with many samplers converges like batch-sequential."""
    _, multi = build(fresh_ds(), num_samplers=4, num_extractors=4)
    multi_stats = multi.run_epochs(4, eval_every=4)
    multi.shutdown()
    _, single = build(fresh_ds(), num_samplers=1, num_extractors=1)
    single_stats = single.run_epochs(4, eval_every=4)
    single.shutdown()
    assert abs(multi_stats[-1].val_acc - single_stats[-1].val_acc) < 0.25


def test_stage_times_overlap(tiny_ds):
    """Pipelining: summed stage busy time exceeds wall-clock epoch time
    once extraction overlaps training."""
    _, sysm = build(fresh_ds())
    stats = sysm.run_epochs(1)
    s = stats[0]
    assert s.stages.extract > 0 and s.stages.sample > 0
    sysm.shutdown()


def test_multigpu_two_workers_faster_training_stage(tiny_ds):
    ds = fresh_ds()
    machine = Machine(MachineSpec.paper_scaled(host_gb=256, num_gpus=2))
    sysm = MultiGPUGNNDrive(machine, ds, TrainConfig(batch_size=20),
                            GNNDriveConfig(), num_workers=2)
    stats = sysm.run_epochs(1)
    assert stats[0].num_batches >= 2
    sysm.shutdown()


def test_multigpu_validation(tiny_ds):
    machine = Machine(MachineSpec.paper_scaled(host_gb=256, num_gpus=1))
    with pytest.raises(ValueError):
        MultiGPUGNNDrive(machine, fresh_ds(), TrainConfig(batch_size=20),
                         GNNDriveConfig(), num_workers=2)


def test_multigpu_replicas_stay_synchronised(tiny_ds):
    ds = fresh_ds()
    machine = Machine(MachineSpec.paper_scaled(host_gb=256, num_gpus=2))
    sysm = MultiGPUGNNDrive(machine, ds, TrainConfig(batch_size=20),
                            GNNDriveConfig(), num_workers=2)
    sysm.run_epochs(1)
    p0 = sysm.workers[0].model.state_dict()
    p1 = sysm.workers[1].model.state_dict()
    for k in p0:
        np.testing.assert_allclose(p0[k], p1[k], rtol=1e-5,
                                   err_msg=f"replica divergence in {k}")
    sysm.shutdown()


def test_buffered_extraction_pollutes_page_cache(tiny_ds):
    """§4.4: buffered feature I/O consumes the OS page cache; direct
    I/O leaves it to the topology."""
    _, direct = build(fresh_ds(), direct_io=True)
    direct.run_epochs(1)
    m_d = direct.machine
    feat_pages_direct = sum(
        1 for (name, _) in m_d.page_cache.resident_keys()
        if name.endswith("features"))
    direct.shutdown()

    _, buffered = build(fresh_ds(), direct_io=False)
    buffered.run_epochs(1)
    m_b = buffered.machine
    feat_pages_buffered = sum(
        1 for (name, _) in m_b.page_cache.resident_keys()
        if name.endswith("features"))
    buffered.shutdown()

    assert feat_pages_direct == 0
    assert feat_pages_buffered > 0


def test_buffered_extraction_reuses_cached_pages(tiny_ds):
    """Second epoch under buffered I/O hits the page cache (fewer SSD
    reads) when memory is plentiful."""
    _, sysm = build(fresh_ds(), host_gb=512, direct_io=False)
    stats = sysm.run_epochs(2)
    # tiny's features fit: epoch 2 loads mostly from cache or reuses
    # the feature buffer, so SSD traffic collapses.
    assert stats[1].bytes_read < stats[0].bytes_read
    sysm.shutdown()
