"""Tests for optimizers and the compute-cost model."""

import numpy as np
import pytest

from repro.models import (
    Adam,
    ComputeCostModel,
    CPU_XEON,
    DeviceProfile,
    GPU_K80,
    GPU_RTX3090,
)
from repro.models.module import Parameter
from repro.models.costmodel import layer_work


def test_adam_minimises_quadratic():
    p = Parameter(np.array([[5.0]], dtype=np.float32))
    opt = Adam([p], lr=0.3)
    from repro.tensor import matmul
    for _ in range(200):
        p.zero_grad()
        loss = matmul(p, p)  # p^2 for 1x1
        loss.backward(np.ones((1, 1), dtype=np.float32))
        opt.step()
    assert abs(p.data[0, 0]) < 0.05


def test_optimizer_skips_gradless_params():
    p1 = Parameter(np.ones(2, dtype=np.float32))
    p2 = Parameter(np.ones(2, dtype=np.float32))
    p1.grad = np.ones(2, dtype=np.float32)
    opt = Adam([p1, p2], lr=1.0)
    opt.step()
    assert np.allclose(p1.data, 0.0)
    assert np.allclose(p2.data, 1.0)


def test_optimizer_validation():
    p = Parameter(np.ones(1))
    with pytest.raises(ValueError):
        Adam([p], lr=0)
    with pytest.raises(ValueError):
        Adam([], lr=0.1)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
LAYERS = [(1110, 110, 1100), (110, 10, 100)]
DIMS = [128, 256, 172]


def test_gpu_faster_than_cpu():
    gpu = ComputeCostModel(GPU_RTX3090)
    cpu = ComputeCostModel(CPU_XEON)
    for kind in ("sage", "gcn", "gat"):
        t_gpu = gpu.train_step_time(kind, LAYERS, DIMS)
        t_cpu = cpu.train_step_time(kind, LAYERS, DIMS)
        assert t_cpu > t_gpu


def test_gat_cpu_penalty_is_disproportionate():
    """§5.1: CPU/GPU gap much larger for GAT than for SAGE."""
    gpu = ComputeCostModel(GPU_RTX3090)
    cpu = ComputeCostModel(CPU_XEON)
    ratio_sage = (cpu.train_step_time("sage", LAYERS, DIMS)
                  / gpu.train_step_time("sage", LAYERS, DIMS))
    ratio_gat = (cpu.train_step_time("gat", LAYERS, DIMS)
                 / gpu.train_step_time("gat", LAYERS, DIMS))
    assert ratio_gat > 1.5 * ratio_sage


def test_k80_slower_than_rtx3090():
    k80 = ComputeCostModel(GPU_K80)
    rtx = ComputeCostModel(GPU_RTX3090)
    assert (k80.train_step_time("sage", LAYERS, DIMS)
            > rtx.train_step_time("sage", LAYERS, DIMS))


def test_train_step_is_three_forwards():
    m = ComputeCostModel(GPU_RTX3090)
    f = m.forward_time("sage", LAYERS, DIMS)
    assert m.train_step_time("sage", LAYERS, DIMS) == pytest.approx(3 * f)


def test_layer_work_scales_with_edges_and_dims():
    d1, e1 = layer_work("sage", 100, 10, 1000, 64, 64)
    d2, e2 = layer_work("sage", 100, 10, 2000, 64, 64)
    assert e2 == pytest.approx(2 * e1)
    d3, _ = layer_work("sage", 100, 10, 1000, 128, 64)
    assert d3 == pytest.approx(2 * d1)
    with pytest.raises(ValueError):
        layer_work("mlp", 1, 1, 1, 1, 1)


def test_sample_compute_time_linear():
    m = ComputeCostModel(CPU_XEON)
    t1 = m.sample_compute_time(100, 1000)
    t2 = m.sample_compute_time(200, 2000)
    assert t2 == pytest.approx(2 * t1)


def test_dims_mismatch_raises():
    m = ComputeCostModel(GPU_RTX3090)
    with pytest.raises(ValueError):
        m.forward_time("sage", LAYERS, [128, 256])


def test_model_dims_helper():
    dims = ComputeCostModel.model_dims("sage", 128, 256, 172, 3)
    assert dims == [128, 256, 256, 172]


def test_device_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile("bad", dense_flops=0, edge_flops=1, layer_overhead=0,
                      is_gpu=True)
    with pytest.raises(ValueError):
        DeviceProfile("bad", dense_flops=1, edge_flops=1, layer_overhead=-1,
                      is_gpu=True)
