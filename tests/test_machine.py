"""Tests for the Machine abstraction and its process helpers."""

import pytest

from repro.errors import OutOfMemoryError
from repro.machine import CPU_CORES, GB, Machine, MachineSpec, DEFAULT_SCALE


def test_paper_scaled_defaults():
    spec = MachineSpec.paper_scaled(host_gb=32)
    assert spec.host_capacity == int(32 * GB * DEFAULT_SCALE)
    assert spec.num_gpus == 1
    assert spec.ssd.name == "PM883"


def test_paper_scaled_overrides():
    spec = MachineSpec.paper_scaled(host_gb=8, num_gpus=4,
                                    sample_cost_scale=2.0)
    assert spec.num_gpus == 4
    assert spec.sample_cost_scale == 2.0
    assert spec.host_capacity == int(8 * GB * DEFAULT_SCALE)


def test_machine_wires_components():
    m = Machine(MachineSpec.paper_scaled(host_gb=32, num_gpus=2))
    assert len(m.gpus) == 2
    assert len(m.pcie) == 2
    assert m.page_cache.host is m.host
    assert m.cpu.capacity == CPU_CORES


def test_cpu_task_charges_core_and_probe():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))

    def work(sim):
        yield from m.cpu_task(0.5)

    m.sim.run_process(work(m.sim))
    assert m.sim.now == pytest.approx(0.5)
    assert m.probe.cpu.busy_time() == pytest.approx(0.5)
    assert m.cpu.in_use == 0  # released


def test_cpu_tasks_queue_beyond_core_count():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))

    def work(sim):
        yield from m.cpu_task(1.0)

    procs = [m.sim.process(work(m.sim)) for _ in range(2 * CPU_CORES)]
    m.sim.drain(procs)
    assert m.sim.now == pytest.approx(2.0)  # two waves on every core


def test_gpu_task_records_busy_time():
    m = Machine(MachineSpec.paper_scaled(host_gb=32, num_gpus=2))

    def work(sim):
        yield from m.gpu_task(1, 0.25)

    m.sim.run_process(work(m.sim))
    assert m.gpu_busy[1].busy_time() == pytest.approx(0.25)
    assert m.gpu_busy[0].busy_time() == 0.0


def test_io_wait_marks_probe():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))

    def work(sim):
        value = yield from m.io_wait(sim.timeout(0.3, value="data"))
        return value

    assert m.sim.run_process(work(m.sim)) == "data"
    assert m.probe.io.busy_time() == pytest.approx(0.3)


def test_utilization_snapshot_buckets():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))

    def work(sim):
        yield from m.cpu_task(1.0)
        yield sim.timeout(1.0)

    m.sim.run_process(work(m.sim))
    snap = m.utilization_snapshot(0.0, 2.0, buckets=2)
    assert snap["cpu"][0] > snap["cpu"][1]


def test_gpu_memory_budget_enforced():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))
    with pytest.raises(OutOfMemoryError):
        m.gpus[0].allocate(m.spec.gpu_capacity + 1)


def test_sample_cost_scale_slows_sampling_model():
    fast = Machine(MachineSpec.paper_scaled(host_gb=32))
    slow = Machine(MachineSpec.paper_scaled(host_gb=32,
                                            sample_cost_scale=3.0))
    t_fast = fast.cpu_cost.sample_compute_time(100, 1000)
    t_slow = slow.cpu_cost.sample_compute_time(100, 1000)
    assert t_slow == pytest.approx(3 * t_fast)


def test_machine_spec_validation():
    from repro.errors import ConfigError

    bad = [
        dict(host_capacity=0),
        dict(num_gpus=0),
        dict(gpu_capacity=0),
        dict(pcie_bandwidth=0.0),
        dict(pcie_bandwidth=float("inf")),
        dict(sample_cost_scale=0.0),
        dict(faults="not-a-plan"),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            MachineSpec.paper_scaled(host_gb=32, **overrides)


def test_machine_without_faults_has_no_injector():
    m = Machine(MachineSpec.paper_scaled(host_gb=32))
    assert m.faults is None
    assert m.ssd.faults is None
    assert m.fault_counters() == {}
    assert m.fault_counters_delta({}) == {}


def test_machine_with_fault_plan_wires_injector():
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan((FaultSpec("noop", "read_error", probability=0.0),))
    m = Machine(MachineSpec.paper_scaled(host_gb=32, faults=plan))
    assert m.faults is not None
    assert m.ssd.faults is m.faults
    counters = m.fault_counters()
    assert counters["injected"] == 0
    m.faults.ledger.retried = 2
    assert m.fault_counters_delta(counters) == {"retried": 2}


def test_pressure_process_shrinks_and_restores_budget():
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan((FaultSpec("squeeze", "mem_pressure", fraction=0.25,
                                start=1e-3, duration=2e-3, period=0.0),))
    m = Machine(MachineSpec.paper_scaled(host_gb=32, faults=plan))
    base = m.host.available

    def watch(sim):
        yield sim.timeout(2e-3)  # inside the episode
        squeezed = m.host.available
        yield sim.timeout(2e-3)  # after it
        return squeezed, m.host.available

    squeezed, after = m.sim.run_process(watch(m.sim))
    expected = int(0.25 * m.spec.host_capacity)
    assert squeezed == base - expected
    assert after == base
    led = m.faults.ledger
    assert led.pressure_episodes == 1
    assert led.pressure_time == pytest.approx(2e-3)
