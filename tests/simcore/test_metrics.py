"""Tests for utilization recorders and traces."""

import pytest

from repro.errors import SimulationError
from repro.simcore import IntervalRecorder, Simulator, UtilizationProbe


def run_busy_pattern(sim, rec, pattern):
    """Drive the recorder through (start, stop) busy intervals."""

    def proc(sim):
        t = 0.0
        for start, stop in pattern:
            if start > t:
                yield sim.timeout(start - t)
            rec.enter()
            yield sim.timeout(stop - start)
            rec.exit()
            t = stop

    sim.run_process(proc(sim))


def test_single_interval_utilization():
    sim = Simulator()
    rec = IntervalRecorder(sim, capacity=1)
    run_busy_pattern(sim, rec, [(2.0, 5.0)])
    sim.run(until=10.0)
    assert rec.utilization(0.0, 10.0) == pytest.approx(0.3)


def test_utilization_window_slicing():
    sim = Simulator()
    rec = IntervalRecorder(sim, capacity=1)
    run_busy_pattern(sim, rec, [(0.0, 4.0), (6.0, 8.0)])
    sim.run(until=10.0)
    assert rec.utilization(0.0, 4.0) == pytest.approx(1.0)
    assert rec.utilization(4.0, 6.0) == pytest.approx(0.0)
    assert rec.utilization(5.0, 7.0) == pytest.approx(0.5)
    assert rec.utilization(0.0, 10.0) == pytest.approx(0.6)


def test_overlapping_claims_clip_at_capacity():
    sim = Simulator()
    rec = IntervalRecorder(sim, capacity=2)

    def claim(sim, start, stop):
        yield sim.timeout(start)
        rec.enter()
        yield sim.timeout(stop - start)
        rec.exit()

    procs = [sim.process(claim(sim, s, e)) for s, e in [(0, 4), (0, 4), (0, 4)]]
    sim.drain(procs)
    sim.run(until=4.0)
    # 3 claims but capacity 2: utilization saturates at 1.0.
    assert rec.utilization(0.0, 4.0) == pytest.approx(1.0)


def test_partial_capacity_utilization():
    sim = Simulator()
    rec = IntervalRecorder(sim, capacity=4)
    run_busy_pattern(sim, rec, [(0.0, 10.0)])
    assert rec.utilization(0.0, 10.0) == pytest.approx(0.25)


def test_exit_idle_recorder_raises():
    sim = Simulator()
    rec = IntervalRecorder(sim)
    with pytest.raises(SimulationError):
        rec.exit()


def test_series_buckets():
    sim = Simulator()
    rec = IntervalRecorder(sim, capacity=1)
    run_busy_pattern(sim, rec, [(0.0, 5.0)])
    sim.run(until=10.0)
    series = rec.series(0.0, 10.0, buckets=10)
    assert series[:5] == pytest.approx([1.0] * 5)
    assert series[5:] == pytest.approx([0.0] * 5)


def test_series_validates_buckets():
    sim = Simulator()
    rec = IntervalRecorder(sim)
    with pytest.raises(ValueError):
        rec.series(0, 1, buckets=0)


def test_probe_snapshot_shapes():
    sim = Simulator()
    probe = UtilizationProbe(sim, cpu_capacity=2, gpu_capacity=1)

    def work(sim):
        probe.cpu.enter()
        yield sim.timeout(2)
        probe.cpu.exit()
        probe.gpu.enter()
        yield sim.timeout(2)
        probe.gpu.exit()

    sim.run_process(work(sim))
    snap = probe.snapshot(0.0, 4.0, buckets=4)
    assert len(snap["cpu"]) == 4
    assert snap["cpu"][0] == pytest.approx(0.5)  # 1 of 2 cores busy
    assert snap["gpu"][2] == pytest.approx(1.0)
    summary = probe.summary(0.0, 4.0)
    assert summary["gpu"] == pytest.approx(0.5)
