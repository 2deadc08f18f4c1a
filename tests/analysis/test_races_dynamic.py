"""Runtime race-detector tests: conflicts, waivers, deadlock cycles.

The fixture shared object is a class literally named ``AsyncRing`` so
the detector's kind table classifies its methods — and, unlike the
production storage kinds, ``AsyncRing`` carries no default waiver, so
seeded conflicts surface as *unwaived*.
"""

import pytest

from repro.analysis import RaceDetector, SimSanitizer
from repro.errors import SimulationError
from repro.simcore.engine import Simulator
from repro.simcore.resources import Resource, Store


class AsyncRing:
    """Racy fixture: name-matched to the detector's kind table."""

    def __init__(self):
        self.name = "fixture-ring"
        self.submitted = []

    def submit(self, item):
        self.submitted.append(item)


def _armed_sim(**kw):
    sim = Simulator()
    san = SimSanitizer(strict=False)
    san.sim = sim
    sim.sanitizer = san
    det = san.enable_races(sim=sim, **kw)
    return sim, det


def test_seeded_racy_pair_is_flagged():
    sim, det = _armed_sim()
    ring = AsyncRing()
    assert det.watch(ring)

    def racer(tag):
        yield sim.timeout(1.0)
        ring.submit(tag)

    pa = sim.process(racer("a"), name="racer-a")
    pb = sim.process(racer("b"), name="racer-b")
    sim.drain([pa, pb])
    det.finalize()

    assert len(det.unwaived) == 1
    ev = det.conflicts[0]
    assert {ev.proc_a, ev.proc_b} == {"racer-a", "racer-b"}
    assert ev.mode_a == ev.mode_b == "w"
    assert ev.field_a == ev.field_b == "submit"
    rendered = ev.render()
    assert "seq order resolved" in rendered
    assert "racer-a" in rendered and "racer-b" in rendered
    # Both stacks point into this test file.
    assert ev.stack_a and ev.stack_b


def test_waiver_suppresses_but_records():
    sim, det = _armed_sim(
        waivers={("AsyncRing", "*", "*"): "fixture waiver under test"})
    ring = AsyncRing()
    det.watch(ring)

    def racer(tag):
        yield sim.timeout(1.0)
        ring.submit(tag)

    procs = [sim.process(racer(t), name=f"racer-{t}") for t in "ab"]
    sim.drain(procs)
    det.finalize()
    assert det.conflicts and not det.unwaived
    assert det.conflicts[0].waived_by == "fixture waiver under test"


def test_accesses_in_different_cohorts_do_not_conflict():
    sim, det = _armed_sim()
    ring = AsyncRing()
    det.watch(ring)

    def racer(tag, delay):
        yield sim.timeout(delay)
        ring.submit(tag)

    procs = [sim.process(racer("a", 1.0), name="a"),
             sim.process(racer("b", 2.0), name="b")]
    sim.drain(procs)
    det.finalize()
    assert not det.conflicts


def test_main_thread_accesses_never_race():
    sim, det = _armed_sim()
    ring = AsyncRing()
    det.watch(ring)

    def racer():
        yield sim.timeout(0.0)
        ring.submit("proc")

    p = sim.process(racer(), name="proc")
    ring.submit("main-before")  # same timestamp (t=0), main thread
    sim.drain([p])
    ring.submit("main-after")
    det.finalize()
    assert not det.conflicts


def test_resource_ab_ba_deadlock_dump():
    sim, det = _armed_sim()
    a = Resource(sim, 1, "lockA")
    b = Resource(sim, 1, "lockB")

    def grab(first, second):
        yield first.request()
        yield sim.timeout(1.0)
        yield second.request()
        second.release()
        first.release()

    procs = [sim.process(grab(a, b), name="p1"),
             sim.process(grab(b, a), name="p2")]
    with pytest.raises(SimulationError) as exc:
        sim.drain(procs)
    msg = str(exc.value)
    assert "wait-for cycle" in msg
    assert "p1" in msg and "p2" in msg
    assert "lockA" in msg and "lockB" in msg
    assert det.deadlocks_reported


def test_run_until_triggered_deadlock_names_the_cycle():
    """The epoch loop of every system must report a drained schedule
    as a deadlock with the wait-for cycle, like ``drain`` does."""
    sim, det = _armed_sim()
    a = Resource(sim, 1, "lockA")
    b = Resource(sim, 1, "lockB")

    def grab(first, second):
        yield first.request()
        yield sim.timeout(1.0)
        yield second.request()
        second.release()
        first.release()

    sim.process(grab(a, b), name="p1")
    sim.process(grab(b, a), name="p2")
    with pytest.raises(SimulationError, match="deadlock") as exc:
        sim.run_until_triggered(sim.event())
    msg = str(exc.value)
    assert "wait-for cycle" in msg
    assert "p1" in msg and "p2" in msg
    assert "lockA" in msg and "lockB" in msg


def test_store_mutual_wait_deadlock_dump():
    sim, det = _armed_sim()
    q1 = Store(sim, name="q1")
    q2 = Store(sim, name="q2")

    def relay(src, dst):
        item = yield src.get()
        yield dst.put(item)

    procs = [sim.process(relay(q1, q2), name="r1"),
             sim.process(relay(q2, q1), name="r2")]
    with pytest.raises(SimulationError) as exc:
        sim.drain(procs)
    msg = str(exc.value)
    assert "wait-for cycle" in msg
    assert "q1" in msg and "q2" in msg


def test_blocked_then_served_is_not_deadlock():
    sim, det = _armed_sim()
    q = Store(sim, name="q")

    def consumer():
        item = yield q.get()
        assert item == 42

    def producer():
        yield sim.timeout(1.0)
        yield q.put(42)

    procs = [sim.process(consumer(), name="c"),
             sim.process(producer(), name="p")]
    sim.drain(procs)
    det.finalize()
    assert not det.wait_cycles()
    assert not det.deadlocks_reported


def test_report_dict_shape():
    sim, det = _armed_sim()
    ring = AsyncRing()
    det.watch(ring)

    def racer(tag):
        yield sim.timeout(1.0)
        ring.submit(tag)

    procs = [sim.process(racer(t), name=f"racer-{t}") for t in "ab"]
    sim.drain(procs)
    det.finalize()
    report = det.report_dict()
    assert report["conflicts"] == 1
    assert report["unwaived"] == 1
    assert report["accesses_recorded"] >= 2
    assert report["deadlock_groups"] == []


@pytest.mark.races
def test_machine_run_digest_invariant_under_detector():
    """The detector observes; it must never perturb the schedule."""
    from repro.bench.runner import get_dataset, run_system
    from repro.machine import MachineSpec

    dataset = get_dataset("tiny")
    digests = {}
    for races in (False, True):
        spec = MachineSpec.paper_scaled(sanitize=True, sanitize_trace=True,
                                        sanitize_races=races)
        res = run_system("gnndrive-gpu", dataset, epochs=1, warmup_epochs=0,
                         machine_spec=spec, keep_machine=True)
        assert res.ok, res.error
        digests[races] = res.machine.sanitizer.trace_digest()
    assert digests[False] == digests[True]


@pytest.mark.races
def test_machine_run_is_race_clean():
    from repro.bench.runner import get_dataset, run_system
    from repro.machine import MachineSpec

    dataset = get_dataset("tiny")
    spec = MachineSpec.paper_scaled(sanitize=True, sanitize_races=True)
    res = run_system("gnndrive-gpu", dataset, epochs=1, warmup_epochs=0,
                     machine_spec=spec, keep_machine=True)
    assert res.ok, res.error
    det = res.machine.sanitizer.races
    det.finalize()
    assert not det.unwaived, "\n".join(c.render() for c in det.unwaived)
    assert not det.wait_cycles()


def test_sanitize_races_requires_sanitize():
    from repro.errors import ConfigError
    from repro.machine import MachineSpec

    with pytest.raises(ConfigError):
        MachineSpec.paper_scaled(sanitize_races=True)


def test_detector_exported_from_package():
    assert RaceDetector is not None
