"""The dispatch plane against the round-robin reference it replaced.

:class:`RoundRobinDispatch` is the serving plane's original dispatch
path, kept here as a test oracle: sealed jobs go round-robin into one
capacity-2 :class:`~repro.simcore.Store` per replica, and one worker per
replica runs :meth:`InferenceServer._process_job` and completes every
request of the job.  Swapped into a built server in place of the
:class:`~repro.serve.resilience.ResiliencePlane`, it must give every
request the same terminal state and completion time on every
single-replica scenario.  The plane's ``QUEUE_BOUND`` is what makes
that hold: without it the overload and 3000 req/s cases diverge.
"""

import pytest

from repro.bench.runner import get_dataset
from repro.bench.serve import SMOKE_BASE, SMOKE_RATES
from repro.machine import Machine
from repro.oracle.golden import GOLDEN_SERVE_SCENARIO
from repro.serve import ServeScenario
from repro.serve.server import InferenceServer
from repro.simcore import Store

pytestmark = pytest.mark.serve

_STOP = object()


class RoundRobinDispatch:
    """Round-robin over capacity-2 Stores, one worker per replica."""

    brownout = False

    def __init__(self, server):
        self.server = server
        sim = server.machine.sim
        self.queues = [Store(sim, 2, f"serve-jobs{r}")
                       for r in range(server.config.num_replicas)]
        if sim.sanitizer is not None:
            for q in self.queues:
                sim.sanitizer.register(q)

    def dispatch(self, job):
        yield self.queues[job.batch_id % len(self.queues)].put(job)

    def _worker_proc(self, r):
        server = self.server
        while True:
            job = yield self.queues[r].get()
            if job is _STOP:
                return
            yield from server._process_job(r, job)
            now = server.machine.sim.now
            for req in job.requests:
                server._complete_request(req, now)

    def actors(self):
        sim = self.server.machine.sim
        return [sim.process(self._worker_proc(r), name=f"serve-worker{r}")
                for r in range(len(self.queues))]

    def close_queues(self):
        for q in self.queues:
            q.put(_STOP)


def outcomes(scenario: ServeScenario, reference: bool):
    """Per-request ``(status, completed)`` of one sanitized run."""
    machine = Machine(scenario.machine_spec())
    server = InferenceServer(
        machine, get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                             seed=scenario.seed),
        config=scenario.serve_config(), workload=scenario.workload_spec(),
        train_cfg=scenario.train_config())
    if reference:
        server.resilience = RoundRobinDispatch(server)
    try:
        stats = server.run()
    finally:
        server.teardown()
    stats.check_accounting()
    assert machine.sanitizer.findings == []
    # Completion times of unfinished requests are NaN; compare by repr.
    return [(req.status, repr(req.completed)) for req in server.requests]


TINY = ServeScenario(name="dispatch-ref", dataset="tiny", num_requests=40)

SCENARIOS = {
    "golden-serve": GOLDEN_SERVE_SCENARIO,
    **{f"smoke-{backend}-{rate:g}":
       SMOKE_BASE.with_(backend=backend, rate=rate)
       for backend in ("async", "sync") for rate in SMOKE_RATES},
    "overload": TINY.with_(rate=50000.0, queue_capacity=2,
                           max_batch_size=2),
    "closed-loop": TINY.with_(kind="closed"),
    "rate-3000": TINY.with_(rate=3000.0, num_requests=200),
    "storage-chaos": TINY.with_(fault_plan="chaos"),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_single_replica_outcomes_match_round_robin(name):
    scenario = SCENARIOS[name]
    assert scenario.num_replicas == 1
    got = outcomes(scenario, reference=False)
    want = outcomes(scenario, reference=True)
    assert got == want
    assert any(status == "ok" for status, _ in got)

