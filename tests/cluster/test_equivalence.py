"""Degenerate-equivalence pin: a 1-shard / 1-replica uniform cluster is
the single-machine serving stack.

Two facets, both pinned:

* the degenerate cluster consumes the identical request stream a
  single-machine :mod:`repro.serve` run sees (same streams, same order,
  bit-for-bit), and
* under a generous configuration it reaches the same terminal verdict —
  every offered request completes, nothing shed, lost, or late.
"""

import numpy as np
import pytest

from repro.bench.runner import get_dataset
from repro.cluster import ClusterScenario, run_cluster_scenario
from repro.serve import build_requests, request_trace_digest
from repro.serve.scenario import ServeScenario, run_serve_scenario
from repro.serve.workload import build_request_arrays

pytestmark = pytest.mark.cluster

#: The degenerate cluster: one shard holds everything, no replicas to
#: hedge onto, uniform popularity on the serve pool (the test split).
DEGENERATE = ClusterScenario(
    name="degenerate", dataset="tiny", rate=200.0,
    num_requests=60, popularity="uniform", rate_shape="flat",
    pool="test", slo=10.0, num_shards=1, replication=1, hedge=False,
    admit_capacity=4096, seed=0)

#: The single-machine twin (the serve plane's own default workload).
SERVE_TWIN = ServeScenario(
    name="degenerate-serve", dataset="tiny", kind="poisson", rate=200.0,
    num_requests=60, slo=10.0, seed=0)


def test_request_stream_bit_identical_to_serve():
    """The degenerate cluster's workload draws the exact request stream
    the single-machine server would see: same arrivals, same seeds."""
    dataset = get_dataset("tiny", seed=0)
    pool = dataset.test_idx
    arrivals, seeds = build_request_arrays(DEGENERATE.workload_spec(), pool)
    serve_reqs = build_requests(SERVE_TWIN.workload_spec(), pool,
                                slo=SERVE_TWIN.slo)
    assert np.array_equal(arrivals,
                          np.array([r.arrival for r in serve_reqs]))
    assert np.array_equal(seeds.ravel(),
                          np.concatenate([r.seeds for r in serve_reqs]))
    # And the stream is stable across builds (digest form).
    again = build_requests(SERVE_TWIN.workload_spec(), pool,
                           slo=SERVE_TWIN.slo)
    assert request_trace_digest(serve_reqs) == request_trace_digest(again)


def test_degenerate_cluster_matches_single_machine_verdict():
    """Generous knobs: both planes complete every request cleanly."""
    crun = run_cluster_scenario(DEGENERATE)
    srun = run_serve_scenario(SERVE_TWIN)
    assert crun.ok and crun.findings == []
    assert srun.ok and srun.findings == []
    cs, ss = crun.stats, srun.stats
    cs.check_accounting()
    assert cs.offered == ss.offered == 60
    assert cs.completed == ss.completed == 60
    assert cs.shed == cs.timed_out == cs.failed == 0
    assert cs.slo_attainment == 1.0
    assert cs.num_shards == 1
    assert cs.mirrors == 0          # nowhere to hedge to
    assert cs.redirects == 0        # nowhere to redirect to


def test_degenerate_cluster_is_deterministic():
    a = run_cluster_scenario(DEGENERATE)
    b = run_cluster_scenario(DEGENERATE)
    assert a.ok and b.ok
    assert a.digest == b.digest
