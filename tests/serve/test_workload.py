"""Workload generators: determinism, shapes, arrival laws."""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.serve import WorkloadSpec, build_requests, request_trace_digest
from repro.serve.config import ConfigError

pytestmark = pytest.mark.serve

POOL = np.arange(100, dtype=np.int64)


def test_same_seed_bit_identical():
    """Same spec + seed -> bit-identical request trace (digest equal)."""
    spec = WorkloadSpec(kind="poisson", rate=500.0, num_requests=64,
                        seeds_per_request=3, seed=7)
    d1 = request_trace_digest(build_requests(spec, POOL, slo=0.05))
    d2 = request_trace_digest(build_requests(spec, POOL, slo=0.05))
    assert d1 == d2


def test_different_seed_different_trace():
    spec = WorkloadSpec(kind="poisson", rate=500.0, num_requests=64, seed=7)
    other = spec.with_(seed=8)
    assert (request_trace_digest(build_requests(spec, POOL, slo=0.05))
            != request_trace_digest(build_requests(other, POOL, slo=0.05)))


def test_poisson_arrivals_sorted_and_deadlined():
    spec = WorkloadSpec(kind="poisson", rate=200.0, num_requests=50, seed=1)
    reqs = build_requests(spec, POOL, slo=0.02)
    arrivals = [r.arrival for r in reqs]
    assert arrivals == sorted(arrivals)
    assert all(a > 0 for a in arrivals)
    assert all(r.deadline == pytest.approx(r.arrival + 0.02) for r in reqs)
    assert [r.rid for r in reqs] == list(range(50))


def test_poisson_mean_gap_tracks_rate():
    spec = WorkloadSpec(kind="poisson", rate=100.0, num_requests=400, seed=3)
    reqs = build_requests(spec, POOL, slo=0.05)
    mean_gap = reqs[-1].arrival / len(reqs)
    assert mean_gap == pytest.approx(1.0 / 100.0, rel=0.2)


def test_closed_loop_arrivals_stamped_later():
    spec = WorkloadSpec(kind="closed", num_requests=8)
    reqs = build_requests(spec, POOL, slo=0.05)
    assert all(math.isnan(r.arrival) for r in reqs)


def test_seeds_unique_within_request_and_from_pool():
    spec = WorkloadSpec(kind="poisson", rate=100.0, num_requests=30,
                        seeds_per_request=5, seed=2)
    for req in build_requests(spec, POOL, slo=0.05):
        assert len(np.unique(req.seeds)) == len(req.seeds) == 5
        assert np.isin(req.seeds, POOL).all()


@pytest.mark.parametrize("popularity", ["uniform", "zipf"])
def test_more_seeds_per_request_than_the_pool_holds_is_rejected(popularity):
    """Seeds are distinct per request, so a pool of 100 cannot serve
    101 of them; the request must not shrink to the pool's size."""
    spec = WorkloadSpec(num_requests=4, seeds_per_request=len(POOL) + 1,
                        popularity=popularity)
    with pytest.raises(ConfigError, match=r"^seeds_per_request \(101\) "
                                          r"exceeds the seed pool "
                                          r"\(100 nodes\)"):
        build_requests(spec, POOL, slo=0.05)
    whole = build_requests(spec.with_(seeds_per_request=len(POOL)), POOL,
                           slo=0.05)
    assert all(len(np.unique(r.seeds)) == len(POOL) for r in whole)


def test_spec_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="bursty")
    with pytest.raises(ConfigError, match="unknown workload kind 'trace'"):
        WorkloadSpec(kind="trace")
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="poisson", rate=0.0)
    with pytest.raises(ValueError, match="empty seed pool"):
        build_requests(WorkloadSpec(num_requests=1),
                       np.array([], dtype=np.int64), slo=0.05)


WORKLOAD_FLOAT_FIELDS = [f.name for f in fields(WorkloadSpec)
                         if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", WORKLOAD_FLOAT_FIELDS)
def test_spec_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        WorkloadSpec(**{field: value})
