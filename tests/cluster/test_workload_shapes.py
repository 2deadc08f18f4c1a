"""Traffic-shape generators: Zipf popularity, diurnal/flash arrival
shapes — bit-determinism and the statistical properties the cluster
bench leans on."""

import hashlib

import numpy as np
import pytest

from repro.serve.config import ConfigError, WorkloadSpec
from repro.serve.workload import (FLASH_DURATION, FLASH_START,
                                  build_request_arrays,
                                  popularity_ranked_pool,
                                  popularity_weights)
from repro.simcore import RandomStreams

pytestmark = pytest.mark.cluster

POOL = np.arange(500, dtype=np.int64)


def _digest(spec):
    arrivals, seeds = build_request_arrays(spec, POOL)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(arrivals).tobytes())
    h.update(np.ascontiguousarray(seeds, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shape_kw", [
    {"popularity": "zipf", "zipf_alpha": 1.3},
    {"rate_shape": "diurnal"},
    {"rate_shape": "flash"},
    {"popularity": "zipf", "zipf_alpha": 2.0, "rate_shape": "diurnal"},
])
def test_shaped_generators_bit_identical_same_seed(shape_kw):
    spec = WorkloadSpec(kind="poisson", rate=800.0, num_requests=300,
                        seed=7, **shape_kw)
    assert _digest(spec) == _digest(spec)
    assert _digest(spec) != _digest(spec.with_(seed=8))


def test_shaped_arrivals_sorted_positive_and_counted():
    spec = WorkloadSpec(kind="poisson", rate=1000.0, num_requests=400,
                        rate_shape="diurnal", seed=3)
    arrivals, seeds = build_request_arrays(spec, POOL)
    assert len(arrivals) == len(seeds) == 400
    assert np.all(arrivals > 0)
    assert np.all(np.diff(arrivals) >= 0)


def test_flash_crowd_concentrates_arrivals():
    """Arrival density inside the flash window beats the baseline by a
    factor tracking FLASH_MULTIPLIER."""
    spec = WorkloadSpec(kind="poisson", rate=1000.0, num_requests=2000,
                        rate_shape="flash", seed=5)
    arrivals, _ = build_request_arrays(spec, POOL)
    lo, hi = FLASH_START, FLASH_START + FLASH_DURATION
    inside = np.sum((arrivals >= lo) & (arrivals < hi))
    before = np.sum(arrivals < lo)
    inside_rate = inside / (hi - lo)
    before_rate = before / lo
    assert inside_rate > 3.0 * before_rate


def test_zipf_concentrates_on_leading_ranks():
    """Under strong Zipf skew the hottest rank dominates the draws and
    the draws follow the ranked pool, not node-id order."""
    spec = WorkloadSpec(kind="poisson", rate=500.0, num_requests=3000,
                        popularity="zipf", zipf_alpha=1.5, seed=2)
    ranked = popularity_ranked_pool(spec, POOL, RandomStreams(spec.seed))
    _, seeds = build_request_arrays(spec, POOL)
    counts = np.bincount(seeds.ravel(), minlength=len(POOL))
    hottest = ranked[0]
    assert counts[hottest] == counts.max()
    # Top-10 ranks soak up far more than their uniform share (2%).
    top10 = counts[ranked[:10]].sum() / counts.sum()
    assert top10 > 0.4


def test_popularity_weights_normalised_and_monotone():
    spec = WorkloadSpec(kind="poisson", rate=100.0, num_requests=10,
                        popularity="zipf", zipf_alpha=1.1)
    w = popularity_weights(spec, 50)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(np.diff(w) < 0)
    uniform = WorkloadSpec(kind="poisson", rate=100.0, num_requests=10)
    assert popularity_weights(uniform, 50) is None


def test_uniform_ranked_pool_is_identity():
    spec = WorkloadSpec(kind="poisson", rate=100.0, num_requests=10)
    ranked = popularity_ranked_pool(spec, POOL, RandomStreams(0))
    assert np.array_equal(ranked, POOL)


def test_ranked_pool_passthrough_matches_internal_draw():
    """The cluster passes its precomputed rank order back in; that must
    reproduce the internal draw bit-for-bit (no double permutation)."""
    spec = WorkloadSpec(kind="poisson", rate=500.0, num_requests=200,
                        popularity="zipf", zipf_alpha=1.4, seed=9)
    ranked = popularity_ranked_pool(spec, POOL, RandomStreams(spec.seed))
    a1, s1 = build_request_arrays(spec, POOL)
    a2, s2 = build_request_arrays(spec, POOL, ranked_pool=ranked)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1, s2)


def test_shape_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="poisson", rate=1.0, popularity="bimodal")
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="poisson", rate=1.0, popularity="zipf",
                     zipf_alpha=0.0)
    with pytest.raises(ConfigError):
        WorkloadSpec(kind="poisson", rate=1.0, rate_shape="sawtooth")
    with pytest.raises(ConfigError, match="poisson workloads only"):
        WorkloadSpec(kind="closed", rate_shape="diurnal")
