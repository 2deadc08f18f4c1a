"""Deterministic request generation for the serving plane.

Every random draw comes from a named :class:`repro.simcore.RandomStreams`
stream keyed only by the workload seed, so the same spec always yields
the same request trace — :func:`request_trace_digest` turns that into a
checkable hash (the bit-identity property test pins it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.serve.config import WorkloadSpec
from repro.simcore import RandomStreams

#: Request lifecycle states; exactly one terminal state per request
#: (the accounting identity of :class:`repro.core.stats.ServeStats`).
#: ``failed`` is reached only under replica faults, when the failover
#: budget for a crash-orphaned request runs out.
STATUSES = ("pending", "ok", "shed", "timeout", "failed")

#: The ``diurnal`` rate shape: ``rate * (1 + DIURNAL_AMPLITUDE *
#: sin(2*pi*t / DIURNAL_PERIOD))``.
DIURNAL_PERIOD = 1.0
DIURNAL_AMPLITUDE = 0.8
#: The ``flash`` rate shape: ``rate`` times ``FLASH_MULTIPLIER`` inside
#: ``[FLASH_START, FLASH_START + FLASH_DURATION)``, ``rate`` elsewhere.
FLASH_START = 0.2
FLASH_DURATION = 0.2
FLASH_MULTIPLIER = 8.0


@dataclass
class Request:
    """One inference request: predict labels for ``seeds``."""

    rid: int
    arrival: float
    seeds: np.ndarray
    deadline: float
    status: str = "pending"
    completed: float = float("nan")
    batch_id: int = -1

    @property
    def latency(self) -> float:
        return self.completed - self.arrival


def _draw_seeds(spec: WorkloadSpec, pool: np.ndarray,
                streams: RandomStreams) -> np.ndarray:
    """(num_requests, seeds_per_request) node ids, unique per request."""
    rng = streams.get("serve-seeds")
    return np.stack([rng.choice(pool, size=spec.seeds_per_request,
                                replace=False)
                     for _ in range(spec.num_requests)])


def popularity_ranked_pool(spec: WorkloadSpec, pool: np.ndarray,
                           streams: RandomStreams) -> np.ndarray:
    """The seed pool in popularity-rank order (hottest node first).

    ``uniform`` popularity returns the pool as given (every node is
    equally hot); ``zipf`` permutes it with the dedicated
    ``serve-popularity`` stream so the rank order is seeded but
    decoupled from node-id order.  The cluster router uses the leading
    ranks of this array as its hot-node set (hedged mirror reads).
    """
    pool = np.asarray(pool, dtype=np.int64)
    if spec.popularity == "uniform":
        return pool
    perm = streams.get("serve-popularity").permutation(len(pool))
    return pool[perm]


def popularity_weights(spec: WorkloadSpec,
                       pool_size: int) -> Optional[np.ndarray]:
    """Per-rank draw probabilities, or None for uniform popularity.

    Zipf: rank r (0 = hottest) gets weight ``(r + 1) ** -zipf_alpha``,
    normalised over the pool.
    """
    if spec.popularity == "uniform":
        return None
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    w = ranks ** -spec.zipf_alpha
    return w / w.sum()


def _draw_zipf_seeds(spec: WorkloadSpec, ranked_pool: np.ndarray,
                     streams: RandomStreams) -> np.ndarray:
    """Zipf-skewed seed draws over the popularity-ranked pool."""
    rng = streams.get("serve-zipf-seeds")
    take = spec.seeds_per_request
    w = popularity_weights(spec, len(ranked_pool))
    if take == 1:
        # The common cluster shape: one seed per request, drawn
        # vectorized (a per-request loop would dominate million-request
        # workload builds).
        return rng.choice(ranked_pool, size=spec.num_requests,
                          replace=True, p=w)[:, None]
    return np.stack([rng.choice(ranked_pool, size=take, replace=False,
                                p=w)
                     for _ in range(spec.num_requests)])


def _cumulative_rate_grid(spec: WorkloadSpec, lam_needed: float
                          ) -> tuple:
    """(t_grid, lam_grid): the cumulative intensity of the shaped rate,
    tabulated until it covers *lam_needed* (for time-rescaling)."""
    if spec.rate_shape == "diurnal":
        # lam(t) = rate * (1 + A sin(2 pi t / P)) >= rate * (1 - A) > 0.
        t_hi = (lam_needed / (spec.rate * (1.0 - DIURNAL_AMPLITUDE))
                + DIURNAL_PERIOD)
        cycles = max(t_hi / DIURNAL_PERIOD, 1.0)
        n = int(min(max(512.0 * cycles, 1024.0), 2_000_000.0))
        t = np.linspace(0.0, t_hi, n)
        two_pi = 2.0 * np.pi
        lam = spec.rate * (
            t + DIURNAL_AMPLITUDE * DIURNAL_PERIOD / two_pi
            * (1.0 - np.cos(two_pi * t / DIURNAL_PERIOD)))
        return t, lam
    # Flash crowd: piecewise-constant intensity, so the cumulative is
    # piecewise linear and exact on a grid containing the breakpoints.
    t_hi = lam_needed / spec.rate + FLASH_START + FLASH_DURATION + 1.0
    fs, fe = FLASH_START, FLASH_START + FLASH_DURATION
    t = np.unique(np.concatenate([
        np.linspace(0.0, t_hi, 1024), [fs, fe]]))
    in_flash = np.clip(np.minimum(t, fe) - fs, 0.0, None)
    lam = spec.rate * (t + (FLASH_MULTIPLIER - 1.0) * in_flash)
    return t, lam


def _shaped_arrivals(spec: WorkloadSpec,
                     streams: RandomStreams) -> np.ndarray:
    """Non-homogeneous Poisson arrivals by time-rescaling.

    Unit-rate exponential gaps from the ``serve-shaped-arrivals``
    stream give cumulative intensities; inverting the (monotone)
    cumulative rate curve maps them onto the simulated clock.
    """
    gaps = streams.get("serve-shaped-arrivals").exponential(
        1.0, size=spec.num_requests)
    targets = np.cumsum(gaps)
    t_grid, lam_grid = _cumulative_rate_grid(spec, float(targets[-1]))
    return np.interp(targets, lam_grid, t_grid)


def build_request_arrays(spec: WorkloadSpec, seed_pool: np.ndarray,
                         streams: RandomStreams = None,
                         ranked_pool: np.ndarray = None) -> tuple:
    """Array-form workload: ``(arrivals[n], seeds[n, take])``.

    The default spec (uniform popularity, flat rate) consumes exactly
    the PR 5 streams in the PR 5 order — seeds from ``serve-seeds``,
    then arrivals from ``serve-arrivals`` — so existing serve traces
    stay bit-identical.  Shaped specs draw from their own dedicated
    streams (``serve-popularity``, ``serve-zipf-seeds``,
    ``serve-shaped-arrivals``).

    Callers that need the popularity rank order themselves (the cluster
    router's hot set) must compute it once via
    :func:`popularity_ranked_pool` and pass it as *ranked_pool* —
    otherwise the ``serve-popularity`` permutation would be drawn twice
    from the shared stream and the traces would diverge.

    Each request's seeds are distinct nodes of *seed_pool*, so a spec
    asking for more seeds per request than the pool holds raises
    :class:`ConfigError`.
    """
    if streams is None:
        streams = RandomStreams(spec.seed)
    seed_pool = np.asarray(seed_pool, dtype=np.int64)
    if len(seed_pool) == 0:
        raise ValueError("empty seed pool")
    if spec.seeds_per_request > len(seed_pool):
        raise ConfigError(
            f"seeds_per_request ({spec.seeds_per_request}) exceeds the "
            f"seed pool ({len(seed_pool)} nodes)")
    if spec.popularity == "uniform":
        seeds = _draw_seeds(spec, seed_pool, streams)
    else:
        if ranked_pool is None:
            ranked_pool = popularity_ranked_pool(spec, seed_pool, streams)
        seeds = _draw_zipf_seeds(spec, ranked_pool, streams)
    if spec.kind == "poisson":
        if spec.rate_shape == "flat":
            arrival_gaps = streams.get("serve-arrivals").exponential(
                1.0 / spec.rate, size=spec.num_requests)
            arrivals = np.cumsum(arrival_gaps)
        else:
            arrivals = _shaped_arrivals(spec, streams)
    else:  # closed
        arrivals = np.full(spec.num_requests, float("nan"))
    return arrivals, seeds


def build_requests(spec: WorkloadSpec, seed_pool: np.ndarray,
                   slo: float,
                   streams: RandomStreams = None) -> List[Request]:
    """Materialise the request list for *spec*.

    *seed_pool* is the node-id population queries draw from (the test
    split — nodes the model never trained on, like production traffic).
    Closed-loop requests get ``arrival = nan``: the client pool stamps
    arrivals at issue time, since they depend on service completions.
    """
    arrivals, seeds = build_request_arrays(spec, seed_pool, streams)
    return [Request(rid=i, arrival=float(arrivals[i]), seeds=seeds[i],
                    deadline=float(arrivals[i]) + slo)
            for i in range(spec.num_requests)]


def request_trace_digest(requests: List[Request]) -> str:
    """Order-sensitive hash of (rid, arrival, seeds) for all requests."""
    h = hashlib.sha256()
    for req in requests:
        h.update(f"{req.rid}\t{req.arrival!r}\t".encode())
        h.update(np.ascontiguousarray(req.seeds, dtype=np.int64).tobytes())
        h.update(b"\n")
    return h.hexdigest()
