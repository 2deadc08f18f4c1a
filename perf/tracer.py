"""Wall-time attribution per program layer, from outside the program.

:class:`LayerTracer` rebinds the public functions and methods listed in
:data:`TARGETS` to timing wrappers: each method on its class, and each
module-level function in every loaded ``repro.*`` module that holds it
by name.  A wrapper keeps a span stack and accumulates, per layer, the
number of calls, the total time and the self time (duration minus the
time spent in wrapped calls beneath it).

Only synchronous functions are wrapped.  Generator process bodies run
inside the event engine, so their time stays in the ``simcore`` layer's
self time together with the engine's own.
"""

from __future__ import annotations

import copy
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, "module:qualname") — the calls whose wall time each layer owns.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("graph.build", "repro.graph.datasets:make_dataset"),
    ("machine.build", "repro.machine:Machine.__init__"),
    ("system.build", "repro.bench.runner:build_system"),
    ("system.build", "repro.serve.server:InferenceServer.__init__"),
    ("system.build", "repro.cluster.sim:ClusterSim.__init__"),
    ("sampling.sample", "repro.sampling.neighbor:NeighborSampler.sample"),
    ("sampling.adj", "repro.sampling.subgraph:LayerAdj.mean_matrix"),
    ("sampling.adj", "repro.sampling.subgraph:LayerAdj.sum_matrix"),
    ("sampling.adj", "repro.sampling.subgraph:LayerAdj.gcn_matrix"),
    ("storage.page_cache", "repro.storage.page_cache:PageCache.access"),
    ("storage.page_cache",
     "repro.storage.page_cache:PageCache.pages_for_records"),
    ("storage.page_cache", "repro.storage.page_cache:PageCache.residency_mask"),
    ("storage.page_cache",
     "repro.storage.page_cache:PageCache.records_resident_mask"),
    ("storage.page_cache", "repro.storage.page_cache:PageCache.warm"),
    ("storage.device", "repro.storage.device:SSDDevice.submit_batch"),
    ("storage.device", "repro.storage.device:SSDDevice.submit_batch_ex"),
    ("storage.device", "repro.storage.device:SSDDevice.submit_reliable"),
    ("storage.io_uring",
     "repro.storage.io_uring:AsyncRing.prepare_record_reads"),
    ("storage.io_uring", "repro.storage.io_uring:AsyncRing.submit"),
    ("storage.io_uring", "repro.storage.io_uring:AsyncRing.drain_cohort"),
    ("storage.io_uring", "repro.storage.io_uring:AsyncRing.drain_wait"),
    ("core.feature_buffer",
     "repro.core.feature_buffer:FeatureBuffer.begin_batch"),
    ("core.feature_buffer",
     "repro.core.feature_buffer:FeatureBuffer.allocate_slots"),
    ("core.feature_buffer", "repro.core.feature_buffer:FeatureBuffer.fill"),
    ("core.feature_buffer",
     "repro.core.feature_buffer:FeatureBuffer.finish_load"),
    ("core.feature_buffer",
     "repro.core.feature_buffer:FeatureBuffer.resolve_aliases"),
    ("core.feature_buffer", "repro.core.feature_buffer:FeatureBuffer.gather"),
    ("core.feature_buffer",
     "repro.core.feature_buffer:FeatureBuffer.release"),
    ("graph.gather", "repro.graph.featurestore:FeatureStore.gather"),
    ("models", "repro.models.train:train_step"),
    ("models", "repro.models.train:forward_backward"),
    ("models", "repro.models.train:predict"),
    ("models.optim", "repro.models.optim:Adam.step"),
    ("tensor.backward", "repro.tensor.tensor:Tensor.backward"),
    ("simcore", "repro.simcore.engine:Simulator.run"),
    ("simcore", "repro.simcore.engine:Simulator.run_until_triggered"),
    ("simcore", "repro.simcore.engine:Simulator.drain"),
)

#: Layer of every public function of ``repro.tensor.ops`` (the forward
#: operators; their backward closures run under ``Tensor.backward``).
TENSOR_OPS = ("tensor.fwd", "repro.tensor.ops")

#: Layer name of the benchmark's own code around the program calls.
HARNESS = "harness"

#: Per-layer extra counts taken from a wrapped call's return value.
COUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "repro.sampling.neighbor:NeighborSampler.sample":
        ("sampling.nodes", lambda sub: sub.num_sampled_nodes),
}


def layer_names() -> List[str]:
    """Every layer a traced round reports, wrapped or not."""
    return sorted({layer for layer, _ in TARGETS}
                  | {TENSOR_OPS[0], HARNESS})


def all_targets() -> List[Tuple[str, str]]:
    """:data:`TARGETS` plus one entry per public tensor operator."""
    layer, modname = TENSOR_OPS
    mod = importlib.import_module(modname)
    ops = [(layer, f"{modname}:{name}")
           for name, fn in sorted(vars(mod).items())
           if inspect.isfunction(fn) and not name.startswith("_")
           and fn.__module__ == modname]
    return list(TARGETS) + ops


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"mod:Cls.attr"`` -> (owner object, attribute name, function)."""
    modname, qualname = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class LayerTracer:
    """Per-layer ``[calls, total_s, self_s]`` accumulators and counts."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[float] = []
        #: (owner, attribute, original value or None if it was inherited)
        self._patched: List[Tuple[object, str, Optional[object]]] = []

    # ------------------------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        rec = self.stats.setdefault(layer, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Attribute the enclosed wall time (minus wrapped calls) to
        *layer*; the benchmark wraps each phase in one of these."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(layer, t0)

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Tuple[str, Callable]] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{fn.__qualname__} is a generator function; "
                            "its body would run outside the span")
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(layer, t0)
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self, targets: Optional[List[Tuple[str, str]]] = None
                ) -> None:
        """Rebind every target; call after importing the program and
        before constructing anything from it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # Resolving imports each target's module, so list modules after.
        resolved = [(layer, target, *resolve(target))
                    for layer, target in targets or all_targets()]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "repro"
                                         or name.startswith("repro."))]
        for layer, target, owner, attr, fn in resolved:
            traced = self.wrap(layer, fn, COUNTS.get(target))
            if inspect.isclass(owner):
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                if vars(mod).get(attr) is fn:
                    self._patch(mod, attr, traced)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = vars(owner).get(attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {"stats": copy.deepcopy(self.stats),
                "counts": dict(self.counts)}

    def since(self, snap: Dict[str, object]) -> Dict[str, object]:
        """Accumulation since *snap* (taken with the span stack empty)."""
        old_stats = snap["stats"]
        old_counts = snap["counts"]
        stats = {}
        for layer, rec in self.stats.items():
            prev = old_stats.get(layer, [0, 0.0, 0.0])
            stats[layer] = [a - b for a, b in zip(rec, prev)]
        counts = {k: v - old_counts.get(k, 0)
                  for k, v in self.counts.items()}
        return {"stats": stats, "counts": counts}
