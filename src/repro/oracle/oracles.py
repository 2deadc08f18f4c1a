"""The oracle catalog: differential and metamorphic invariants.

Every oracle is a named check over one :class:`ScenarioRunner`; it
returns a list of :class:`Violation` (empty = the invariant holds).
Oracles may declare themselves *not applicable* for a scenario (e.g.
the feature-volume ordering only means something under page-cache
contention) — inapplicable is not a pass and not a failure, and the
bench artifact reports the three states separately.

How to add an oracle
--------------------
Subclass :class:`Oracle`, implement :meth:`check` (and optionally
:meth:`applicable`), then append an instance to :data:`ORACLES`.  Use
``runner.run(system, **perturbation)`` for every execution so runs are
shared across oracles; compare *values*, never wall-clock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines.ginex import belady_plan
from repro.bench.runner import get_dataset
from repro.oracle.scenario import Scenario, ScenarioRunner
from repro.sampling import MinibatchPlan, NeighborSampler
from repro.simcore import RandomStreams
from repro.storage.spec import SECTOR_SIZE


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to reproduce."""

    oracle: str
    scenario: str
    detail: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.scenario}: {self.detail}"


class Oracle:
    """Base class: a named invariant over one scenario."""

    name = "oracle"
    kind = "differential"  # or "metamorphic"
    description = ""

    def applicable(self, runner: ScenarioRunner) -> bool:
        return True

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        raise NotImplementedError

    def _violation(self, runner: ScenarioRunner, detail: str) -> Violation:
        return Violation(self.name, runner.scenario.name, detail)


def _stats_repr(stats) -> List[str]:
    """NaN-safe per-epoch fingerprints (repr: NaN == NaN textually)."""
    return [repr(asdict(s)) for s in stats]


# ----------------------------------------------------------------------
# Differential oracles
# ----------------------------------------------------------------------
class FeatureBytesVsPyGPlus(Oracle):
    """GNNDrive never reads more feature bytes than PyG+ (warm epochs).

    Applicable only under page-cache contention: when everything fits,
    PyG+ reads each feature once and keeps it — there is nothing for
    GNNDrive's direct-I/O extractor to beat (DiskGNN's I/O-volume
    argument, Liu et al. 2024, makes the same applicability cut).
    """

    name = "feat-bytes-le-pygplus"
    kind = "differential"
    description = ("warm-epoch feature read volume: "
                   "gnndrive-gpu <= pyg+ under contention")

    #: Contention cut-off: the claim holds when PyG+'s mmap path keeps
    #: missing on feature pages even warm.  Below this the page cache
    #: retains the working set and PyG+'s page-granular reads can beat
    #: GNNDrive's sector-rounded per-record reads on small-record
    #: datasets — a regime the paper's Figure 6 explicitly excludes.
    MIN_WARM_MISS_RATE = 0.5

    def applicable(self, runner: ScenarioRunner) -> bool:
        # Chaos retries inflate *physical* traffic per-attempt, which is
        # outside the paper's I/O-volume claim.
        if runner.scenario.fault_plan != "none":
            return False
        sc = runner.scenario
        dataset = get_dataset(sc.dataset, scale=sc.dataset_scale,
                              seed=sc.seed)
        if dataset.features.record_nbytes < SECTOR_SIZE:
            # Sub-sector records: GNNDrive's per-record direct reads are
            # sector-rounded (4x amplification at 128 B) while PyG+'s
            # page-granular reads amortise across records — the paper's
            # datasets all have record >= sector, so the claim does not
            # cover this regime.
            return False
        pyg = runner.run("pyg+")
        if not pyg.ok or len(pyg.stats) < 2:
            # One epoch is all cold cache; "warm" volume is undefined.
            return False
        hits = sum(s.extra.get("feat_cache_hits", 0)
                   for s in pyg.warm_stats())
        misses = sum(s.extra.get("feat_cache_misses", 0)
                     for s in pyg.warm_stats())
        if misses == 0:
            return False
        return misses / (hits + misses) >= self.MIN_WARM_MISS_RATE

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        pyg = runner.run("pyg+")
        gnn = runner.run("gnndrive-gpu")
        if not (pyg.ok and gnn.ok):
            return []
        ours = sum(s.extra.get("feat_bytes_read", 0)
                   for s in gnn.warm_stats())
        theirs = sum(s.extra.get("feat_bytes_read", 0)
                     for s in pyg.warm_stats())
        if ours > theirs:
            return [self._violation(
                runner, f"gnndrive-gpu read {ours} feature bytes "
                        f"> pyg+ {theirs} on warm epochs")]
        return []


def lru_misses(batches: Sequence[np.ndarray], capacity: int) -> int:
    """Cold-start LRU miss count over a per-batch node-id trace.

    The plain-replacement reference that Ginex's Belady plan must beat
    (or tie) at equal capacity — Park et al.'s optimality claim.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    cache: "OrderedDict[int, bool]" = OrderedDict()
    misses = 0
    for nodes in batches:
        for v in np.asarray(nodes, dtype=np.int64).tolist():
            if v in cache:
                cache.move_to_end(v)
            else:
                misses += 1
                cache[v] = True
                if len(cache) > capacity:
                    cache.popitem(last=False)
    return misses


class BeladyBeatsLRU(Oracle):
    """Ginex's Belady plan misses <= cold LRU misses at equal budget.

    Pure-function differential on the scenario's sampled access trace:
    no machine, just the cache planners on identical inputs.
    """

    name = "belady-hits-ge-lru"
    kind = "differential"
    description = "belady_plan misses <= LRU misses at equal capacity"

    #: Capacities as fractions of the distinct-node footprint.
    CAPACITY_FRACTIONS = (0.25, 0.5, 0.75)

    def _trace(self, scenario: Scenario) -> List[np.ndarray]:
        dataset = get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                              seed=scenario.seed)
        cfg = scenario.train_config()
        streams = RandomStreams(scenario.seed)
        sampler = NeighborSampler(dataset.graph, cfg.resolved_fanouts(),
                                  streams.get("oracle-belady"))
        plan = MinibatchPlan(dataset.train_idx, cfg.batch_size,
                             streams.get("oracle-belady-shuffle"))
        return [sampler.sample(seeds).all_nodes
                for seeds in plan.epoch_batches()]

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        batches = self._trace(runner.scenario)
        distinct = len(np.unique(np.concatenate(batches)))
        out: List[Violation] = []
        for frac in self.CAPACITY_FRACTIONS:
            capacity = max(1, int(distinct * frac))
            initial, miss_lists, _ = belady_plan(batches, capacity)
            belady = len(initial) + sum(len(m) for m in miss_lists)
            lru = lru_misses(batches, capacity)
            if belady > lru:
                out.append(self._violation(
                    runner, f"belady missed {belady} > LRU {lru} at "
                            f"capacity {capacity} ({frac:.0%} of "
                            f"{distinct} distinct nodes)"))
        return out


class EmptyFaultPlanIsNoop(Oracle):
    """An empty fault plan leaves the event trace bit-identical."""

    name = "empty-fault-plan-noop"
    kind = "differential"
    description = "fault_plan=EMPTY digest == fault_plan=None digest"
    systems = ("gnndrive-gpu", "pyg+", "ginex", "mariusgnn")

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        out: List[Violation] = []
        for system in self.systems:
            empty = runner.run(system, fault_plan="empty")
            none = runner.run(system, fault_plan="none")
            if not (empty.ok and none.ok):
                continue
            if empty.digest != none.digest:
                out.append(self._violation(
                    runner, f"{system}: empty-plan digest "
                            f"{empty.digest[:16]} != no-fault digest "
                            f"{none.digest[:16]}"))
            elif _stats_repr(empty.stats) != _stats_repr(none.stats):
                out.append(self._violation(
                    runner, f"{system}: digests match but stats differ"))
        return out


class MultiGPUOneWorkerEquiv(Oracle):
    """multigpu with one worker == the single-GPU system, bit for bit."""

    name = "multigpu-one-worker-equiv"
    kind = "differential"
    description = "multigpu(num_workers=1) trace+stats == gnndrive-gpu"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        single = runner.run("gnndrive-gpu")
        multi = runner.run("multigpu", num_workers=1)
        if not (single.ok and multi.ok):
            return []
        if single.digest != multi.digest:
            return [self._violation(
                runner, f"trace digest {single.digest[:16]} (single) != "
                        f"{multi.digest[:16]} (multigpu x1)")]
        out: List[Violation] = []
        for i, (a, b) in enumerate(zip(_stats_repr(single.stats),
                                       _stats_repr(multi.stats))):
            if a != b:
                out.append(self._violation(
                    runner, f"epoch {i}: single vs multigpu x1 stats "
                            f"differ"))
        return out


# ----------------------------------------------------------------------
# Metamorphic oracles
# ----------------------------------------------------------------------
class HostMemoryHitsMonotone(Oracle):
    """Doubling host memory never loses PyG+ page-cache hits.

    PyG+ is the system whose hit count is a pure function of cache
    capacity (mmap through the shared page cache, no admission policy);
    GNNDrive's feature buffer re-partitions with memory, so its hit
    count legitimately wobbles and only its *time* is constrained
    (see :class:`HostMemoryTimeMonotone`).
    """

    name = "host-memory-hits-monotone"
    kind = "metamorphic"
    description = "pyg+ cache hits non-decreasing in host memory"

    def applicable(self, runner: ScenarioRunner) -> bool:
        # An active fault plan couples to the knob being perturbed
        # (mem-pressure scales with the host; throttle windows land on
        # shifted timelines), so monotonicity only binds fault-free.
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        base_gb = runner.scenario.host_gb
        small = runner.run("pyg+")
        big = runner.run("pyg+", host_gb=base_gb * 2)
        if not (small.ok and big.ok):
            return []
        h_small = sum(s.cache_hits for s in small.stats)
        h_big = sum(s.cache_hits for s in big.stats)
        if h_big < h_small:
            return [self._violation(
                runner, f"hits dropped {h_small} -> {h_big} when host "
                        f"memory doubled ({base_gb} -> {base_gb * 2} GB)")]
        return []


class HostMemoryTimeMonotone(Oracle):
    """Doubling host memory never slows an epoch down."""

    name = "host-memory-time-monotone"
    kind = "metamorphic"
    description = "total epoch time non-increasing in host memory"
    systems = ("gnndrive-gpu", "pyg+", "ginex")
    #: Strictly-more-resources changes event interleavings: completion
    #: times shift, in-flight page-dedup windows move, evictions
    #: reorder, and (for Ginex) the Belady plan itself is recomputed
    #: for the bigger budget.  Those second-order reshuffles cost well
    #: under a percent; the oracle targets the first-order effect
    #: (resource contention must not collapse throughput), so rises
    #: within this relative slack are scheduling jitter, not losses.
    TOLERANCE = 0.02

    def applicable(self, runner: ScenarioRunner) -> bool:
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        base_gb = runner.scenario.host_gb
        out: List[Violation] = []
        for system in self.systems:
            small = runner.run(system)
            big = runner.run(system, host_gb=base_gb * 2)
            if not (small.ok and big.ok):
                continue
            t_small = small.total_epoch_time()
            t_big = big.total_epoch_time()
            if t_big > t_small * (1 + self.TOLERANCE):
                out.append(self._violation(
                    runner, f"{system}: epoch time rose "
                            f"{t_small:.6g}s -> {t_big:.6g}s when host "
                            f"memory doubled"))
        return out


class SSDChannelsTimeMonotone(Oracle):
    """Doubling SSD channels never slows an epoch down."""

    name = "ssd-channels-time-monotone"
    kind = "metamorphic"
    description = "total epoch time non-increasing in SSD channels"
    systems = ("gnndrive-gpu", "pyg+", "ginex", "mariusgnn")
    #: Same second-order jitter argument as HostMemoryTimeMonotone:
    #: faster completions reorder the pipeline without representing a
    #: throughput regression.
    TOLERANCE = 0.02

    def applicable(self, runner: ScenarioRunner) -> bool:
        # Fault windows are wall-clock anchored; faster I/O shifts work
        # into/out of them, legitimately breaking monotonicity.
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        base = runner.scenario.ssd_spec().channels
        out: List[Violation] = []
        for system in self.systems:
            few = runner.run(system)
            many = runner.run(system, channels=base * 2)
            if not (few.ok and many.ok):
                continue
            t_few = few.total_epoch_time()
            t_many = many.total_epoch_time()
            if t_many > t_few * (1 + self.TOLERANCE):
                out.append(self._violation(
                    runner, f"{system}: epoch time rose "
                            f"{t_few:.6g}s -> {t_many:.6g}s with "
                            f"{base} -> {base * 2} SSD channels"))
        return out


class EpochPrefixStable(Oracle):
    """Doubling the epoch count leaves the shared prefix bit-stable.

    The per-epoch stats of a run with 2E epochs must open with exactly
    the E epochs of the shorter run — training is deterministic and an
    epoch's published stats may not depend on what runs after it (the
    stages-by-reference bug this harness exists to catch).
    """

    name = "epoch-prefix-stable"
    kind = "metamorphic"
    description = "first E epochs of a 2E-epoch run == the E-epoch run"
    systems = ("gnndrive-gpu", "gnndrive-cpu", "pyg+", "ginex",
               "mariusgnn")

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        E = runner.scenario.epochs
        out: List[Violation] = []
        for system in self.systems:
            short = runner.run(system)
            long = runner.run(system, epochs=2 * E)
            if not (short.ok and long.ok):
                continue
            fp_short = _stats_repr(short.stats)
            fp_long = _stats_repr(long.stats)[:len(fp_short)]
            for i, (a, b) in enumerate(zip(fp_short, fp_long)):
                if a != b:
                    out.append(self._violation(
                        runner, f"{system}: epoch {i} stats differ "
                                f"between the {E}- and {2 * E}-epoch "
                                f"runs"))
                    break
        return out


class ServeLoadP99Monotone(Oracle):
    """Halving offered load never raises the serving p99 (async).

    The serving-plane analogue of the resource-monotonicity laws: less
    offered load means less queueing, so tail latency cannot rise.  Two
    deliberate choices keep the law sound: ``max_wait = 0`` (a positive
    straggler window legitimately *raises* low-load latency — the
    batcher idles waiting for company), and a huge SLO so no request is
    deadline-dropped (drops would censor the tail out of the sample).
    """

    name = "serve-load-p99-monotone"
    kind = "metamorphic"
    description = "async serving p99 non-increasing when load halves"
    RATE = 400.0
    NUM_REQUESTS = 40
    #: Same scheduling-jitter argument as the time-monotone oracles:
    #: different arrival timestamps reorder ring submissions and buffer
    #: reuse, wobbling individual latencies without a real regression.
    TOLERANCE = 0.05

    def applicable(self, runner: ScenarioRunner) -> bool:
        # Fault windows are wall-clock anchored; a different arrival
        # pattern shifts work into/out of them (same gate as the other
        # metamorphic laws).
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        from repro.serve import ServeScenario, run_serve_scenario
        sc = runner.scenario
        base = ServeScenario(
            name=f"{sc.name}-serve", dataset=sc.dataset,
            dataset_scale=sc.dataset_scale, host_gb=sc.host_gb,
            backend="async", kind="poisson", rate=self.RATE,
            num_requests=self.NUM_REQUESTS, slo=10.0, max_wait=0.0,
            model_kind=sc.model_kind, seed=sc.seed)
        high = run_serve_scenario(base)
        low = run_serve_scenario(base.with_(rate=self.RATE / 2))
        if not (high.ok and low.ok):
            return []
        p_high = high.stats.latency_p99
        p_low = low.stats.latency_p99
        if np.isnan(p_high) or np.isnan(p_low):
            return []
        if p_low > p_high * (1 + self.TOLERANCE):
            return [self._violation(
                runner, f"p99 rose {p_high:.6g}s -> {p_low:.6g}s when "
                        f"offered load halved ({self.RATE:g} -> "
                        f"{self.RATE / 2:g} req/s)")]
        return []


class ReplicaChaosBounded(Oracle):
    """Replica faults never help, and an empty replica plan is a no-op.

    Two laws over the serving resilience plane:

    * injecting replica crash/hang/slow episodes can only *reduce*
      goodput (modulo scheduling jitter) — recovery machinery may bound
      the damage but cannot out-perform the undamaged system;
    * a plan with no replica specs leaves the resilience plane unarmed
      (router and workers only: no health checker, drivers or hedges),
      so the run is bit-identical (same trace digest) to a plain run.
    """

    name = "serve-replica-chaos-bounded"
    kind = "metamorphic"
    description = ("replica faults never raise serving goodput; "
                   "an empty plan is digest-identical")
    RATE = 400.0
    NUM_REQUESTS = 40
    #: Same scheduling-jitter argument as ``ServeLoadP99Monotone``.
    TOLERANCE = 0.05

    def applicable(self, runner: ScenarioRunner) -> bool:
        # Chaos-gated like the other metamorphic serving laws: fault
        # windows are wall-clock anchored, so only the no-fault
        # scenarios give a clean baseline.
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        from repro.serve import ServeScenario, run_serve_scenario
        sc = runner.scenario
        base = ServeScenario(
            name=f"{sc.name}-rserve", dataset=sc.dataset,
            dataset_scale=sc.dataset_scale, host_gb=sc.host_gb,
            backend="async", kind="poisson", rate=self.RATE,
            num_requests=self.NUM_REQUESTS, num_replicas=2,
            model_kind=sc.model_kind, seed=sc.seed)
        clean = run_serve_scenario(base)
        if not clean.ok:
            return []
        out: List[Violation] = []
        empty = run_serve_scenario(base.with_(fault_plan="empty"))
        if empty.ok and empty.digest != clean.digest:
            out.append(self._violation(
                runner, "empty fault plan changed the serve trace "
                        f"digest ({clean.digest[:12]} -> "
                        f"{empty.digest[:12]})"))
        chaos = run_serve_scenario(base.with_(fault_plan="replica-chaos"))
        if chaos.ok:
            g_clean = clean.stats.goodput
            g_chaos = chaos.stats.goodput
            if g_chaos > g_clean * (1 + self.TOLERANCE):
                out.append(self._violation(
                    runner, f"goodput rose {g_clean:.6g} -> "
                            f"{g_chaos:.6g} req/s under replica "
                            f"chaos"))
        return out


class ClusterLoadP99Monotone(Oracle):
    """Halving offered load never raises the cluster p99.

    The cluster analogue of :class:`ServeLoadP99Monotone`: less offered
    load means less shard queueing, so tail latency cannot rise.  The
    probe uses a huge SLO (no deadline drops censoring the tail) and is
    gated off under chaos — ``shard_down``/``shard_slow`` windows are
    wall-clock anchored, so a different arrival pattern shifts work
    into/out of them and legitimately breaks the law.
    """

    name = "cluster-load-p99-monotone"
    kind = "metamorphic"
    description = "cluster p99 non-increasing when offered load halves"
    RATE = 2000.0
    NUM_REQUESTS = 200
    #: Same scheduling-jitter argument as ``ServeLoadP99Monotone``:
    #: different arrival timestamps reorder shard micro-batches,
    #: wobbling individual latencies without a real regression.
    TOLERANCE = 0.05

    def applicable(self, runner: ScenarioRunner) -> bool:
        return runner.scenario.fault_plan == "none"

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        from repro.cluster import ClusterScenario, run_cluster_scenario
        sc = runner.scenario
        base = ClusterScenario(
            name=f"{sc.name}-cluster", dataset=sc.dataset,
            dataset_scale=sc.dataset_scale, host_gb=sc.host_gb,
            rate=self.RATE, num_requests=self.NUM_REQUESTS,
            slo=10.0, fault_plan="none", seed=sc.seed)
        high = run_cluster_scenario(base)
        low = run_cluster_scenario(base.with_(rate=self.RATE / 2))
        if not (high.ok and low.ok):
            return []
        p_high = high.stats.latency_p99
        p_low = low.stats.latency_p99
        if np.isnan(p_high) or np.isnan(p_low):
            return []
        if p_low > p_high * (1 + self.TOLERANCE):
            return [self._violation(
                runner, f"cluster p99 rose {p_high:.6g}s -> {p_low:.6g}s "
                        f"when offered load halved ({self.RATE:g} -> "
                        f"{self.RATE / 2:g} req/s)")]
        return []


class SanitizerClean(Oracle):
    """Every run of the scenario is sanitizer-clean (no findings)."""

    name = "sanitizer-clean"
    kind = "differential"
    description = "no sanitizer findings on any system run"
    systems = ("gnndrive-gpu", "gnndrive-cpu", "pyg+", "ginex",
               "mariusgnn")

    def check(self, runner: ScenarioRunner) -> List[Violation]:
        out: List[Violation] = []
        for system in self.systems:
            run = runner.run(system)
            if run.ok and not run.clean:
                out.append(self._violation(
                    runner, f"{system}: {'; '.join(run.findings)}"))
        return out


#: The registered oracle catalog, in evaluation order.
ORACLES = (
    SanitizerClean(),
    FeatureBytesVsPyGPlus(),
    BeladyBeatsLRU(),
    EmptyFaultPlanIsNoop(),
    MultiGPUOneWorkerEquiv(),
    HostMemoryHitsMonotone(),
    HostMemoryTimeMonotone(),
    SSDChannelsTimeMonotone(),
    EpochPrefixStable(),
    ServeLoadP99Monotone(),
    ReplicaChaosBounded(),
    ClusterLoadP99Monotone(),
)


def check_scenario(scenario: Scenario,
                   oracles=ORACLES) -> Dict[str, object]:
    """Run every oracle against *scenario*; returns a report dict.

    Report keys: ``scenario`` (the config), ``checked`` / ``skipped``
    (oracle names), ``violations`` (rendered strings), ``ok``.
    """
    runner = ScenarioRunner(scenario)
    checked: List[str] = []
    skipped: List[str] = []
    violations: List[Violation] = []
    for oracle in oracles:
        if not oracle.applicable(runner):
            skipped.append(oracle.name)
            continue
        checked.append(oracle.name)
        violations.extend(oracle.check(runner))
    return {
        "scenario": scenario.to_dict(),
        "checked": checked,
        "skipped": skipped,
        "violations": [v.render() for v in violations],
        "ok": not violations,
    }
