"""``repro.bench.stats`` — temci-grade statistics under every bench.

Every perf claim in this repo used to rest on single-shot numbers in
``BENCH_*.json``.  This module is the statistical layer that turns
those artifacts into a *gate*:

* a **repeated-run executor** (:func:`interleaved_measure`) with
  per-bench configurable run counts, warmup discard, and a seeded run
  order that interleaves cases temci-style so machine drift
  decorrelates from the case being measured;
* **summary statistics** per metric (:func:`summarize`): mean, sample
  stddev, min/max, percentiles, and a seeded bootstrap percentile
  confidence interval — no scipy, everything is numpy + ``math``;
* **two-sample comparison** (:func:`welch_t_test`,
  :func:`compare_metric`, :func:`compare_artifacts`): Welch's t-test
  with the Welch–Satterthwaite df and a p-value from the regularized
  incomplete beta function, plus a CI-overlap heuristic, classifying
  each shared metric as ``improved`` / ``unchanged`` / ``regressed``;
* an **environment fingerprint** (:func:`environment_fingerprint`)
  stamped into every artifact: python/numpy versions, platform, repo
  commit, and a hash of the bench configuration.

Metric *kinds* separate what is machine-dependent from what is not:
``wall`` metrics (real seconds) only compare meaningfully on the same
machine; ``simulated`` / ``count`` / ``ratio`` metrics are
deterministic properties of the simulator and gate cleanly across
machines — the CI ``bench-regression`` job gates on those.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Enriched-artifact schema version (the ``stats.schema`` field).
STATS_SCHEMA = 1

#: Bootstrap defaults (percentile method).
CI_CONFIDENCE = 0.95
CI_RESAMPLES = 2000

#: Compare defaults.
DEFAULT_THRESHOLD_PCT = 5.0
DEFAULT_ALPHA = 0.05

CLASS_IMPROVED = "improved"
CLASS_UNCHANGED = "unchanged"
CLASS_REGRESSED = "regressed"
CLASS_INFO = "info"


# ----------------------------------------------------------------------
# Student-t machinery (no scipy: regularized incomplete beta via the
# Numerical-Recipes continued fraction)
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-12:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value of a Student-t statistic with *df* dof."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test outcome."""

    t: float
    df: float
    p_value: float

    @property
    def significant(self) -> bool:
        return (not math.isnan(self.p_value)
                and self.p_value < DEFAULT_ALPHA)


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's t-test for two independent samples.

    Degenerate inputs degrade explicitly instead of raising: with fewer
    than two observations on either side the p-value is NaN (no
    variance estimate exists); with zero variance on both sides the
    p-value is 1.0 for equal means and 0.0 otherwise (the samples are
    deterministic, so any difference is exact).
    """
    xa = np.asarray(list(a), dtype=np.float64)
    xb = np.asarray(list(b), dtype=np.float64)
    na, nb = len(xa), len(xb)
    if na < 1 or nb < 1:
        raise ValueError("welch_t_test needs at least one sample per side")
    ma, mb = float(xa.mean()), float(xb.mean())
    if na < 2 or nb < 2:
        return WelchResult(float("nan"), float("nan"), float("nan"))
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    se2 = va / na + vb / nb
    if se2 == 0.0:
        equal = ma == mb or (math.isnan(ma) and math.isnan(mb))
        return WelchResult(0.0 if equal else float("inf"),
                           float(na + nb - 2), 1.0 if equal else 0.0)
    t = (ma - mb) / math.sqrt(se2)
    num = se2 * se2
    den = (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    df = num / den if den > 0 else float(na + nb - 2)
    return WelchResult(t, df, t_sf_two_sided(t, df))


def bootstrap_ci(samples: Sequence[float],
                 confidence: float = CI_CONFIDENCE,
                 resamples: int = CI_RESAMPLES,
                 seed: int = 0) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI for the mean of *samples*.

    A single observation (or identical observations) collapses to a
    degenerate ``(x, x)`` interval — the honest statement that the data
    carry no variance information.
    """
    xs = np.asarray(list(samples), dtype=np.float64)
    if len(xs) == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if len(xs) == 1 or float(xs.std()) == 0.0:
        return float(xs[0]), float(xs[0])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(xs), size=(resamples, len(xs)))
    means = xs[idx].mean(axis=1)
    lo = (1.0 - confidence) / 2.0
    return (float(np.quantile(means, lo)),
            float(np.quantile(means, 1.0 - lo)))


# ----------------------------------------------------------------------
# Metric summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricSpec:
    """How a metric compares: unit, preferred direction, and kind.

    *direction* is ``lower`` (smaller is better), ``higher``, or
    ``info`` (recorded, never gated).  *kind* is ``wall`` (real
    seconds, machine-dependent), ``simulated`` (deterministic simulated
    quantity), ``count`` (deterministic counter), or ``ratio``.
    """

    unit: str = ""
    direction: str = "info"
    kind: str = "simulated"


#: Common specs benches share.
WALL_S = MetricSpec("s", "lower", "wall")
SIM_S = MetricSpec("s", "lower", "simulated")
SIM_RATE = MetricSpec("1/s", "higher", "simulated")
COUNT_INFO = MetricSpec("count", "info", "count")
COUNT_BAD = MetricSpec("count", "lower", "count")
RATIO_UP = MetricSpec("x", "higher", "ratio")
RATIO_DOWN = MetricSpec("x", "lower", "ratio")


def summarize(samples: Sequence[float], spec: MetricSpec = MetricSpec(),
              ci_seed: int = 0) -> Dict:
    """One metric's enriched-schema entry from its per-run samples."""
    xs = np.asarray(list(samples), dtype=np.float64)
    if len(xs) == 0:
        raise ValueError("summarize needs at least one sample")
    finite = xs[np.isfinite(xs)]
    if len(finite) == 0:
        lo = hi = mean = std = float("nan")
        p50 = p90 = mn = mx = float("nan")
    else:
        mean = float(finite.mean())
        std = float(finite.std(ddof=1)) if len(finite) > 1 else 0.0
        mn, mx = float(finite.min()), float(finite.max())
        p50 = float(np.percentile(finite, 50))
        p90 = float(np.percentile(finite, 90))
        lo, hi = bootstrap_ci(finite, seed=ci_seed)
    return {
        "unit": spec.unit,
        "direction": spec.direction,
        "kind": spec.kind,
        "n": int(len(xs)),
        "mean": mean,
        "stddev": std,
        "min": mn,
        "max": mx,
        "p50": p50,
        "p90": p90,
        "ci_low": lo,
        "ci_high": hi,
        "ci_confidence": CI_CONFIDENCE,
        "ci_method": "bootstrap-percentile",
        "samples": [float(x) for x in xs],
    }


def summarize_metrics(samples_by_name: Mapping[str, Sequence[float]],
                      specs: Mapping[str, MetricSpec],
                      ci_seed: int = 0) -> Dict[str, Dict]:
    """Summarize every metric; specs match by full name, then by the
    suffix after the last ``.`` (so ``gnndrive-gpu.wall_s`` picks up the
    shared ``wall_s`` spec)."""
    out = {}
    for name in sorted(samples_by_name):
        spec = specs.get(name) or specs.get(name.rsplit(".", 1)[-1]) \
            or MetricSpec()
        out[name] = summarize(samples_by_name[name], spec, ci_seed=ci_seed)
    return out


# ----------------------------------------------------------------------
# Repeated-run executor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunPlan:
    """How often to run a bench's measured phase.

    *runs* recorded repetitions after *warmup* discarded passes; *seed*
    drives both the interleaved run order and the bootstrap resampling.
    ``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_WARMUP`` override the defaults
    (that is how the CI smoke shrinks every bench at once).
    """

    runs: int = 5
    warmup: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")

    @classmethod
    def from_env(cls, runs: Optional[int] = None,
                 warmup: Optional[int] = None,
                 seed: int = 0) -> "RunPlan":
        if runs is None:
            runs = int(os.environ.get("REPRO_BENCH_RUNS", cls.runs))
        if warmup is None:
            warmup = int(os.environ.get("REPRO_BENCH_WARMUP", cls.warmup))
        return cls(runs=runs, warmup=warmup, seed=seed)

    def to_dict(self) -> Dict:
        return {"runs": self.runs, "warmup": self.warmup, "seed": self.seed}


def timed_call(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(fn(), wall seconds)`` — the one-shot timing primitive measure
    functions use so wall-clock access stays inside this module."""
    # sim-lint: disable=DET101 -- the executor measures real wall time
    t0 = time.perf_counter()
    result = fn()
    # sim-lint: disable=DET101 -- the executor measures real wall time
    return result, time.perf_counter() - t0


def interleaved_measure(cases: Mapping[str, Callable[[int],
                                                     Mapping[str, float]]],
                        plan: RunPlan) -> Dict[str, List[float]]:
    """Temci-style repeated runs over several *cases* in one seeded,
    shuffled order, so slow machine drift decorrelates from the case
    being measured.

    Each case's callable receives its per-case run index; metric names
    are prefixed ``<case>.<metric>``.  Warmup passes (one round of every
    case, in shuffled order) are discarded.
    """
    if not cases:
        return {}
    order: List[Tuple[str, int]] = []
    for rep in range(-plan.warmup, plan.runs):
        round_ = [(case, rep) for case in cases]
        order.extend(round_)
    rng = np.random.default_rng(plan.seed)
    # Shuffle within each round: rounds keep warmups first, but the
    # case order inside every round is independently randomized.
    n_cases = len(cases)
    shuffled: List[Tuple[str, int]] = []
    for start in range(0, len(order), n_cases):
        chunk = order[start:start + n_cases]
        rng.shuffle(chunk)
        shuffled.extend(chunk)
    samples: Dict[str, List[float]] = {}
    for case, rep in shuffled:
        values = cases[case](rep)
        if rep < 0:
            continue
        for name, val in values.items():
            samples.setdefault(f"{case}.{name}", []).append(float(val))
    return samples


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _repo_commit() -> Dict[str, object]:
    """Best-effort git identity of the working tree; never raises."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True,
            text=True, timeout=10)
        if rev.returncode != 0:
            return {"commit": "unknown", "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=here,
            capture_output=True, text=True, timeout=10)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 \
            else None
        return {"commit": rev.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}


def config_hash(config: Mapping) -> str:
    """Stable SHA-256 over a canonical-JSON rendering of *config*."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def environment_fingerprint(config: Optional[Mapping] = None) -> Dict:
    """The environment stamp every enriched artifact carries.

    *config* is the bench's own knob dict (sizes, seeds, scenario
    names); its hash distinguishes artifacts produced by differently
    configured runs of the same bench.
    """
    cfg = dict(config or {})
    fp = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": cfg,
        "config_hash": config_hash(cfg),
    }
    fp.update(_repo_commit())
    return fp


def build_stats_block(metrics: Mapping[str, Dict], plan: RunPlan,
                      config: Optional[Mapping] = None) -> Dict:
    """Assemble the enriched ``stats`` block stamped into artifacts."""
    return {
        "schema": STATS_SCHEMA,
        "run_plan": plan.to_dict(),
        "ci": {"confidence": CI_CONFIDENCE,
               "method": "bootstrap-percentile",
               "resamples": CI_RESAMPLES},
        "fingerprint": environment_fingerprint(config),
        "metrics": dict(metrics),
    }


# ----------------------------------------------------------------------
# Two-artifact comparison
# ----------------------------------------------------------------------
def _num(value) -> float:
    """Reload-safe numeric coercion (``results_io`` stores NaN/inf as
    tagged strings)."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return float("nan")
    if value is None:
        return float("nan")
    return float(value)


def _metric_samples(metric: Mapping) -> List[float]:
    raw = metric.get("samples")
    if raw:
        return [_num(v) for v in raw]
    return [_num(metric.get("mean"))]


def _ci_overlap(old: Mapping, new: Mapping) -> Optional[bool]:
    lo_a, hi_a = _num(old.get("ci_low")), _num(old.get("ci_high"))
    lo_b, hi_b = _num(new.get("ci_low")), _num(new.get("ci_high"))
    if any(math.isnan(v) for v in (lo_a, hi_a, lo_b, hi_b)):
        return None
    return lo_a <= hi_b and lo_b <= hi_a


@dataclass
class MetricComparison:
    """One shared metric's OLD-vs-NEW verdict."""

    name: str
    direction: str
    kind: str
    unit: str
    old_mean: float
    new_mean: float
    delta_pct: float
    t: float = float("nan")
    df: float = float("nan")
    p_value: float = float("nan")
    significant: bool = False
    ci_overlap: Optional[bool] = None
    classification: str = CLASS_UNCHANGED
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "direction": self.direction,
            "kind": self.kind, "unit": self.unit,
            "old_mean": self.old_mean, "new_mean": self.new_mean,
            "delta_pct": self.delta_pct, "t": self.t, "df": self.df,
            "p_value": self.p_value, "significant": self.significant,
            "ci_overlap": self.ci_overlap,
            "classification": self.classification,
            "notes": list(self.notes),
        }


def compare_metric(name: str, old: Mapping, new: Mapping,
                   threshold_pct: float = DEFAULT_THRESHOLD_PCT,
                   alpha: float = DEFAULT_ALPHA) -> MetricComparison:
    """Classify one metric as improved / unchanged / regressed.

    A change only counts as a regression (or improvement) when *all*
    available evidence agrees: the mean moved by at least
    *threshold_pct* in the worse (better) direction, the Welch test —
    when both sides carry variance information — rejects equality at
    *alpha*, and the bootstrap CIs do not overlap.  Metrics with
    direction ``info`` are reported but never classified.
    """
    direction = new.get("direction") or old.get("direction") or "info"
    kind = new.get("kind") or old.get("kind") or "simulated"
    unit = new.get("unit") or old.get("unit") or ""
    a = _metric_samples(old)
    b = _metric_samples(new)
    old_mean, new_mean = _num(old.get("mean")), _num(new.get("mean"))
    if math.isnan(old_mean):
        old_mean = float(np.nanmean(a)) if a else float("nan")
    if math.isnan(new_mean):
        new_mean = float(np.nanmean(b)) if b else float("nan")
    cmp = MetricComparison(name=name, direction=direction, kind=kind,
                           unit=unit, old_mean=old_mean,
                           new_mean=new_mean, delta_pct=float("nan"))
    if math.isnan(old_mean) or math.isnan(new_mean):
        cmp.notes.append("non-finite mean; not comparable")
        cmp.classification = CLASS_INFO
        return cmp
    if old_mean == 0.0:
        cmp.delta_pct = 0.0 if new_mean == 0.0 else math.copysign(
            float("inf"), new_mean)
    else:
        cmp.delta_pct = 100.0 * (new_mean - old_mean) / abs(old_mean)

    no_variance_baseline = len(a) < 2
    if no_variance_baseline:
        cmp.notes.append("no-variance baseline: single-shot OLD metric, "
                         "threshold-only comparison")
    if len(b) < 2:
        cmp.notes.append("single-shot NEW metric")

    if len(a) >= 2 and len(b) >= 2:
        res = welch_t_test(a, b)
        cmp.t, cmp.df, cmp.p_value = res.t, res.df, res.p_value
        cmp.significant = (not math.isnan(res.p_value)
                           and res.p_value < alpha)
    else:
        # Degraded mode: with no variance estimate the move itself is
        # the only evidence; the threshold alone decides.
        cmp.significant = abs(cmp.delta_pct) >= threshold_pct
    cmp.ci_overlap = _ci_overlap(old, new)

    if direction == "info":
        cmp.classification = CLASS_INFO
        return cmp
    moved = abs(cmp.delta_pct) >= threshold_pct
    separated = cmp.ci_overlap is not True  # unknown CIs don't veto
    if moved and cmp.significant and separated:
        worse = cmp.delta_pct > 0 if direction == "lower" \
            else cmp.delta_pct < 0
        cmp.classification = CLASS_REGRESSED if worse else CLASS_IMPROVED
    else:
        cmp.classification = CLASS_UNCHANGED
    return cmp


def extract_metrics(doc: Mapping) -> Tuple[Dict[str, Dict], List[str]]:
    """An artifact's metrics plus any degradation warnings."""
    stats = doc.get("stats")
    if isinstance(stats, Mapping) and isinstance(stats.get("metrics"),
                                                 Mapping):
        return dict(stats["metrics"]), []
    return {}, ["artifact has no stats block"]


@dataclass
class ComparisonReport:
    """Full OLD-vs-NEW artifact comparison."""

    comparisons: List[MetricComparison]
    added: List[str]
    removed: List[str]
    warnings: List[str]
    threshold_pct: float
    alpha: float
    fingerprints: Dict[str, Optional[Dict]]

    def regressions(self, gate_kinds: Optional[Sequence[str]] = None
                    ) -> List[MetricComparison]:
        out = []
        for c in self.comparisons:
            if c.classification != CLASS_REGRESSED:
                continue
            if gate_kinds is not None and c.kind not in gate_kinds:
                continue
            out.append(c)
        return out

    def improvements(self) -> List[MetricComparison]:
        return [c for c in self.comparisons
                if c.classification == CLASS_IMPROVED]

    def to_dict(self) -> Dict:
        return {
            "threshold_pct": self.threshold_pct,
            "alpha": self.alpha,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "added": list(self.added),
            "removed": list(self.removed),
            "warnings": list(self.warnings),
        }


def compare_artifacts(old_doc: Mapping, new_doc: Mapping,
                      threshold_pct: float = DEFAULT_THRESHOLD_PCT,
                      alpha: float = DEFAULT_ALPHA) -> ComparisonReport:
    """Compare every shared metric of two artifacts."""
    old_metrics, old_warn = extract_metrics(old_doc)
    new_metrics, new_warn = extract_metrics(new_doc)
    warnings = [f"OLD: {w}" for w in old_warn] \
        + [f"NEW: {w}" for w in new_warn]
    shared = sorted(set(old_metrics) & set(new_metrics))
    comparisons = [compare_metric(name, old_metrics[name],
                                  new_metrics[name],
                                  threshold_pct=threshold_pct, alpha=alpha)
                   for name in shared]
    fps = {"old": (old_doc.get("stats") or {}).get("fingerprint"),
           "new": (new_doc.get("stats") or {}).get("fingerprint")}
    if fps["old"] and fps["new"]:
        for key in ("python", "numpy", "platform", "config_hash"):
            if fps["old"].get(key) != fps["new"].get(key):
                warnings.append(
                    f"fingerprint mismatch: {key} "
                    f"{fps['old'].get(key)!r} -> {fps['new'].get(key)!r}")
    return ComparisonReport(
        comparisons=comparisons,
        added=sorted(set(new_metrics) - set(old_metrics)),
        removed=sorted(set(old_metrics) - set(new_metrics)),
        warnings=warnings,
        threshold_pct=threshold_pct,
        alpha=alpha,
        fingerprints=fps,
    )
