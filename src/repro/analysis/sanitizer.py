"""SimSanitizer: opt-in runtime auditing for the discrete-event engine.

The sanitizer observes; it never schedules events or draws randomness,
so enabling it cannot change a run's trace or epoch stats (a property
test asserts this).  When disabled the engine pays a single ``is not
None`` check per schedule/step.

What it audits
--------------

* **Scheduling** — every heap push must carry a finite time no earlier
  than ``now`` and a known priority; violations are recorded (and raise
  in strict mode) at the push site, where the stack still names the
  culprit.
* **Tie structure** — consecutive pops sharing the same ``(time,
  priority)`` are ties broken by the monotone sequence number.  The
  sanitizer counts tie runs and folds them into the trace digest, so a
  replayed epoch must reproduce the *same* tie structure, not just the
  same end state.
* **Trace digest / replay diff** — each processed event is hashed
  (time bits, priority, sequence, event type, process name) into a
  rolling SHA-256.  With ``trace=True`` the full entry list is kept so
  two runs can be diffed to the first divergent step (the
  ``python -m repro.bench determinism`` harness).
* **Leaks** — at ``epoch_begin`` the per-tag pinned bytes of the host
  and every device memory are snapshotted; ``epoch_end`` reports any
  tag whose balance did not return to baseline, by name
  (:meth:`repro.memory.HostMemory.pinned_by_tag`).
* **Structural invariants** — any registered object with a
  ``check_invariants()`` method (``PageCache``, ``FeatureBuffer``,
  ``ArrayLRU``, queues) is checked at every epoch boundary; corruption
  raises immediately regardless of strictness.
* **Async rings** — on every ``AsyncRing.submit`` the completion-time
  array is checked: no completion before submission time, and the
  in-flight window implied by the completion order never exceeds the
  ring depth.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import SanitizerError

if TYPE_CHECKING:
    from repro.analysis.dynraces import RaceDetector

_PRIORITIES = (0, 1)  # URGENT, NORMAL (mirrored to avoid an import cycle)


@dataclass(frozen=True)
class SanitizerFinding:
    """One audited anomaly (leak, bad schedule, ring violation)."""

    kind: str       # 'leak' | 'schedule' | 'ring'
    where: str      # resource/tag/site name
    detail: str

    def render(self) -> str:
        return f"[{self.kind}] {self.where}: {self.detail}"


class SimSanitizer:
    """Runtime sanitizer; attach to a machine, then bracket epochs with
    :meth:`epoch_begin` / :meth:`epoch_end`.

    Parameters
    ----------
    strict:
        Raise :class:`~repro.errors.SanitizerError` as soon as a finding
        is recorded (scheduling anomalies, leaks at epoch end, ring
        violations).  Non-strict mode collects findings for reporting.
    trace:
        Keep the full per-step trace (time, priority, seq, type, name)
        in memory for replay diffs.  The rolling digest is always kept.
    """

    def __init__(self, strict: bool = True, trace: bool = False) -> None:
        self.strict = strict
        self.keep_trace = trace
        self.findings: List[SanitizerFinding] = []
        self.machine = None
        self._registered: List[Any] = []
        #: Optional runtime race detector (see :meth:`enable_races`);
        #: the engine and resources check this via ``sanitizer.races``.
        self.races = None
        #: Allocation tags allowed to change size across an epoch (e.g.
        #: fault-driven feature-buffer degradation); the leak check
        #: skips them.
        self.adaptive_tags: set = set()
        # Trace digest state.
        self._hash = hashlib.sha256()
        self.steps = 0
        self.trace: List[Tuple[float, int, int, str, str]] = []
        # Tie audit state.
        self.tie_pops = 0
        self.tie_runs = 0
        self.max_tie_run = 0
        self._run_len = 0
        self._prev_key: Optional[Tuple[float, int]] = None
        # Epoch bookkeeping.
        self.epochs_checked = 0
        self._baseline: Optional[Dict[str, Dict[str, int]]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, machine: Any) -> "SimSanitizer":
        """Wire into *machine*: engine hooks plus standard registrations
        (host memory, device memories, page cache)."""
        self.machine = machine
        machine.sim.sanitizer = self
        self.register(machine.page_cache)
        return self

    def register(self, obj: Any) -> None:
        """Track *obj* (must expose ``check_invariants()``) for epoch-
        boundary structural checks (and race watching when enabled)."""
        if not hasattr(obj, "check_invariants"):
            raise TypeError(f"{obj!r} has no check_invariants()")
        if obj not in self._registered:
            self._registered.append(obj)
            if self.races is not None:
                self.races.watch(obj)

    def enable_races(self, sim: Any = None, stacks: bool = True,
                     waivers: Optional[Dict[Tuple[str, str, str], str]]
                     = None) -> "RaceDetector":
        """Attach a :class:`~repro.analysis.dynraces.RaceDetector`.

        Watches everything already registered and everything registered
        afterwards; *sim* defaults to the attached machine's simulator.
        Returns the detector.
        """
        from repro.analysis.dynraces import RaceDetector

        if sim is None:
            if self.machine is None:
                raise ValueError("enable_races() needs a sim or an "
                                 "attached machine")
            sim = self.machine.sim
        self.races = RaceDetector(sim, stacks=stacks, waivers=waivers)
        for obj in self._registered:
            self.races.watch(obj)
        return self.races

    def deadlock_dump(self, drained: bool = True) -> str:
        """Wait-for cycle dump from the race detector ('' if off/clean).

        Called from the engine's deadlock raise, where the schedule has
        drained — so a blocked process with no recorded unblocker is
        stuck too (*drained* defaults accordingly).
        """
        if self.races is None:
            return ""
        return self.races.deadlock_dump(drained=drained)

    def _record(self, kind: str, where: str, detail: str) -> None:
        finding = SanitizerFinding(kind, where, detail)
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(finding.render())

    # ------------------------------------------------------------------
    # Engine hooks (called from Simulator._schedule / Simulator.step)
    # ------------------------------------------------------------------
    def on_schedule(self, now: float, when: float, priority: int,
                    seq: int, event: Any) -> None:
        """Audit one heap push."""
        # sim-lint: disable=DET104 -- self-inequality IS the NaN test
        if when != when or when in (float("inf"), float("-inf")):
            self._record("schedule", type(event).__name__,
                         f"non-finite event time {when!r} (seq {seq})")
        elif when < now:
            self._record("schedule", type(event).__name__,
                         f"event scheduled in the past: t={when!r} < "
                         f"now={now!r} (seq {seq})")
        if priority not in _PRIORITIES:
            self._record("schedule", type(event).__name__,
                         f"unknown priority {priority!r} (seq {seq})")

    def on_step(self, when: float, priority: int, seq: int, event: Any) -> None:
        """Digest one processed event and update the tie audit."""
        kind = type(event).__name__
        name: str = getattr(event, "name", "")
        self._hash.update(struct.pack("<dqq", when, priority, seq))
        self._hash.update(kind.encode())
        self._hash.update(name.encode())
        self.steps += 1
        if self.keep_trace:
            self.trace.append((when, priority, seq, kind, name))
        key = (when, priority)
        if key == self._prev_key:
            self.tie_pops += 1
            if self._run_len == 0:
                self.tie_runs += 1
                self._run_len = 2
            else:
                self._run_len += 1
            self.max_tie_run = max(self.max_tie_run, self._run_len)
        else:
            self._run_len = 0
        self._prev_key = key

    # ------------------------------------------------------------------
    # Async-ring audit (called from AsyncRing.submit)
    # ------------------------------------------------------------------
    def check_ring(self, ring: Any, done: Any) -> None:
        """Completion-time sanity for one submission batch."""
        n = len(done)
        if n == 0:
            return
        now = ring.sim.now
        if float(done.min()) < now:
            self._record("ring", f"ring(depth={ring.depth})",
                         f"completion at t={float(done.min()):.9g} before "
                         f"submission at t={now:.9g}")
        # FIFO + bounded window: request i enters the device only after
        # request i-depth completed, so completions depth apart must be
        # monotone in submission order.
        d = ring.depth
        if n > d and (done[d:] < done[:-d]).any():
            self._record("ring", f"ring(depth={ring.depth})",
                         "completion order implies more than "
                         f"{d} requests in flight")

    # ------------------------------------------------------------------
    # Epoch protocol
    # ------------------------------------------------------------------
    def _memory_snapshot(self) -> Dict[str, Dict[str, int]]:
        m = self.machine
        snap: Dict[str, Dict[str, int]] = {}
        if m is None:
            return snap
        snap["host"] = dict(m.host.usage_by_tag())
        for gpu in m.gpus:
            snap[gpu.name] = dict(gpu.usage_by_tag())
        return snap

    def epoch_begin(self) -> None:
        """Snapshot the pinned-memory baseline for the leak check."""
        self._baseline = self._memory_snapshot()

    def epoch_end(self) -> None:
        """Leak check against the epoch baseline + invariant sweep."""
        if self._baseline is not None:
            current = self._memory_snapshot()
            for resource in sorted(set(self._baseline) | set(current)):
                before = self._baseline.get(resource, {})
                after = current.get(resource, {})
                for tag in sorted(set(before) | set(after)):
                    if tag in self.adaptive_tags:
                        continue
                    delta = after.get(tag, 0) - before.get(tag, 0)
                    if delta:
                        live = ""
                        if resource == "host" and self.machine is not None:
                            usage = self.machine.host.pinned_by_tag().get(tag)
                            if usage is not None:
                                live = f" across {usage.count} live allocation(s)"
                        verb = "leaked" if delta > 0 else "over-freed"
                        self._record(
                            "leak", f"{resource}:{tag}",
                            f"{verb} {abs(delta)} B since epoch begin{live}")
        self._baseline = None
        self.check_registered()
        self.epochs_checked += 1

    def check_registered(self) -> None:
        """Run every registered ``check_invariants()`` (raises on
        corruption regardless of strictness)."""
        for obj in self._registered:
            obj.check_invariants()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def trace_digest(self) -> str:
        """Rolling SHA-256 over every processed event so far."""
        return self._hash.hexdigest()

    def tie_report(self) -> Dict[str, int]:
        return {"tie_pops": self.tie_pops, "tie_runs": self.tie_runs,
                "max_tie_run": self.max_tie_run, "steps": self.steps}

    @property
    def clean(self) -> bool:
        """True iff no anomaly has been recorded."""
        return not self.findings

    @staticmethod
    def first_divergence(a: "SimSanitizer", b: "SimSanitizer"
                         ) -> Optional[Dict[str, Any]]:
        """First step at which two traced runs differ (None if equal).

        Both sanitizers must have been created with ``trace=True``.
        """
        if not (a.keep_trace and b.keep_trace):
            raise ValueError("first_divergence needs trace=True sanitizers")
        for i, (ea, eb) in enumerate(zip(a.trace, b.trace)):
            if ea != eb:
                return {"step": i, "run_a": ea, "run_b": eb}
        if len(a.trace) != len(b.trace):
            i = min(len(a.trace), len(b.trace))
            longer = a.trace if len(a.trace) > len(b.trace) else b.trace
            return {"step": i, "run_a": longer[i] if longer is a.trace else None,
                    "run_b": longer[i] if longer is b.trace else None}
        return None

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [
            f"SimSanitizer: {self.steps} events digested, "
            f"{self.epochs_checked} epoch(s) checked, "
            f"digest {self.trace_digest()[:16]}…",
            f"ties: {self.tie_pops} tied pops in {self.tie_runs} run(s), "
            f"longest {self.max_tie_run}",
        ]
        if self.findings:
            lines.append(f"{len(self.findings)} finding(s):")
            lines.extend("  " + f.render() for f in self.findings)
        else:
            lines.append("no findings")
        return "\n".join(lines)
