"""The serving dispatch plane: replica routing, failure domains, recovery.

Every :class:`~repro.serve.server.InferenceServer` dispatches through
this plane.  Its core always runs:

* **JobQueue** — an abandoned-wait-safe per-replica queue (the
  :class:`~repro.serve.batcher.AdmissionQueue` notification/transfer
  split), so a crashed worker's pending wait loses nothing and a dead
  replica's queue can be drained for failover.  Dispatch blocks the
  batcher while the routed queue holds more than :data:`QUEUE_BOUND`
  jobs: GNNDrive's bounded stage queues (§4.1), so a slow replica
  pushes back on the batcher instead of piling up sealed jobs.
* **Router** — least-outstanding dispatch over healthy replicas (the
  per-replica circuit breaker: ``up`` = closed, ``ejected``/``down`` =
  open, ``probation`` = half-open).

The recovery machinery arms only when the machine's fault plan has
``replica_*`` specs:

* **Health checker** — a heartbeat process that counts missed probes,
  ejects unresponsive replicas, and re-admits recovered ones after a
  probation period.
* **Chaos drivers** — one process per ``replica_crash`` / ``replica_hang``
  / ``replica_slow`` spec, walking the spec's discrete episodes with
  draws from the injector's per-fault streams (bit-for-bit replayable).
* **Failover** — crash-orphaned attempts are re-dispatched under a
  bounded budget; exhausted attempts mark their requests ``failed``
  (exactly-once: a request reaches exactly one terminal state, enforced
  by the pending-status guard and
  :meth:`repro.core.stats.ServeStats.check_accounting`).
* **Hedging** — with ``ServeConfig.hedge`` and more than one replica,
  after a quantile-based delay (:data:`HEDGE_QUANTILE`,
  :data:`HEDGE_MIN_DELAY`) a second attempt is launched on another
  healthy replica; first completion wins, the loser is cancelled
  (dropped from its queue, or completes as a counted discard whose
  buffer references are released normally).
* **Brownout** — when the healthy fraction drops below a threshold,
  admission deadlines and micro-batch sizes tighten, trading offered
  load for goodput on the work still accepted.

Every counter lands in the :class:`~repro.faults.FaultLedger` and is
swept by its balance invariants.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generator, List, Optional

from repro.errors import InterruptError, SimulationError
from repro.faults.plan import FaultSpec
from repro.serve.batcher import Job
from repro.simcore.engine import Event, Simulator

#: Replica lifecycle states (the circuit-breaker mapping: ``up`` =
#: closed, ``ejected``/``down`` = open, ``probation`` = half-open).
REPLICA_STATES = ("up", "probation", "ejected", "down")

#: Jobs a replica's queue holds before :meth:`ResiliencePlane.dispatch`
#: blocks the batcher (one more than this while it waits).
QUEUE_BOUND = 2

#: Health checker: probe cadence (s), consecutive missed probes before
#: ejection, and the probation (s) a recovering replica serves before
#: new traffic is routed to it again.
HEARTBEAT_INTERVAL = 2e-3
HEARTBEAT_MISS_THRESHOLD = 2
PROBATION_PERIOD = 4e-3
#: Brownout: when the fraction of healthy replicas drops below the
#: threshold, admission deadlines and micro-batch sizes are scaled down
#: to preserve goodput for the work still accepted.
BROWNOUT_THRESHOLD = 0.5
BROWNOUT_DEADLINE_SCALE = 0.6
BROWNOUT_BATCH_SCALE = 0.5
#: Hedging: a second attempt launches once a request has waited
#: ``max(HEDGE_MIN_DELAY, observed HEDGE_QUANTILE latency)`` without
#: completing.  The floor keeps cold-start runs (empty latency history)
#: from hedging every request.
HEDGE_QUANTILE = 0.95
HEDGE_MIN_DELAY = 2e-3


class JobQueue:
    """Per-replica job queue safe against abandoned waits.

    Same design as :class:`~repro.serve.batcher.AdmissionQueue`:
    waiters receive notification events only, items move exclusively
    through :meth:`try_pop` — so a worker interrupted mid-wait (replica
    crash) swallows nothing, and the crash handler can :meth:`drain`
    the queue for failover.  The batcher waits on :meth:`space_event`
    while the depth is above :data:`QUEUE_BOUND`.
    """

    def __init__(self, sim: Simulator, name: str = "jobs"):
        self.sim = sim
        self.name = name
        self._items: Deque["Attempt"] = deque()
        self._waiters: List[Event] = []
        self._space_waiters: List[Event] = []
        self.closed = False
        self.pushed = 0
        self.popped = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, att: "Attempt") -> None:
        if self.closed:
            raise SimulationError(f"push() on closed queue {self.name!r}")
        self.pushed += 1
        self._items.append(att)
        self._wake()

    def push_front(self, att: "Attempt") -> None:
        """Requeue at the head (a hang-aborted attempt keeps its turn)."""
        if self.closed:
            raise SimulationError(f"push() on closed queue {self.name!r}")
        self.pushed += 1
        self._items.appendleft(att)
        self._wake()

    def try_pop(self) -> Optional["Attempt"]:
        if not self._items:
            return None
        self.popped += 1
        att = self._items.popleft()
        if len(self._items) <= QUEUE_BOUND:
            self._wake_space()
        return att

    def drain(self) -> List["Attempt"]:
        """Remove and return everything queued (crash failover)."""
        items = list(self._items)
        self._items.clear()
        self.popped += len(items)
        self._wake_space()
        return items

    def arrival_event(self) -> Event:
        ev = Event(self.sim)
        if self._items or self.closed:
            ev.succeed(len(self._items))
        else:
            self._waiters.append(ev)
        return ev

    def space_event(self) -> Event:
        """Event fired once the depth is at or below :data:`QUEUE_BOUND`
        (or on close)."""
        ev = Event(self.sim)
        if len(self._items) <= QUEUE_BOUND or self.closed:
            ev.succeed(len(self._items))
        else:
            self._space_waiters.append(ev)
        return ev

    def close(self) -> None:
        self.closed = True
        self._wake()
        self._wake_space()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(len(self._items))

    def _wake_space(self) -> None:
        waiters, self._space_waiters = self._space_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(len(self._items))

    def check_invariants(self) -> None:
        if self.popped > self.pushed:
            raise SimulationError(
                f"queue {self.name!r}: popped {self.popped} > pushed "
                f"{self.pushed}")
        if len(self._items) != self.pushed - self.popped:
            raise SimulationError(
                f"queue {self.name!r}: depth {len(self._items)} != "
                f"pushed {self.pushed} - popped {self.popped}")
        if self._items and self._waiters:
            raise SimulationError(
                f"queue {self.name!r}: waiters present with items queued")
        if self._space_waiters and len(self._items) <= QUEUE_BOUND:
            raise SimulationError(
                f"queue {self.name!r}: batcher waits at depth "
                f"{len(self._items)} <= bound {QUEUE_BOUND}")


@dataclass
class Attempt:
    """One processing attempt of a job on some replica.

    A job can spawn several attempts — the primary, hedge clones, and
    failover re-dispatches — but exactly-once completion is enforced at
    the *request* level, not here: whichever attempt finishes first
    claims the still-pending requests.
    """

    job: Job
    kind: str = "primary"          # 'primary' | 'hedge' | 'failover'
    tries: int = 0                 # failover budget consumed
    replica: int = -1              # current routing target
    cancelled: bool = False        # loser of a hedge race, drop unprocessed
    resolved: bool = False         # finished processing (won or lost)
    sibling: Optional["Attempt"] = None  # the other half of a hedge pair

    def has_pending(self) -> bool:
        return any(req.status == "pending" for req in self.job.requests)


@dataclass
class ReplicaState:
    """Mutable per-replica health/routing state."""

    index: int
    queue: JobQueue
    status: str = "up"
    #: Whether the replica would answer a health probe right now; the
    #: chaos drivers clear this for crash/hang windows.
    responsive: bool = True
    misses: int = 0                # consecutive missed probes
    probation_until: float = 0.0
    outstanding: int = 0           # attempts routed here, not yet done
    #: Compute-degradation window (``replica_slow``).
    slow_factor: float = 1.0
    slow_until: float = -math.inf
    incarnation: int = 0           # bumped on every crash restart
    worker: Optional[object] = field(default=None, repr=False)
    current: Optional[Attempt] = None

    def compute_factor(self, now: float) -> float:
        return self.slow_factor if now < self.slow_until else 1.0

    def routable_rank(self) -> int:
        """Router preference class (lower = preferred)."""
        return REPLICA_STATES.index(self.status)


class ResiliencePlane:
    """Owns the dispatch path of one
    :class:`~repro.serve.server.InferenceServer`: the server delegates
    dispatch, worker management, and shutdown to it.

    Armed when *specs* (the fault plan's ``replica_*`` specs) is
    non-empty: then it also runs the health checker, one chaos driver
    per spec, and hedges.  All stochastic draws go through the
    machine's :class:`~repro.faults.FaultInjector` per-fault streams.
    """

    def __init__(self, server, specs: List[FaultSpec]):
        self.server = server
        self.machine = server.machine
        self.sim = server.machine.sim
        cfg = server.config
        self.cfg = cfg
        self.specs = specs
        inj = server.machine.faults
        self.injector = inj
        self.ledger = inj.ledger if inj is not None else None
        self.hedging = bool(specs) and cfg.hedge and cfg.num_replicas > 1
        self.replicas: List[ReplicaState] = [
            ReplicaState(r, JobQueue(self.sim, f"serve-rjobs{r}"))
            for r in range(cfg.num_replicas)]
        if self.sim.sanitizer is not None:
            for st in self.replicas:
                self.sim.sanitizer.register(st.queue)
        self.brownout = False
        self._brownout_since = 0.0
        self._base_batch_size = cfg.max_batch_size

    # ------------------------------------------------------------------
    # Ledger access (armed only: replica specs imply an injector)
    # ------------------------------------------------------------------
    def _count(self, name: str, k: int = 1) -> None:
        setattr(self.ledger, name, getattr(self.ledger, name) + k)

    def _accum(self, name: str, dt: float) -> None:
        setattr(self.ledger, name, getattr(self.ledger, name) + dt)

    # ------------------------------------------------------------------
    # Router (the circuit breaker)
    # ------------------------------------------------------------------
    def route(self, att: Attempt, exclude: int = -1) -> ReplicaState:
        """Dispatch *att* to the best replica: healthiest state class
        first, then least outstanding, then lowest index (the
        deterministic tie-break)."""
        cands = [st for st in self.replicas if st.index != exclude]
        if not cands:                       # single replica: no choice
            cands = list(self.replicas)
        best = min(cands, key=lambda st: (st.routable_rank(),
                                          st.outstanding, st.index))
        att.replica = best.index
        best.outstanding += 1
        best.queue.push(att)
        return best

    def dispatch(self, job: Job) -> Generator:
        """MicroBatcher dispatch hook: route the primary, arm a hedge,
        then hold the batcher while the routed queue is over
        :data:`QUEUE_BOUND` (backpressure)."""
        att = Attempt(job=job)
        q = self.route(att).queue
        if self.hedging:
            self.server.watch_actor(self.sim.process(
                self._hedge_proc(att), name=f"hedge{job.batch_id}"))
        while len(q) > QUEUE_BOUND and not q.closed:
            yield q.space_event()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def worker_proc(self, r: int, incarnation: int) -> Generator:
        """One replica's serving loop, hang/crash interrupt aware."""
        server = self.server
        st = self.replicas[r]
        q = st.queue
        while True:
            try:
                att: Optional[Attempt] = None
                while att is None:
                    att = q.try_pop()
                    if att is None:
                        if q.closed:
                            return
                        yield q.arrival_event()
                if att.cancelled or not att.has_pending():
                    # Hedge-race loser (or fully-resolved stale work):
                    # drop it unprocessed.
                    self._retire(att, processed=False)
                    continue
                st.current = att
                factor = st.compute_factor(self.sim.now)
                # sim-race: ordered -- worker r owns gpus[r] exclusively
                # (one worker per replica); instances touch disjoint devices.
                yield from server._process_job(r, att.job, factor=factor)
                st.current = None
                self._finish(att)
            except InterruptError as exc:
                cause = exc.cause if isinstance(exc.cause, tuple) else \
                    (exc.cause,)
                if cause[0] == "hang":
                    server.backends[r].abort_batch()
                    if st.current is not None:
                        # Keep the job: the stalled replica reprocesses
                        # it on resume (hedges cover the latency tail).
                        st.current.replica = r
                        q.push_front(st.current)
                        st.current = None
                    resume_at = float(cause[1])
                    while self.sim.now < resume_at:
                        try:
                            yield self.sim.timeout(resume_at
                                                   - self.sim.now)
                        except InterruptError as exc2:
                            cause2 = exc2.cause if isinstance(
                                exc2.cause, tuple) else (exc2.cause,)
                            if cause2[0] != "hang":
                                return  # crashed mid-hang
                    st.responsive = True
                    continue
                # Crash: the driver owns teardown, orphaning, and the
                # restart; this incarnation just stops existing.
                return

    def _finish(self, att: Attempt) -> None:
        """First-completion-wins arbitration after a processed attempt."""
        now = self.sim.now
        won = 0
        for req in att.job.requests:
            if self.server._complete_request(req, now):
                won += 1
        att.resolved = True
        self._retire(att, processed=True, won=bool(won))

    def _retire(self, att: Attempt, processed: bool,
                won: bool = False) -> None:
        """Close out an attempt's routing + hedge accounting."""
        if 0 <= att.replica < len(self.replicas):
            self.replicas[att.replica].outstanding -= 1
        sib = att.sibling
        if won and sib is not None and not sib.resolved:
            sib.cancelled = True
        if att.kind == "hedge":
            if won:
                self._count("hedge_wins")
            else:
                self._count("hedge_discards")

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------
    def _hedge_proc(self, att: Attempt) -> Generator:
        observed = self.server.recorder.quantile(HEDGE_QUANTILE)
        delay = (HEDGE_MIN_DELAY if math.isnan(observed)
                 else max(HEDGE_MIN_DELAY, observed))
        yield self.sim.timeout(delay)
        if (att.resolved or att.cancelled or att.sibling is not None
                or not att.has_pending()
                or self.server._done.triggered):
            return
        self._count("hedges")
        clone = Attempt(job=att.job, kind="hedge", tries=att.tries,
                        sibling=att)
        att.sibling = clone
        self.route(clone, exclude=att.replica)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _orphan(self, att: Attempt) -> None:
        """Re-dispatch (budget permitting) or abandon an orphan."""
        if att.cancelled or not att.has_pending():
            self._retire(att, processed=False)
            return
        if 0 <= att.replica < len(self.replicas):
            self.replicas[att.replica].outstanding -= 1
        self._count("orphaned")
        if att.tries < self.cfg.failover_budget:
            att.tries += 1
            att.kind = "failover" if att.kind == "primary" else att.kind
            self._count("failovers")
            self.route(att)
        else:
            self._count("orphan_failed")
            att.resolved = True
            for req in att.job.requests:
                self.server._fail_request(req)

    # ------------------------------------------------------------------
    # Chaos drivers (one per replica_* spec)
    # ------------------------------------------------------------------
    def driver_proc(self, spec: FaultSpec) -> Generator:
        sim = self.sim
        k = 0
        while True:
            t = spec.episode_start(k)
            if t is None:
                return
            k += 1
            wait = t - sim.now
            if wait < 0:
                continue  # episode already in the past (late start)
            if wait > 0:
                yield sim.timeout(wait)
            if self.server._done.triggered:
                return
            if not self.injector.draw_episode(spec):
                continue
            r = self._draw_target(spec)
            st = self.replicas[r]
            if spec.kind == "replica_crash":
                if st.status == "down":
                    continue  # already dead: the episode finds no victim
                yield from self._crash_episode(st, spec)
            elif spec.kind == "replica_hang":
                if st.status == "down" or not st.responsive:
                    continue
                yield from self._hang_episode(st, spec)
            else:  # replica_slow
                self._count("injected_slow")
                st.slow_factor = spec.factor
                st.slow_until = sim.now + spec.duration

    def _draw_target(self, spec: FaultSpec) -> int:
        return self.injector.draw_replica(spec, len(self.replicas))

    def _crash_episode(self, st: ReplicaState,
                       spec: FaultSpec) -> Generator:
        sim = self.sim
        server = self.server
        r = st.index
        self._count("injected_crash")
        self._count("ejections")  # the breaker opens instantly
        st.status = "down"
        st.responsive = False
        st.misses = 0
        if st.worker is not None:
            st.worker.interrupt(("crash", st.incarnation))
        # The dying incarnation's state is reclaimed *now*: staging
        # reservation, buffer references and contents, ring.
        server.backends[r].crash_teardown()
        orphans: List[Attempt] = []
        if st.current is not None:
            orphans.append(st.current)
            st.current = None
        orphans.extend(st.queue.drain())
        for att in orphans:
            self._orphan(att)
        yield sim.timeout(spec.duration)
        self._accum("replica_down_time", spec.duration)
        if self.server._done.triggered and st.queue.closed:
            return  # run over: stay down, nothing left to serve
        st.incarnation += 1
        st.status = "probation"
        st.probation_until = sim.now + PROBATION_PERIOD
        st.responsive = True
        st.worker = sim.process(
            self.worker_proc(r, st.incarnation),
            name=f"serve-rworker{r}.{st.incarnation}")
        server.watch_actor(st.worker)
        self._count("replica_restarts")

    def _hang_episode(self, st: ReplicaState,
                      spec: FaultSpec) -> Generator:
        sim = self.sim
        self._count("injected_hang")
        st.responsive = False
        resume_at = sim.now + spec.duration
        if st.worker is not None:
            st.worker.interrupt(("hang", resume_at))
        yield sim.timeout(spec.duration)
        self._accum("replica_down_time", spec.duration)
        # The worker marks itself responsive when its stall ends; if it
        # was idle-interrupted the wake-up does it there too, so nothing
        # more to do here.

    # ------------------------------------------------------------------
    # Health checker + brownout
    # ------------------------------------------------------------------
    def health_proc(self) -> Generator:
        sim = self.sim
        while not self.server._done.triggered:
            yield sim.timeout(HEARTBEAT_INTERVAL)
            now = sim.now
            for st in self.replicas:
                if st.status == "down":
                    continue  # the crash driver owns the restart path
                if not st.responsive:
                    st.misses += 1
                    if st.status in ("up", "probation") \
                            and st.misses >= HEARTBEAT_MISS_THRESHOLD:
                        st.status = "ejected"
                        self._count("ejections")
                    continue
                st.misses = 0
                if st.status == "ejected":
                    st.status = "probation"
                    st.probation_until = now + PROBATION_PERIOD
                elif st.status == "probation" \
                        and now >= st.probation_until:
                    st.status = "up"
                    self._count("readmissions")
            self._update_brownout(now)
        self.finalize(sim.now)

    def _update_brownout(self, now: float) -> None:
        healthy = sum(1 for st in self.replicas if st.status == "up")
        degraded = healthy < BROWNOUT_THRESHOLD * len(self.replicas)
        batcher = getattr(self.server, "batcher", None)
        if degraded and not self.brownout:
            self.brownout = True
            self._brownout_since = now
            self._count("brownouts")
            if batcher is not None:
                batcher.max_batch_size = max(
                    1, int(self._base_batch_size * BROWNOUT_BATCH_SCALE))
        elif not degraded and self.brownout:
            self.brownout = False
            self._accum("brownout_time", now - self._brownout_since)
            if batcher is not None:
                batcher.max_batch_size = self._base_batch_size

    def finalize(self, now: float) -> None:
        """Close open accounting windows at end of run."""
        if self.brownout:
            self.brownout = False
            self._accum("brownout_time", now - self._brownout_since)

    # ------------------------------------------------------------------
    def actors(self) -> List:
        """Spawn the plane's processes: the workers, and when armed the
        health checker and chaos drivers."""
        procs = []
        for st in self.replicas:
            st.worker = self.sim.process(
                self.worker_proc(st.index, st.incarnation),
                name=f"serve-rworker{st.index}.0")
            procs.append(st.worker)
        if not self.specs:
            return procs
        procs.append(self.sim.process(self.health_proc(),
                                      name="serve-health"))
        for spec in self.specs:
            procs.append(self.sim.process(
                self.driver_proc(spec), name=f"chaos:{spec.fault_id}"))
        return procs

    def close_queues(self) -> None:
        for st in self.replicas:
            if not st.queue.closed:
                st.queue.close()
