"""Static cohort-race and deadlock-order analysis (RACE201–RACE206).

PR 6 made the engine dispatch *cohorts*: every event armed for the same
simulated timestamp retires in one batch, ordered only by the packed
``(priority << 62) | seq`` key.  Two processes that touch the same
shared object at the same timestamp therefore execute in *seq
allocation order* — an accident of process creation order — unless a
queue handoff or an explicit priority separates them.  This module is
the static half of the race tooling: an interprocedural AST pass over
every process generator (``*_proc`` functions and ``sim.process``
callees, including ``yield from`` helper chains) that builds a
per-segment shared-state access map and flags the pairs that can
co-occur inside one cohort.

A *segment* is the straight-line region between two consecutive
``yield``s: everything in segment *k* of a process runs inside a single
cohort dispatch, so two accesses in the segments of two different live
processes can always land in the same cohort.  The pass is
flow-insensitive across segments (any segment of P may coincide with
any segment of Q) which is exactly the engine's guarantee — nothing
but priorities orders same-timestamp processes.

Rule catalog
------------

=========  =============================================================
RACE201    Two distinct process generators both *write* the same shared
           object (PageCache, FeatureBuffer, Store payloads, HostMemory,
           StagingBuffer, rings, devices); final state depends on seq
           allocation order.
RACE202    One process writes and another reads the same shared object;
           the read observes before- or after-write state depending on
           seq order.
RACE203    A *pooled* process generator (spawned N times in a loop) writes
           shared state: the N instances race with each other even
           though the source shows only one writer.
RACE204    Shared-state mutation inside a function registered as an
           event callback (``ev.callbacks.append(fn)``): callbacks run
           during cohort dispatch, interleaved with process steps.
RACE205    Stale check-then-act: a branch/loop guard reads shared state,
           then the body yields before writing the same object — the
           guard may no longer hold after the yield.
RACE206    Two processes acquire the same pair of blocking primitives
           (Resources / Store endpoints) in opposite orders — the
           classic AB-BA deadlock shape.
=========  =============================================================

Suppression / priority annotation
---------------------------------

RACE findings use the same ``# sim-lint: disable=RACE201 -- why``
machinery as the DET rules, plus a dedicated ordering annotation::

    self.page_cache.warm(pages)  # sim-race: ordered -- FIFO extract_q handoff pins sampler<extractor

``sim-race: ordered`` asserts that the flagged cohort ordering is
intentional and pinned (by a queue handoff, a priority, or commutative
semantics) and suppresses every RACE2xx code on that line; the ``--
justification`` tail is *mandatory* — the directive is ignored without
it.  A finding is suppressed when either of its two sites carries a
matching directive.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.linter import (
    Finding,
    _collect_process_fns,
    _is_suppressed,
    _suppressions,
    iter_python_files,
)

#: Rule code -> one-line description (merged into ``--rules`` output).
RACE_RULES: Dict[str, str] = {
    "RACE201": "write-write shared-state conflict between cohort-"
               "concurrent processes",
    "RACE202": "read-write shared-state conflict between cohort-"
               "concurrent processes",
    "RACE203": "pooled process instances write shared state without "
               "queue mediation",
    "RACE204": "shared-state mutation inside an event callback",
    "RACE205": "stale check-then-act: guard read and write separated "
               "by a yield",
    "RACE206": "inconsistent blocking-acquisition order across "
               "processes (AB-BA deadlock shape)",
}

#: ``# sim-race: ordered -- why`` — justification tail is mandatory.
_ORDERED_RE = re.compile(r"#\s*sim-race:\s*ordered\s*--\s*\S")

# ----------------------------------------------------------------------
# Shared-object model
# ----------------------------------------------------------------------
#: Per-kind method classification: 'r' read, 'w' write, 'sync' a
#: sanctioned FIFO synchronisation operation (Store/Resource endpoints
#: mediate ordering; they feed the RACE206 acquisition-order check, not
#: the RACE201/202 conflict check).
KIND_METHODS: Dict[str, Dict[str, str]] = {
    "Store": {
        "put": "sync", "put_many": "sync", "get": "sync",
        "try_get": "sync", "close": "sync",
    },
    "Resource": {
        "request": "sync", "release": "sync",
    },
    "AdmissionQueue": {
        "offer": "sync", "try_pop": "sync", "close": "sync",
        "arrival_event": "r",
    },
    "FeatureBuffer": {
        "begin_batch": "w", "allocate_slots": "w", "fill": "w",
        "finish_load": "w", "release": "w", "resolve_aliases": "w",
        "shrink_standby": "w", "restore_standby": "w",
        "gather": "r", "ready_event": "r", "slot_wait_event": "r",
        "free_slots": "r", "check_invariants": "r",
    },
    "PageCache": {
        "access": "w", "access_range": "w", "access_records": "w",
        "warm": "w", "invalidate_file": "w", "flush": "w",
        "shrink_to_budget": "w",
        "records_resident_mask": "r", "residency_mask": "r",
        "pages_for_records": "r", "pages_for_range": "r",
        "contains": "r", "hits_for": "r", "misses_for": "r",
        "check_invariants": "r",
    },
    "HostMemory": {
        "allocate": "w", "free": "w", "resize": "w",
        "set_fault_pressure": "w",
        "available": "r", "pinned_bytes": "r", "pinned_by_tag": "r",
        "usage_by_tag": "r", "check_invariants": "r",
    },
    "DeviceMemory": {
        "allocate": "w", "free": "w",
        "available": "r", "check_invariants": "r",
    },
    "StagingBuffer": {
        "reserve": "w", "free": "w", "close": "w",
        "in_use": "r",
    },
    "AsyncRing": {
        "submit": "w", "prepare_record_reads": "w", "drain_cohort": "w",
        "drain_wait": "w", "widen": "w",
        "depth": "r", "check_invariants": "r",
    },
    "SSDDevice": {
        "submit_batch": "w", "submit_batch_ex": "w",
        "submit_reliable": "w", "read_event": "w", "write_event": "w",
    },
}

#: Constructor names that create a shared object (``self.x = Store(...)``).
SHARED_CTORS: Dict[str, str] = {k: k for k in KIND_METHODS}

#: ``machine.<attr>`` objects every process can reach.
MACHINE_SHARED_ATTRS: Dict[str, str] = {
    "page_cache": "PageCache",
    "host": "HostMemory",
    "ssd": "SSDDevice",
    "cpu": "Resource",
    "gpus": "DeviceMemory",
}

#: Name heuristics for attributes / parameters whose constructor is not
#: visible (``self.staging = staging``, ``def helper(machine, ring, ..)``).
_NAME_KIND_EXACT: Dict[str, str] = {
    "feature_buffer": "FeatureBuffer", "fb": "FeatureBuffer",
    "staging": "StagingBuffer",
    "page_cache": "PageCache",
    "host": "HostMemory",
    "ring": "AsyncRing",
    "queue": "AdmissionQueue",
    "store": "Store",
    "ssd": "SSDDevice",
}
_NAME_KIND_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_q", "Store"), ("_queue", "Store"), ("_ring", "AsyncRing"),
    ("_buffer", "FeatureBuffer"), ("_cache", "PageCache"),
)

#: Parameter names treated as the machine root.
_MACHINE_PARAM_NAMES = {"machine", "m", "mach"}

#: Method-name prefixes that imply mutation when the method is not in
#: the per-kind table (conservative default for unknown methods).
_MUTATING_PREFIXES = (
    "set_", "add", "put", "push", "write", "fill", "free", "release",
    "reserve", "alloc", "warm", "invalidate", "flush", "shrink",
    "resize", "clear", "pop", "drain", "submit", "begin", "finish",
    "close", "widen", "restore", "resolve", "evict", "insert",
    "remove", "update",
)

_BLOCKING_SYNC_OPS = {"request", "get", "put", "put_many", "offer"}


def _name_kind(name: str) -> Optional[str]:
    low = name.lower()
    if low in _NAME_KIND_EXACT:
        return _NAME_KIND_EXACT[low]
    for suffix, kind in _NAME_KIND_SUFFIXES:
        if low.endswith(suffix):
            return kind
    return None


def _method_mode(kind: str, meth: str) -> str:
    table = KIND_METHODS.get(kind, {})
    if meth in table:
        return table[meth]
    return "w" if meth.startswith(_MUTATING_PREFIXES) else "r"


# ----------------------------------------------------------------------
# Object references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjRef:
    """A resolved shared object: a stable key plus its kind."""

    key: str
    kind: str


#: Sentinels used while resolving expressions.
_SELF = object()     # the enclosing ``self``
_MACHINE = object()  # the machine root
_PRIVATE = object()  # a process-local object (constructed in-function)


@dataclass(frozen=True)
class Access:
    """One classified access of a process segment.

    ``path``/``line`` locate the access itself (possibly inside a
    spliced helper); ``anchor_path``/``anchor_line`` locate the
    top-level statement in the process function's own file, which is
    where suppressions are looked up.
    """

    key: str
    kind: str
    field: str
    mode: str          # 'r' | 'w' | 'sync'
    segment: int
    path: str
    line: int
    anchor_path: str
    anchor_line: int


@dataclass
class FunctionSummary:
    """Flattened access list of one generator, helpers spliced in."""

    qual: str
    path: str
    params: List[str] = field(default_factory=list)
    accesses: List[Access] = field(default_factory=list)
    nyields: int = 0


@dataclass
class ClassInfo:
    name: str
    #: attr name -> shared kind (from ctor assignments + heuristics)
    shared_attrs: Dict[str, str] = field(default_factory=dict)
    #: method name -> function node
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    path: str
    tree: ast.Module
    source: str
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: bare function name -> (owner class name or None, node); includes
    #: nested defs (closure workers) under their bare name.
    functions: Dict[str, Tuple[Optional[str], ast.FunctionDef]] = (
        field(default_factory=dict))
    #: process function bare names (``*_proc`` + ``sim.process`` callees)
    process_fns: Set[str] = field(default_factory=set)
    #: process fns spawned inside a loop/comprehension or >1 times
    pooled_fns: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ProcessInfo:
    """One analyzed process generator within its co-run scope."""

    qual: str            # Class.method or bare function name
    path: str            # module defining the process
    scope: str           # co-run scope key (the spawning module's path)
    pooled: bool
    summary: FunctionSummary


# ----------------------------------------------------------------------
# Module parsing
# ----------------------------------------------------------------------
def _parse_module(path: str, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=path)
    mod = ModuleInfo(path=path, tree=tree, source=source)
    mod.process_fns = set(_collect_process_fns(tree))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            info = ClassInfo(name=node.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.FunctionDef):
                    info.methods.setdefault(sub.name, sub)
                    mod.functions.setdefault(sub.name, (node.name, sub))
                if isinstance(sub, ast.Assign):
                    _scan_attr_binding(sub, info)
            mod.classes[node.name] = info
        elif isinstance(node, ast.FunctionDef):
            mod.functions.setdefault(node.name, (None, node))
            for sub in ast.walk(node):
                if isinstance(sub, ast.FunctionDef) and sub is not node:
                    mod.functions.setdefault(sub.name, (None, sub))

    _scan_spawn_sites(mod)
    return mod


def _scan_attr_binding(node: ast.Assign, info: ClassInfo) -> None:
    """Record ``self.x = SharedCtor(...)`` / name-heuristic bindings."""
    for tgt in node.targets:
        if not (isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"):
            continue
        attr = tgt.attr
        val = node.value
        if (isinstance(val, ast.Call) and isinstance(val.func, ast.Name)
                and val.func.id in SHARED_CTORS):
            info.shared_attrs[attr] = SHARED_CTORS[val.func.id]
            continue
        if attr not in info.shared_attrs:
            kind = _name_kind(attr)
            if kind is not None:
                info.shared_attrs[attr] = kind


def _scan_spawn_sites(mod: ModuleInfo) -> None:
    """Find ``*.process(fn(...))`` sites; mark loop-spawned fns pooled."""
    counts: Dict[str, int] = {}

    def walk(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(
                child, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                        ast.GeneratorExp, ast.DictComp, ast.comprehension))
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "process" and child.args
                    and isinstance(child.args[0], ast.Call)):
                target = child.args[0].func
                name: Optional[str] = None
                if isinstance(target, ast.Attribute):
                    name = target.attr
                elif isinstance(target, ast.Name):
                    name = target.id
                if name is not None:
                    mod.process_fns.add(name)
                    counts[name] = counts.get(name, 0) + 1
                    if child_in_loop:
                        mod.pooled_fns.add(name)
            walk(child, child_in_loop)

    walk(mod.tree, False)
    for name, n in counts.items():
        if n > 1:
            mod.pooled_fns.add(name)


# ----------------------------------------------------------------------
# The interprocedural summariser
# ----------------------------------------------------------------------
def _is_private(name: str) -> bool:
    """A leading underscore, and not a dunder."""
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


class _Analysis:
    """Whole-file-set analysis state: module table + summary memo."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in modules}
        #: bare function name -> unique (module, owner, node), cross-module
        self.global_fns: Dict[str, Tuple[ModuleInfo, Optional[str],
                                         ast.FunctionDef]] = {}
        ambiguous: Set[str] = set()
        for m in modules:
            for name, (owner, node) in m.functions.items():
                if name in self.global_fns or name in ambiguous:
                    self.global_fns.pop(name, None)
                    ambiguous.add(name)
                else:
                    self.global_fns[name] = (m, owner, node)
        #: private method name -> its (module, class, node) when exactly
        #: one analysed class defines it
        self.private_methods: Dict[str, Tuple[ModuleInfo, Optional[str],
                                              ast.FunctionDef]] = {}
        twice: Set[str] = set()
        for m in modules:
            for cls in m.classes.values():
                for name, node in cls.methods.items():
                    if not _is_private(name) or name in twice:
                        continue
                    if name in self.private_methods:
                        del self.private_methods[name]
                        twice.add(name)
                    else:
                        self.private_methods[name] = (m, cls.name, node)
        #: (path, qual) -> summary memo; None marks in-progress (cycle).
        self._memo: Dict[Tuple[str, str], Optional[FunctionSummary]] = {}

    # -- resolution ----------------------------------------------------
    def resolve_local(self, mod: ModuleInfo, name: str
                      ) -> Optional[Tuple[ModuleInfo, Optional[str],
                                          ast.FunctionDef]]:
        if name in mod.functions:
            owner, node = mod.functions[name]
            return mod, owner, node
        return self.global_fns.get(name)

    def resolve_method(self, cls: Optional[str], mod: ModuleInfo, name: str
                       ) -> Optional[Tuple[ModuleInfo, Optional[str],
                                           ast.FunctionDef]]:
        if cls is not None and cls in mod.classes:
            node = mod.classes[cls].methods.get(name)
            if node is not None:
                return mod, cls, node
        return self.resolve_local(mod, name)

    def summarize(self, mod: ModuleInfo, owner: Optional[str],
                  node: ast.FunctionDef) -> Optional[FunctionSummary]:
        qual = f"{owner}.{node.name}" if owner else node.name
        key = (mod.path, qual)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle guard
        summ = FunctionSummary(qual=qual, path=mod.path)
        summ.params = [a.arg for a in node.args.args
                       if a.arg not in ("self", "cls")]
        visitor = _AccessCollector(self, mod, owner, summ)
        visitor.collect(node)
        self._memo[key] = summ
        return summ


class _AccessCollector(ast.NodeVisitor):
    """Collect classified shared-state accesses of one function body."""

    def __init__(self, analysis: _Analysis, mod: ModuleInfo,
                 owner: Optional[str], summary: FunctionSummary) -> None:
        self.an = analysis
        self.mod = mod
        self.owner = owner
        self.summ = summary
        self.segment = 0
        #: local name -> ObjRef | _MACHINE | _PRIVATE
        self.aliases: Dict[str, object] = {}
        self._call_funcs: Set[int] = set()
        self._anchor_line = 0

    # -- entry ---------------------------------------------------------
    def collect(self, node: ast.FunctionDef) -> None:
        for arg in node.args.args:
            if arg.arg in _MACHINE_PARAM_NAMES:
                self.aliases[arg.arg] = _MACHINE
            elif arg.arg not in ("self", "cls"):
                kind = _name_kind(arg.arg)
                if kind is not None:
                    self.aliases[arg.arg] = ObjRef(f"param:{arg.arg}", kind)
        for stmt in node.body:
            self.visit(stmt)

    def visit(self, node: ast.AST) -> None:
        # Suppressions anchor at the innermost enclosing statement, so
        # keep the anchor pinned to the statement being visited (a
        # compound statement's header anchors its test expressions, its
        # body statements re-anchor themselves).
        if isinstance(node, ast.stmt):
            self._anchor_line = node.lineno
        super().visit(node)

    # -- expression resolution -----------------------------------------
    def resolve(self, expr: ast.AST) -> object:
        """Resolve an expression to an ObjRef / sentinel / None."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return (_MACHINE if self.owner == "Machine" else _SELF)
            return self.aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve(expr.value)
            attr = expr.attr
            if base is _SELF:
                if attr == "machine":
                    return _MACHINE
                cls = (self.mod.classes.get(self.owner)
                       if self.owner else None)
                if cls is not None and attr in cls.shared_attrs:
                    return ObjRef(f"{self.owner}.{attr}",
                                  cls.shared_attrs[attr])
                return None
            if base is _MACHINE:
                if attr in MACHINE_SHARED_ATTRS:
                    return ObjRef(f"machine.{attr}",
                                  MACHINE_SHARED_ATTRS[attr])
                return None
            return None
        if isinstance(expr, ast.Subscript):
            base = self.resolve(expr.value)
            if isinstance(base, ObjRef) and base.key.endswith("gpus"):
                return ObjRef(base.key + "[]", base.kind)
            return base if isinstance(base, ObjRef) else None
        return None

    # -- recording -----------------------------------------------------
    def _record(self, obj: ObjRef, field_name: str, mode: str,
                node: ast.AST) -> None:
        self.summ.accesses.append(Access(
            key=obj.key, kind=obj.kind, field=field_name, mode=mode,
            segment=self.segment, path=self.mod.path,
            line=getattr(node, "lineno", 0),
            anchor_path=self.mod.path,
            anchor_line=self._anchor_line or getattr(node, "lineno", 0)))

    # -- statements ----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are separate generators; summarised on demand

    # NodeVisitor's visit_* protocol is stringly-typed; sharing one
    # handler across sync/async defs is idiomatic and safe at runtime.
    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment] -- see above
    # reason: NodeVisitor's visit_* protocol is stringly-typed; sharing
    # the handler is the idiomatic pattern and safe at runtime.

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_alias(node)
        for tgt in node.targets:
            self._record_store_target(tgt)
        self.visit(node.value)

    def _track_alias(self, node: ast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0],
                                                    ast.Name):
            return
        name = node.targets[0].id
        val = node.value
        if (isinstance(val, ast.Call) and isinstance(val.func, ast.Name)
                and val.func.id in SHARED_CTORS):
            # Constructed inside the generator: process-local.
            self.aliases[name] = _PRIVATE
            return
        resolved = self.resolve(val)
        if resolved is not None:
            self.aliases[name] = resolved

    def _record_store_target(self, tgt: ast.AST) -> None:
        if isinstance(tgt, ast.Attribute):
            base = self.resolve(tgt.value)
            if isinstance(base, ObjRef):
                self._record(base, tgt.attr, "w", tgt)
        elif isinstance(tgt, ast.Subscript):
            base = self.resolve(tgt.value)
            if isinstance(base, ObjRef):
                self._record(base, "[]", "w", tgt)
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._record_store_target(elt)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store_target(node.target)
        self.visit(node.value)

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            self._call_funcs.add(id(fn))
            base = self.resolve(fn.value)
            if isinstance(base, ObjRef):
                self._record(base, fn.attr,
                             _method_mode(base.kind, fn.attr), node)
            elif (base is None and isinstance(fn.value, ast.Name)
                  and fn.attr in ("request", "release")
                  and fn.value.id in self.summ.params
                  and fn.value.id not in self.aliases):
                # A parameter with no name heuristic whose request()/
                # release() protocol marks it as a counted Resource —
                # classify it so RACE206 sees the acquisition order.
                self._record(ObjRef(f"param:{fn.value.id}", "Resource"),
                             fn.attr, "sync", node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) not in self._call_funcs and isinstance(node.ctx,
                                                           ast.Load):
            base = self.resolve(node.value)
            if isinstance(base, ObjRef):
                self._record(base, node.attr, "r", node)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self.generic_visit(node)
        self.segment += 1
        self.summ.nyields += 1

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        spliced = False
        if isinstance(node.value, ast.Call):
            spliced = self._splice(node.value)
        if not spliced:
            self.generic_visit(node)
            self.segment += 1
            self.summ.nyields += 1

    # -- helper splicing -----------------------------------------------
    def _splice(self, call: ast.Call) -> bool:
        target = self._resolve_callee(call.func)
        if target is None:
            return False
        mod, owner, node = target
        callee = self.an.summarize(mod, owner, node)
        if callee is None:   # recursion cycle
            return False
        binding = self._bind_args(callee, call)
        anchor_line = self._anchor_line or call.lineno
        # A lambda handed to the helper (``retry_on_oom(m, counter,
        # lambda: staging.reserve(n))``) runs inside it, in this process:
        # its accesses count from the call's first segment.
        for arg in [*call.args, *(kw.value for kw in call.keywords)]:
            if isinstance(arg, ast.Lambda):
                self.visit(arg.body)
        for acc in callee.accesses:
            key, kind = acc.key, acc.kind
            if key.startswith("param:"):
                pname = key.split(":", 1)[1].split(".", 1)[0]
                bound = binding.get(pname, "<unbound>")
                if bound is _PRIVATE or bound is None:
                    continue
                if isinstance(bound, ObjRef):
                    key, kind = bound.key, bound.kind
                elif bound == "<unbound>":
                    pass  # keep the callee's param-heuristic key
                else:
                    continue
            self.summ.accesses.append(Access(
                key=key, kind=kind, field=acc.field, mode=acc.mode,
                segment=self.segment + acc.segment,
                path=acc.path, line=acc.line,
                anchor_path=self.mod.path, anchor_line=anchor_line))
        self.segment += callee.nyields
        self.summ.nyields += callee.nyields
        return True

    def _resolve_callee(self, fn: ast.AST
                        ) -> Optional[Tuple[ModuleInfo, Optional[str],
                                            ast.FunctionDef]]:
        if isinstance(fn, ast.Name):
            return self.an.resolve_local(self.mod, fn.id)
        if isinstance(fn, ast.Attribute):
            base = self.resolve(fn.value)
            if base is _SELF:
                return self.an.resolve_method(self.owner, self.mod, fn.attr)
            if base is _MACHINE:
                hit = self.an.global_fns.get(fn.attr)
                if hit is not None and hit[1] == "Machine":
                    return hit
                return None
            # Any other receiver (``server._process_job(...)``): a
            # private method name that exactly one analysed class
            # defines can only be that method.
            return self.an.private_methods.get(fn.attr)
        return None

    def _bind_args(self, callee: FunctionSummary, call: ast.Call
                   ) -> Dict[str, object]:
        binding: Dict[str, object] = {}
        for pname, arg in zip(callee.params, call.args):
            binding[pname] = self.resolve(arg)
        for kw in call.keywords:
            if kw.arg is not None:
                binding[kw.arg] = self.resolve(kw.value)
        return binding


# ----------------------------------------------------------------------
# Conflict detection
# ----------------------------------------------------------------------
def _collect_processes(an: _Analysis) -> List[ProcessInfo]:
    procs: List[ProcessInfo] = []
    seen: Set[Tuple[str, str, str]] = set()
    for mod in an.modules:
        for name in sorted(mod.process_fns):
            target = an.resolve_local(mod, name)
            if target is None:
                continue
            tmod, owner, node = target
            if not _is_generator(node):
                continue
            summ = an.summarize(tmod, owner, node)
            if summ is None:
                continue
            pooled = name in mod.pooled_fns
            key = (mod.path, tmod.path, summ.qual)
            if key in seen:
                continue
            seen.add(key)
            procs.append(ProcessInfo(
                qual=summ.qual, path=tmod.path, scope=mod.path,
                pooled=pooled, summary=summ))
    return procs


def _is_generator(node: ast.FunctionDef) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _co_run(a: ProcessInfo, b: ProcessInfo) -> bool:
    """Whether two processes can be live in the same simulation.

    Approximation: processes spawned from the same module co-run, and
    machine-resident processes (``repro/machine.py``) co-run with every
    system.
    """
    if a.scope == b.scope:
        return True
    machine = ("repro/machine.py",)
    na = a.scope.replace("\\", "/")
    nb = b.scope.replace("\\", "/")
    return na.endswith(machine) or nb.endswith(machine)


def _seg_ctx(acc: Access) -> str:
    return f"segment {acc.segment}"


def _conflict_findings(procs: Sequence[ProcessInfo]) -> List[Finding]:
    findings: List[Finding] = []
    emitted: Set[Tuple[str, str, str, str]] = set()

    by_key: Dict[str, List[Tuple[ProcessInfo, Access]]] = {}
    for p in procs:
        for acc in p.summary.accesses:
            if acc.key.startswith("param:"):
                continue
            by_key.setdefault(acc.key, []).append((p, acc))

    for key in sorted(by_key):
        entries = by_key[key]
        per_proc: Dict[str, List[Tuple[ProcessInfo, Access]]] = {}
        for p, acc in entries:
            per_proc.setdefault(f"{p.scope}::{p.qual}", []).append((p, acc))
        proc_ids = sorted(per_proc)

        # RACE203: pooled self-conflict.
        for pid in proc_ids:
            p = per_proc[pid][0][0]
            writes = [a for _, a in per_proc[pid]
                      if a.mode == "w" and p.pooled]
            if writes:
                a = min(writes, key=lambda x: (x.anchor_line, x.line))
                ek = (key, pid, pid, "RACE203")
                if ek not in emitted:
                    emitted.add(ek)
                    findings.append(Finding(
                        a.anchor_path, a.anchor_line, 1, "RACE203",
                        f"pooled process {p.qual}() writes shared "
                        f"{a.kind} {key!r} ({a.field}, {_seg_ctx(a)}); "
                        "N loop-spawned instances race with each other "
                        "in one cohort"))

        # RACE201/202: cross-process conflicts.
        for i, pa in enumerate(proc_ids):
            for pb in proc_ids[i + 1:]:
                p1, p2 = per_proc[pa][0][0], per_proc[pb][0][0]
                if not _co_run(p1, p2):
                    continue
                acc1 = [a for _, a in per_proc[pa] if a.mode != "sync"]
                acc2 = [a for _, a in per_proc[pb] if a.mode != "sync"]
                if not acc1 or not acc2:
                    continue
                w1 = [a for a in acc1 if a.mode == "w"]
                w2 = [a for a in acc2 if a.mode == "w"]
                if not w1 and not w2:
                    continue
                code = "RACE201" if (w1 and w2) else "RACE202"
                writes = sorted(w1 + w2,
                                key=lambda x: (x.anchor_path,
                                               x.anchor_line, x.line))
                anchor = writes[0]
                other_side = acc2 if anchor in w1 else acc1
                partner = min(other_side,
                              key=lambda x: (x.anchor_line, x.line))
                other_q = p2.qual if anchor in w1 else p1.qual
                this_q = p1.qual if anchor in w1 else p2.qual
                ek = (key, pa, pb, code)
                if ek in emitted:
                    continue
                emitted.add(ek)
                verb = ("both write" if code == "RACE201"
                        else "write vs. read")
                findings.append(_PairFinding(
                    anchor.anchor_path, anchor.anchor_line, 1, code,
                    f"{this_q}() and {other_q}() {verb} shared "
                    f"{anchor.kind} {key!r} without a distinguishing "
                    f"priority ({anchor.field} in {_seg_ctx(anchor)} vs. "
                    f"{partner.field} in {_seg_ctx(partner)} at "
                    f"{partner.anchor_path}:{partner.anchor_line})",
                    partner_path=partner.anchor_path,
                    partner_line=partner.anchor_line))
    return findings


@dataclass(frozen=True)
class _PairFinding(Finding):
    """A finding with a second site; suppression applies at either."""

    partner_path: str = ""
    partner_line: int = 0


def _check_then_act_findings(procs: Sequence[ProcessInfo],
                             an: _Analysis) -> List[Finding]:
    """RACE205: guard read, yield, then write of the same object."""
    findings: List[Finding] = []
    seen: Set[Tuple[str, str, int]] = set()
    for p in procs:
        mod = an.by_path.get(p.path)
        if mod is None:
            continue
        owner, name = ((p.qual.split(".", 1) + [""])[:2]
                       if "." in p.qual else (None, p.qual))
        target = (an.resolve_method(owner, mod, name) if owner
                  else an.resolve_local(mod, name))
        if target is None:
            continue
        tmod, towner, node = target
        collector = _AccessCollector(an, tmod, towner,
                                     FunctionSummary(p.qual, tmod.path))
        for arg in node.args.args:
            if arg.arg in _MACHINE_PARAM_NAMES:
                collector.aliases[arg.arg] = _MACHINE
        for branch in ast.walk(node):
            if not isinstance(branch, (ast.If, ast.While)):
                continue
            guard_reads = _shared_reads(branch.test, collector)
            if not guard_reads:
                continue
            yield_line = _first_yield_line(branch.body)
            if yield_line is None:
                continue
            for key, kind in guard_reads:
                wline = _write_after(branch.body, key, collector,
                                     yield_line)
                if wline is None:
                    continue
                sk = (p.qual, key, branch.lineno)
                if sk in seen:
                    continue
                seen.add(sk)
                findings.append(Finding(
                    tmod.path, branch.lineno, branch.col_offset + 1,
                    "RACE205",
                    f"{p.qual}() guards on {kind} {key!r} then yields "
                    f"before writing it at line {wline}; the guard can "
                    "go stale while other cohort members run"))
    return findings


def _shared_reads(expr: ast.AST, coll: _AccessCollector
                  ) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for node in ast.walk(expr):
        obj: object = None
        if isinstance(node, ast.Attribute):
            obj = coll.resolve(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute):
            obj = coll.resolve(node.func.value)
        if isinstance(obj, ObjRef) and (obj.key, obj.kind) not in out:
            out.append((obj.key, obj.kind))
    return out


def _first_yield_line(body: Sequence[ast.stmt]) -> Optional[int]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node.lineno
    return None


def _write_after(body: Sequence[ast.stmt], key: str,
                 coll: _AccessCollector, after_line: int) -> Optional[int]:
    for stmt in body:
        for node in ast.walk(stmt):
            if getattr(node, "lineno", 0) <= after_line:
                continue
            obj: object = None
            meth = ""
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                obj = coll.resolve(node.func.value)
                meth = node.func.attr
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                obj = coll.resolve(node.value)
                meth = node.attr
            if (isinstance(obj, ObjRef) and obj.key == key
                    and _method_mode(obj.kind, meth) == "w"):
                return int(getattr(node, "lineno", 0))
    return None


def _callback_findings(an: _Analysis) -> List[Finding]:
    """RACE204: shared writes inside ``ev.callbacks.append(fn)`` targets."""
    findings: List[Finding] = []
    for mod in an.modules:
        local_defs: Dict[str, ast.FunctionDef] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.FunctionDef):
                local_defs[node.name] = node
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "callbacks"
                    and node.args):
                continue
            cb = node.args[0]
            body: Optional[ast.AST] = None
            owner: Optional[str] = None
            if isinstance(cb, ast.Lambda):
                body = cb.body
            elif isinstance(cb, ast.Name) and cb.id in local_defs:
                body = local_defs[cb.id]
            elif (isinstance(cb, ast.Attribute)
                  and isinstance(cb.value, ast.Name)
                  and cb.value.id == "self"):
                for cls_name, cls in mod.classes.items():
                    if cb.attr in cls.methods:
                        body = cls.methods[cb.attr]
                        owner = cls_name
                        break
            if body is None:
                continue
            summ = FunctionSummary("<callback>", mod.path)
            coll = _AccessCollector(an, mod, owner, summ)
            if isinstance(body, ast.FunctionDef):
                coll.collect(body)
            else:
                coll.visit(body)
            writes = [a for a in summ.accesses if a.mode == "w"]
            if writes:
                w = writes[0]
                findings.append(Finding(
                    mod.path, node.lineno, node.col_offset + 1, "RACE204",
                    f"event callback registered here writes shared "
                    f"{w.kind} {w.key!r} ({w.field} at line {w.line}); "
                    "callbacks run mid-cohort, interleaved with process "
                    "steps"))
    return findings


def _acquisition_order_findings(procs: Sequence[ProcessInfo]
                                ) -> List[Finding]:
    """RACE206: AB-BA blocking-acquisition inversions across processes."""
    per_proc_pairs: List[Tuple[ProcessInfo,
                               Dict[Tuple[str, str], Access]]] = []
    for p in procs:
        held: Set[str] = set()
        pairs: Dict[Tuple[str, str], Access] = {}
        for acc in p.summary.accesses:
            if acc.mode != "sync":
                continue
            if acc.kind == "Resource" and acc.field == "release":
                held.discard(acc.key)
                continue
            if acc.field in _BLOCKING_SYNC_OPS:
                for h in sorted(held):
                    if h != acc.key:
                        pairs.setdefault((h, acc.key), acc)
                if acc.kind == "Resource" and acc.field == "request":
                    held.add(acc.key)
        per_proc_pairs.append((p, pairs))

    findings: List[Finding] = []
    emitted: Set[Tuple[str, str, str, str]] = set()
    for i, (pa, pairs_a) in enumerate(per_proc_pairs):
        for pb, pairs_b in per_proc_pairs[i:]:
            if pa is not pb and not _co_run(pa, pb):
                continue
            for (x, y), acc_a in sorted(pairs_a.items()):
                if (y, x) not in pairs_b:
                    continue
                if pa is pb and x >= y:
                    continue  # one report per inverted pair
                acc_b = pairs_b[(y, x)]
                ek = tuple(sorted((pa.qual, pb.qual)) + sorted((x, y)))
                if ek in emitted:
                    continue
                emitted.add(ek)
                findings.append(_PairFinding(
                    acc_a.anchor_path, acc_a.anchor_line, 1, "RACE206",
                    f"{pa.qual}() blocks on {y!r} while holding {x!r}, "
                    f"but {pb.qual}() acquires them in the opposite "
                    f"order ({acc_b.anchor_path}:{acc_b.anchor_line}); "
                    "AB-BA deadlock shape",
                    partner_path=acc_b.anchor_path,
                    partner_line=acc_b.anchor_line))
    return findings


# ----------------------------------------------------------------------
# Suppression (sim-lint disable + sim-race ordered)
# ----------------------------------------------------------------------
def _ordered_lines(source: str) -> Set[int]:
    """Lines covered by a ``sim-race: ordered -- why`` directive.

    An inline directive covers its own line.  A directive inside a
    comment block covers the first non-comment line after the block, so
    the justification may continue across several comment lines.
    """
    out: Set[int] = set()
    lines = source.splitlines()
    for i, text in enumerate(lines, start=1):
        if not _ORDERED_RE.search(text):
            continue
        out.add(i)
        if text.lstrip().startswith("#"):
            j = i
            while j < len(lines) and lines[j].lstrip().startswith("#"):
                j += 1
            out.add(j + 1)
    return out


class _SuppressionIndex:
    def __init__(self) -> None:
        self._lint: Dict[str, Dict[int, Set[str]]] = {}
        self._ordered: Dict[str, Set[int]] = {}

    def load(self, path: str, source: str) -> None:
        self._lint[path] = _suppressions(source)
        self._ordered[path] = _ordered_lines(source)

    def suppressed(self, path: str, line: int, code: str) -> bool:
        table = self._lint.get(path, {})
        if _is_suppressed(line, code, table):
            return True
        return line in self._ordered.get(path, set())


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_modules(sources: Sequence[Tuple[str, str]],
                    keep_suppressed: bool = False) -> List[Finding]:
    """Run the race analysis over ``(path, source)`` pairs."""
    modules = []
    supp = _SuppressionIndex()
    for path, source in sources:
        modules.append(_parse_module(path, source))
        supp.load(path, source)
    an = _Analysis(modules)
    procs = _collect_processes(an)

    findings: List[Finding] = []
    findings.extend(_conflict_findings(procs))
    findings.extend(_check_then_act_findings(procs, an))
    findings.extend(_callback_findings(an))
    findings.extend(_acquisition_order_findings(procs))

    out: List[Finding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.code,
                                             f.message)):
        hit = supp.suppressed(f.path, f.line, f.code)
        if not hit and isinstance(f, _PairFinding) and f.partner_path:
            hit = supp.suppressed(f.partner_path, f.partner_line, f.code)
        if hit:
            if keep_suppressed:
                out.append(Finding(f.path, f.line, f.col, f.code,
                                   f.message, suppressed=True))
        else:
            out.append(Finding(f.path, f.line, f.col, f.code, f.message))
    return out


def analyze_source(source: str, path: str = "<string>",
                   keep_suppressed: bool = False) -> List[Finding]:
    """Race-analyze a single in-memory module (fixture tests)."""
    return analyze_modules([(path, source)],
                           keep_suppressed=keep_suppressed)


def analyze_paths(paths: Sequence[object],
                  keep_suppressed: bool = False) -> List[Finding]:
    """Race-analyze files/directories as one co-run universe."""
    sources: List[Tuple[str, str]] = []
    for p in iter_python_files(paths):
        sources.append((str(p), Path(p).read_text(encoding="utf-8")))
    return analyze_modules(sources, keep_suppressed=keep_suppressed)


__all__ = [
    "RACE_RULES",
    "Access",
    "FunctionSummary",
    "ProcessInfo",
    "analyze_modules",
    "analyze_paths",
    "analyze_source",
]
