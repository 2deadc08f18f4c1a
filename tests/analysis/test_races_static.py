"""Fixture tests for the static cohort-race analysis (RACE2xx).

Each rule gets a minimal process-pair snippet that triggers it, a
closely related snippet that must NOT trigger it, and annotation
coverage for the ``sim-race: ordered`` directive.
"""

import textwrap

from repro.analysis import analyze_modules
from repro.analysis.races import analyze_source


def codes(source: str, **kw):
    return [f.code for f in analyze_source(textwrap.dedent(source), **kw)]


#: A known-racy pair: two sibling processes write the same machine-level
#: page cache in the same cohort with no distinguishing priority.  Used
#: here and (run live) by the dynamic-detector tests — the seeded
#: fixture must be caught by both prongs.
RACY_PAIR = """
    def writer_a_proc(sim, machine):
        while True:
            machine.page_cache.warm(pages)
            yield sim.timeout(1.0)

    def writer_b_proc(sim, machine):
        while True:
            machine.page_cache.invalidate_file(handle)
            yield sim.timeout(1.0)
"""


# ----------------------------------------------------------------------
# RACE201 — write-write
# ----------------------------------------------------------------------
def test_race201_seeded_racy_pair():
    found = codes(RACY_PAIR)
    assert "RACE201" in found


def test_race201_single_writer_is_fine():
    assert codes("""
        def writer_a_proc(sim, machine):
            while True:
                machine.page_cache.warm(pages)
                yield sim.timeout(1.0)

        def reader_metrics(machine):
            return machine.spec
    """) == []


def test_race201_private_objects_are_fine():
    # Each process builds its own ring: no sharing, no finding.
    assert codes("""
        def worker_a_proc(sim):
            ring = AsyncRing(sim)
            while True:
                ring.submit(reqs)
                yield sim.timeout(1.0)

        def worker_b_proc(sim):
            ring = AsyncRing(sim)
            while True:
                ring.submit(reqs)
                yield sim.timeout(1.0)
    """) == []


# ----------------------------------------------------------------------
# RACE202 — read-write
# ----------------------------------------------------------------------
def test_race202_reader_vs_writer():
    found = codes("""
        def writer_proc(sim, machine):
            while True:
                machine.page_cache.warm(pages)
                yield sim.timeout(1.0)

        def reader_proc(sim, machine):
            while True:
                n = machine.page_cache.hits_for(handle)
                yield sim.timeout(1.0)
    """)
    assert "RACE202" in found
    assert "RACE201" not in found


def test_race202_store_handoff_is_fine():
    # Store get/put are sanctioned sync endpoints, never race findings.
    assert codes("""
        def producer_proc(sim, work_q):
            while True:
                yield work_q.put(item)

        def consumer_proc(sim, work_q):
            while True:
                item = yield work_q.get()
    """) == []


# ----------------------------------------------------------------------
# RACE203 — pooled writers
# ----------------------------------------------------------------------
def test_race203_pooled_spawn_loop():
    found = codes("""
        def extract_proc(sim, machine):
            while True:
                machine.page_cache.access_range(handle, 0, 10)
                yield sim.timeout(1.0)

        def start(sim, machine):
            for i in range(4):
                sim.process(extract_proc(sim, machine))
    """)
    assert "RACE203" in found


def test_race203_single_spawn_is_fine():
    assert "RACE203" not in codes("""
        def extract_proc(sim, machine):
            while True:
                machine.page_cache.access_range(handle, 0, 10)
                yield sim.timeout(1.0)

        def start(sim, machine):
            sim.process(extract_proc(sim, machine))
    """)


# ----------------------------------------------------------------------
# RACE205 — stale check-then-act
# ----------------------------------------------------------------------
def test_race205_guard_read_yield_write():
    found = codes("""
        def evict_proc(sim, machine):
            while True:
                if machine.page_cache.contains(page):
                    yield sim.timeout(0.1)
                    machine.page_cache.invalidate_file(page)
                yield sim.timeout(1.0)

        def warm_proc(sim, machine):
            while True:
                machine.page_cache.warm(pages)
                yield sim.timeout(1.0)
    """)
    assert "RACE205" in found


def test_race205_no_yield_between_is_fine():
    assert "RACE205" not in codes("""
        def evict_proc(sim, machine):
            while True:
                if machine.page_cache.contains(page):
                    machine.page_cache.invalidate_file(page)
                yield sim.timeout(1.0)
    """)


# ----------------------------------------------------------------------
# RACE206 — lock-order inversion
# ----------------------------------------------------------------------
def test_race206_ab_ba_acquisition():
    found = codes("""
        def worker_a_proc(sim, cpu, gpu_slots):
            while True:
                yield cpu.request()
                yield gpu_slots.request()
                yield sim.timeout(1.0)
                gpu_slots.release()
                cpu.release()

        def worker_b_proc(sim, cpu, gpu_slots):
            while True:
                yield gpu_slots.request()
                yield cpu.request()
                yield sim.timeout(1.0)
                cpu.release()
                gpu_slots.release()
    """)
    assert "RACE206" in found


def test_race206_consistent_order_is_fine():
    assert "RACE206" not in codes("""
        def worker_a_proc(sim, cpu, gpu_slots):
            while True:
                yield cpu.request()
                yield gpu_slots.request()
                yield sim.timeout(1.0)
                gpu_slots.release()
                cpu.release()

        def worker_b_proc(sim, cpu, gpu_slots):
            while True:
                yield cpu.request()
                yield gpu_slots.request()
                yield sim.timeout(1.0)
                gpu_slots.release()
                cpu.release()
    """)


# ----------------------------------------------------------------------
# ordered-pair annotations
# ----------------------------------------------------------------------
def test_ordered_annotation_suppresses():
    src = RACY_PAIR.replace(
        "machine.page_cache.warm(pages)",
        "machine.page_cache.warm(pages)"
        "  # sim-race: ordered -- test pin")
    assert codes(src) == []


def test_ordered_annotation_requires_justification():
    src = RACY_PAIR.replace(
        "machine.page_cache.warm(pages)",
        "machine.page_cache.warm(pages)  # sim-race" ": ordered")
    assert "RACE201" in codes(src)


def test_ordered_comment_block_covers_next_statement():
    found = codes("""
        def writer_a_proc(sim, machine):
            while True:
                # The extract queue pins this ordering; see the driver
                # slot protocol.
                # sim-race: ordered -- test pin spanning a block
                machine.page_cache.warm(pages)
                yield sim.timeout(1.0)

        def writer_b_proc(sim, machine):
            while True:
                machine.page_cache.invalidate_file(handle)
                yield sim.timeout(1.0)
    """)
    assert found == []


def test_keep_suppressed_reports_annotated_findings():
    src = textwrap.dedent(RACY_PAIR.replace(
        "machine.page_cache.warm(pages)",
        "machine.page_cache.warm(pages)"
        "  # sim-race: ordered -- test pin"))
    findings = analyze_source(src, keep_suppressed=True)
    assert findings and all(f.suppressed for f in findings)


# ----------------------------------------------------------------------
# Cross-module co-run scoping
# ----------------------------------------------------------------------
def test_processes_in_different_modules_do_not_co_run():
    a = textwrap.dedent("""
        def writer_a_proc(sim, machine):
            while True:
                machine.page_cache.warm(pages)
                yield sim.timeout(1.0)
    """)
    b = textwrap.dedent("""
        def writer_b_proc(sim, machine):
            while True:
                machine.page_cache.invalidate_file(handle)
                yield sim.timeout(1.0)
    """)
    findings = analyze_modules([("pkg/mod_a.py", a), ("pkg/mod_b.py", b)])
    assert [f.code for f in findings] == []


# ----------------------------------------------------------------------
# Helpers called on another object
# ----------------------------------------------------------------------
HELPER_ON_OTHER_OBJECT = """
    class Server:
        def {name}(self, machine):
            machine.page_cache.warm(pages)
            yield machine.sim.timeout(1.0)
    {twin}
    class Plane:
        def writer_a_proc(self, sim, machine):
            server = self.server
            while True:
                yield from server.{name}(machine)

    def writer_b_proc(sim, machine):
        while True:
            machine.page_cache.invalidate_file(handle)
            yield sim.timeout(1.0)
"""

TWIN = """
    class Other:
        def _helper(self, machine):
            yield machine.sim.timeout(1.0)
"""


def test_private_helper_on_other_receiver_is_spliced():
    found = codes(HELPER_ON_OTHER_OBJECT.format(name="_helper", twin=""))
    assert "RACE201" in found


def test_public_or_ambiguous_helper_on_other_receiver_is_not():
    assert codes(HELPER_ON_OTHER_OBJECT.format(name="helper",
                                               twin="")) == []
    assert codes(HELPER_ON_OTHER_OBJECT.format(name="_helper",
                                               twin=TWIN)) == []


LAMBDA_TO_HELPER = """
    def retry(machine, call):
        while True:
            try:
                return call()
            except OutOfMemoryError:
                yield machine.sim.timeout(1.0)

    def writer_a_proc(sim, machine):
        while True:
            yield from retry(machine, {call})

    def writer_b_proc(sim, machine):
        while True:
            machine.page_cache.invalidate_file(handle)
            yield sim.timeout(1.0)
"""


def test_lambda_handed_to_a_spliced_helper_runs_in_the_process():
    found = codes(LAMBDA_TO_HELPER.format(
        call="lambda: machine.page_cache.warm(pages)"))
    assert "RACE201" in found
    assert codes(LAMBDA_TO_HELPER.format(call="lambda: pages")) == []


def test_serve_worker_summary_has_its_job_accesses():
    """``ResiliencePlane.worker_proc`` runs every job through
    ``server._process_job``; the splice brings that pipeline's accesses
    (the replica's GPU allocation among them) into its summary."""
    from pathlib import Path

    import repro
    from repro.analysis.linter import iter_python_files
    from repro.analysis.races import (
        _Analysis,
        _collect_processes,
        _parse_module,
    )

    modules = [_parse_module(str(p), Path(p).read_text(encoding="utf-8"))
               for p in iter_python_files([Path(repro.__file__).parent])]
    workers = [p for p in _collect_processes(_Analysis(modules))
               if p.qual == "ResiliencePlane.worker_proc"]
    assert len(workers) == 1
    keys = {a.key for a in workers[0].summary.accesses}
    assert "machine.gpus[]" in keys
