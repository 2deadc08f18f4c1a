"""Tests for the host-memory accountant."""

import pytest

from repro.errors import DoubleFreeError, OutOfMemoryError
from repro.memory import HostMemory, TagUsage


def test_allocate_and_free_roundtrip():
    mem = HostMemory(capacity=1000)
    a = mem.allocate(300, tag="staging")
    assert mem.pinned_bytes == 300
    assert mem.available == 700
    mem.free(a)
    assert mem.pinned_bytes == 0


def test_oom_on_overcommit():
    mem = HostMemory(capacity=1000)
    mem.allocate(800)
    with pytest.raises(OutOfMemoryError) as exc:
        mem.allocate(300)
    assert exc.value.requested == 300
    assert exc.value.available == 200


def test_cache_budget_is_free_memory():
    mem = HostMemory(capacity=1000)
    assert mem.cache_budget() == 1000
    mem.allocate(400)
    assert mem.cache_budget() == 600


def test_double_free_raises():
    mem = HostMemory(capacity=100)
    a = mem.allocate(50, tag="staging")
    mem.free(a)
    with pytest.raises(DoubleFreeError) as exc:
        mem.free(a)
    assert exc.value.alloc_id == a.alloc_id
    assert exc.value.tag == "staging"
    assert exc.value.nbytes == 50
    assert mem.pinned_bytes == 0  # accounting untouched by the bad free


def test_pinned_by_tag_breakdown():
    mem = HostMemory(capacity=1000)
    mem.allocate(100, tag="staging")
    mem.allocate(200, tag="staging")
    b = mem.allocate(300, tag="cache")
    assert mem.pinned_by_tag() == {"staging": TagUsage(300, 2),
                                   "cache": TagUsage(300, 1)}
    mem.free(b)
    assert mem.pinned_by_tag() == {"staging": TagUsage(300, 2)}


def test_usage_by_tag_accounting():
    mem = HostMemory(capacity=1000)
    mem.allocate(100, tag="staging")
    mem.allocate(200, tag="staging")
    b = mem.allocate(300, tag="topo")
    assert mem.usage_by_tag() == {"staging": 300, "topo": 300}
    mem.free(b)
    assert mem.usage_by_tag() == {"staging": 300}


def test_resize_grows_and_shrinks():
    mem = HostMemory(capacity=1000)
    a = mem.allocate(100, tag="buf")
    mem.resize(a, 500)
    assert mem.pinned_bytes == 500
    mem.resize(a, 50)
    assert mem.pinned_bytes == 50
    with pytest.raises(OutOfMemoryError):
        mem.resize(a, 2000)


def test_pressure_listener_fires_on_change():
    mem = HostMemory(capacity=1000)
    calls = []
    mem.add_pressure_listener(lambda: calls.append(mem.cache_budget()))
    a = mem.allocate(600)
    mem.free(a)
    assert calls == [400, 1000]


def test_peak_pinned_tracks_high_water_mark():
    mem = HostMemory(capacity=1000)
    a = mem.allocate(700)
    mem.free(a)
    mem.allocate(100)
    assert mem.peak_pinned == 700


def test_validation_errors():
    with pytest.raises(ValueError):
        HostMemory(capacity=0)
    mem = HostMemory(capacity=100)
    with pytest.raises(ValueError):
        mem.allocate(-1)
