"""Tests for the io_uring-style async ring."""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.simcore import Simulator
from repro.storage import AsyncRing, FileCatalog, SSDDevice, SSDSpec
from repro.storage.spec import SECTOR_SIZE


def make_env(channels=4, latency=0.0, bw=1e6, depth=64, direct=True):
    sim = Simulator()
    dev = SSDDevice(sim, SSDSpec(read_latency=latency,
                                 channel_bandwidth=bw, channels=channels))
    cat = FileCatalog()
    fh = cat.create("feat", nbytes=1 << 24, data=None)
    ring = AsyncRing(sim, dev, depth=depth, direct=direct)
    return sim, dev, fh, ring


def test_prepare_and_submit_fills_completion_times():
    sim, dev, fh, ring = make_env()
    for i in range(3):
        ring.prepare_read(fh, i * 512, 512)
    assert len(ring) == 3
    done = ring.submit()
    assert len(ring) == 0
    assert len(done) == 3
    assert ring.submitted == 3
    assert np.all(done > 0)


def test_async_single_thread_matches_channel_parallelism():
    """One ring at depth >= channels uses all channels at once."""
    sim, dev, fh, ring = make_env(channels=4, latency=0.0, bw=1e6, depth=64)
    for i in range(4):
        ring.prepare_read(fh, i * 1024, 1024)
    done = ring.submit()
    assert done == pytest.approx([1.024e-3] * 4)


def test_depth_bounds_in_flight():
    sim, dev, fh, ring = make_env(channels=8, latency=0.0, bw=1e6, depth=2)
    for i in range(4):
        ring.prepare_read(fh, i * 1024, 1024)
    done = ring.submit()
    # Only 2 in flight: waves of 2 despite 8 channels.
    assert sorted(done) == pytest.approx([1.024e-3, 1.024e-3, 2.048e-3, 2.048e-3])


def test_alignment_enforced_in_direct_mode():
    sim, dev, fh, ring = make_env(direct=True)
    with pytest.raises(AlignmentError):
        ring.prepare_read(fh, 100, 512)
    ring2 = AsyncRing(sim, dev, direct=False)
    ring2.prepare_read(fh, 100, 300)  # fine when buffered


def test_prepare_record_reads_rounds_and_aligns():
    sim = Simulator()
    dev = SSDDevice(sim, SSDSpec(read_latency=0, channel_bandwidth=1e6, channels=1))
    cat = FileCatalog()
    data = np.zeros((100, 100), dtype=np.uint8)  # 100 B records
    fh = cat.create("f", data=data)
    ring = AsyncRing(sim, dev, direct=True)
    sqes = ring.prepare_record_reads(fh, np.array([7]))
    assert len(sqes) == 1
    assert sqes[0].nbytes == 512            # rounded up to sector
    assert sqes[0].offset % 512 == 0        # aligned down
    assert sqes[0].offset <= 700 < sqes[0].offset + 512


def _per_record_reads(ring, fh, record_ids, io_size):
    """One prepare_read per record: the loop prepare_record_reads
    replaces with array arithmetic."""
    padded = -(-fh.nbytes // SECTOR_SIZE) * SECTOR_SIZE
    sqes = []
    for rid in record_ids.tolist():
        off = rid * fh.record_nbytes
        off -= off % SECTOR_SIZE
        off = max(0, min(off, padded - io_size))
        sqes.append(ring.prepare_read(fh, off, io_size, user_data=rid))
    return sqes


@pytest.mark.parametrize("record_nbytes,io_size",
                         [(100, None), (768, None), (768, 4096)])
def test_record_reads_match_per_record_loop(record_nbytes, io_size):
    """Array-form SQE batches equal the per-record loop: offsets and
    sizes (sector rounding, the end-of-file clamp), then completion
    times from identical devices; an empty batch too."""
    num_records = 1001          # file size not a multiple of a sector
    io = io_size or -(-record_nbytes // SECTOR_SIZE) * SECTOR_SIZE
    rings = []
    for _ in range(2):
        sim = Simulator()
        dev = SSDDevice(sim, SSDSpec(read_latency=50e-6,
                                     channel_bandwidth=1e8, channels=4))
        fh = FileCatalog().create("f", nbytes=num_records * record_nbytes,
                                  record_nbytes=record_nbytes)
        rings.append((AsyncRing(sim, dev, depth=8, direct=True), fh))
    (ring, fh), (ref_ring, ref_fh) = rings
    padded = -(-fh.nbytes // SECTOR_SIZE) * SECTOR_SIZE
    rng = np.random.default_rng(record_nbytes)
    tail = np.arange(num_records - 8, num_records)
    for rids in (np.concatenate([rng.integers(0, num_records, 64), tail]),
                 np.empty(0, dtype=np.int64)):
        batch = ring.prepare_record_reads(fh, rids, io_size=io_size)
        sqes = _per_record_reads(ref_ring, ref_fh, rids, io)
        assert batch.offsets.tolist() == [s.offset for s in sqes]
        assert batch.sizes.tolist() == [s.nbytes for s in sqes]
        assert batch.user_data.tolist() == [s.user_data for s in sqes]
        assert ring.submit().tolist() == ref_ring.submit().tolist()
        assert batch.completion_times.tolist() == \
            [s.completion_time for s in sqes]
        if len(rids):
            # The last record reads the file's final io-sized window.
            assert batch.offsets[-1] == padded - io


def test_submit_and_wait_event():
    sim, dev, fh, ring = make_env(channels=1, latency=0.0, bw=1e6)

    def proc(sim):
        for i in range(3):
            ring.prepare_read(fh, i * 1024, 1024)
        times = yield ring.submit_and_wait()
        return (sim.now, times)

    now, times = sim.run_process(proc(sim))
    assert now == pytest.approx(3 * 1.024e-3)
    assert len(times) == 3


def test_submit_empty_ring():
    sim, dev, fh, ring = make_env()
    assert len(ring.submit()) == 0


def test_drain_wait_empty_and_nonempty():
    sim, dev, fh, ring = make_env(channels=1, latency=0.0, bw=1e6)

    def proc(sim):
        ring.prepare_read(fh, 0, 1024)
        done = ring.submit()
        yield ring.drain_wait(done)
        t_mid = sim.now
        yield ring.drain_wait(np.empty(0))
        return (t_mid, sim.now)

    t_mid, t_end = sim.run_process(proc(sim))
    assert t_mid == pytest.approx(1.024e-3)
    assert t_end == t_mid


def test_depth_validation():
    sim = Simulator()
    dev = SSDDevice(sim, SSDSpec(read_latency=0, channel_bandwidth=1, channels=1))
    with pytest.raises(ValueError):
        AsyncRing(sim, dev, depth=0)


def test_async_one_ring_equals_sync_many_threads():
    """The Appendix B headline: async 1 thread ~ sync N threads."""
    from repro.storage import SyncFile

    n_requests, size = 64, 512

    # Async: one ring, depth = channels.
    sim_a, dev_a, fh_a, ring = make_env(channels=8, latency=80e-6,
                                        bw=70e6, depth=8)
    for i in range(n_requests):
        ring.prepare_read(fh_a, i * size, size)

    def async_proc(sim):
        yield ring.submit_and_wait()
        return sim.now

    t_async = sim_a.run_process(async_proc(sim_a))

    # Sync: 8 threads, each 8 chained requests.
    sim_s = Simulator()
    dev_s = SSDDevice(sim_s, SSDSpec(read_latency=80e-6,
                                     channel_bandwidth=70e6, channels=8))
    cat = FileCatalog()
    fh_s = cat.create("f", nbytes=1 << 20)
    f = SyncFile(sim_s, dev_s, fh_s, direct=False)

    def sync_worker(sim):
        for _ in range(8):
            yield f.read(0, size)

    procs = [sim_s.process(sync_worker(sim_s)) for _ in range(8)]
    sim_s.drain(procs)
    t_sync = sim_s.now

    assert t_async == pytest.approx(t_sync, rel=0.15)
