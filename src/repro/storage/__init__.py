"""Simulated storage stack: SSD device, io_uring ring, page cache.

Layering (bottom to top)::

    SSDDevice         channelized queueing model; pure timing
    FileCatalog       name -> (size, sector layout) registry
    SyncFile          blocking pread()-style reads (threads block on I/O)
    AsyncRing         io_uring-style SQ/CQ with bounded io-depth
    PageCache         OS page cache (LRU, 4 KiB pages) sized by free host RAM

The *data plane* is ordinary NumPy (reads return real array slices so GNN
training downstream is genuine); the *timing plane* is the device model,
which reproduces the queueing behaviour behind the paper's Appendix B
(sync multi-thread ≈ async single-thread bandwidth) and the I/O congestion
of §3 𝔒2.
"""

from repro.storage.spec import SSDSpec, PM883, S3510, SECTOR_SIZE, PAGE_SIZE
from repro.storage.device import SSDDevice
from repro.storage.files import FileCatalog, FileHandle
from repro.storage.sync_io import SyncFile
from repro.storage.io_uring import AsyncRing, Sqe, SqeBatch
from repro.storage.page_cache import PageCache

__all__ = [
    "SSDSpec", "PM883", "S3510", "SECTOR_SIZE", "PAGE_SIZE",
    "SSDDevice", "FileCatalog", "FileHandle", "SyncFile",
    "AsyncRing", "Sqe", "SqeBatch", "PageCache",
]
