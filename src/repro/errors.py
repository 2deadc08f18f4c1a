"""Exception hierarchy for the GNNDrive reproduction.

Every failure mode the paper's evaluation exercises (out-of-memory on
over-committed hosts, out-of-time runs, misaligned direct I/O) has a
dedicated exception so benchmarks can report ``OOM`` / ``OOT`` rows the
same way Table 2 and Figures 9/10/14 do.
"""

from __future__ import annotations

import math
from dataclasses import fields


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError, ValueError):
    """A configuration value failed validation at construction time.

    Subclasses :class:`ValueError` so call sites (and tests) written
    against the generic validation errors keep working; the dedicated
    type lets fault plans and machine specs report the offending field
    by name instead of surfacing as NaN service times downstream.
    """


def require_finite_floats(record) -> None:
    """Raise :class:`ConfigError` naming the first float field of the
    dataclass *record* that is NaN or infinite."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def require_seed(seed: int) -> None:
    """Raise :class:`ConfigError` for a negative *seed*, which numpy's
    ``SeedSequence`` would reject only once generation starts."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")


class SimulationError(ReproError):
    """Internal inconsistency inside the discrete-event engine."""


class InterruptError(ReproError):
    """A simulated process was interrupted by another process.

    Attributes
    ----------
    cause:
        The value passed to :meth:`repro.simcore.Process.interrupt`.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class SanitizerError(ReproError):
    """A :class:`repro.analysis.SimSanitizer` audit failed in strict mode
    (memory leak at epoch end, bad event schedule, ring violation)."""


class DoubleFreeError(ReproError):
    """An :class:`repro.memory.Allocation` was freed twice.

    Silent double-frees would double-credit the host budget and corrupt
    the capacity arithmetic every OOM result in the paper rests on.
    """

    def __init__(self, alloc_id: int, tag: str, nbytes: int):
        super().__init__(
            f"double free of allocation #{alloc_id} "
            f"(tag {tag!r}, {nbytes} B): already returned to the pool"
        )
        self.alloc_id = alloc_id
        self.tag = tag
        self.nbytes = nbytes


class OutOfMemoryError(ReproError):
    """A host- or device-memory allocation exceeded the configured budget.

    Raised by :class:`repro.memory.HostMemory` and
    :class:`repro.memory.DeviceMemory`; surfaced as the ``OOM`` entries in
    the reproduced Table 2 and Figures 9/10/14.
    """

    def __init__(self, requested: int, available: int, where: str = "host"):
        super().__init__(
            f"OOM on {where} memory: requested {requested} B "
            f"but only {available} B available"
        )
        self.requested = requested
        self.available = available
        self.where = where


class OutOfTimeError(ReproError):
    """A training run exceeded its simulated-time budget (``OOT``)."""

    def __init__(self, budget: float):
        super().__init__(f"OOT: exceeded simulated time budget of {budget} s")
        self.budget = budget


class AlignmentError(ReproError):
    """A direct-I/O request violated the 512 B sector alignment rule."""


class StorageError(ReproError):
    """Out-of-range access or unknown file on the simulated device."""
