"""Array-backed exact LRU over dense integer keys (the data-plane LRU).

Both simulator LRU structures — the feature buffer's standby list and
the page cache's resident set — were originally ``OrderedDict``s touched
one element per Python-level operation.  On the hot paths (thousands of
slots retired per batch, thousands of pages per access) the interpreter
overhead dwarfed the model itself.

This class keeps the *exact* LRU semantics of an ``OrderedDict`` while
making every operation a batch of NumPy array work:

* ``pos[key]`` — the position of the key's live entry in an append-only
  log (``-1`` when the key is not a member);
* ``log`` — the append log itself.  Refreshing a key appends a new
  entry and strands the old one; stale entries are recognised lazily
  (``pos[log[i]] != i``) and skipped during eviction scans;
* periodic compaction rewrites the log with only the live entries, so
  total work stays amortised O(1) per operation.

Batch operations (``touch``, ``add``, ``discard``, ``popleft``) take
arrays of keys and perform O(1) NumPy calls regardless of batch size.
Keys inside one batch call must be unique (callers pass unique node
slots / unique page ids by construction).

Equivalence with the ``OrderedDict`` model (checked by property tests):

* ``touch(keys)``   == ``move_to_end`` members, insert non-members MRU;
* ``add(keys)``     == ``d.setdefault(k)`` — insert non-members MRU,
  members keep their position;
* ``discard(keys)`` == ``d.pop(k, None)``;
* ``popleft(k)``    == k x ``popitem(last=False)`` (LRU first).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Eviction scans walk the log in chunks of this many entries.
_SCAN_CHUNK = 1024


class ArrayLRU:
    """Exact LRU ordering over integer keys ``0 .. num_keys-1``."""

    __slots__ = ("_pos", "_log", "_head", "_len", "_size")

    def __init__(self, num_keys: int, log_capacity: int = 64) -> None:
        if num_keys < 0:
            raise ValueError("num_keys must be >= 0")
        self._pos = np.full(num_keys, -1, dtype=np.int64)
        self._log = np.empty(max(16, int(log_capacity)), dtype=np.int64)
        self._head = 0        # scan start (entries before it are consumed)
        self._len = 0         # used log length
        self._size = 0        # live member count

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self._pos)

    def ensure_keys(self, num_keys: int) -> None:
        """Grow the keyspace to at least *num_keys* (amortised)."""
        if num_keys <= len(self._pos):
            return
        grown = np.full(max(num_keys, 2 * len(self._pos)), -1,
                        dtype=np.int64)
        grown[:len(self._pos)] = self._pos
        self._pos = grown

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        key = int(key)
        return 0 <= key < len(self._pos) and self._pos[key] >= 0

    def __iter__(self) -> Iterator[int]:
        """Iterate live keys in LRU order (oldest first)."""
        return iter(self.order())

    def member_mask(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test."""
        return self._pos[np.asarray(keys, dtype=np.int64)] >= 0

    def order(self) -> np.ndarray:
        """Live keys in LRU order, oldest first (test/debug aid)."""
        live = self._log[self._head:self._len]
        valid = self._pos[live] == np.arange(self._head, self._len)
        return live[valid]

    # ------------------------------------------------------------------
    # Batch mutators (keys unique within one call)
    # ------------------------------------------------------------------
    def touch(self, keys: np.ndarray) -> None:
        """Make *keys* the MRU entries, in order: members are refreshed
        (``move_to_end``), non-members inserted."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        self._size += int((self._pos[keys] < 0).sum())
        self._append(keys)

    def add(self, keys: np.ndarray) -> None:
        """Insert non-member *keys* at the MRU end; members keep their
        current position (``setdefault`` semantics)."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        fresh = keys[self._pos[keys] < 0]
        self._size += len(fresh)
        self._append(fresh)

    def discard(self, keys: np.ndarray) -> int:
        """Remove *keys* that are members; returns how many were removed."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return 0
        members = keys[self._pos[keys] >= 0]
        self._pos[members] = -1   # strand their log entries
        self._size -= len(members)
        return len(members)

    def popleft(self, k: int) -> np.ndarray:
        """Remove and return the *k* least-recently-used keys, LRU first.

        The stale-skipping scan walks the log in windows of
        ``max(_SCAN_CHUNK, 2k)`` entries.
        """
        k = min(int(k), self._size)
        out = np.empty(k, dtype=np.int64)
        got = 0
        head = self._head
        window = max(_SCAN_CHUNK, 2 * k)
        while got < k:
            end = min(self._len, head + window)
            chunk = self._log[head:end]
            valid_idx = np.nonzero(
                self._pos[chunk] == np.arange(head, end))[0]
            take = min(k - got, len(valid_idx))
            out[got:got + take] = chunk[valid_idx[:take]]
            got += take
            if take < len(valid_idx):
                head += int(valid_idx[take - 1]) + 1
            else:
                head = end
        self._head = head
        self._pos[out] = -1
        self._size -= k
        return out

    def clear(self) -> None:
        """Drop every member (the keyspace is retained)."""
        self._pos.fill(-1)
        self._head = 0
        self._len = 0
        self._size = 0

    # ------------------------------------------------------------------
    def _append(self, keys: np.ndarray) -> None:
        n = len(keys)
        if n == 0:
            return
        if self._len + n > len(self._log):
            self._compact(n)
        start = self._len
        self._log[start:start + n] = keys
        self._pos[keys] = np.arange(start, start + n)
        self._len += n

    def _compact(self, incoming: int) -> None:
        """Rewrite the log with live entries only; grow it if needed."""
        live = self.order()
        need = len(live) + incoming
        cap = len(self._log)
        while cap < 2 * need:
            cap *= 2
        if cap != len(self._log):
            self._log = np.empty(cap, dtype=np.int64)
        self._log[:len(live)] = live
        self._pos[live] = np.arange(len(live))
        self._head = 0
        self._len = len(live)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural invariants (used by property tests)."""
        live = self.order()
        if len(live) != self._size:
            raise AssertionError(
                f"live log entries {len(live)} != tracked size {self._size}")
        members = np.nonzero(self._pos >= 0)[0]
        if len(members) != self._size:
            raise AssertionError(
                f"pos members {len(members)} != tracked size {self._size}")
        if len(np.unique(live)) != len(live):
            raise AssertionError("duplicate live log entries")
