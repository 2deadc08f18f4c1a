"""Property tests: ArrayLRU against the OrderedDict it replaced.

The contract (module docstring of ``repro.simcore.lru``):

* ``touch(keys)``   == ``move_to_end`` members, insert non-members MRU;
* ``add(keys)``     == ``setdefault`` — members keep their position;
* ``discard(keys)`` == ``pop(k, None)``;
* ``popleft(k)``    == k x ``popitem(last=False)`` (LRU first).

Traces are random interleavings of all four batch operations; after
every step the full LRU order, membership and structural invariants
must match the reference exactly.  A tiny initial log capacity forces
frequent compactions, so the lazy append-log machinery is exercised,
not just the fast path.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simcore import ArrayLRU
from repro.simcore import lru as lru_module

NUM_KEYS = 24


class ReferenceLRU:
    """OrderedDict with the exact batch semantics ArrayLRU promises."""

    def __init__(self):
        self.d = OrderedDict()

    def touch(self, keys):
        for k in keys:
            if k in self.d:
                self.d.move_to_end(k)
            else:
                self.d[k] = None

    def add(self, keys):
        for k in keys:
            self.d.setdefault(k)

    def discard(self, keys):
        return sum(self.d.pop(k, "miss") is None for k in keys)

    def popleft(self, k):
        k = min(k, len(self.d))
        return [self.d.popitem(last=False)[0] for _ in range(k)]

    def order(self):
        return list(self.d)


key_batch = st.lists(st.integers(0, NUM_KEYS - 1), min_size=0,
                     max_size=NUM_KEYS, unique=True)
operation = st.one_of(
    st.tuples(st.just("touch"), key_batch),
    st.tuples(st.just("add"), key_batch),
    st.tuples(st.just("discard"), key_batch),
    st.tuples(st.just("popleft"), st.integers(0, NUM_KEYS)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, min_size=1, max_size=60))
def test_arraylru_matches_ordereddict(ops):
    _replay_against_reference(ops)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(operation, min_size=1, max_size=60))
def test_arraylru_popleft_scans_several_windows(monkeypatch, ops):
    """A one-entry scan chunk makes popleft's window ``2k``, so a log
    with stranded entries takes several passes per call."""
    monkeypatch.setattr(lru_module, "_SCAN_CHUNK", 1)
    _replay_against_reference(ops)


def _replay_against_reference(ops):
    lru = ArrayLRU(NUM_KEYS, log_capacity=16)   # tiny: compact often
    ref = ReferenceLRU()
    for op, arg in ops:
        if op == "popleft":
            got = lru.popleft(arg).tolist()
            want = ref.popleft(arg)
            assert got == want, f"popleft({arg}) diverged"
        else:
            keys = np.asarray(arg, dtype=np.int64)
            if op == "discard":
                assert lru.discard(keys) == ref.discard(arg)
            else:
                getattr(lru, op)(keys)
                getattr(ref, op)(arg)
        # Full-state equivalence after every operation.
        assert lru.order().tolist() == ref.order()
        assert len(lru) == len(ref.d)
        all_keys = np.arange(NUM_KEYS, dtype=np.int64)
        want_mask = np.array([k in ref.d for k in range(NUM_KEYS)])
        assert np.array_equal(lru.member_mask(all_keys), want_mask)
        lru.check_invariants()


@settings(max_examples=60, deadline=None)
@given(st.lists(operation, min_size=1, max_size=30),
       st.integers(NUM_KEYS, 3 * NUM_KEYS))
def test_arraylru_keyspace_growth(ops, grown):
    """ensure_keys mid-trace preserves order and membership."""
    lru = ArrayLRU(NUM_KEYS, log_capacity=16)
    ref = ReferenceLRU()
    half = len(ops) // 2
    for i, (op, arg) in enumerate(ops):
        if i == half:
            before = lru.order().tolist()
            lru.ensure_keys(grown)
            assert lru.num_keys >= grown
            assert lru.order().tolist() == before
        if op == "popleft":
            assert lru.popleft(arg).tolist() == ref.popleft(arg)
        elif op == "discard":
            assert lru.discard(np.asarray(arg, dtype=np.int64)) \
                == ref.discard(arg)
        else:
            getattr(lru, op)(np.asarray(arg, dtype=np.int64))
            getattr(ref, op)(arg)
    assert lru.order().tolist() == ref.order()
    lru.check_invariants()


def test_arraylru_iter_and_contains():
    lru = ArrayLRU(8)
    lru.add(np.array([3, 1, 5]))
    lru.touch(np.array([1]))
    assert list(lru) == [3, 5, 1]
    assert 1 in lru and 5 in lru and 0 not in lru
    lru.clear()
    assert len(lru) == 0 and list(lru) == []
