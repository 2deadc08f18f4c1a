"""Property test: vectorized FeatureBuffer vs. the seed reference.

``ReferenceStandbyBuffer`` below is a faithful copy of the original
OrderedDict/per-element implementation; random batch traces
(overlapping node sets, standby exhaustion, delayed releases) must
leave both implementations in identical states after every step —
mapping tables, standby LRU order, and statistics alike.
"""

from collections import OrderedDict
from typing import List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.feature_buffer import FeatureBuffer
from repro.simcore import Simulator


class ReferenceStandbyBuffer:
    """The seed FeatureBuffer control plane: OrderedDict standby list,
    per-element Python loops.  Data-plane ``fill``/``gather`` are
    omitted — they were always vectorized and identical."""

    def __init__(self, num_slots: int, num_nodes: int):
        self.slot_of = np.full(num_nodes, -1, dtype=np.int64)
        self.ref = np.zeros(num_nodes, dtype=np.int64)
        self.valid = np.zeros(num_nodes, dtype=bool)
        self.reverse = np.full(num_slots, -1, dtype=np.int64)
        self.standby: "OrderedDict[int, None]" = OrderedDict(
            (s, None) for s in range(num_slots))
        self.stat_reused = 0
        self.stat_loaded = 0
        self.stat_evictions = 0

    def begin_batch(self, nodes: np.ndarray) -> np.ndarray:
        valid = self.valid[nodes]
        ref = self.ref[nodes]
        retired = nodes[valid & (ref == 0)]
        for v in retired:
            self.standby.pop(int(self.slot_of[v]), None)
        self.ref[nodes] += 1
        self.stat_reused += int(valid.sum())
        return nodes[(~valid) & (ref == 0)]

    def allocate_slots(self, nodes: np.ndarray) -> np.ndarray:
        k = min(len(self.standby), len(nodes))
        assigned = nodes[:k]
        for v in assigned:
            s, _ = self.standby.popitem(last=False)
            prev = int(self.reverse[s])
            if prev >= 0:
                self.valid[prev] = False
                self.slot_of[prev] = -1
                self.stat_evictions += 1
            self.slot_of[v] = s
            self.reverse[s] = int(v)
        self.stat_loaded += k
        return assigned

    def finish_load(self, nodes: np.ndarray) -> None:
        self.valid[nodes] = True

    def release(self, nodes: np.ndarray) -> None:
        self.ref[nodes] -= 1
        done = nodes[self.ref[nodes] == 0]
        for v in done:
            s = int(self.slot_of[v])
            if s >= 0:
                self.standby[s] = None

    def standby_order(self) -> List[int]:
        return list(self.standby)


NUM_NODES = 40
NUM_SLOTS = 12


batch = st.lists(st.integers(0, NUM_NODES - 1), min_size=1, max_size=10,
                 unique=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(batch, min_size=1, max_size=15),
       st.integers(1, 4))
def test_feature_buffer_matches_reference_trace(batches, hold):
    """Run begin/allocate/finish + delayed release through both."""
    sim = Simulator()
    fb = FeatureBuffer(sim, NUM_SLOTS, NUM_NODES, dim=1)
    ref = ReferenceStandbyBuffer(NUM_SLOTS, NUM_NODES)

    live = []
    for nodes in batches:
        nodes = np.asarray(nodes, dtype=np.int64)
        cls = fb.begin_batch(nodes)
        need_ref = ref.begin_batch(nodes)
        assert cls.needs_load.tolist() == need_ref.tolist()

        assigned, remaining = fb.allocate_slots(cls.needs_load)
        assigned_ref = ref.allocate_slots(need_ref)
        assert assigned.tolist() == assigned_ref.tolist()
        assert len(assigned) + len(remaining) == len(cls.needs_load)

        fb.finish_load(assigned)
        ref.finish_load(assigned_ref)
        _assert_same_state(fb, ref)

        live.append(nodes)
        if len(live) > hold:
            victim = live.pop(0)
            fb.release(victim)
            ref.release(victim)
            _assert_same_state(fb, ref)
    while live:
        victim = live.pop(0)
        fb.release(victim)
        ref.release(victim)
        _assert_same_state(fb, ref)


def _assert_same_state(fb, ref):
    assert fb.standby.order().tolist() == ref.standby_order()
    assert np.array_equal(fb.slot_of, ref.slot_of)
    assert np.array_equal(fb.reverse, ref.reverse)
    assert np.array_equal(fb.valid, ref.valid)
    assert np.array_equal(fb.ref, ref.ref)
    assert (fb.stat_reused, fb.stat_loaded, fb.stat_evictions) == \
        (ref.stat_reused, ref.stat_loaded, ref.stat_evictions)
    fb.check_invariants()
