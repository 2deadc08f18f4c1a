"""Output checks: a faster run that computes something else has failed.

Simulated results are the reproduction's behaviour and do not depend on
BLAS, so they must match exactly.  Training loss is real float32 math
whose summation order depends on the BLAS thread count, so it gets a
tolerance of max(``LOSS_ABS``, ``LOSS_REL`` x pinned value).
"""

from __future__ import annotations

import math
from typing import List, Mapping

LOSS_ABS = 0.01
LOSS_REL = 0.02


def _loss_close(got: float, want: float) -> bool:
    return abs(got - want) <= max(LOSS_ABS, LOSS_REL * abs(want))


def mismatches(got: Mapping, want: Mapping) -> List[str]:
    """Differences between two rounds' outputs (empty when they agree)."""
    if "epochs" not in want:
        return [f"{k}: {got.get(k)!r} != {v!r}"
                for k, v in sorted(want.items()) if got.get(k) != v]
    g_epochs, w_epochs = got.get("epochs", []), want["epochs"]
    if len(g_epochs) != len(w_epochs):
        return [f"epochs: {len(g_epochs)} != {len(w_epochs)}"]
    out = []
    for i, (g, w) in enumerate(zip(g_epochs, w_epochs)):
        for key, v in sorted(w.items()):
            ok = (_loss_close(g.get(key), v) if key == "loss"
                  else g.get(key) == v)
            if not ok:
                out.append(f"epoch {i} {key}: {g.get(key)!r} != {v!r}")
    return out


def invariants(outputs: Mapping) -> List[str]:
    """Checks that hold for every seed, pinned or not."""
    out = []
    if "epochs" in outputs:
        for i, e in enumerate(outputs["epochs"]):
            if not (e["num_batches"] > 0 and e["epoch_time"] > 0
                    and math.isfinite(e["loss"])):
                out.append(f"epoch {i}: empty, timeless or non-finite "
                           f"loss: {e}")
            if min(e["bytes_read"], e["cache_hits"], e["cache_misses"],
                   e["reused_nodes"], e["loaded_nodes"]) < 0:
                out.append(f"epoch {i}: negative counter: {e}")
        return out
    if outputs["accounting"] != "ok":
        out.append(outputs["accounting"])
    if outputs["completed"] < 1:
        out.append("no request completed")
    if not (math.isfinite(outputs["latency_p50"])
            and outputs["latency_p50"] <= outputs["latency_p99"]):
        out.append(f"latency quantiles: p50={outputs['latency_p50']!r} "
                   f"p99={outputs['latency_p99']!r}")
    return out
