"""Persist experiment results and bench artifacts as JSON.

``ExperimentResult.data`` holds heterogeneous values (floats, status
strings, numpy scalars/arrays, dataclasses, tuple keys); this module
flattens everything into plain JSON so reproduced figures can be
archived, diffed across runs, and post-processed without re-running.

It is also the single write/read path for the enriched ``BENCH_*.json``
artifacts: every bench entry point saves through :func:`save_artifact`
(which routes all values through the same NaN/inf/numpy traps as the
experiment path) and ``python -m repro.bench compare`` reads through
:func:`load_artifact`, which restores tagged ``"nan"`` / ``"inf"``
strings inside ``stats.metrics`` back to floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, Optional

import numpy as np


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-compatible values."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return " | ".join(str(k) for k in key)
    return str(key)


def result_to_dict(result) -> dict:
    """ExperimentResult -> plain dict (see :func:`save_result`)."""
    return {
        "name": result.name,
        "title": result.title,
        "tables": list(result.tables),
        "notes": list(result.notes),
        "data": _jsonable(result.data),
    }


def save_result(result, path: str) -> None:
    """Write one experiment's outcome as a JSON artifact."""
    with open(path, "w") as f:
        json.dump(result_to_dict(result), f, indent=2)


def load_result(path: str) -> dict:
    """Read a saved artifact back (as a plain dict)."""
    with open(path) as f:
        doc = json.load(f)
    for field in ("name", "title", "tables", "notes", "data"):
        if field not in doc:
            raise ValueError(f"not an experiment artifact: missing {field!r}")
    return doc


# ----------------------------------------------------------------------
# Enriched bench artifacts (the ``stats`` block)
# ----------------------------------------------------------------------

#: Numeric fields of a ``stats.metrics`` entry that may round-trip
#: through the tagged-string NaN/inf representation.
_METRIC_NUMERIC_FIELDS = ("mean", "stddev", "min", "max", "p50", "p90",
                          "ci_low", "ci_high", "ci_confidence")


def save_artifact(doc: dict, path: str) -> None:
    """Write a bench artifact; all values go through :func:`_jsonable`
    (NaN/inf become tagged strings, numpy scalars become plain ints and
    floats) so every bench shares one artifact dialect."""
    with open(path, "w") as f:
        json.dump(_jsonable(doc), f, indent=1)
        f.write("\n")


def _restore_num(value: Any) -> Any:
    """Undo the tagged-string NaN/inf encoding for one numeric field."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def load_artifact(path: str) -> dict:
    """Read a bench artifact back, restoring numeric metric fields.

    The ``stats`` block's metric entries get their ``"nan"`` / ``"inf"``
    strings converted back to floats.  Raises :class:`ValueError` when
    the file holds no ``stats.metrics`` mapping, so ``compare`` never
    passes an artifact it has nothing to compare in.
    """
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"not a bench artifact: {path!r} does not hold "
                         "a JSON object")
    if not has_stats(doc):
        raise ValueError(f"not a bench artifact: {path!r} has no "
                         "stats.metrics block")
    for metric in doc["stats"]["metrics"].values():
        if not isinstance(metric, dict):
            continue
        for field in _METRIC_NUMERIC_FIELDS:
            if field in metric:
                metric[field] = _restore_num(metric[field])
        if isinstance(metric.get("samples"), list):
            metric["samples"] = [_restore_num(s)
                                 for s in metric["samples"]]
    return doc


def has_stats(doc: dict) -> bool:
    """Whether *doc* carries the enriched ``stats`` block."""
    stats = doc.get("stats")
    return isinstance(stats, dict) and isinstance(stats.get("metrics"),
                                                  dict)


def stats_metrics(doc: dict) -> Optional[Dict[str, dict]]:
    """The ``stats.metrics`` mapping, or None when *doc* has none."""
    return doc["stats"]["metrics"] if has_stats(doc) else None


def metric_is_finite(metric: dict) -> bool:
    """Whether a loaded metric's mean is a finite number."""
    mean = metric.get("mean")
    return isinstance(mean, (int, float)) and math.isfinite(mean)
