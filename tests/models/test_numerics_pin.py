"""Pinned training and serving numerics.

The golden digests hash event schedules only, so a change to the tensor
math would pass them unnoticed.  This module pins the math itself:

* the per-epoch ``loss`` and ``train_acc`` of ``gnndrive-gpu`` and
  ``pyg+`` on ``tiny`` for two epochs, as ``float.hex`` strings;
* SHA-256 digests of the serve plane's logits and predictions.

Float32 results depend on the BLAS kernel that computed them, so the
pins are asserted exactly on the BLAS core they were recorded with
(``PIN_PLATFORM``).  On another core the losses and accuracies are held
to ``LOSS_RTOL``/``ACC_ATOL`` and the digests are not compared.
"""

import ctypes
import hashlib

import numpy as np
import pytest

import repro.serve.server
from repro.bench.runner import get_dataset, run_system
from repro.core.base import TrainConfig
from repro.models import train
from repro.serve import ServeScenario, run_serve_scenario
from repro.tensor import Tensor, no_grad

#: (numpy version, OpenBLAS core) the pins below were recorded with.
PIN_PLATFORM = ("2.4.6", "SkylakeX")
LOSS_RTOL = 1e-3
ACC_ATOL = 0.02

#: system -> [(loss, train_acc) per epoch], as float.hex strings.
PINNED_EPOCHS = {
    "gnndrive-gpu": [("0x1.04c9918000000p+1", "0x1.70a3d70a3d70ap-3"),
                     ("0x1.76d6ff0000000p+0", "0x1.70a3d70a3d70ap-1")],
    "pyg+": [("0x1.059f510000000p+1", "0x1.ae147ae147ae1p-3"),
             ("0x1.802d3f0000000p+0", "0x1.5c28f5c28f5c3p-1")],
}
PINNED_SERVE = {
    "logits":
        "eccf94d7c4085c2d92fdeddea0d570f11c2dd03c3d8f0cbc970ef132a245e3e2",
    "predictions":
        "ec1b42f6139e9527dccfcb547dbc0096b4b5bad8a7f207b0574ba44cc6ddcce7",
}

SERVE = ServeScenario(name="numerics-serve", dataset="tiny", rate=300.0,
                      num_requests=24, slo=0.05)


def blas_platform():
    """(numpy version, OpenBLAS core name or None) of this process."""
    try:
        with open("/proc/self/maps") as fh:     # Linux only
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    core = None
    if libs:
        fn = getattr(ctypes.CDLL(libs[0]),
                     "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            core = fn().decode()
    return np.__version__, core


def epoch_record(system):
    res = run_system(system, get_dataset("tiny"), TrainConfig(), epochs=2,
                     warmup_epochs=0)
    assert res.ok, res.error
    return [(s.loss.hex(), float(s.train_acc).hex()) for s in res.stats]


def serve_record(monkeypatch):
    logits_h, preds_h = hashlib.sha256(), hashlib.sha256()

    def recording_predict(model, features, subgraph):
        preds = train.predict(model, features, subgraph)
        with no_grad():
            logits = model(Tensor(np.asarray(features, dtype=np.float32)),
                           subgraph).data
        logits_h.update(np.ascontiguousarray(logits).tobytes())
        preds_h.update(np.asarray(preds, dtype=np.int64).tobytes())
        return preds

    monkeypatch.setattr(repro.serve.server, "predict", recording_predict)
    run = run_serve_scenario(SERVE)
    assert run.ok, run.error
    assert run.stats.completed > 0
    return {"logits": logits_h.hexdigest(),
            "predictions": preds_h.hexdigest()}


@pytest.mark.parametrize("system", sorted(PINNED_EPOCHS))
def test_training_numerics_pinned(system):
    got = epoch_record(system)
    want = PINNED_EPOCHS[system]
    if blas_platform() == PIN_PLATFORM:
        assert got == want
        return
    assert len(got) == len(want)
    for (loss, acc), (loss_w, acc_w) in zip(got, want):
        assert float.fromhex(loss) == pytest.approx(float.fromhex(loss_w),
                                                    rel=LOSS_RTOL)
        assert abs(float.fromhex(acc) - float.fromhex(acc_w)) <= ACC_ATOL


def test_serve_numerics_pinned(monkeypatch):
    got = serve_record(monkeypatch)
    if blas_platform() == PIN_PLATFORM:
        assert got == PINNED_SERVE
