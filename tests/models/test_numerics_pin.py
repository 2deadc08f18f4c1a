"""Pinned training and serving numerics.

The golden digests hash event schedules only, so a change to the tensor
math would pass them unnoticed.  This module pins the math itself:

* the per-epoch ``loss``, ``train_acc`` and ``val_acc`` (evaluated
  after every epoch) of every training system on ``tiny`` for two
  epochs, as ``float.hex`` strings, with GraphSAGE, and of GNNDrive-GPU
  with GCN and GAT (``MODEL_VARIANTS``);
* SHA-256 digests of the serve plane's logits and predictions.

Float32 results depend on the BLAS kernel that computed them, so these
pins are asserted exactly on the BLAS core they were recorded with
(``PIN_PLATFORM``).  On another core the losses and accuracies are held
to ``LOSS_RTOL``/``ACC_ATOL`` and the digests are not compared.

The same runs' simulated outputs (``PINNED_SIMULATED``) come from the
cost models and the RNG streams alone, so they are pinned exactly on
every platform.
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

#: system -> [(loss, train_acc, val_acc) per epoch], as float.hex strings.
PINNED_EPOCHS = {
    "ginex": [
        ("0x1.0121bd0000000p+1", "0x1.147ae147ae148p-2",
         "0x1.0000000000000p-1"),
        ("0x1.757f0f0000000p+0", "0x1.6b851eb851eb8p-1",
         "0x1.0000000000000p-1"),
    ],
    "gnndrive-cpu": [
        ("0x1.04c9918000000p+1", "0x1.70a3d70a3d70ap-3",
         "0x1.0000000000000p-1"),
        ("0x1.76d6ff0000000p+0", "0x1.70a3d70a3d70ap-1",
         "0x1.8000000000000p-1"),
    ],
    "gnndrive-gpu": [
        ("0x1.04c9918000000p+1", "0x1.70a3d70a3d70ap-3",
         "0x1.0000000000000p-1"),
        ("0x1.76d6ff0000000p+0", "0x1.70a3d70a3d70ap-1",
         "0x1.8000000000000p-1"),
    ],
    "gnndrive-gpu-gat": [
        ("0x1.9da5040000000p+0", "0x1.851eb851eb852p-2",
         "0x1.0000000000000p+0"),
        ("0x1.e06df60000000p-2", "0x1.ae147ae147ae1p-1",
         "0x1.8000000000000p-1"),
    ],
    "gnndrive-gpu-gcn": [
        ("0x1.076f0b0000000p+1", "0x1.c28f5c28f5c29p-3",
         "0x1.0000000000000p-2"),
        ("0x1.df5cf80000000p+0", "0x1.28f5c28f5c28fp-1",
         "0x1.0000000000000p-2"),
    ],
    "in-memory": [
        ("0x1.059f510000000p+1", "0x1.ae147ae147ae1p-3",
         "0x1.0000000000000p-1"),
        ("0x1.802d3f0000000p+0", "0x1.5c28f5c28f5c3p-1",
         "0x1.0000000000000p-1"),
    ],
    "mariusgnn": [
        ("0x1.f9f6680000000p+0", "0x1.3d70a3d70a3d7p-2",
         "0x1.0000000000000p-1"),
        ("0x1.62f3e80000000p+0", "0x1.8f5c28f5c28f6p-1",
         "0x1.8000000000000p-1"),
    ],
    "multigpu": [
        ("0x1.0b9a4f0000000p+1", "0x1.0a3d70a3d70a4p-3",
         "0x1.0000000000000p-2"),
        ("0x1.bd17fc0000000p+0", "0x1.51eb851eb851fp-1",
         "0x1.0000000000000p-1"),
    ],
    "pyg+": [
        ("0x1.059f510000000p+1", "0x1.ae147ae147ae1p-3",
         "0x1.0000000000000p-1"),
        ("0x1.802d3f0000000p+0", "0x1.5c28f5c28f5c3p-1",
         "0x1.0000000000000p-1"),
    ],
}

#: Field order of each ``PINNED_SIMULATED`` epoch tuple (``epoch_time``
#: as a float.hex string, ``feat_bytes_read`` from ``extra``).
SIMULATED_FIELDS = ("epoch_time", "num_batches", "bytes_read", "cache_hits",
                    "cache_misses", "reused_nodes", "loaded_nodes",
                    "feat_bytes_read")
PINNED_SIMULATED = {
    "ginex": [
        ("0x1.0ce761270ee73p-5", 2, 203736, 0, 0, 2059, 0, 187264),
        ("0x1.0f5abfd1dd401p-5", 2, 202416, 0, 0, 2006, 0, 186368),
    ],
    "gnndrive-cpu": [
        ("0x1.c77baf087c95ap-5", 2, 886272, 165, 38, 0, 1427, 730624),
        ("0x1.5e0dbf17e3cc8p-5", 2, 146944, 200, 0, 1620, 287, 146944),
    ],
    "gnndrive-gpu": [
        ("0x1.256702080be9cp-5", 2, 886272, 165, 38, 0, 1427, 730624),
        ("0x1.49ff0d03a20e8p-6", 2, 146944, 200, 0, 1620, 287, 146944),
    ],
    "gnndrive-gpu-gat": [
        ("0x1.fbb17e0a80f35p-6", 2, 830464, 165, 38, 0, 1318, 674816),
        ("0x1.127e6b62ef259p-6", 2, 153088, 200, 0, 1361, 299, 153088),
    ],
    "gnndrive-gpu-gcn": [
        ("0x1.254c8dab08685p-5", 2, 886272, 165, 38, 0, 1427, 730624),
        ("0x1.49c894b18e956p-6", 2, 146944, 200, 0, 1620, 287, 146944),
    ],
    "in-memory": [
        ("0x1.21281693244e3p-6", 2, 0, 0, 0, 0, 0, 0),
        ("0x1.2c38ef49aabcfp-6", 2, 0, 0, 0, 0, 0, 0),
    ],
    "mariusgnn": [
        ("0x1.3f2c06a25eed9p-5", 2, 393216, 0, 0, 0, 0, 393216),
        ("0x1.36e1a89838ef7p-5", 2, 393216, 0, 0, 0, 0, 393216),
    ],
    "multigpu": [
        ("0x1.5068ff67c872fp-5", 2, 1166336, 167, 38, 0, 1974, 1010688),
        ("0x1.9a60a7994d706p-6", 2, 345600, 199, 0, 1336, 675, 345600),
    ],
    "pyg+": [
        ("0x1.d71c8096f6026p-6", 2, 413696, 227, 101, 0, 0, 258048),
        ("0x1.2cac5ca9aa81ep-6", 2, 0, 327, 0, 0, 0, 0),
    ],
}
#: Data-parallel workers per pinned system (one unless listed).
NUM_WORKERS = {"multigpu": 2}
#: Pinned keys that train another model than GraphSAGE:
#: key -> (system, model kind).
MODEL_VARIANTS = {"gnndrive-gpu-gat": ("gnndrive-gpu", "gat"),
                  "gnndrive-gpu-gcn": ("gnndrive-gpu", "gcn")}

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


def train_run(key):
    system, kind = MODEL_VARIANTS.get(key, (key, "sage"))
    workers = NUM_WORKERS.get(system, 1)
    res = run_system(system, get_dataset("tiny"),
                     TrainConfig(model_kind=kind), epochs=2,
                     warmup_epochs=0, eval_every=1, num_workers=workers,
                     num_gpus=workers)
    assert res.ok, res.error
    return res.stats


def epoch_record(system):
    return [(s.loss.hex(), float(s.train_acc).hex(), float(s.val_acc).hex())
            for s in train_run(system)]


def simulated_record(system):
    return [(s.epoch_time.hex(), s.num_batches, s.bytes_read, s.cache_hits,
             s.cache_misses, s.reused_nodes, s.loaded_nodes,
             s.extra["feat_bytes_read"]) for s in train_run(system)]


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
    for (loss, *accs), (loss_w, *accs_w) in zip(got, want):
        assert float.fromhex(loss) == pytest.approx(float.fromhex(loss_w),
                                                    rel=LOSS_RTOL)
        for acc, acc_w in zip(accs, accs_w):
            assert abs(float.fromhex(acc) - float.fromhex(acc_w)) <= ACC_ATOL


@pytest.mark.parametrize("system", sorted(PINNED_SIMULATED))
def test_simulated_outputs_pinned(system):
    """Simulated time, batch counts and I/O counters, on every platform."""
    got = simulated_record(system)
    want = PINNED_SIMULATED[system]
    assert len(got) == len(want)
    for epoch, (g, w) in enumerate(zip(got, want)):
        assert dict(zip(SIMULATED_FIELDS, g)) == \
            dict(zip(SIMULATED_FIELDS, w)), f"epoch {epoch}"


def test_serve_numerics_pinned(monkeypatch):
    got = serve_record(monkeypatch)
    if blas_platform() == PIN_PLATFORM:
        assert got == PINNED_SERVE
