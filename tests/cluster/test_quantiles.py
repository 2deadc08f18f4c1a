"""The cluster's latency quantiles: numpy's values without numpy.ma.

``linear_quantiles`` must equal ``np.quantile`` bit for bit, and a
cluster run must not import ``numpy.ma`` (``np.quantile`` does, through
``np.unique``), which would charge its import to the measured run.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.sim import linear_quantiles

QS = (0.5, 0.95, 0.99, 0.0, 1.0, 0.25, 0.75, 0.999)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 137, 2000])
def test_linear_quantiles_equal_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    samples = [rng.random(n), rng.exponential(1e-3, n),
               rng.standard_normal(n) * 1e6,
               rng.integers(0, 4, n).astype(np.float64),   # ties
               np.full(n, 0.05)]
    for _ in range(200):
        samples.append(rng.exponential(rng.random(), n))
    for sample in samples:
        qs = QS + tuple(rng.random(4))
        assert _hex(linear_quantiles(sample, qs)) == \
            _hex(np.quantile(sample, qs))


SCRIPT = """
import sys
from repro.cluster.scenario import ClusterScenario
from repro.cluster.sim import ClusterSim
from repro.graph import make_dataset
from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
sc = ClusterScenario(name="no-numpy-ma", dataset="tiny", rate=12000.0,
                     num_requests=2000, popularity="zipf", num_shards=8)
sim = ClusterSim(Machine(MachineSpec.paper_scaled(
                     host_gb=sc.host_gb, scale=DEFAULT_SCALE)),
                 make_dataset("tiny", seed=0), config=sc.cluster_config(),
                 workload=sc.workload_spec(), slo=sc.slo)
stats = sim.run()
assert stats.completed > 0
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_cluster_run_does_not_import_numpy_ma():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
