"""The program runs without scipy: no run path imports it.

scipy is a test dependency only (the reference for the sparse operator's
exactness tests).  A fresh interpreter trains GNNDrive-GPU and a GCN on
PyG+ for one epoch, serves and runs the cluster, all on ``tiny``, and
must end with no ``scipy`` module loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import contextlib, io, sys
from repro.cli import main
for argv in (["run", "gnndrive-gpu", "--dataset", "tiny", "--epochs", "1"],
             ["run", "pyg+", "--dataset", "tiny", "--model", "gcn",
              "--epochs", "1"],
             ["serve", "--dataset", "tiny"],
             ["cluster"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc == 0, (argv, rc)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_paths_do_not_import_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
