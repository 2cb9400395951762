"""Importing repro pins every OpenBLAS in the process to one thread.

A threaded gemv splits the SVM refit's reductions across cores and
rounds differently, so without the pin an estimate would depend on the
host's core count and on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime import ProcessBackend

MAPS = Path("/proc/self/maps")

pytestmark = pytest.mark.skipif(not MAPS.exists(),
                                reason="OpenBLAS is found via /proc")

GETTERS = ("scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_",
           "openblas_get_num_threads")

#: one L-BFGS fit on a training set past OpenBLAS's threading threshold
#: (3,000 rows x 210 features > 460,800); prints the weights' digest.
FIT = """
import hashlib
import numpy as np
import repro
from repro.ml.features import PolynomialFeatures
from repro.ml.scaler import StandardScaler
from repro.ml.svm import LinearSvm
rng = np.random.default_rng(2015)
x = rng.standard_normal((3000, 6))
y = np.where(np.abs(x[:, 0] + 0.3 * x[:, 1] ** 2) > 1.8, 1.0, -1.0)
phi = StandardScaler().fit_transform(PolynomialFeatures(6, 4).transform(x))
svm = LinearSvm(c=10.0).fit(phi, y)
print(hashlib.sha256(svm.weights.tobytes()).hexdigest())
"""


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS mapped into this process."""
    fields = [line.split(maxsplit=5)
              for line in MAPS.read_text().splitlines()]
    paths = {f[5] for f in fields
             if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
    counts = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        getter = getattr(library,
                         next(n for n in GETTERS if hasattr(library, n)))
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts[path] = getter()
    return counts


def test_every_openblas_runs_one_thread():
    counts = openblas_threads()
    if not counts:
        pytest.skip("numpy and scipy are not built on OpenBLAS")
    assert set(counts.values()) == {1}, counts


def test_process_worker_runs_one_thread():
    backend = ProcessBackend(workers=1)
    try:
        counts = backend.submit(openblas_threads).result(timeout=120)
    finally:
        backend.close()
    assert counts == openblas_threads()
    assert set(counts.values()) <= {1}, counts


def test_svm_weights_ignore_openblas_num_threads():
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", FIT], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests
