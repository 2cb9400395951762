"""Every OpenBLAS repro computes with runs one thread.

A threaded gemv splits the SVM refit's reductions across cores and
rounds differently, so without the pin an estimate would depend on the
host's core count and on ``OPENBLAS_NUM_THREADS``.

``import repro`` maps and pins numpy's OpenBLAS only.  scipy's copy is
pinned at repro's first scipy use, so a scipy the caller imported on its
own after ``import repro`` (as other test modules do) may run threaded
until then: each check here first makes those uses itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.ecc import log_binom_sf
from repro.ml.svm import LinearSvm
from repro.runtime import ProcessBackend

from tests.runtime.openblas import MAPS, openblas_threads

pytestmark = pytest.mark.skipif(not MAPS.exists(),
                                reason="OpenBLAS is found via /proc")

#: the roots of ``repro`` and of ``tests``, for fresh interpreters
PATHS = (str(Path(repro.__file__).resolve().parents[1]),
         str(Path(__file__).resolve().parents[2]))

#: the OpenBLAS copies a fresh interpreter maps after importing
#: ``{module}``, with their thread counts
PROBE = """
import json
import {module}
from tests.runtime.openblas import openblas_threads
print(json.dumps(openblas_threads()))
"""

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


def fresh_openblas_threads(module: str) -> dict[str, int]:
    """``openblas_threads()`` in a fresh interpreter that imported
    ``module``, under ``OPENBLAS_NUM_THREADS=2``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [*PATHS, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(run.stdout)


def threads_after_scipy_use() -> dict[str, int]:
    """``openblas_threads()`` after repro's two scipy uses: one SVM fit
    (scipy.optimize) and one binomial tail (scipy.special)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    LinearSvm().fit(x, np.where(x[:, 0] > 0.0, 1.0, -1.0))
    log_binom_sf(1, 72, 1e-4)
    return openblas_threads()


def test_every_openblas_runs_one_thread():
    bare = fresh_openblas_threads("numpy")
    if not bare:
        pytest.skip("numpy is not built on OpenBLAS")
    imported = fresh_openblas_threads("repro")
    assert set(imported) == set(bare), (imported, bare)
    assert set(imported.values()) == {1}, imported
    counts = threads_after_scipy_use()
    assert set(counts.values()) == {1}, counts


def test_process_worker_runs_one_thread():
    counts = threads_after_scipy_use()
    backend = ProcessBackend(workers=1)
    try:
        worker = backend.submit(threads_after_scipy_use).result(timeout=120)
    finally:
        backend.close()
    assert worker == counts
    assert set(worker.values()) <= {1}, worker


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
