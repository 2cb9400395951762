"""Importing repro or one of its entry points loads no scipy module.

scipy.stats took 1.1 s of a 1.5 s ``import repro``, paid by every CLI
call, pool worker and service daemon before any work.  The modules that
use scipy import it at first use, through
:func:`repro.runtime.blas.import_pinned`; a module-level scipy import
anywhere on these paths, direct or through another module, fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = ("repro", "repro.experiments.runner", "repro.service.cli",
                "repro.core.naive")

#: the scipy modules loaded after each import, in one fresh interpreter
PROBE = """
import importlib, json, sys
loaded = {}
for module in sys.argv[1:]:
    importlib.import_module(module)
    loaded[module] = sorted(m for m in sys.modules
                            if m.partition(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_entry_points_load_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", PROBE, *ENTRY_POINTS],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    loaded = json.loads(run.stdout)
    assert loaded == {module: [] for module in ENTRY_POINTS}, loaded
