"""Read the thread count of every OpenBLAS mapped into this process.

Kept free of repro imports, so a fresh interpreter can list what a bare
``import numpy`` maps before ``import repro`` runs.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

MAPS = Path("/proc/self/maps")

GETTERS = ("scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_",
           "openblas_get_num_threads")


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
