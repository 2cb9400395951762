"""Pin every loaded OpenBLAS to one thread.

Once a matrix-vector product passes ``m * n > 460,800`` OpenBLAS splits
it across threads.  For the classifier refits (a few thousand rows of
210 polynomial features) that split costs far more than it saves, and
the threaded reduction rounds differently, so estimates would depend on
the host's core count.  The package's own ``--backend``/``--workers``
is its only parallelism; BLAS runs one thread in every process.

numpy and scipy each bundle their own OpenBLAS, so every copy the
process has mapped is pinned.  Neither exposes a setter, so the
libraries are found in ``/proc/self/maps`` and set through ctypes.
Without that file (not Linux) nothing is pinned.

``import repro`` pins numpy's copy.  scipy costs over a second to
import, so the package loads it only where it is used, through
:func:`import_pinned`, which pins again once the module (and with it
scipy's OpenBLAS) is mapped.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from types import ModuleType

#: thread-count setters, one per build: numpy's wheel (64-bit ints),
#: scipy's wheel, and older or system builds.
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads")


def pin_blas_threads() -> None:
    """Set every OpenBLAS mapped into this process to one thread."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    for path in sorted(p for p in paths
                       if "openblas" in os.path.basename(p).lower()):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # unmapped since, or " (deleted)"
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


@functools.cache
def import_pinned(name: str) -> ModuleType:
    """Module ``name``, imported on first use with every OpenBLAS then
    mapped pinned to one thread.

    The pin runs once per module and process, before the caller's first
    call into it.  A forked worker inherits both the cache and the pin.
    """
    module = importlib.import_module(name)
    pin_blas_threads()
    return module
