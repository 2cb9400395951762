"""Shared plumbing of the end-to-end benchmark.

Nothing here imports :mod:`repro`: ``bench_e2e.py`` must be able to start,
notice that the package sources are missing and exit non-zero before
any workload runs.  The statistics helpers implement the measurement
rules the README states (median plus the highest percentile with at
least ten samples beyond it, quartile spread as a share of the median).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: the seed ``bench_e2e.py`` uses when none is given (the paper's venue
#: date).
DEFAULT_SEED = 20150309


class SourcesMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_repo_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises :class:`SourcesMissing` when the package is absent, so a
    directory holding only the benchmark fails instead of measuring an
    installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourcesMissing(f"{SRC / 'repro'} not found: run the "
                             f"benchmark from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmp_dir: Path) -> dict:
    """Environment for a workload subprocess: the caller's, with ``src``
    on the import path and ``TMPDIR`` at ``tmp_dir``, so that every
    temporary file the workload and its children make (the service's
    state root included) stays inside the checkout.  BLAS threading is
    left as the program runs it."""
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def derive_seed(seed: int, stream: str, index: int) -> int:
    """The ``index``-th 31-bit seed of one named stream derived from
    ``seed``; the same arguments always give the same seed."""
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def seed_stream(seed: int, stream: str):
    """Endless iterator over :func:`derive_seed` for ``index = 0, 1, ...``."""
    index = 0
    while True:
        yield derive_seed(seed, stream, index)
        index += 1


def tail_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than ten
    samples lie beyond it (too few to say anything about that tail)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def digest(rows: list[tuple]) -> str:
    """Order-sensitive hash of ``(pfail, ci_halfwidth, n_simulations)``
    rows; floats hash by their exact repr, so equal digests mean
    bit-identical estimates."""
    text = json.dumps([[repr(float(p)), repr(float(c)), int(n)]
                       for p, c, n in rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def host_info() -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "default")}


# ---------------------------------------------------------------------
# process-tree memory
# ---------------------------------------------------------------------
def _parent_map() -> dict[int, int]:
    parents = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents[int(entry.name)] = int(fields[1])
    return parents


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mib(root: int) -> float:
    """Resident memory of ``root`` and all its descendants [MiB]."""
    parents = _parent_map()
    children: dict[int, list[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += _rss_kib(pid)
        stack.extend(children.get(pid, ()))
    return total / 1024.0


class TreeRssSampler:
    """Background sampler of a process tree's resident memory.

    Sums VmRSS over the tree every ``interval_s`` and keeps the maximum,
    which is the tree's peak to within one sampling interval.
    """

    def __init__(self, root: int, interval_s: float = 0.05) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mib = max(self.peak_mib, tree_rss_mib(self.root))
            self._stop.wait(self.interval_s)
