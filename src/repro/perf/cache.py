"""The simulation memo cache.

:class:`SolveCache` memoises butterfly-solve results keyed on the exact
ΔVth bytes of each sample and a *level* -- the bisection depth the
margins were solved to -- plus a *fingerprint* of everything else that
determines the solve (cell parameter cards, geometry, supply, grid,
margin levels).  A hit returns the exact floats the original solve
produced, so cached and uncached runs are bit-identical.  The levels,
in their on-disk order (:data:`LEVELS`):

* ``"exact"`` -- 40 steps, the depth
  :meth:`~repro.sram.evaluator.CellEvaluator.margins` returns;
* ``"coarse"`` -- 12 steps, the middle rung of the screening ladder
  (:data:`repro.perf.adaptive.LADDER`);
* ``"depth8"`` and ``"depth20"`` -- 8 and 20 steps, its other rungs;
* ``"window"`` -- the window pre-rung's verified lobe margins (8 steps
  on 16 grid columns; :data:`repro.perf.adaptive.WINDOW_LEVEL`).

Entries hold margins, never labels, so the ``cell`` and ``lobe0``
failure criteria share them.  A file written before a level existed
holds only the earlier ones, and still loads and hits; a build older
than a level loads a file holding it as an empty cache.

A hit needs the same rows.  Independent draws do not repeat one:
quick ECRIPSE estimates measured 0 hits in 1,601-2,153 lookups each,
three seeds on one shared evaluator 0 hits, the Fig. 8 sweep a 0.0 hit
rate, and killed runs resumed with their warm cache 0 hits.
Solving the same rows again -- a same-seed rerun, or a same-seed
resubmit that changes only the stopping rule -- is all hits with zero
device-model evaluations.  The cache is therefore opt-in: the evaluator
carries one only with ``PerfConfig.cache_path`` (``--solve-cache``).

The cache is LRU-bounded, thread-safe (the service daemon's worker
threads share one registered cache across concurrent jobs) and
deliberately *empty after pickling*: the process backend ships the
evaluator to workers per task, and a growing cache inside those pickles
would drown the run in IPC.
:meth:`save`/:meth:`load` persist the cache on disk (entries packed by
:meth:`state`/:meth:`restore_state`) through the same atomic writer as
:mod:`repro.analysis.persistence`; a file that cannot be read back
loads as an empty cache.
"""

from __future__ import annotations

import io
import threading
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

#: the resolution levels of the module docstring, in on-disk order: a
#: level's position is its on-disk index, so levels are only appended.
LEVELS = ("exact", "coarse", "depth8", "depth20", "window")


class SolveCache:
    """LRU memo of per-sample lobe margins.

    Parameters
    ----------
    fingerprint:
        Hex id of the solve configuration (see
        :meth:`repro.sram.evaluator.CellEvaluator.solve_fingerprint`).
        Entries are only meaningful under the exact configuration that
        produced them, so restore/load reject mismatched fingerprints.
    max_entries:
        LRU capacity; inserting beyond it evicts least-recently-used
        entries.
    """

    def __init__(self, fingerprint: str, max_entries: int = 100_000):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.fingerprint = str(fingerprint)
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[bytes, tuple[float, float]] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @staticmethod
    def _key(level: str, row: np.ndarray) -> bytes:
        return level.encode() + b"|" + row.tobytes()

    def lookup(self, level: str, dvth: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch lookup; returns ``(hit_mask, rnm0, rnm1)``.

        ``rnm0``/``rnm1`` are only meaningful where ``hit_mask`` is
        true; missed rows are left at 0.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown cache level {level!r}")
        dvth = np.ascontiguousarray(dvth, dtype=float)
        n = dvth.shape[0]
        hit = np.zeros(n, dtype=bool)
        rnm0 = np.zeros(n)
        rnm1 = np.zeros(n)
        with self._lock:
            for i in range(n):
                entry = self._data.get(self._key(level, dvth[i]))
                if entry is None:
                    continue
                self._data.move_to_end(self._key(level, dvth[i]))
                hit[i] = True
                rnm0[i], rnm1[i] = entry
            self.hits += int(hit.sum())
            self.misses += int(n - hit.sum())
        return hit, rnm0, rnm1

    def store(self, level: str, dvth: np.ndarray, rnm0: np.ndarray,
              rnm1: np.ndarray) -> None:
        """Insert solved rows (evicting LRU entries beyond capacity)."""
        if level not in LEVELS:
            raise ValueError(f"unknown cache level {level!r}")
        dvth = np.ascontiguousarray(dvth, dtype=float)
        with self._lock:
            for i in range(dvth.shape[0]):
                self._data[self._key(level, dvth[i])] = (
                    float(rnm0[i]), float(rnm1[i]))
                self._data.move_to_end(self._key(level, dvth[i]))
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for telemetry/perf reports.

        Taken under the lock so a daemon worker thread never reads
        counters torn across another job's concurrent :meth:`lookup`.
        """
        with self._lock:
            return {"cache_entries": len(self._data),
                    "cache_hits": self.hits,
                    "cache_misses": self.misses,
                    "cache_evictions": self.evictions}

    # ------------------------------------------------------------------
    # pickling: workers start cold (see module docstring)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {"fingerprint": self.fingerprint,
                    "max_entries": self.max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["fingerprint"], state["max_entries"])

    # ------------------------------------------------------------------
    # array packing (the on-disk payload)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Array-packed snapshot (the payload :meth:`save` writes).

        Entries are packed into arrays in LRU order (least recent
        first), so a restore rebuilds the identical eviction order.
        """
        with self._lock:
            n = len(self._data)
            levels = np.zeros(n, dtype=np.uint8)
            keys = np.zeros((n, 6))
            values = np.zeros((n, 2))
            for i, (key, value) in enumerate(self._data.items()):
                level, _, raw = key.partition(b"|")
                levels[i] = LEVELS.index(level.decode())
                keys[i] = np.frombuffer(raw, dtype=float)
                values[i] = value
            return {"fingerprint": self.fingerprint,
                    "max_entries": self.max_entries,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "levels": levels, "keys": keys, "values": values}

    def restore_state(self, state: dict) -> bool:
        """Restore a :meth:`state` snapshot.

        Returns ``False`` (leaving the cache untouched) when the
        snapshot was taken under a different solve fingerprint -- stale
        entries would silently corrupt results, an empty cache only
        costs speed.
        """
        if str(state["fingerprint"]) != self.fingerprint:
            return False
        levels = np.asarray(state["levels"], dtype=np.uint8)
        keys = np.ascontiguousarray(state["keys"], dtype=float)
        values = np.asarray(state["values"], dtype=float)
        if keys.ndim != 2 or keys.shape[1] != 6 or values.shape != (
                keys.shape[0], 2) or levels.shape != (keys.shape[0],):
            raise ValueError(
                f"inconsistent cache snapshot shapes: keys {keys.shape}, "
                f"values {values.shape}, levels {levels.shape}")
        if levels.size and int(levels.max()) >= len(LEVELS):
            # written by a version with more levels than this one knows
            raise ValueError(
                f"unknown cache level index {int(levels.max())}")
        with self._lock:
            self.max_entries = int(state["max_entries"])
            self.hits = int(state["hits"])
            self.misses = int(state["misses"])
            self.evictions = int(state["evictions"])
            self._data.clear()
            for i in range(keys.shape[0]):
                self._data[self._key(LEVELS[levels[i]], keys[i])] = (
                    float(values[i, 0]), float(values[i, 1]))
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1
        return True

    # ------------------------------------------------------------------
    # on-disk persistence (one file per fingerprint)
    # ------------------------------------------------------------------
    @staticmethod
    def _file(directory: str | Path, fingerprint: str) -> Path:
        return Path(directory) / f"solve-cache-{fingerprint}.npz"

    def save(self, directory: str | Path) -> Path:
        """Atomically write the cache under ``directory``.

        The write goes through :mod:`repro.checkpoint.atomic`, so a
        concurrent reader never sees a torn archive (and a crash never
        publishes one); a per-fingerprint lock file additionally serialises
        concurrent writers (two service jobs sharing a solve-cache
        directory), so one job's publish cannot interleave with
        another's temp-file reuse.
        """
        from repro.checkpoint.atomic import atomic_write_bytes
        from repro.checkpoint.lockfile import FileLock

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        state = self.state()
        buffer = io.BytesIO()
        np.savez(buffer,
                 meta=np.array([state["max_entries"], state["hits"],
                                state["misses"], state["evictions"]],
                               dtype=np.int64),
                 fingerprint=np.frombuffer(
                     self.fingerprint.encode(), dtype=np.uint8),
                 levels=state["levels"], keys=state["keys"],
                 values=state["values"])
        path = self._file(directory, self.fingerprint)
        with FileLock(path.with_name(path.name + ".lock")):
            atomic_write_bytes(path, buffer.getvalue())
        return path

    @classmethod
    def load(cls, directory: str | Path, fingerprint: str,
             max_entries: int = 100_000) -> "SolveCache":
        """Load the cache for ``fingerprint``, or a fresh one.

        A missing or unreadable file degrades to an empty cache -- the
        cache is pure acceleration, never a correctness dependency.
        """
        cache = cls(fingerprint, max_entries=max_entries)
        path = cls._file(directory, fingerprint)
        try:
            with np.load(path) as pack:
                stored = bytes(pack["fingerprint"]).decode()
                meta = pack["meta"]
                cache.restore_state({
                    "fingerprint": stored,
                    "max_entries": max_entries,
                    "hits": int(meta[1]), "misses": int(meta[2]),
                    "evictions": int(meta[3]),
                    "levels": pack["levels"], "keys": pack["keys"],
                    "values": pack["values"]})
        except (OSError, KeyError, ValueError, EOFError,
                zipfile.BadZipFile):
            # EOFError: an empty file; BadZipFile: a truncated archive
            pass
        return cache
