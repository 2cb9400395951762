"""Durable state for the job service.

Layout, one tree per daemon::

    <root>/
        .seq                    # last allocated job number
        jobs/
            job-000001/
                job.json        # JobRecord (atomic temp-then-rename)
                events.jsonl    # append-only progress/health/perf feed
                cancel          # flag file: cancellation requested
                checkpoints/    # CheckpointStore root for this job
            job-000002/
            ...
        results/
            result-<fingerprint>.json   # FailureEstimate per fingerprint

Every mutation of ``job.json`` goes through the same temp-then-rename
discipline as the checkpoint store, so a ``kill -9`` at any instant
leaves either the old record or the new one -- never a torn file.  The
event feed is append-only JSONL: a torn final line (the only possible
damage) is dropped on read.

The result cache is keyed on the job *fingerprint* (see
:meth:`~repro.service.spec.JobSpec.fingerprint`), not the job id:
any number of jobs may share one result file, which is exactly the
duplicate-submission-costs-zero-simulations guarantee.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Iterable

from repro.analysis.persistence import load_estimate, save_estimate
from repro.chaos.fsops import FsOps, default_fs
from repro.checkpoint.atomic import atomic_write_text
from repro.checkpoint.lockfile import FileLock
from repro.core.estimate import FailureEstimate
from repro.errors import ServiceError
from repro.service.model import JobRecord, JobState
from repro.service.spec import JobSpec

_JOB_FILE = "job.json"
_EVENTS_FILE = "events.jsonl"
_CANCEL_FILE = "cancel"
_CHECKPOINTS_DIR = "checkpoints"


class JobStore:
    """Owns one service state tree (see module docstring).

    Thread-safe for one daemon process (an ``RLock`` serialises
    load-modify-write cycles); job-id allocation additionally takes a
    file lock so two daemons pointed at one tree cannot mint the same
    id.  The store itself carries no clock -- callers pass timestamps
    (from :func:`repro.service.scheduler.now`) in.
    """

    def __init__(self, root: str | Path,
                 fs: FsOps | None = None) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._fs = fs
        self._seq_path = self.root / ".seq"
        self._seq_lock = FileLock(self.root / ".seq.lock", fs=fs)
        self._lock = threading.RLock()

    @property
    def fs(self) -> FsOps:
        """The filesystem plane every durable write routes through."""
        return self._fs if self._fs is not None else default_fs()

    # -- job records ---------------------------------------------------
    def create_job(self, spec: JobSpec, fingerprint: str,
                   at: float) -> JobRecord:
        """Mint a fresh ``queued`` record and persist it."""
        job_id = self._allocate_id()
        record = JobRecord(id=job_id, spec=spec, fingerprint=fingerprint,
                           created_at=at, updated_at=at,
                           history=[[JobState.QUEUED.value, at]])
        (self.job_dir(job_id) / _CHECKPOINTS_DIR).mkdir(
            parents=True, exist_ok=True)
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record`` as its ``job.json``."""
        path = self.job_dir(record.id) / _JOB_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path,
            json.dumps(record.as_dict(), indent=1, sort_keys=True) + "\n",
            fs=self.fs)

    def load(self, job_id: str) -> JobRecord:
        """Read one record; unknown ids raise :class:`ServiceError`."""
        path = self.job_dir(job_id) / _JOB_FILE
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ServiceError(f"unknown job {job_id!r}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"corrupt record for job {job_id!r}: {exc}") from exc
        return JobRecord.from_dict(data)

    def update(self, job_id: str,
               mutate: Callable[[JobRecord], None]) -> JobRecord:
        """Load-modify-write one record under the store lock."""
        with self._lock:
            record = self.load(job_id)
            mutate(record)
            self.save(record)
            return record

    def list_jobs(self) -> list[JobRecord]:
        """All readable records, oldest id first (skips corrupt ones)."""
        records = []
        for entry in sorted(self.jobs_dir.iterdir()):
            if not entry.is_dir():
                continue
            try:
                records.append(self.load(entry.name))
            except ServiceError:
                continue
        return records

    def job_dir(self, job_id: str) -> Path:
        if ("/" in job_id or "\\" in job_id or job_id.startswith(".")
                or not job_id):
            raise ServiceError(f"invalid job id {job_id!r}")
        return self.jobs_dir / job_id

    def checkpoint_dir(self, job_id: str) -> Path:
        """The per-job :class:`CheckpointStore` root."""
        return self.job_dir(job_id) / _CHECKPOINTS_DIR

    def _allocate_id(self) -> str:
        with self._lock, self._seq_lock:
            try:
                last = int(self._seq_path.read_text().strip())
            except (FileNotFoundError, ValueError):
                last = 0
            nxt = last + 1
            atomic_write_text(self._seq_path, f"{nxt}\n", fs=self.fs)
            return f"job-{nxt:06d}"

    # -- event feed ----------------------------------------------------
    def append_event(self, job_id: str, kind: str, at: float,
                     **payload: object) -> None:
        """Append one event line to the job's feed."""
        event = {"kind": str(kind), "at": float(at), **payload}
        path = self.job_dir(job_id) / _EVENTS_FILE
        with self._lock:
            self.fs.append_text(
                path, json.dumps(event, sort_keys=True) + "\n")

    def read_events(self, job_id: str, since: int = 0) -> list[dict]:
        """Events from index ``since`` onward (torn tail dropped)."""
        path = self.job_dir(job_id) / _EVENTS_FILE
        try:
            lines = path.read_text().splitlines()
        except FileNotFoundError:
            return []
        events = []
        for line in lines[max(0, int(since)):]:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break
        return events

    # -- cancellation --------------------------------------------------
    def request_cancel(self, job_id: str) -> None:
        """Raise the cancel flag (workers poll it at safe boundaries)."""
        self.fs.touch(self.job_dir(job_id) / _CANCEL_FILE)

    def cancel_requested(self, job_id: str) -> bool:
        return (self.job_dir(job_id) / _CANCEL_FILE).exists()

    def clear_cancel(self, job_id: str) -> None:
        """Drop a stale cancel flag (an operator requeue must not be
        instantly re-cancelled by the flag of a previous life)."""
        self.fs.unlink(self.job_dir(job_id) / _CANCEL_FILE,
                       missing_ok=True)

    # -- result cache --------------------------------------------------
    def result_path(self, fingerprint: str) -> Path:
        return self.results_dir / f"result-{fingerprint}.json"

    def store_result(self, fingerprint: str,
                     estimate: FailureEstimate) -> Path:
        """Publish a finished estimate under its fingerprint.

        ``overwrite=True`` is safe *because* of the determinism
        guarantee: two jobs with one fingerprint produce bit-identical
        estimates, so the second write is a no-op in content.
        """
        return save_estimate(estimate, self.result_path(fingerprint),
                             overwrite=True)

    def load_result(self, fingerprint: str) -> FailureEstimate | None:
        """The cached estimate for ``fingerprint``, or ``None``."""
        path = self.result_path(fingerprint)
        try:
            return load_estimate(path)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise ServiceError(
                f"corrupt cached result {path.name}: {exc}") from exc

    # -- crash recovery ------------------------------------------------
    def recover(self, at: float) -> list[str]:
        """Reconcile records after a daemon restart.

        Jobs found ``running`` were orphaned by a crash (the previous
        process died without a graceful drain): they move to
        ``checkpointed`` -- their on-disk snapshot is whatever the
        periodic cadence last published, and resume from there is
        bit-identical by the checkpoint guarantee.  Returns every job
        id that should be re-queued (``queued`` + ``checkpointed``),
        oldest first.
        """
        def park(rec: JobRecord) -> None:
            rec.transition(JobState.CHECKPOINTED, at)
            rec.clear_lease()

        requeue: list[str] = []
        for record in self.list_jobs():
            if record.state is JobState.RUNNING:
                self.update(record.id, park)
                self.append_event(record.id, "recovered", at,
                                  detail="daemon restart found job "
                                         "running; resuming from last "
                                         "checkpoint")
                requeue.append(record.id)
            elif record.state in (JobState.QUEUED, JobState.CHECKPOINTED):
                requeue.append(record.id)
        return requeue
