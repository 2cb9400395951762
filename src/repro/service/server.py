"""The ``ecripse serve`` daemon.

One process hosts three cooperating pieces:

* a :class:`~repro.service.store.JobStore` (durable records, event
  feeds, per-job checkpoints, the fingerprint-keyed result cache);
* a pool of worker threads pulling job ids off the
  :class:`~repro.service.scheduler.Scheduler` and running them through
  :func:`repro.service.worker.execute_job`;
* a stdlib ``ThreadingHTTPServer`` front (see ``docs/SERVICE.md`` for
  the endpoint reference).

Durability model: every state change lands on disk before it is
visible over HTTP, so the daemon itself is stateless across restarts --
``kill -9`` it at any instant, start a new one on the same root, and
:meth:`~repro.service.store.JobStore.recover` moves orphaned ``running``
jobs to ``checkpointed`` and re-queues everything unfinished; each
resumes from its last snapshot to a bit-identical result.  Graceful
shutdown (SIGTERM/SIGINT) is cheaper: workers drain their jobs to the
next checkpoint-safe boundary, force-save, and exit with everything
``checkpointed``.

Resilience model (:class:`~repro.chaos.config.ChaosConfig`): every
``running`` job carries a worker *lease* that the worker renews at
checkpoint boundaries; the :class:`Watchdog` thread reclaims jobs whose
lease expired (hung or died worker) back to ``checkpointed`` and
re-queues them.  A failing job is retried until its attempt budget is
spent, then *dead-lettered* (terminal ``dead`` state, last error and
history preserved) instead of looping forever; ``POST
/jobs/<id>/requeue`` revives it.  For crash-consistency testing the
daemon can route every durable write through a deterministic fault
schedule (``--inject-fs``, see :mod:`repro.chaos.fsops`).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.analysis.persistence import estimate_to_dict
from repro.chaos.config import ChaosConfig
from repro.chaos.fsops import ChaosFsOps, install_fs
from repro.core.estimate import FailureEstimate
from repro.errors import ServiceError, ShutdownRequested
from repro.perf import PerfConfig, save_registered_caches
from repro.runtime import default_coordinator
from repro.service.model import JobRecord, JobState
from repro.service.scheduler import QuotaPolicy, Scheduler, now
from repro.service.spec import JobSpec
from repro.service.store import JobStore

#: how often blocked waits re-check the shutdown flag [s].
_POLL_S = 0.2

#: idle time after which a ``follow`` event stream writes a heartbeat
#: line [s], so clients can keep a read timeout armed; the client's
#: ``DEFAULT_TIMEOUT_S`` must exceed it.
HEARTBEAT_S = 10.0

#: largest request body accepted [bytes] (a JobSpec is under 1 kB); a
#: larger ``Content-Length`` is refused with 413 before any read.
MAX_BODY_BYTES = 1 << 20


class _LostRace(Exception):
    """Internal: a worker-side update found the record already settled
    by a concurrent :meth:`ServiceDaemon.cancel` (never leaves this
    module)."""


@dataclass
class ServeConfig:
    """Daemon configuration (the ``ecripse serve`` flag surface)."""

    root: Path
    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)
    checkpoint_keep: int = 3
    solve_cache: str | None = None
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class Watchdog:
    """Background lease sweeper.

    Periodically calls :meth:`ServiceDaemon.sweep_leases`, reclaiming
    ``running`` jobs whose worker lease expired: back to
    ``checkpointed`` and re-queued while attempt budget remains,
    dead-lettered once it is spent.  It sweeps every quarter of the
    lease (:attr:`~repro.chaos.config.ChaosConfig.sweep_interval_s`),
    so a hung worker's job is back in the queue well within one lease
    interval of the expiry.
    """

    def __init__(self, daemon: "ServiceDaemon",
                 interval_s: float) -> None:
        self._daemon = daemon
        self.interval_s = float(interval_s)
        self.thread = threading.Thread(target=self._loop,
                                       name="service-watchdog",
                                       daemon=True)

    def start(self) -> None:
        self.thread.start()

    def _loop(self) -> None:
        coordinator = self._daemon.coordinator
        while not coordinator.requested:
            slept = 0.0
            while slept < self.interval_s and not coordinator.requested:
                time.sleep(min(_POLL_S, self.interval_s - slept))
                slept += _POLL_S
            if coordinator.requested:
                return
            self._daemon.sweep_leases(now())


class ServiceDaemon:
    """Job-queue daemon over one state tree (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.store = JobStore(config.root)
        self.scheduler = Scheduler()
        self.coordinator = default_coordinator()
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []
        self._chaos_fs: ChaosFsOps | None = None
        self.watchdog: Watchdog | None = None
        # watchdog/lease telemetry for /healthz, guarded by its own
        # lock (written by the watchdog thread, read by HTTP handlers)
        self._stats_lock = threading.Lock()
        with self._stats_lock:
            self._expired_requeued_total = 0
            self._dead_lettered_total = 0
            self._watchdog_sweeps = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> str:
        """Recover state, spawn workers, bind HTTP; returns base URL.

        A daemon shut down earlier in this process leaves the
        process-wide shutdown coordinator tripped; ``start`` clears it,
        or this daemon's workers and watchdog would exit at once.
        """
        self.coordinator.reset()
        return self._launch()

    def _launch(self) -> str:
        if self.config.chaos.inject_fs:
            # test/CI only: route every durable write through the
            # deterministic fault schedule until shutdown
            self._chaos_fs = ChaosFsOps(self.config.chaos.inject_fs)
            install_fs(self._chaos_fs)
        for job_id in self.store.recover(now()):
            record = self.store.load(job_id)
            self.scheduler.submit(job_id, record.spec.priority)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _make_handler(self))
        self._httpd.daemon_threads = True
        http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _POLL_S},
            name="service-http", daemon=True)
        http_thread.start()
        self._threads.append(http_thread)
        for index in range(self.config.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"service-worker-{index}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        self.watchdog = Watchdog(self,
                                 self.config.chaos.sweep_interval_s)
        self.watchdog.start()
        self._threads.append(self.watchdog.thread)
        return self.address

    @property
    def address(self) -> str:
        assert self._httpd is not None, "daemon not started"
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self, reason: str = "shutdown") -> None:
        """Stop accepting work and drain (blocks until workers exit)."""
        self.coordinator.request(reason)
        self.scheduler.wake_all()
        if self._httpd is not None:
            self._httpd.shutdown()
        for thread in self._threads:
            thread.join(timeout=60)
        save_registered_caches()
        if self._chaos_fs is not None:
            install_fs(None)
            self._chaos_fs = None

    def run(self) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT, drain,
        exit 0.  (``kill -9`` needs no cooperation -- the store is
        crash-consistent by construction.)"""
        self.coordinator.reset()
        self.coordinator.install()
        try:
            # not start(): a signal caught since install() must stand
            self._launch()
            print(f"ecripse service listening on {self.address}",
                  flush=True)
            self.coordinator.wait()
            print(f"ecripse service draining "
                  f"({self.coordinator.reason})", flush=True)
            self.shutdown(self.coordinator.reason or "shutdown")
        finally:
            self.coordinator.uninstall()
        return 0

    # -- submission / cancellation (shared by HTTP and tests) ----------
    def submit(self, payload: object) -> JobRecord:
        """Validate, quota-clamp, fingerprint and enqueue one job.

        A fingerprint already present in the result cache completes the
        job immediately (``cached=True``, zero new simulations).
        """
        spec = self.config.quota.apply(JobSpec.from_dict(payload))
        fingerprint = spec.fingerprint()
        record = self.store.create_job(spec, fingerprint, now())
        cached = self._cached_result(fingerprint)
        if cached is not None:
            at = now()

            def finish(rec: JobRecord) -> None:
                rec.transition(JobState.RUNNING, at)
                self._apply_result(rec, cached, at, cached_hit=True)

            record = self.store.update(record.id, finish)
            self.store.append_event(record.id, "cache-hit", at,
                                    fingerprint=fingerprint,
                                    new_simulations=0)
        else:
            self.store.append_event(record.id, "queued", now(),
                                    fingerprint=fingerprint,
                                    priority=spec.priority)
            self.scheduler.submit(record.id, spec.priority)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; returns the (possibly updated) record.

        Queued/checkpointed jobs cancel immediately; a running job is
        flagged and drains at its next checkpoint-safe boundary (the
        snapshot is kept, so a cancelled job is still inspectable).
        """
        record = self.store.load(job_id)
        self.store.request_cancel(job_id)
        self.scheduler.discard(job_id)
        if record.state in (JobState.QUEUED, JobState.CHECKPOINTED):
            at = now()
            try:
                record = self.store.update(
                    job_id,
                    lambda rec: rec.transition(JobState.CANCELLED, at))
                self.store.append_event(job_id, "cancelled", at,
                                        detail="cancelled before running")
            except ServiceError:
                # Lost the race with a worker pickup; the cancel flag
                # stops it at the next safe boundary instead.
                record = self.store.load(job_id)
        return record

    # -- workers -------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self.coordinator.requested:
            job_id = self.scheduler.pop(timeout=_POLL_S)
            if job_id is None:
                continue
            if self.coordinator.requested:
                # Not started; the record stays queued on disk and the
                # next daemon's recovery scan re-queues it.
                return
            try:
                self._run_job(job_id)
            except Exception as exc:  # repro: allow-broad-except
                # _run_job already turns estimator failures into
                # durable ``failed`` records, so anything landing here
                # is a daemon bug -- but a worker thread must never die
                # silently and shrink the pool.  Record what we can and
                # keep serving.
                self._note_worker_error(job_id, exc)

    def _note_worker_error(self, job_id: str, exc: Exception) -> None:
        """Best-effort durable trace of an unexpected worker failure."""
        detail = f"unexpected worker error: {type(exc).__name__}: {exc}"
        try:
            self._settle_failure(job_id, detail, now())
        except Exception:  # repro: allow-broad-except
            # The record may already be terminal (or unreadable); the
            # stderr line below is then the only trace.
            pass
        print(f"ecripse service: worker error on job {job_id}: "
              f"{detail}", file=sys.stderr, flush=True)

    def _settle(self, job_id: str,
                mutate: Callable[[JobRecord], None],
                token: str | None = None) -> JobRecord | None:
        """Apply a worker-side record update, tolerating lost races.

        :meth:`cancel` may commit ``queued/running -> cancelled`` after
        the worker loaded the record; the worker's next transition then
        hits an illegal ``cancelled -> X`` edge.  The cancel side
        already wrote the authoritative terminal state, so the worker
        backs off and leaves the record alone (returns ``None``).

        With a ``token``, the update additionally requires that the
        worker still owns the job's lease: a watchdog reclaim (or a
        competing attempt) that reassigned the lease wins, and the
        stale worker backs off the same way.  Any mutation that takes
        the record out of ``running`` drops the lease centrally, so no
        caller can forget it.
        """
        def guarded(rec: JobRecord) -> None:
            if rec.state is JobState.CANCELLED:
                raise _LostRace
            if token is not None and rec.lease_owner != token:
                raise _LostRace
            mutate(rec)
            if rec.state is not JobState.RUNNING:
                rec.clear_lease()

        try:
            return self.store.update(job_id, guarded)
        except _LostRace:
            return None

    def _attempt_budget(self, spec: JobSpec) -> int:
        """The job's attempt budget (per-job override, else daemon)."""
        if spec.max_attempts is not None:
            return spec.max_attempts
        return self.config.chaos.max_attempts

    def _settle_failure(self, job_id: str, error: str, at: float,
                        token: str | None = None) -> JobRecord | None:
        """Record one failed attempt: retry or dead-letter, atomically.

        The record passes through ``failed`` (so the history shows the
        failure) and lands on ``queued`` while attempt budget remains,
        or on ``dead`` once it is spent -- both edges inside one
        durable update, so a crash between them is impossible.
        """
        def fail(rec: JobRecord) -> None:
            rec.transition(JobState.FAILED, at)
            rec.error = error
            if rec.attempts >= self._attempt_budget(rec.spec):
                rec.transition(JobState.DEAD, at)
            else:
                rec.transition(JobState.QUEUED, at)

        record = self._settle(job_id, fail, token=token)
        if record is None:
            return None
        if record.state is JobState.DEAD:
            self.store.append_event(
                job_id, "dead", at, error=error,
                attempts=record.attempts,
                detail=f"attempt budget "
                       f"{self._attempt_budget(record.spec)} spent; "
                       f"dead-lettered (requeue to revive)")
            with self._stats_lock:
                self._dead_lettered_total += 1
        else:
            self.store.append_event(
                job_id, "failed", at, error=error,
                attempt=record.attempts,
                detail="re-queued for retry")
            self.scheduler.submit(job_id, record.spec.priority)
        return record

    def _renew_lease(self, job_id: str, token: str) -> bool:
        """Extend the worker's lease; ``False`` means it was lost.

        Renewal is throttled to the back half of the lease so hot
        checkpoint cadences do not turn every boundary into a record
        write; the read that checks ownership is cheap.
        """
        at = now()
        try:
            record = self.store.load(job_id)
        except ServiceError:
            return False
        if record.lease_owner != token:
            return False
        expires = record.lease_expires_at
        if (expires is not None
                and expires - at > self.config.chaos.lease_s / 2):
            return True

        def extend(rec: JobRecord) -> None:
            rec.lease_expires_at = at + self.config.chaos.lease_s

        return self._settle(job_id, extend, token=token) is not None

    def sweep_leases(self, at: float) -> list[str]:
        """Reclaim every lease-expired ``running`` job (the watchdog
        body; callable directly from tests).  Returns the ids swept."""
        swept: list[str] = []
        for record in self.store.list_jobs():
            if not record.lease_expired(at):
                continue
            owner = record.lease_owner

            def reclaim(rec: JobRecord, owner: str | None = owner) -> None:
                if not rec.lease_expired(at):  # re-check under lock
                    raise _LostRace
                rec.transition(JobState.CHECKPOINTED, at)
                rec.clear_lease()
                if rec.attempts >= self._attempt_budget(rec.spec):
                    rec.error = (f"worker lease expired (owner "
                                 f"{owner}) with attempt budget spent")
                    rec.transition(JobState.DEAD, at)

            try:
                updated = self.store.update(record.id, reclaim)
            except (_LostRace, ServiceError):
                continue  # worker settled (or cancel won) in between
            swept.append(record.id)
            if updated.state is JobState.DEAD:
                self.store.append_event(
                    record.id, "dead", at, error=updated.error,
                    attempts=updated.attempts,
                    detail="lease expired; dead-lettered")
                with self._stats_lock:
                    self._dead_lettered_total += 1
            else:
                self.store.append_event(
                    record.id, "lease-expired", at, owner=owner,
                    attempt=updated.attempts,
                    detail="watchdog reclaimed hung/killed worker's "
                           "job; re-queued from last checkpoint")
                self.scheduler.submit(record.id,
                                      updated.spec.priority)
                with self._stats_lock:
                    self._expired_requeued_total += 1
        with self._stats_lock:
            self._watchdog_sweeps += 1
        return swept

    def requeue(self, job_id: str) -> JobRecord:
        """Revive a dead-lettered (or legacy ``failed``) job.

        Resets the attempt budget and drops stale error/lease/cancel
        state; any other starting state raises the usual illegal-
        transition :class:`~repro.errors.ServiceError` (HTTP 409).
        """
        at = now()

        def revive(rec: JobRecord) -> None:
            rec.transition(JobState.QUEUED, at)
            rec.error = None
            rec.attempts = 0
            rec.clear_lease()

        record = self.store.update(job_id, revive)
        self.store.clear_cancel(job_id)
        self.store.append_event(job_id, "requeued", at,
                                detail="operator requeue; attempt "
                                       "budget reset")
        self.scheduler.submit(job_id, record.spec.priority)
        return record

    def _run_job(self, job_id: str) -> None:
        try:
            record = self.store.load(job_id)
        except ServiceError:
            return
        if record.terminal:
            return
        if self.store.cancel_requested(job_id):
            at = now()
            if self._settle(
                    job_id,
                    lambda rec: rec.transition(JobState.CANCELLED,
                                               at)) is not None:
                self.store.append_event(job_id, "cancelled", at,
                                        detail="cancelled before running")
            return

        # A retried job resumes too: its checkpoint directory holds
        # whatever the failed/reclaimed attempt last published (or a
        # completed result whose record settle lost a race), and the
        # bit-identity guarantee makes restoring it equivalent to --
        # and much cheaper than -- starting over.
        resume = (record.state is JobState.CHECKPOINTED
                  or record.attempts > 0)
        at = now()
        worker_name = threading.current_thread().name

        def start(rec: JobRecord) -> None:
            rec.transition(JobState.RUNNING, at)
            rec.attempts += 1
            rec.error = None
            rec.lease_owner = f"{worker_name}:{job_id}:a{rec.attempts}"
            rec.lease_expires_at = at + self.config.chaos.lease_s

        record = self._settle(job_id, start)
        if record is None:  # cancel committed between load and start
            return
        token = record.lease_owner
        self.store.append_event(job_id, "started", at,
                                attempt=record.attempts, resume=resume,
                                lease_owner=token)

        cached = self._cached_result(record.fingerprint)
        if cached is not None:
            finish_at = now()
            if self._settle(
                    job_id, lambda rec: self._apply_result(
                        rec, cached, finish_at, cached_hit=True),
                    token=token) is not None:
                self.store.append_event(job_id, "cache-hit", finish_at,
                                        fingerprint=record.fingerprint,
                                        new_simulations=0)
            return

        def listener(n_simulations: int, kind: str) -> None:
            self.store.append_event(job_id, "checkpoint", now(),
                                    n_simulations=n_simulations,
                                    save_kind=kind)

        def interrupt() -> str | None:
            if self.store.cancel_requested(job_id):
                return "cancel"
            if token is not None and not self._renew_lease(job_id,
                                                           token):
                # the watchdog reclaimed this job (renewals starved
                # past the lease); its new owner is authoritative --
                # drain without touching the record
                return "lease-lost"
            return None

        perf = PerfConfig(cache_path=self.config.solve_cache)
        try:
            estimate = execute(record.spec,
                               self.store.checkpoint_dir(job_id),
                               resume=resume, perf=perf,
                               keep=self.config.checkpoint_keep,
                               interrupt=interrupt, listener=listener)
        except ShutdownRequested as stop:
            at = now()
            if stop.reason == "lease-lost":
                # The watchdog already re-queued (or buried) the job;
                # this worker is a zombie and must not touch it.
                return
            if stop.reason == "cancel":
                if self._settle(
                        job_id,
                        lambda rec: rec.transition(JobState.CANCELLED,
                                                   at),
                        token=token) is not None:
                    self.store.append_event(
                        job_id, "cancelled", at,
                        detail="cancelled mid-run; final snapshot kept")
            else:
                if self._settle(
                        job_id,
                        lambda rec: rec.transition(JobState.CHECKPOINTED,
                                                   at),
                        token=token) is not None:
                    self.store.append_event(
                        job_id, "checkpointed", at,
                        detail=f"graceful shutdown ({stop.reason}); "
                               f"will resume on restart")
            return
        except Exception as exc:  # repro: allow-broad-except
            # The job boundary: any estimator failure becomes a durable
            # record instead of killing the worker thread -- re-queued
            # while attempt budget remains, dead-lettered after.
            self._settle_failure(job_id,
                                 f"{type(exc).__name__}: {exc}",
                                 now(), token=token)
            return

        # The result is published under the spec fingerprint even when
        # a concurrent cancel wins the record: determinism makes it
        # valid for every future job with the same fingerprint.
        self.store.store_result(record.fingerprint, estimate)
        done_at = now()
        if self._settle(
                job_id, lambda rec: self._apply_result(
                    rec, estimate, done_at, cached_hit=False),
                token=token) is not None:
            self.store.append_event(
                job_id, "done", done_at, pfail=float(estimate.pfail),
                ci_halfwidth=float(estimate.ci_halfwidth),
                n_simulations=int(estimate.n_simulations))
        if perf is not None:
            save_registered_caches()

    # -- helpers -------------------------------------------------------
    def _cached_result(self, fingerprint: str) -> FailureEstimate | None:
        try:
            return self.store.load_result(fingerprint)
        except ServiceError:
            return None

    @staticmethod
    def _apply_result(record: JobRecord, estimate: FailureEstimate,
                      at: float, *, cached_hit: bool) -> None:
        record.transition(JobState.DONE, at)
        record.cached = cached_hit
        record.pfail = float(estimate.pfail)
        record.ci_halfwidth = float(estimate.ci_halfwidth)
        record.n_simulations = int(estimate.n_simulations)

    def stats(self) -> dict:
        """Health snapshot for ``GET /healthz``."""
        counts: dict[str, int] = {}
        active_leases = 0
        for record in self.store.list_jobs():
            counts[record.state.value] = counts.get(
                record.state.value, 0) + 1
            if (record.state is JobState.RUNNING
                    and record.lease_owner is not None):
                active_leases += 1
        with self._stats_lock:
            expired_requeued = self._expired_requeued_total
            dead_lettered = self._dead_lettered_total
            sweeps = self._watchdog_sweeps
        return {"status": "ok", "queued": len(self.scheduler),
                "workers": self.config.workers,
                "jobs": counts,
                "leases": {"active": active_leases,
                           "lease_s": self.config.chaos.lease_s,
                           "expired_requeued_total": expired_requeued},
                "dead_letter": {
                    "dead_jobs": counts.get(JobState.DEAD.value, 0),
                    "dead_lettered_total": dead_lettered,
                    "max_attempts": self.config.chaos.max_attempts},
                "watchdog": {
                    "interval_s": self.config.chaos.sweep_interval_s,
                    "sweeps": sweeps}}


def execute(spec, checkpoint_dir, **kwargs):
    """Indirection point for :func:`repro.service.worker.execute_job`
    (kept separate so tests can monkeypatch job execution)."""
    from repro.service.worker import execute_job

    return execute_job(spec, checkpoint_dir, **kwargs)


# ---------------------------------------------------------------------
# HTTP front
# ---------------------------------------------------------------------
def _make_handler(daemon: ServiceDaemon) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        server_version = "ecripse-service/1"

        # The event feed is the service's log; HTTP chatter stays quiet.
        def log_message(self, fmt: str, *args: object) -> None:
            pass

        # -- plumbing --------------------------------------------------
        def _send_json(self, code: int, payload: object,
                       headers: dict[str, str] | None = None) -> None:
            body = (json.dumps(payload, indent=1, sort_keys=True)
                    + "\n").encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str,
                   headers: dict[str, str] | None = None) -> None:
            self._send_json(code, {"error": message}, headers=headers)

        @staticmethod
        def _error_code(exc: ServiceError) -> int:
            text = str(exc)
            if "unknown job" in text:
                return 404
            if "illegal transition" in text:
                # the job exists but is in the wrong state for the
                # requested action (e.g. requeue of a running job)
                return 409
            if "too large" in text:
                return 413
            return 400

        def _read_body(self) -> object:
            header = self.headers.get("Content-Length", "0")
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                # the body's extent is unknown, so the connection cannot
                # be reused: answer 400 and close it
                self.close_connection = True
                raise ServiceError(
                    f"invalid Content-Length {header!r}: expected a "
                    f"non-negative integer")
            if length > MAX_BODY_BYTES:
                # the unread body stays in the socket: close it too
                self.close_connection = True
                raise ServiceError(
                    f"request body too large: Content-Length {length} "
                    f"exceeds the {MAX_BODY_BYTES}-byte cap")
            raw = self.rfile.read(length) if length else b""
            try:
                return json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                raise ServiceError(f"invalid JSON body: {exc}") from exc

        # -- routing ---------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (stdlib API)
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            try:
                if parts == ["healthz"]:
                    self._send_json(200, daemon.stats())
                elif parts == ["jobs"]:
                    self._send_json(200, {
                        "jobs": [r.as_dict()
                                 for r in daemon.store.list_jobs()]})
                elif len(parts) == 2 and parts[0] == "jobs":
                    self._send_json(200, daemon.store.load(
                        parts[1]).as_dict())
                elif (len(parts) == 3 and parts[0] == "jobs"
                        and parts[2] == "result"):
                    self._get_result(parts[1])
                elif (len(parts) == 3 and parts[0] == "jobs"
                        and parts[2] == "events"):
                    self._get_events(parts[1], parse_qs(url.query))
                else:
                    self._error(404, f"no route for GET {url.path}")
            except ServiceError as exc:
                self._error(self._error_code(exc), str(exc))

        def do_POST(self) -> None:  # noqa: N802 (stdlib API)
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            try:
                if parts == ["jobs"]:
                    if daemon.coordinator.requested:
                        # Retry-After tells resilient clients this is a
                        # drain, not a death: another daemon instance
                        # (or a restart) may accept the job shortly.
                        self._error(503, "service is draining",
                                    headers={"Retry-After": "1"})
                        return
                    record = daemon.submit(self._read_body())
                    self._send_json(201, record.as_dict())
                elif (len(parts) == 3 and parts[0] == "jobs"
                        and parts[2] == "cancel"):
                    self._send_json(200, daemon.cancel(parts[1]).as_dict())
                elif (len(parts) == 3 and parts[0] == "jobs"
                        and parts[2] == "requeue"):
                    self._send_json(200,
                                    daemon.requeue(parts[1]).as_dict())
                else:
                    self._error(404, f"no route for POST {url.path}")
            except ServiceError as exc:
                self._error(self._error_code(exc), str(exc))

        # -- endpoints -------------------------------------------------
        def _get_result(self, job_id: str) -> None:
            record = daemon.store.load(job_id)
            if record.state is not JobState.DONE:
                self._error(409, f"job {job_id} is {record.state.value}, "
                                 f"not done"
                                 + (f": {record.error}" if record.error
                                    else ""))
                return
            estimate = daemon.store.load_result(record.fingerprint)
            if estimate is None:
                self._error(500, f"result file for job {job_id} "
                                 f"(fingerprint {record.fingerprint}) "
                                 f"is missing")
                return
            payload = estimate_to_dict(estimate)
            payload["job"] = {"id": record.id,
                              "fingerprint": record.fingerprint,
                              "cached": record.cached}
            self._send_json(200, payload)

        def _get_events(self, job_id: str, query: dict) -> None:
            daemon.store.load(job_id)  # 404 on unknown ids
            raw_since = query.get("since", ["0"])[0]
            try:
                since = int(raw_since)
            except ValueError:
                raise ServiceError(
                    f"invalid 'since' value {raw_since!r}: expected an "
                    f"integer event index") from None
            follow = query.get("follow", ["0"])[0] in ("1", "true")
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            cursor = max(0, since)
            idle_s = 0.0
            while True:
                events = daemon.store.read_events(job_id, since=cursor)
                for event in events:
                    self.wfile.write(
                        (json.dumps(event, sort_keys=True)
                         + "\n").encode())
                cursor += len(events)
                if events:
                    idle_s = 0.0
                elif idle_s >= HEARTBEAT_S:
                    # Keep-alive for clients with read timeouts: not a
                    # stored event (the cursor does not advance), just
                    # proof of life on a quiet stream.  Clients drop
                    # lines with kind == "heartbeat".
                    idle_s = 0.0
                    self.wfile.write(
                        (json.dumps({"at": now(), "kind": "heartbeat"},
                                    sort_keys=True) + "\n").encode())
                self.wfile.flush()
                if not follow:
                    return
                record = daemon.store.load(job_id)
                if record.terminal and not daemon.store.read_events(
                        job_id, since=cursor):
                    return
                if daemon.coordinator.requested:
                    return
                time.sleep(_POLL_S)
                idle_s += _POLL_S

    return Handler
