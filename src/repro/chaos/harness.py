"""Crash-consistency harness for the job service.

The harness answers one question exhaustively: *is there any durable
write in a job's lifecycle where dying loses data?*  It runs a
reference job on a clean filesystem plane, records every filesystem
operation the lifecycle performs (:class:`~repro.chaos.fsops.ChaosFsOps`
with ``record=True``), then replays the same job once per enumerated
write point with a deterministic fault injected exactly there --
simulated ``kill -9``, injected ``OSError``, or a torn write cut short
by a crash.  After each fault the daemon is "restarted" (a fresh
:class:`~repro.service.server.ServiceDaemon` over the same state tree
runs its recovery scan) and driven to quiescence, and the invariants
are checked:

* **No acked job is lost.**  Every job id the submit call returned is
  still loadable and lands in a terminal state -- ``done`` with a
  result bit-identical to the reference run, or ``dead`` with its
  error and attempt history preserved.
* **No double-charged simulations.**  A ``done`` record reports
  exactly the reference simulation count: recovery resumed from a
  checkpoint instead of silently re-running (and re-billing) work.
* **The result cache never serves torn values.**  Reading the cache
  entry either misses cleanly or returns the reference estimate;
  it never raises and never returns different numbers.
* **Duplicate submits stay free.**  Once the job is ``done``,
  re-submitting the same spec is a pure cache hit.

Each case is one process-internal "crash": :class:`ChaosKill` unwinds
the synchronous drive loop the way ``kill -9`` leaves the disk, and
injected ``OSError`` exercises the worker's failure/retry path.  Entry
points: :func:`run_harness` (library) and ``python -m repro.chaos``
(CLI; the CI ``service`` job runs ``--quick``).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos import clock
from repro.chaos.fsops import (
    DURABLE_OPS,
    ChaosFsOps,
    ChaosKill,
    FaultClause,
    install_fs,
)
from repro.errors import ServiceError
from repro.service.model import JobState
from repro.service.server import ServeConfig, ServiceDaemon
from repro.service.spec import JobSpec

#: the default workload: small enough for CI, yet crossing several
#: checkpoint publishes, event appends and record replaces.  At 0.5 V
#: its reference run finds failing samples (4 of 1,500), so a resume
#: that redrew or relabelled samples would move ``pfail``.
DEFAULT_SPEC = JobSpec(kind="naive", n_samples=1500, seed=13, vdd=0.5,
                       target_relative_error=1e-9, checkpoint_every=500)

#: scheduler pops allowed per drive (a retry loop that does not
#: converge within this budget is itself a failure).
_DRIVE_BUDGET = 50

#: fault modes exercised per write point.  ``torn-kill`` only makes
#: sense where partial data can land (appends; on ``replace``/
#: ``rename`` it degrades to a duplicate ``kill``), so it is applied
#: selectively in :func:`enumerate_cases`.
QUICK_MODES = ("kill",)
FULL_MODES = ("kill", "fail")


@dataclass(frozen=True)
class WritePoint:
    """One durable filesystem operation observed in the recording."""

    op: str
    path: str
    ordinal: int  # 1-based ordinal among calls of this op

    def clause(self, mode: str) -> FaultClause:
        return FaultClause(op=self.op, index=self.ordinal, mode=mode)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one fault-injection case."""

    clause: str
    path: str
    ok: bool
    outcome: str  # done-identical | dead | unacked | violation
    detail: str = ""


@dataclass
class HarnessReport:
    """Everything one harness run established."""

    reference_pfail: float
    reference_simulations: int
    write_points: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def violations(self) -> list[CaseResult]:
        return [case for case in self.cases if not case.ok]


def _fresh_daemon(root: Path) -> ServiceDaemon:
    """A daemon core (no HTTP/worker threads) over ``root``."""
    return ServiceDaemon(ServeConfig(root=root, port=0, workers=1))


def _drive(daemon: ServiceDaemon) -> None:
    """Run queued jobs synchronously until the scheduler drains.

    Mirrors the worker loop's exception boundary: estimator/injected
    failures are settled durably (retry or dead-letter); only
    :class:`ChaosKill` escapes, because a real ``kill -9`` would.
    """
    for _ in range(_DRIVE_BUDGET):
        job_id = daemon.scheduler.pop(0)
        if job_id is None:
            return
        try:
            daemon._run_job(job_id)
        except ChaosKill:
            raise
        except Exception as exc:  # repro: allow-broad-except
            # the worker-loop boundary: settle and keep draining
            daemon._note_worker_error(job_id, exc)
    raise RuntimeError(
        f"drive did not converge within {_DRIVE_BUDGET} pops")


def _recover_and_drive(root: Path) -> ServiceDaemon:
    """The restarted daemon: recovery scan, then drain the queue."""
    daemon = _fresh_daemon(root)
    for job_id in daemon.store.recover(clock.now()):
        record = daemon.store.load(job_id)
        daemon.scheduler.submit(job_id, record.spec.priority)
    _drive(daemon)
    return daemon


def record_write_points(root: Path,
                        spec: JobSpec) -> tuple[list[WritePoint], dict]:
    """Enumerate every durable write in one clean job lifecycle.

    Runs the reference job under a purely observing chaos plane and
    returns the durable write points plus the reference result
    (``pfail``, ``n_simulations``, ``fingerprint``).  A reference
    without a failing sample is refused with :class:`ValueError`:
    every case would then compare ``pfail`` 0.0 with 0.0, which a
    resume that redrew samples would also pass.
    """
    plane = ChaosFsOps(record=True)
    previous = install_fs(plane)
    try:
        daemon = _fresh_daemon(root / "reference")
        record = daemon.submit(spec.as_dict())
        _drive(daemon)
        done = daemon.store.load(record.id)
    finally:
        install_fs(previous)
    if done.state is not JobState.DONE:
        raise RuntimeError(
            f"reference run did not complete: {done.state.value} "
            f"({done.error})")
    if not done.pfail:
        raise ValueError(
            f"reference run found no failing sample in "
            f"{done.n_simulations} simulations; choose a spec whose "
            f"pfail is non-zero (e.g. a lower vdd)")
    ordinals: dict[str, int] = dict.fromkeys(DURABLE_OPS, 0)
    points = []
    for op, path in plane.log:
        if op not in ordinals:
            continue
        ordinals[op] += 1
        points.append(WritePoint(op=op, path=path,
                                 ordinal=ordinals[op]))
    reference = {"pfail": done.pfail,
                 "n_simulations": done.n_simulations,
                 "fingerprint": done.fingerprint}
    return points, reference


def enumerate_cases(points: list[WritePoint],
                    quick: bool) -> list[tuple[WritePoint, str]]:
    """The (write point, fault mode) grid one harness run covers."""
    modes = QUICK_MODES if quick else FULL_MODES
    cases = [(point, mode) for point in points for mode in modes]
    if not quick:
        # torn writes cut short by a crash -- only appends can tear
        cases.extend((point, "torn-kill") for point in points
                     if point.op == "append")
    return cases


def _check_invariants(daemon: ServiceDaemon, acked_id: str | None,
                      spec: JobSpec, reference: dict) -> CaseResult:
    """Apply the module-docstring invariants to a recovered tree."""
    def violation(detail: str) -> CaseResult:
        return CaseResult(clause="", path="", ok=False,
                          outcome="violation", detail=detail)

    # the cache never serves torn values
    try:
        cached = daemon.store.load_result(reference["fingerprint"])
    except ServiceError as exc:
        return violation(f"result cache corrupt after crash: {exc}")
    if cached is not None and cached.pfail != reference["pfail"]:
        return violation(
            f"result cache drifted: {cached.pfail!r} != "
            f"{reference['pfail']!r}")

    if acked_id is None:
        # crash before the submit was acknowledged: nothing promised,
        # so the only requirement is that a fresh submit still works
        record = daemon.submit(spec.as_dict())
        _drive(daemon)
        final = daemon.store.load(record.id)
        if final.state is not JobState.DONE \
                or final.pfail != reference["pfail"]:
            return violation(
                f"post-crash resubmit broken: {final.state.value} "
                f"pfail={final.pfail!r}")
        return CaseResult(clause="", path="", ok=True,
                          outcome="unacked")

    try:
        final = daemon.store.load(acked_id)
    except ServiceError as exc:
        return violation(f"acked job {acked_id} lost: {exc}")
    if final.state is JobState.DEAD:
        if final.error is None or not final.history:
            return violation(
                f"dead job {acked_id} lost its error/history")
        return CaseResult(clause="", path="", ok=True, outcome="dead",
                          detail=final.error)
    if final.state is not JobState.DONE:
        return violation(
            f"acked job {acked_id} stranded in {final.state.value}")
    if final.pfail != reference["pfail"]:
        return violation(
            f"result drifted: {final.pfail!r} != "
            f"{reference['pfail']!r}")
    if final.n_simulations != reference["n_simulations"]:
        return violation(
            f"simulations double-charged: {final.n_simulations} != "
            f"{reference['n_simulations']}")
    # duplicate submits stay free
    duplicate = daemon.submit(spec.as_dict())
    if not duplicate.cached or duplicate.pfail != reference["pfail"]:
        return violation("duplicate submit was not a pure cache hit")
    return CaseResult(clause="", path="", ok=True,
                      outcome="done-identical")


def run_case(root: Path, spec: JobSpec, point: WritePoint, mode: str,
             reference: dict) -> CaseResult:
    """One crash: inject ``mode`` at ``point``, restart, check."""
    clause = point.clause(mode)
    plane = ChaosFsOps((clause,))
    previous = install_fs(plane)
    acked_id: str | None = None
    try:
        daemon = _fresh_daemon(root)
        try:
            record = daemon.submit(spec.as_dict())
            acked_id = record.id
            _drive(daemon)
        except ChaosKill:
            pass  # the simulated dead process; its memory is gone
        except (OSError, ServiceError):
            pass  # injected failure surfaced before the job was acked
    finally:
        install_fs(previous)
    recovered = _recover_and_drive(root)
    result = _check_invariants(recovered, acked_id, spec, reference)
    tail = Path(point.path).name
    return CaseResult(clause=clause.spec(), path=tail, ok=result.ok,
                      outcome=result.outcome, detail=result.detail)


def run_harness(root: str | Path, spec: JobSpec | None = None,
                quick: bool = False,
                progress=None) -> HarnessReport:
    """Full harness sweep under ``root`` (a scratch directory).

    ``progress`` (optional) is called with one line per finished case.
    """
    root = Path(root)
    spec = spec if spec is not None else DEFAULT_SPEC
    points, reference = record_write_points(root, spec)
    report = HarnessReport(reference_pfail=reference["pfail"],
                           reference_simulations=reference[
                               "n_simulations"],
                           write_points=len(points))
    for index, (point, mode) in enumerate(
            enumerate_cases(points, quick=quick)):
        case_root = root / f"case-{index:03d}"
        result = run_case(case_root / "state", spec, point, mode,
                          reference)
        report.cases.append(result)
        if progress is not None:
            status = "ok " if result.ok else "FAIL"
            progress(f"[{status}] {result.clause:<24} "
                     f"{result.path:<28} {result.outcome}"
                     + (f": {result.detail}" if result.detail else ""))
        shutil.rmtree(case_root, ignore_errors=True)
    return report
