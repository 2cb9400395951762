"""Leases, the watchdog, and poison-job dead-lettering."""

import threading
import time

import pytest

from repro.chaos.config import ChaosConfig
from repro.errors import ServiceError, ShutdownRequested
from repro.service.model import JobState
from repro.service.server import ServeConfig, ServiceDaemon
from repro.service.spec import JobSpec

SPEC = JobSpec(kind="naive", n_samples=1500, seed=13,
               target_relative_error=1e-9, checkpoint_every=500)


def make_daemon(tmp_path, **chaos) -> ServiceDaemon:
    return ServiceDaemon(ServeConfig(root=tmp_path / "state", port=0,
                                     workers=1,
                                     chaos=ChaosConfig(**chaos)))


def event_kinds(daemon, job_id):
    return [e["kind"] for e in daemon.store.read_events(job_id)]


def force_running_lease(daemon, job_id, *, attempts=1,
                        owner="w-0:job:a1", expires_at=100.0):
    """Put a record into ``running`` with a lease, as a worker would."""
    def start(rec):
        rec.transition(JobState.RUNNING, at=1.0)
        rec.attempts = attempts
        rec.lease_owner = owner
        rec.lease_expires_at = expires_at

    return daemon.store.update(job_id, start)


class TestDeadLetter:
    def test_deterministic_crasher_dies_after_max_attempts(
            self, tmp_path, monkeypatch):
        def boom(spec, checkpoint_dir, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("repro.service.server.execute", boom)
        daemon = make_daemon(tmp_path, max_attempts=2)
        record = daemon.submit(SPEC.as_dict())

        daemon._run_job(daemon.scheduler.pop(0))
        retried = daemon.store.load(record.id)
        assert retried.state is JobState.QUEUED
        assert retried.attempts == 1
        assert "solver exploded" in retried.error
        assert record.id in daemon.scheduler  # re-queued for retry

        daemon._run_job(daemon.scheduler.pop(0))
        dead = daemon.store.load(record.id)
        assert dead.state is JobState.DEAD
        assert dead.attempts == 2  # exactly the budget, never more
        assert dead.terminal
        assert record.id not in daemon.scheduler
        assert event_kinds(daemon, record.id) == [
            "queued", "started", "failed", "started", "dead"]
        # the attempt history survives in the record
        states = [entry[0] for entry in dead.history]
        assert states.count("running") == 2
        assert states[-1] == "dead"

    def test_per_job_budget_overrides_daemon_default(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(
            "repro.service.server.execute",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        daemon = make_daemon(tmp_path, max_attempts=5)
        spec = dict(SPEC.as_dict(), max_attempts=1)
        record = daemon.submit(spec)
        daemon._run_job(daemon.scheduler.pop(0))
        assert daemon.store.load(record.id).state is JobState.DEAD

    def test_requeue_revives_dead_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.service.server.execute",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        daemon = make_daemon(tmp_path, max_attempts=1)
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        assert daemon.store.load(record.id).state is JobState.DEAD

        monkeypatch.undo()  # the flake is gone; revive and complete
        revived = daemon.requeue(record.id)
        assert revived.state is JobState.QUEUED
        assert revived.attempts == 0  # budget reset
        assert revived.error is None
        assert record.id in daemon.scheduler
        daemon._run_job(daemon.scheduler.pop(0))
        done = daemon.store.load(record.id)
        assert done.state is JobState.DONE
        kinds = event_kinds(daemon, record.id)
        assert "requeued" in kinds
        assert kinds[-1] == "done"

    def test_requeue_of_done_job_is_illegal(self, tmp_path):
        daemon = make_daemon(tmp_path)
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        with pytest.raises(ServiceError, match="illegal transition"):
            daemon.requeue(record.id)


class TestLeaseSweep:
    def test_expired_lease_is_reclaimed_and_requeued(self, tmp_path):
        daemon = make_daemon(tmp_path, max_attempts=3)
        record = daemon.submit(SPEC.as_dict())
        daemon.scheduler.pop(0)  # a (hung) worker took it
        force_running_lease(daemon, record.id, expires_at=100.0)

        assert daemon.sweep_leases(at=50.0) == []  # still inside lease
        swept = daemon.sweep_leases(at=101.0)
        assert swept == [record.id]
        parked = daemon.store.load(record.id)
        assert parked.state is JobState.CHECKPOINTED
        assert parked.lease_owner is None
        assert parked.lease_expires_at is None
        assert record.id in daemon.scheduler
        assert event_kinds(daemon, record.id)[-1] == "lease-expired"

    def test_expired_lease_with_spent_budget_is_buried(self, tmp_path):
        daemon = make_daemon(tmp_path, max_attempts=2)
        record = daemon.submit(SPEC.as_dict())
        daemon.scheduler.pop(0)
        force_running_lease(daemon, record.id, attempts=2,
                            expires_at=100.0)
        assert daemon.sweep_leases(at=101.0) == [record.id]
        dead = daemon.store.load(record.id)
        assert dead.state is JobState.DEAD
        assert "lease expired" in dead.error
        assert record.id not in daemon.scheduler

    def test_zombie_worker_settle_backs_off(self, tmp_path):
        # the reclaimed worker's token no longer matches: its late
        # ``done`` settle must leave the authoritative record alone
        daemon = make_daemon(tmp_path)
        record = daemon.submit(SPEC.as_dict())
        daemon.scheduler.pop(0)
        force_running_lease(daemon, record.id, owner="w-0:job:a1",
                            expires_at=100.0)
        daemon.sweep_leases(at=101.0)

        def zombie(rec):
            rec.transition(JobState.DONE, 102.0)

        assert daemon._settle(record.id, zombie,
                              token="w-0:job:a1") is None
        assert daemon.store.load(record.id).state \
            is JobState.CHECKPOINTED

    def test_renewal_throttled_and_token_guarded(self, tmp_path):
        daemon = make_daemon(tmp_path, lease_s=60.0)
        record = daemon.submit(SPEC.as_dict())
        daemon.scheduler.pop(0)
        far = time.time() + 55.0  # matches the daemon's now() clock
        force_running_lease(daemon, record.id, owner="tok",
                            expires_at=far)
        # plenty of lease left: renewal is a no-op read
        assert daemon._renew_lease(record.id, "tok")
        assert daemon.store.load(record.id).lease_expires_at == far
        # wrong token: the lease was reassigned
        assert not daemon._renew_lease(record.id, "other")

    def test_renewal_extends_in_back_half(self, tmp_path):
        daemon = make_daemon(tmp_path, lease_s=60.0)
        record = daemon.submit(SPEC.as_dict())
        daemon.scheduler.pop(0)
        force_running_lease(daemon, record.id, owner="tok",
                            expires_at=1.0)  # long past half-way
        assert daemon._renew_lease(record.id, "tok")
        renewed = daemon.store.load(record.id)
        assert renewed.lease_expires_at > 1.0


class TestWatchdogLive:
    def test_hung_worker_requeued_within_one_interval(self, tmp_path,
                                                      monkeypatch):
        # A worker that never reaches a checkpoint boundary (so never
        # renews) must lose its lease within ~one sweep interval.
        daemon = ServiceDaemon(ServeConfig(
            root=tmp_path / "state", port=0, workers=1,
            chaos=ChaosConfig(lease_s=0.4)))  # sweeps every 0.1 s
        released = threading.Event()

        def hang(spec, checkpoint_dir, **kwargs):
            released.wait(timeout=10.0)
            raise ShutdownRequested("shutdown")

        monkeypatch.setattr("repro.service.server.execute", hang)
        daemon.start()
        try:
            record = daemon.submit(SPEC.as_dict())
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                kinds = event_kinds(daemon, record.id)
                if "lease-expired" in kinds:
                    break
                time.sleep(0.02)
            assert "lease-expired" in event_kinds(daemon, record.id)
            assert record.id in daemon.scheduler \
                or daemon.store.load(record.id).state \
                is JobState.RUNNING  # second attempt already picked up
            stats = daemon.stats()
            assert stats["leases"]["expired_requeued_total"] >= 1
            assert stats["watchdog"]["sweeps"] >= 1
        finally:
            released.set()
            daemon.shutdown()


class TestRestartInProcess:
    def test_daemon_started_after_a_shutdown_runs_jobs_and_sweeps(
            self, tmp_path):
        # The first daemon's shutdown trips the process-wide coordinator;
        # nothing resets it before the second daemon starts.
        config = dict(port=0, workers=1, chaos=ChaosConfig(lease_s=0.4))
        first = ServiceDaemon(ServeConfig(root=tmp_path / "first",
                                          **config))
        first.start()
        first.shutdown()
        assert first.coordinator.requested

        second = ServiceDaemon(ServeConfig(root=tmp_path / "second",
                                           **config))
        second.start()
        try:
            record = second.submit({"kind": "array", "pfail": 1e-9})
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not (
                    second.store.load(record.id).state is JobState.DONE
                    and second.stats()["watchdog"]["sweeps"] >= 1):
                time.sleep(0.02)
            assert second.store.load(record.id).state is JobState.DONE
            assert second.stats()["watchdog"]["sweeps"] >= 1
        finally:
            second.shutdown()


class TestHealthz:
    def test_stats_report_lease_and_dead_letter_counters(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(
            "repro.service.server.execute",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        daemon = make_daemon(tmp_path, max_attempts=1, lease_s=30.0)
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        stats = daemon.stats()
        assert stats["jobs"]["dead"] == 1
        assert stats["dead_letter"]["dead_jobs"] == 1
        assert stats["dead_letter"]["dead_lettered_total"] == 1
        assert stats["dead_letter"]["max_attempts"] == 1
        assert stats["leases"] == {"active": 0, "lease_s": 30.0,
                                   "expired_requeued_total": 0}
        assert stats["watchdog"]["interval_s"] == 7.5  # lease/4
        assert daemon.store.load(record.id).state is JobState.DEAD
