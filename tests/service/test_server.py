"""Daemon behaviour: state machine under real jobs, HTTP surface."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.errors import ServiceError, ShutdownRequested
from repro.service import client as client_module
from repro.service import server as server_module
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.model import JobState
from repro.service.scheduler import QuotaPolicy
from repro.service.server import (
    MAX_BODY_BYTES,
    ServeConfig,
    ServiceDaemon,
)
from repro.service.spec import JobSpec
from repro.service.worker import execute_job

from .test_worker import comparable

SPEC = JobSpec(kind="naive", n_samples=1500, seed=13,
               target_relative_error=1e-9, checkpoint_every=500)


@pytest.fixture()
def daemon(tmp_path):
    """A daemon core without HTTP/worker threads -- jobs are driven
    deterministically with ``_run_job``."""
    return ServiceDaemon(ServeConfig(root=tmp_path / "state", port=0,
                                     workers=1))


@pytest.fixture()
def live(tmp_path):
    """A fully started daemon (HTTP + one worker thread)."""
    daemon = ServiceDaemon(ServeConfig(root=tmp_path / "state", port=0,
                                       workers=1))
    url = daemon.start()
    yield daemon, ServiceClient(url)
    daemon.shutdown()


class TestDaemonCore:
    def test_submit_queues_and_clamps(self, daemon):
        record = daemon.submit(SPEC.as_dict())
        assert record.state is JobState.QUEUED
        # the quota default is applied before fingerprinting
        assert record.spec.max_simulations \
            == QuotaPolicy().default_simulations
        assert record.id in daemon.scheduler

    def test_invalid_spec_rejected(self, daemon):
        with pytest.raises(ServiceError, match="unknown spec field"):
            daemon.submit({"bogus": 1})

    def test_run_job_completes_and_caches(self, daemon):
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        done = daemon.store.load(record.id)
        assert done.state is JobState.DONE
        assert done.cached is False
        assert done.n_simulations == 1500
        assert daemon.store.load_result(done.fingerprint) is not None

    def test_duplicate_submit_is_served_from_cache(self, daemon):
        first = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        duplicate = daemon.submit(SPEC.as_dict())
        assert duplicate.state is JobState.DONE
        assert duplicate.cached is True
        assert duplicate.fingerprint \
            == daemon.store.load(first.id).fingerprint
        assert duplicate.pfail == daemon.store.load(first.id).pfail
        kinds = [e["kind"]
                 for e in daemon.store.read_events(duplicate.id)]
        assert kinds == ["cache-hit"]
        # nothing was queued for the worker pool
        assert duplicate.id not in daemon.scheduler

    def test_cached_duplicate_matches_direct_run(self, daemon, tmp_path):
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(daemon.scheduler.pop(0))
        canonical = daemon.store.load(record.id).spec
        reference = execute_job(canonical, tmp_path / "ref",
                                resume=False)
        cached = daemon.store.load_result(record.fingerprint)
        assert comparable(cached) == comparable(reference)

    def test_cancel_queued_job(self, daemon):
        record = daemon.submit(SPEC.as_dict())
        cancelled = daemon.cancel(record.id)
        assert cancelled.state is JobState.CANCELLED
        assert record.id not in daemon.scheduler
        # a worker popping it later must be a no-op
        daemon._run_job(record.id)
        assert daemon.store.load(record.id).state is JobState.CANCELLED

    def test_cancel_flag_beats_worker_pickup(self, daemon):
        record = daemon.submit(SPEC.as_dict())
        daemon.store.request_cancel(record.id)
        daemon._run_job(record.id)
        assert daemon.store.load(record.id).state is JobState.CANCELLED

    def test_mid_run_cancel_lands_in_cancelled(self, daemon):
        record = daemon.submit(SPEC.as_dict())
        flagged = []

        def cancel_at_first_boundary(spec, checkpoint_dir, *,
                                     interrupt, **kwargs):
            # what execute_job does when the polled hook says "cancel":
            # force-save the boundary, then unwind with the reason
            daemon.store.request_cancel(record.id)
            flagged.append(interrupt())
            raise ShutdownRequested(interrupt())

        import repro.service.server as server_module
        original = server_module.execute
        server_module.execute = cancel_at_first_boundary
        try:
            daemon._run_job(record.id)
        finally:
            server_module.execute = original
        assert flagged == ["cancel"]
        assert daemon.store.load(record.id).state is JobState.CANCELLED

    def test_failed_job_is_requeued_with_error(self, daemon,
                                               monkeypatch):
        def boom(spec, checkpoint_dir, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("repro.service.server.execute", boom)
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(record.id)
        failed = daemon.store.load(record.id)
        # attempt budget remains, so the failure re-queues for retry
        # (dead-lettering after the budget is spent is covered in
        # test_leases.py); the error and the failed edge survive
        assert failed.state is JobState.QUEUED
        assert failed.attempts == 1
        assert "solver exploded" in failed.error
        assert record.id in daemon.scheduler
        assert [s for s, _ in failed.history] \
            == ["queued", "running", "failed", "queued"]
        assert "failed" in [e["kind"]
                            for e in daemon.store.read_events(record.id)]

    def test_graceful_shutdown_lands_in_checkpointed(self, daemon,
                                                     monkeypatch):
        def drain(spec, checkpoint_dir, **kwargs):
            raise ShutdownRequested("SIGTERM")

        monkeypatch.setattr("repro.service.server.execute", drain)
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(record.id)
        parked = daemon.store.load(record.id)
        assert parked.state is JobState.CHECKPOINTED
        assert "checkpointed" in [
            e["kind"] for e in daemon.store.read_events(record.id)]

    def test_restart_resumes_checkpointed_job(self, tmp_path, daemon,
                                              monkeypatch):
        monkeypatch.setattr(
            "repro.service.server.execute",
            lambda *a, **k: (_ for _ in ()).throw(
                ShutdownRequested("SIGTERM")))
        record = daemon.submit(SPEC.as_dict())
        daemon._run_job(record.id)
        monkeypatch.undo()

        # a new daemon over the same root re-queues and finishes it
        second = ServiceDaemon(ServeConfig(root=daemon.config.root,
                                           port=0, workers=1))
        for job_id in second.store.recover(at=0.0):
            second._run_job(job_id)
        done = second.store.load(record.id)
        assert done.state is JobState.DONE
        assert done.attempts == 2

    def test_stats_counts_jobs(self, daemon):
        daemon.submit(SPEC.as_dict())
        stats = daemon.stats()
        assert stats["status"] == "ok"
        assert stats["queued"] == 1
        assert stats["jobs"] == {"queued": 1}

    def test_cancel_commit_during_pickup_is_benign(self, daemon,
                                                   monkeypatch):
        # The race: cancel() loads the record while it is still queued,
        # the worker wins the pickup (queued -> running), and cancel
        # then commits running -> cancelled plus the flag.  The
        # worker's own terminal transition (cancelled -> cancelled)
        # must back off instead of unwinding with ServiceError -- that
        # exception used to kill the worker thread.
        record = daemon.submit(SPEC.as_dict())

        def race(spec, checkpoint_dir, *, interrupt, **kwargs):
            daemon.store.request_cancel(record.id)
            daemon.store.update(
                record.id,
                lambda rec: rec.transition(JobState.CANCELLED, 0.0))
            raise ShutdownRequested(interrupt())

        monkeypatch.setattr("repro.service.server.execute", race)
        daemon._run_job(record.id)  # must not raise
        assert daemon.store.load(record.id).state is JobState.CANCELLED

    def test_completion_lost_to_cancel_keeps_cancelled(self, daemon,
                                                       monkeypatch):
        import repro.service.server as server_module
        record = daemon.submit(SPEC.as_dict())
        real = server_module.execute

        def cancel_then_finish(spec, checkpoint_dir, **kwargs):
            estimate = real(spec, checkpoint_dir, **kwargs)
            daemon.store.update(
                record.id,
                lambda rec: rec.transition(JobState.CANCELLED, 0.0))
            return estimate

        monkeypatch.setattr("repro.service.server.execute",
                            cancel_then_finish)
        daemon._run_job(record.id)
        final = daemon.store.load(record.id)
        # the cancel side wrote the authoritative terminal state ...
        assert final.state is JobState.CANCELLED
        kinds = [e["kind"]
                 for e in daemon.store.read_events(record.id)]
        assert "done" not in kinds
        # ... but determinism makes the finished estimate valid for the
        # fingerprint cache regardless of this record's fate
        assert daemon.store.load_result(final.fingerprint) is not None

    def test_worker_thread_survives_run_job_crash(self, daemon,
                                                  monkeypatch, capsys):
        original = ServiceDaemon._run_job
        calls = []

        def flaky(self, job_id):
            calls.append(job_id)
            if len(calls) == 1:
                raise ServiceError("synthetic daemon bug")
            return original(self, job_id)

        monkeypatch.setattr(ServiceDaemon, "_run_job", flaky)
        thread = threading.Thread(target=daemon._worker_loop,
                                  daemon=True)
        thread.start()
        try:
            daemon.submit(SPEC.as_dict())
            second = daemon.submit(SPEC.as_dict())
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if daemon.store.load(second.id).state \
                        is JobState.DONE:
                    break
                time.sleep(0.02)
            # the crash on job one must not shrink the pool: the same
            # worker thread goes on to finish job two
            assert daemon.store.load(second.id).state is JobState.DONE
            assert thread.is_alive()
        finally:
            daemon.coordinator.request("test-shutdown")
            daemon.scheduler.wake_all()
            thread.join(timeout=10)
        assert len(calls) == 2
        assert "worker error" in capsys.readouterr().err


class TestHttpSurface:
    def test_full_job_lifecycle_over_http(self, live):
        daemon, client = live
        assert client.healthz()["status"] == "ok"

        record = client.submit(SPEC.as_dict())
        assert record["state"] == "queued"
        final = client.wait(record["id"], timeout_s=120)
        assert final["state"] == "done"
        assert final["cached"] is False

        result = client.result(record["id"])
        assert result["n_simulations"] == 1500
        assert result["job"]["id"] == record["id"]

        kinds = [e["kind"] for e in client.events(record["id"])]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "started" in kinds and "checkpoint" in kinds

        listed = client.jobs()
        assert [j["id"] for j in listed] == [record["id"]]

    def test_duplicate_submit_over_http_hits_cache(self, live):
        daemon, client = live
        first = client.submit(SPEC.as_dict())
        client.wait(first["id"], timeout_s=120)
        duplicate = client.submit(SPEC.as_dict())
        assert duplicate["state"] == "done"
        assert duplicate["cached"] is True
        assert duplicate["pfail"] == client.job(first["id"])["pfail"]

    def test_event_stream_follows_to_terminal(self, live):
        daemon, client = live
        record = client.submit(SPEC.as_dict())
        kinds = [e["kind"] for e in client.stream_events(record["id"])]
        assert kinds[-1] == "done"

    def test_unknown_job_is_404(self, live):
        daemon, client = live
        with pytest.raises(ServiceError, match=r"\(404\)"):
            client.job("job-424242")

    def test_bad_spec_is_400(self, live):
        daemon, client = live
        with pytest.raises(ServiceError, match=r"\(400\).*unknown spec"):
            client.submit({"warp_factor": 9})

    def test_non_finite_or_fractional_numbers_are_json_400(self, live):
        """NaN and infinite budgets, a NaN target and fractional counts
        get a typed JSON 400, and the daemon keeps answering."""
        daemon, client = live
        bodies = ['{"kind": "naive", "max_simulations": NaN}',
                  '{"kind": "naive", "max_simulations": Infinity}',
                  '{"kind": "naive", "max_simulations": 2.7}',
                  '{"kind": "naive", "target_relative_error": NaN}',
                  '{"kind": "naive", "n_samples": 1.5}',
                  '{"kind": "naive", "seed": 1.5}']
        for body in bodies:
            request = urllib.request.Request(
                client.base_url + "/jobs", data=body.encode(),
                method="POST", headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=5.0)
            assert info.value.code == 400, body
            error = json.loads(info.value.read())["error"]
            assert "finite" in error or "integer" in error, error
        assert client.healthz()["status"] == "ok"
        assert daemon.store.list_jobs() == []

    def test_retired_spec_field_is_400(self, live):
        daemon, client = live
        with pytest.raises(ServiceError,
                           match=r"\(400\).*unknown spec.*array_backend"):
            client.submit({"kind": "naive", "array_backend": "numpy"})

    def test_result_before_done_is_409(self, live, monkeypatch):
        daemon, client = live
        record = daemon.store.create_job(JobSpec(), "fp-never-run", 0.0)
        with pytest.raises(ServiceError, match=r"\(409\).*queued"):
            client.result(record.id)

    def test_unroutable_path_is_404(self, live):
        daemon, client = live
        with pytest.raises(ServiceError, match=r"\(404\)"):
            client._request("GET", "/nope")

    @staticmethod
    def post_headers_only(client, length: str) -> tuple[bytes, dict]:
        """``POST /jobs`` announcing ``length`` body bytes and sending
        none; reads to EOF (a 5 s timeout fails the test if the handler
        waits for the body or keeps the connection open)."""
        url = urlparse(client.base_url)
        with socket.create_connection((url.hostname, url.port),
                                      timeout=5.0) as sock:
            sock.sendall(f"POST /jobs HTTP/1.1\r\n"
                         f"Host: {url.netloc}\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        return head.split()[1], json.loads(body)

    def test_bad_content_length_is_400_and_closes(self, live):
        """A non-integer or negative Content-Length gets a typed JSON 400
        and a closed connection: no dropped socket, no handler blocked
        on an unbounded body read."""
        daemon, client = live
        for length in ("abc", "-1"):
            status, body = self.post_headers_only(client, length)
            assert status == b"400", body
            assert "Content-Length" in body["error"]
        assert client.healthz()["status"] == "ok"

    def test_oversized_body_is_413_and_closes(self, live):
        """A Content-Length over the cap is refused before any read:
        a typed JSON 413 and a closed connection, not a ``MemoryError``
        in ``rfile.read`` or a handler waiting for 1 MiB."""
        daemon, client = live
        for length in (MAX_BODY_BYTES + 1, 10_000_000_000_000):
            status, body = self.post_headers_only(client, str(length))
            assert status == b"413", body
            assert "too large" in body["error"]
        assert client.healthz()["status"] == "ok"

    def test_bad_since_is_400(self, live):
        daemon, client = live
        record = daemon.submit(SPEC.as_dict())
        with pytest.raises(ServiceError, match=r"\(400\).*since"):
            client._request(
                "GET", f"/jobs/{record.id}/events?since=abc")

    def test_requeue_endpoint_revives_dead_job(self, live):
        daemon, client = live
        record = daemon.store.create_job(JobSpec(), "fp-dead", 0.0)
        daemon.store.update(record.id, lambda rec: (
            rec.transition(JobState.RUNNING, 1.0),
            rec.transition(JobState.FAILED, 2.0),
            rec.transition(JobState.DEAD, 2.0)))
        revived = client.requeue(record.id)
        assert revived["state"] == "queued"
        assert revived["attempts"] == 0

    def test_requeue_of_queued_job_is_409(self, live):
        daemon, client = live
        record = daemon.store.create_job(JobSpec(), "fp-q", 0.0)
        with pytest.raises(ServiceError, match=r"\(409\)"):
            client.requeue(record.id)

    def test_healthz_reports_resilience_sections(self, live):
        daemon, client = live
        health = client.healthz()
        assert health["leases"]["lease_s"] == 60.0
        assert health["dead_letter"]["max_attempts"] == 3
        assert health["watchdog"]["interval_s"] == 15.0
        # jobs always run serially; there is no backend to report
        assert "backend" not in health

    def test_draining_503_carries_retry_after(self, live):
        daemon, client = live
        daemon.coordinator.request("drain-test")
        try:
            with pytest.raises(ServiceError, match=r"\(503\)"):
                # attempts=1 surfaces the 503 instead of retrying it
                ServiceClient(daemon.address,
                              retry=RetryPolicy(attempts=1)
                              ).submit(SPEC.as_dict())
            import urllib.error
            request = urllib.request.Request(
                f"{daemon.address}/jobs", data=b"{}", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
        finally:
            daemon.coordinator.reset()


class TestHeartbeat:
    def test_client_timeout_outlasts_the_heartbeat(self):
        # a healthy quiet stream must heartbeat inside the read timeout
        assert client_module.DEFAULT_TIMEOUT_S > server_module.HEARTBEAT_S

    def test_idle_follow_stream_heartbeats_without_moving_the_cursor(
            self, live, monkeypatch):
        monkeypatch.setattr(server_module, "HEARTBEAT_S", 0.3)
        daemon, _ = live
        # a record no worker picks up: its event feed stays quiet
        record = daemon.store.create_job(JobSpec(), "fp-quiet", 0.0)
        url = f"{daemon.address}/jobs/{record.id}/events?follow=1"
        with urllib.request.urlopen(url, timeout=10) as stream:
            assert json.loads(stream.readline())["kind"] == "heartbeat"
            daemon.store.append_event(record.id, "note", 1.0)
            daemon.cancel(record.id)  # terminal: the server ends it
            lines = [json.loads(line) for line in stream]
        events = [e for e in lines if e["kind"] != "heartbeat"]
        # heartbeats are never stored and never advance the cursor, so
        # the stream still delivers every stored event from index 0
        assert events == daemon.store.read_events(record.id)
        assert [e["kind"] for e in events] == ["note", "cancelled"]
