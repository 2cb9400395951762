"""Durable job store: records, events, cancellation, results, recovery."""

import json

import pytest

from repro.core.estimate import FailureEstimate
from repro.errors import ServiceError
from repro.service.model import JobState
from repro.service.spec import JobSpec


#: ``job.json`` of a running default-spec job, byte for byte as the
#: release before the array_backend removal stored it.
PREVIOUS_FORMAT_RECORD = json.dumps({
    "attempts": 0, "cached": False, "ci_halfwidth": None,
    "created_at": 1.0, "error": None, "fingerprint": "72c5144e85ba1205",
    "history": [["queued", 1.0], ["running", 2.0]], "id": "job-000001",
    "lease_expires_at": None, "lease_owner": None, "n_simulations": None,
    "pfail": None, "schema": 1,
    "spec": {"alpha": None, "array": None, "array_backend": "numpy",
             "checkpoint_every": 1000, "grid_points": 61,
             "health_policy": "strict", "kind": "estimate",
             "max_attempts": None, "max_simulations": None,
             "n_samples": 100000, "pfail": None, "priority": 0,
             "quick": False, "schema": 1, "seed": 2015,
             "target_relative_error": 0.05, "vdd": None},
    "state": "running", "updated_at": 2.0}, indent=1, sort_keys=True) + "\n"


def estimate(pfail=1e-4) -> FailureEstimate:
    return FailureEstimate(pfail=pfail, ci_halfwidth=1e-5,
                           n_simulations=1000,
                           n_statistical_samples=1000, method="test")


class TestRecords:
    def test_create_allocates_sequential_ids(self, store):
        first = store.create_job(JobSpec(), "fp1", at=1.0)
        second = store.create_job(JobSpec(), "fp2", at=2.0)
        assert first.id == "job-000001"
        assert second.id == "job-000002"

    def test_create_then_load_roundtrips(self, store):
        created = store.create_job(JobSpec(seed=7), "fp", at=1.5)
        loaded = store.load(created.id)
        assert loaded == created
        assert loaded.state is JobState.QUEUED
        assert loaded.history == [["queued", 1.5]]

    def test_unknown_job_raises(self, store):
        with pytest.raises(ServiceError, match="unknown job"):
            store.load("job-999999")

    @pytest.mark.parametrize("bad", ["", "../evil", ".hidden", "a/b"])
    def test_path_traversal_ids_rejected(self, store, bad):
        with pytest.raises(ServiceError, match="invalid job id"):
            store.load(bad)

    def test_update_persists_mutation(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        store.update(record.id,
                     lambda rec: rec.transition(JobState.RUNNING, 2.0))
        assert store.load(record.id).state is JobState.RUNNING

    def test_corrupt_record_raises(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        (store.job_dir(record.id) / "job.json").write_text("{not json")
        with pytest.raises(ServiceError, match="corrupt"):
            store.load(record.id)

    def test_list_jobs_skips_corrupt(self, store):
        store.create_job(JobSpec(), "fp1", at=1.0)
        bad = store.create_job(JobSpec(), "fp2", at=2.0)
        (store.job_dir(bad.id) / "job.json").write_text("{not json")
        assert [r.id for r in store.list_jobs()] == ["job-000001"]

    def test_find_by_fingerprint_returns_newest(self, store):
        store.create_job(JobSpec(), "shared", at=1.0)
        newer = store.create_job(JobSpec(), "shared", at=2.0)
        store.create_job(JobSpec(), "other", at=3.0)
        assert store.find_by_fingerprint("shared").id == newer.id
        assert store.find_by_fingerprint("absent") is None


class TestEvents:
    def test_append_and_read(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        store.append_event(record.id, "queued", 1.0, priority=0)
        store.append_event(record.id, "started", 2.0, attempt=1)
        events = store.read_events(record.id)
        assert [e["kind"] for e in events] == ["queued", "started"]
        assert events[1]["attempt"] == 1

    def test_since_cursor(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        for i in range(5):
            store.append_event(record.id, f"e{i}", float(i))
        assert [e["kind"] for e in store.read_events(record.id, since=3)] \
            == ["e3", "e4"]

    def test_no_feed_reads_empty(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        assert store.read_events(record.id) == []

    def test_torn_tail_dropped(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        store.append_event(record.id, "ok", 1.0)
        path = store.job_dir(record.id) / "events.jsonl"
        with path.open("a") as handle:
            handle.write('{"kind": "torn", "at"')  # crash mid-write
        assert [e["kind"] for e in store.read_events(record.id)] == ["ok"]


class TestCancellation:
    def test_flag_roundtrip(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        assert not store.cancel_requested(record.id)
        store.request_cancel(record.id)
        assert store.cancel_requested(record.id)

    def test_flag_is_idempotent(self, store):
        record = store.create_job(JobSpec(), "fp", at=1.0)
        store.request_cancel(record.id)
        store.request_cancel(record.id)
        assert store.cancel_requested(record.id)


class TestResultCache:
    def test_store_then_load(self, store):
        store.store_result("fp" * 8, estimate(pfail=3e-4))
        loaded = store.load_result("fp" * 8)
        assert loaded.pfail == 3e-4

    def test_miss_returns_none(self, store):
        assert store.load_result("absent") is None

    def test_overwrite_is_allowed(self, store):
        # bit-identical by the determinism guarantee; second publish
        # must not raise
        store.store_result("fp", estimate())
        store.store_result("fp", estimate())

    def test_corrupt_result_raises(self, store):
        path = store.store_result("fp", estimate())
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ServiceError, match="corrupt cached result"):
            store.load_result("fp")


class TestRecovery:
    def _job_in_state(self, store, state: JobState, at=1.0):
        record = store.create_job(JobSpec(), f"fp-{state.value}", at=at)
        if state is not JobState.QUEUED:
            store.update(record.id,
                         lambda rec: rec.transition(JobState.RUNNING, at))
        if state not in (JobState.QUEUED, JobState.RUNNING):
            store.update(record.id,
                         lambda rec: rec.transition(state, at))
        return record.id

    def test_running_jobs_move_to_checkpointed(self, store):
        job_id = self._job_in_state(store, JobState.RUNNING)
        requeue = store.recover(at=9.0)
        assert requeue == [job_id]
        recovered = store.load(job_id)
        assert recovered.state is JobState.CHECKPOINTED
        assert recovered.updated_at == 9.0
        kinds = [e["kind"] for e in store.read_events(job_id)]
        assert "recovered" in kinds

    def test_queued_and_checkpointed_requeued(self, store):
        queued = self._job_in_state(store, JobState.QUEUED)
        checkpointed = self._job_in_state(store, JobState.CHECKPOINTED)
        assert store.recover(at=9.0) == [queued, checkpointed]

    def test_record_in_the_previous_format_recovers(self, store):
        # a running job as the previous release wrote it: its spec
        # still carries the since-removed array_backend key
        job_dir = store.jobs_dir / "job-000001"
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(PREVIOUS_FORMAT_RECORD)
        [record] = store.list_jobs()
        assert record.state is JobState.RUNNING
        assert store.recover(at=9.0) == ["job-000001"]
        recovered = store.load("job-000001")
        assert recovered.state is JobState.CHECKPOINTED
        assert recovered.spec == JobSpec()
        assert recovered.fingerprint == "72c5144e85ba1205"
        assert recovered.spec.fingerprint() == recovered.fingerprint

    def test_terminal_jobs_untouched(self, store):
        for state in (JobState.DONE, JobState.FAILED,
                      JobState.CANCELLED):
            job_id = self._job_in_state(store, state)
            assert store.recover(at=9.0) == []
            assert store.load(job_id).state is state
