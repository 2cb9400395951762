"""Job state machine and durable record."""

import pytest

from repro.errors import ServiceError
from repro.service.model import (
    RECORD_SCHEMA,
    TERMINAL_STATES,
    TRANSITIONS,
    JobRecord,
    JobState,
)
from repro.service.spec import JobSpec


def make_record(**changes) -> JobRecord:
    defaults = dict(id="job-000001", spec=JobSpec(), fingerprint="ab" * 8)
    defaults.update(changes)
    return JobRecord(**defaults)


class TestStateMachine:
    def test_fresh_record_is_queued(self):
        assert make_record().state is JobState.QUEUED

    @pytest.mark.parametrize("path", [
        [JobState.RUNNING, JobState.DONE],
        [JobState.RUNNING, JobState.FAILED],
        [JobState.RUNNING, JobState.CANCELLED],
        [JobState.CANCELLED],
        [JobState.RUNNING, JobState.CHECKPOINTED, JobState.RUNNING,
         JobState.DONE],
        [JobState.RUNNING, JobState.CHECKPOINTED, JobState.CANCELLED],
        # retry: failure re-queues while attempt budget remains
        [JobState.RUNNING, JobState.FAILED, JobState.QUEUED,
         JobState.RUNNING, JobState.DONE],
        # dead-letter: budget spent, then an operator requeue revives
        [JobState.RUNNING, JobState.FAILED, JobState.DEAD,
         JobState.QUEUED, JobState.RUNNING, JobState.DONE],
        # watchdog: lease expiry parks the job, burial once spent
        [JobState.RUNNING, JobState.CHECKPOINTED, JobState.DEAD],
    ])
    def test_legal_paths(self, path):
        record = make_record()
        for i, state in enumerate(path):
            record.transition(state, at=float(i))
        assert record.state is path[-1]
        assert [entry[0] for entry in record.history] \
            == [s.value for s in path]

    @pytest.mark.parametrize("start, to", [
        (JobState.QUEUED, JobState.DONE),
        (JobState.QUEUED, JobState.CHECKPOINTED),
        (JobState.DONE, JobState.RUNNING),
        (JobState.FAILED, JobState.RUNNING),
        (JobState.CANCELLED, JobState.RUNNING),
        (JobState.CHECKPOINTED, JobState.DONE),
        (JobState.DEAD, JobState.RUNNING),
        (JobState.DEAD, JobState.DEAD),
        (JobState.DONE, JobState.DEAD),
        (JobState.CANCELLED, JobState.QUEUED),
        (JobState.RUNNING, JobState.DEAD),
    ])
    def test_illegal_edges_raise(self, start, to):
        record = make_record(state=start)
        with pytest.raises(ServiceError, match="illegal transition"):
            record.transition(to, at=1.0)

    def test_terminal_states_daemon_never_advances(self):
        # ``done`` and ``cancelled`` have no exits at all; ``failed``
        # and ``dead`` keep only the operator/daemon *revival* edges
        # (retry and requeue) -- never a direct path back to running.
        for state in (JobState.DONE, JobState.CANCELLED):
            assert not TRANSITIONS[state]
        for state in (JobState.FAILED, JobState.DEAD):
            assert state in TERMINAL_STATES
            assert TRANSITIONS[state] <= {JobState.QUEUED,
                                          JobState.DEAD}

    def test_terminal_property(self):
        assert not make_record().terminal
        assert make_record(state=JobState.DONE).terminal

    def test_transition_stamps_updated_at(self):
        record = make_record()
        record.transition(JobState.RUNNING, at=42.5)
        assert record.updated_at == 42.5


class TestWireFormat:
    def test_roundtrip(self):
        record = make_record(created_at=1.0, updated_at=2.0, attempts=2,
                             pfail=1e-4, ci_halfwidth=1e-5,
                             n_simulations=1234,
                             history=[["queued", 1.0], ["running", 2.0]])
        restored = JobRecord.from_dict(record.as_dict())
        assert restored == record

    def test_schema_tagged(self):
        assert make_record().as_dict()["schema"] == RECORD_SCHEMA

    def test_newer_schema_rejected_distinctly(self):
        data = make_record().as_dict()
        data["schema"] = RECORD_SCHEMA + 1
        with pytest.raises(ServiceError, match="newer"):
            JobRecord.from_dict(data)

    def test_corrupt_record_rejected(self):
        data = make_record().as_dict()
        del data["fingerprint"]
        with pytest.raises(ServiceError, match="corrupt job record"):
            JobRecord.from_dict(data)

    def test_unknown_state_rejected(self):
        data = make_record().as_dict()
        data["state"] = "paused"
        with pytest.raises(ServiceError, match="corrupt job record"):
            JobRecord.from_dict(data)

    def test_retired_spec_field_dropped_on_load(self):
        # records stored before the array_backend knob was removed
        # carry it in their spec; it never entered the fingerprint
        data = make_record().as_dict()
        data["spec"]["array_backend"] = "numpy"
        assert JobRecord.from_dict(data) == make_record()
