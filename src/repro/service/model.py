"""The job state machine and its durable record.

States::

    queued ------> running ------> done
      ^  |          |  ^  \\-----> failed ----> dead
      |  |          v  |                \\----> queued (retry)
      |  |   checkpointed ------> dead
      |  |          |
      |  +----------+----------> cancelled
      +--- dead (requeue)

``checkpointed`` is the resumable-pause state: a job lands there when
the daemon shuts down gracefully mid-run (snapshot force-saved at a safe
boundary), when a restarted daemon finds a job that was ``running``
when the previous process was killed, or when the watchdog reclaims a
lease-expired job from a hung worker (the snapshot on disk is whatever
the periodic cadence last published).  Either way the scheduler feeds
it back to a worker, which restores the snapshot and continues to a
bit-identical result.

``dead`` is the dead-letter state: a job whose attempt budget is spent
(repeated failures or lease expiries) parks there with its last error
and full attempt history intact, instead of looping through the queue
forever.  An operator may revive it (``dead -> queued`` via the
requeue endpoint); nothing else leaves ``dead``.  ``failed`` likewise
gained exits -- the daemon retries a failed job (``failed -> queued``)
while budget remains, and buries it (``failed -> dead``) once spent.

Transitions are validated centrally in :meth:`JobRecord.transition`;
an illegal edge raises :class:`~repro.errors.ServiceError`, which is
how e.g. "cancel beat the worker to a queued job" is resolved safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ServiceError
from repro.service.spec import JobSpec

#: bumped when the job record layout changes incompatibly.
RECORD_SCHEMA = 1

#: spec keys of stored records that the current :class:`JobSpec` no
#: longer has.  None of them ever entered the fingerprint, so dropping
#: them on load keeps existing jobs (and their cache keys) alive.
_RETIRED_SPEC_FIELDS = frozenset({"array_backend"})


class JobState(str, Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEAD = "dead"


#: legal state-machine edges.
TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.DEAD}),
    JobState.RUNNING: frozenset(
        {JobState.CHECKPOINTED, JobState.DONE, JobState.FAILED,
         JobState.CANCELLED}),
    JobState.CHECKPOINTED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.DEAD}),
    JobState.DONE: frozenset(),
    # retry while the attempt budget lasts; dead-letter once it is spent
    JobState.FAILED: frozenset({JobState.QUEUED, JobState.DEAD}),
    JobState.CANCELLED: frozenset(),
    # operator revival via POST /jobs/<id>/requeue
    JobState.DEAD: frozenset({JobState.QUEUED}),
}

#: states the daemon itself never moves a job out of.  ``failed`` and
#: ``dead`` keep *operator* exits (retry/requeue) in TRANSITIONS, but a
#: job resting in any of these states is finished as far as waiting
#: clients are concerned.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.DEAD})


@dataclass
class JobRecord:
    """Durable facts about one job (mirrors ``job.json`` on disk).

    ``pfail``/``ci_halfwidth``/``n_simulations`` are the completed
    result's headline numbers, denormalised into the record so listing
    jobs does not re-read result files; the full estimate lives in the
    result store keyed by :attr:`fingerprint`.

    ``lease_owner``/``lease_expires_at`` describe the worker currently
    charged with the job: set when a worker starts an attempt, renewed
    at checkpoint boundaries, cleared whenever the job leaves
    ``running``.  A ``running`` record whose lease has expired is the
    watchdog's signal that its worker hung or died.  Additive fields --
    records written before they existed load with both ``None``, so
    the record schema is unchanged.
    """

    id: str
    spec: JobSpec
    fingerprint: str
    state: JobState = JobState.QUEUED
    created_at: float = 0.0
    updated_at: float = 0.0
    attempts: int = 0
    cached: bool = False
    error: str | None = None
    pfail: float | None = None
    ci_halfwidth: float | None = None
    n_simulations: int | None = None
    lease_owner: str | None = None
    lease_expires_at: float | None = None
    history: list[list] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def lease_expired(self, at: float) -> bool:
        """True when a ``running`` job's worker lease has lapsed."""
        return (self.state is JobState.RUNNING
                and self.lease_expires_at is not None
                and at >= self.lease_expires_at)

    def clear_lease(self) -> None:
        """Drop the worker lease (job is leaving ``running``)."""
        self.lease_owner = None
        self.lease_expires_at = None

    def transition(self, to_state: JobState, at: float) -> None:
        """Apply one validated state-machine edge in place."""
        to_state = JobState(to_state)
        if to_state not in TRANSITIONS[self.state]:
            raise ServiceError(
                f"illegal transition {self.state.value} -> "
                f"{to_state.value} for job {self.id}")
        self.state = to_state
        self.updated_at = at
        self.history.append([to_state.value, at])

    # -- wire format ---------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema": RECORD_SCHEMA,
            "id": self.id,
            "spec": self.spec.as_dict(),
            "fingerprint": self.fingerprint,
            "state": self.state.value,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "attempts": self.attempts,
            "cached": self.cached,
            "error": self.error,
            "pfail": self.pfail,
            "ci_halfwidth": self.ci_halfwidth,
            "n_simulations": self.n_simulations,
            "lease_owner": self.lease_owner,
            "lease_expires_at": self.lease_expires_at,
            "history": [list(entry) for entry in self.history],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        schema = data.get("schema")
        if isinstance(schema, int) and schema > RECORD_SCHEMA:
            raise ServiceError(
                f"job record has schema {schema}, newer than this "
                f"build's {RECORD_SCHEMA}; upgrade the repro package")
        if schema != RECORD_SCHEMA:
            raise ServiceError(
                f"unsupported job record schema {schema!r}")
        try:
            spec = data["spec"]
            if isinstance(spec, dict):
                spec = {key: value for key, value in spec.items()
                        if key not in _RETIRED_SPEC_FIELDS}
            return cls(
                id=str(data["id"]),
                spec=JobSpec.from_dict(spec),
                fingerprint=str(data["fingerprint"]),
                state=JobState(data["state"]),
                created_at=float(data["created_at"]),
                updated_at=float(data["updated_at"]),
                attempts=int(data["attempts"]),
                cached=bool(data["cached"]),
                error=data.get("error"),
                pfail=data.get("pfail"),
                ci_halfwidth=data.get("ci_halfwidth"),
                n_simulations=data.get("n_simulations"),
                lease_owner=data.get("lease_owner"),
                lease_expires_at=data.get("lease_expires_at"),
                history=[list(entry) for entry in data.get("history", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"corrupt job record: {exc}") from exc
