"""Declarative lint configuration: scopes and cross-module contracts.

PRs 2-6 accreted per-rule hardcoded path lists inside the rule classes
(REP002's ever-growing directory enumeration being the worst offender).
This module replaces them with one declarative table -- every rule's
scope lives here, so "which rule runs where, and why" is answered in
one place -- plus the data-side of the three project-aware rules:

* which constructors count as locks / thread-safe primitives (REP007);
* which method names mutate their receiver (REP007/REP008 write sets);
* the snapshot/restore naming convention and escape hatch (REP008);
* the fingerprint classification contracts (REP009): for every
  dataclass feeding a result fingerprint, each field is declared
  identity-bearing or excluded, so an unclassified new field is a lint
  failure the moment it is added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------
# Rule scopes (fnmatch globs over POSIX paths).
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class RuleScope:
    """Where one rule applies (include/exclude fnmatch globs)."""

    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()


#: single source of truth for rule scoping.  A rule with no entry runs
#: everywhere.  Entries carry the rationale that used to live as
#: comments on the rule classes.
RULE_SCOPES: dict[str, RuleScope] = {
    # Deterministic code only: estimator outputs must be pure functions
    # of (inputs, seed).  repro/perf is in scope with the same
    # perf_counter-only carve-out: its profiling spans are telemetry,
    # but a time.time() there could leak wall-clock state into cached
    # results.  trigger.py, service/scheduler.py and chaos/clock.py
    # host the three sanctioned wall-clock seams (manifest timestamps /
    # job-record timestamps / fault-harness telemetry; none ever feeds
    # an estimate).
    "REP002": RuleScope(
        include=("*repro/core/*", "*repro/runtime/*", "*repro/rtn/*",
                 "*repro/ml/*", "*repro/checkpoint/*", "*repro/health/*",
                 "*repro/perf/*", "*repro/service/*",
                 "*repro/chaos/*"),
        exclude=("*repro/checkpoint/trigger.py",
                 "*repro/service/scheduler.py",
                 "*repro/chaos/clock.py")),
    # The runtime's fallback layer must catch everything: any chunk
    # failure on the pool is demoted to the serial fallback.
    "REP006": RuleScope(exclude=("*repro/runtime/executor.py",)),
    # Lock discipline matters where worker threads, scheduler callbacks
    # and HTTP handlers share state; a registered perf cache is shared
    # by the daemon's worker threads the same way.
    "REP007": RuleScope(
        include=("*repro/service/*", "*repro/runtime/*",
                 "*repro/perf/*", "*repro/checkpoint/*")),
    # Snapshot completeness applies to every checkpointable class in
    # the library tree; test doubles are free to be partial.
    "REP008": RuleScope(include=("*repro/*",), exclude=("*tests/*",)),
    "REP009": RuleScope(include=("*repro/*",), exclude=("*tests/*",)),
}


def scope_for(rule_id: str) -> RuleScope | None:
    """The declarative scope of ``rule_id``, or ``None`` (run anywhere)."""
    return RULE_SCOPES.get(rule_id)


# ---------------------------------------------------------------------
# REP007 lock discipline.
# ---------------------------------------------------------------------

#: constructors whose result is a mutual-exclusion object: an attribute
#: initialised from one of these is the class's lock, and ``with
#: self.<attr>:`` blocks define its critical sections.
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
})

#: constructors whose result is itself thread-safe: attributes holding
#: one are synchronisation primitives, not lock-guarded state, so
#: unlocked access to them is fine by design.
THREADSAFE_FACTORIES = frozenset({
    "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
})

#: method names that mutate their receiver (``self.attr.append(x)``
#: counts as a write to ``attr``).  Deliberately conservative: only
#: unambiguous container mutators; domain verbs stay reads.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popitem", "popleft", "clear", "update", "setdefault", "add",
    "discard", "move_to_end", "sort", "reverse",
})


# ---------------------------------------------------------------------
# REP008 snapshot completeness.
# ---------------------------------------------------------------------

#: method names recognised as "produce the encode_state payload", in
#: preference order (estimators use ``state_snapshot``, sub-state
#: carriers use ``state``).
SNAPSHOT_METHODS = ("state_snapshot", "state")

#: the restore half of the checkpoint pair.
RESTORE_METHOD = "restore_state"

#: class-level allowlist constant: attributes named here are mutable
#: state that deliberately does not ride snapshots (derived values
#: rebuilt on restore).  Each entry is an attribute name string.
SNAPSHOT_EXCLUDED_CONST = "_SNAPSHOT_EXCLUDED"


# ---------------------------------------------------------------------
# REP009 fingerprint drift.
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FingerprintContract:
    """Field classification of one dataclass feeding a fingerprint.

    Attributes
    ----------
    cls:
        Canonical dotted path of the dataclass.
    identity:
        Fields that determine the result: a change must change the
        fingerprint (the discrimination half of
        ``tests/service/test_fingerprints.py``).
    excluded:
        Fields that provably cannot change the result (scheduling
        hints, execution backend, solve-cache directory);
        they must stay out of the fingerprint (the invariance half).
    exclusion_constant:
        Name of an in-module constant (set/frozenset of field-name
        strings) implementing the exclusion at runtime; when given, its
        literal value must equal ``excluded`` -- code and contract
        cannot drift apart silently.
    """

    cls: str
    identity: frozenset[str] = frozenset()
    excluded: frozenset[str] = frozenset()
    exclusion_constant: str | None = None

    @property
    def module(self) -> str:
        return self.cls.rpartition(".")[0]

    @property
    def class_name(self) -> str:
        return self.cls.rpartition(".")[2]


#: every dataclass whose fields feed ``fingerprint()`` /
#: ``solve_fingerprint()`` -- adding a field to one of these without
#: classifying it here is a REP009 failure.
FINGERPRINT_CONTRACTS: tuple[FingerprintContract, ...] = (
    # The service job spec: result_fields() == all fields minus the
    # scheduling hints (see repro/service/spec.py _NONRESULT_FIELDS).
    FingerprintContract(
        cls="repro.service.spec.JobSpec",
        identity=frozenset({
            "kind", "vdd", "alpha", "seed", "target_relative_error",
            "max_simulations", "n_samples", "quick", "grid_points",
            "health_policy", "pfail", "array",
        }),
        excluded=frozenset({"priority", "checkpoint_every",
                            "max_attempts"}),
        exclusion_constant="_NONRESULT_FIELDS"),
    # Resilience knobs (fault schedules, leases, attempt budgets) may
    # change how often a job runs, never what it computes: a job
    # retried under a different lease must still hit the result cache,
    # so every field is excluded and the constant pins the set.
    FingerprintContract(
        cls="repro.chaos.config.ChaosConfig",
        excluded=frozenset({"inject_fs", "lease_s", "max_attempts"}),
        exclusion_constant="_RESILIENCE_FIELDS"),
    # The array-reliability question: every field changes the decision
    # tables, so everything is identity (result_fields() embeds the
    # whole nested config).
    FingerprintContract(
        cls="repro.analysis.ecc.ArrayConfig",
        identity=frozenset({
            "capacity_mbit", "data_bits", "node", "environment",
            "fit_target", "scrub_hours", "schemes",
        })),
    # The estimator config is hashed wholesale into the checkpoint
    # fingerprint after neutralising the execution backend
    # (EcripseEstimator.fingerprint does with_(execution=...)).
    FingerprintContract(
        cls="repro.core.ecripse.EcripseConfig",
        identity=frozenset({
            "n_filters", "n_particles", "n_iterations", "kernel_sigma",
            "m_rtn", "k_train", "n_boundary_directions",
            "boundary_r_max", "n_bisections", "stage2_batch",
            "m_rtn_stage2", "max_statistical_samples",
            "min_stage2_batches", "defensive_fraction", "is_sigma_scale",
            "use_classifier", "classifier_degree", "classifier_c",
            "band_quantile", "retrain_trigger", "health",
        }),
        excluded=frozenset({"execution"})),
    # The health config enters the estimator fingerprint through a
    # pinned stand-in (EcripseEstimator.fingerprint) that fills in only
    # these fields; a new field must be classified here and, if
    # identity, given a slot there.
    FingerprintContract(
        cls="repro.health.policy.HealthConfig",
        identity=frozenset({"policy", "inject"})),
    # The execution config never reaches a fingerprint (backend
    # invariance is the PR 1 guarantee); every field is excluded.
    FingerprintContract(
        cls="repro.runtime.config.ExecutionConfig",
        excluded=frozenset({"backend", "workers"})),
    # The solve-cache directory is result-neutral: a hit returns the
    # floats a fresh solve would.  A field someone believes belongs in
    # `identity` here is a design alarm, not a lint tweak.
    FingerprintContract(
        cls="repro.perf.config.PerfConfig",
        excluded=frozenset({"cache_path"})),
)


@dataclass(frozen=True)
class ProjectConfig:
    """Everything the project-aware rules consult, bundled so tests can
    substitute fixture-specific contracts without monkeypatching."""

    lock_factories: frozenset[str] = LOCK_FACTORIES
    threadsafe_factories: frozenset[str] = THREADSAFE_FACTORIES
    mutator_methods: frozenset[str] = MUTATOR_METHODS
    snapshot_methods: tuple[str, ...] = SNAPSHOT_METHODS
    restore_method: str = RESTORE_METHOD
    snapshot_excluded_const: str = SNAPSHOT_EXCLUDED_CONST
    fingerprint_contracts: tuple[FingerprintContract, ...] = field(
        default=FINGERPRINT_CONTRACTS)


DEFAULT_PROJECT_CONFIG = ProjectConfig()
