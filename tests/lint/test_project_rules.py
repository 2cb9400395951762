"""The check pass: REP007/REP008/REP009 trip-proof and real-tree demos.

Each rule has a *bad* fixture it must fire on and a *clean* twin it
must stay silent on; the real-tree tests then prove the acceptance
criteria -- deleting a snapshotted key from the live
``EcripseEstimator.state_snapshot`` payload, or adding an unclassified
``JobSpec`` field, makes lint fail.
"""

import re
import textwrap
from pathlib import Path

from repro.lint.config import (DEFAULT_PROJECT_CONFIG,
                               FingerprintContract, ProjectConfig)
from repro.lint.engine import LintEngine, discover
from repro.lint.project import ProjectModel
from repro.lint.project_rules import (FingerprintDriftRule,
                                      LockDisciplineRule,
                                      SnapshotCompletenessRule)

SRC = Path(__file__).resolve().parents[2] / "src"


def model_of(source, path="src/repro/service/fixture.py",
             config=None):
    model = ProjectModel(config or ProjectConfig())
    model.add_module(path, textwrap.dedent(source))
    return model


def real_tree_model(replace=None, config=None):
    """Model over the real ``src`` tree, optionally with one file's
    source text rewritten (``replace={suffix: (old, new)}``)."""
    model = ProjectModel(config or DEFAULT_PROJECT_CONFIG)
    for file in discover([str(SRC)]):
        text = file.read_text(encoding="utf-8")
        for suffix, (old, new) in (replace or {}).items():
            if file.as_posix().endswith(suffix):
                assert old in text, f"fixture drift: {old!r} not found"
                text = text.replace(old, new)
        model.add_module(file.as_posix(), text)
    return model


class TestLockDiscipline:
    BAD = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = {}

            def add(self, key, job):
                with self._lock:
                    self._jobs[key] = job

            def peek(self, key):
                return self._jobs.get(key)
    """

    CLEAN = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = {}

            def add(self, key, job):
                with self._lock:
                    self._jobs[key] = job

            def peek(self, key):
                with self._lock:
                    return self._jobs.get(key)
    """

    def findings(self, source):
        return list(LockDisciplineRule().check_project(model_of(source)))

    def test_fires_on_unlocked_read(self):
        (finding,) = self.findings(self.BAD)
        assert finding.rule == "REP007"
        assert "_jobs" in finding.message
        assert "peek" in finding.message
        assert finding.related  # lock definition + declaring write

    def test_silent_on_clean_twin(self):
        assert self.findings(self.CLEAN) == []

    def test_private_helper_called_under_lock_inherits_context(self):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}

                def add(self, key, job):
                    with self._lock:
                        self._jobs[key] = job
                        self._evict()

                def _evict(self):
                    self._jobs.popitem()
        """
        assert self.findings(source) == []

    def test_threadsafe_primitives_exempt(self):
        source = """
            import threading

            class Flag:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._event = threading.Event()
                    self._state = None

                def trip(self):
                    with self._lock:
                        self._state = "set"
                        self._event.set()

                def is_set(self):
                    return self._event.is_set()
        """
        assert self.findings(source) == []

    def test_out_of_scope_path_ignored(self):
        model = model_of(self.BAD, path="src/repro/core/fixture.py")
        assert list(LockDisciplineRule().check_project(model)) == []

    def test_pragma_suppresses_via_engine(self, tmp_path):
        source = textwrap.dedent(self.BAD).replace(
            "return self._jobs.get(key)",
            "return self._jobs.get(key)  # repro: allow-unlocked")
        engine = LintEngine(select=["REP007"])
        findings = engine.check_source(
            source, "src/repro/service/fixture.py")
        assert findings == []


class TestSnapshotCompleteness:
    BAD = """
        class Estimator:
            def __init__(self):
                self._count = 0
                self._extra = 0.0

            def step(self):
                self._count += 1
                self._extra += 0.5

            def state_snapshot(self):
                return {"count": self._count}

            def restore_state(self, state):
                self._count = state["count"]
    """

    CLEAN = BAD.replace(
        'return {"count": self._count}',
        'return {"count": self._count, "extra": self._extra}')

    EXCUSED = BAD.replace(
        "class Estimator:",
        "class Estimator:\n"
        "            _SNAPSHOT_EXCLUDED = (\"_extra\",)")

    def findings(self, source):
        rule = SnapshotCompletenessRule()
        return list(rule.check_project(
            model_of(source, path="src/repro/core/fixture.py")))

    def test_fires_on_unsnapshotted_mutable_attr(self):
        (finding,) = self.findings(self.BAD)
        assert finding.rule == "REP008"
        assert "_extra" in finding.message

    def test_silent_when_attr_rides_payload(self):
        assert self.findings(self.CLEAN) == []

    def test_snapshot_excluded_allowlist(self):
        assert self.findings(self.EXCUSED) == []

    def test_stale_exclusion_flagged(self):
        source = self.CLEAN.replace(
            "class Estimator:",
            "class Estimator:\n"
            "            _SNAPSHOT_EXCLUDED = (\"_extra\",)")
        (finding,) = self.findings(source)
        assert "stale" in finding.message

    def test_non_checkpointable_class_ignored(self):
        source = """
            class Plain:
                def __init__(self):
                    self.x = 0

                def step(self):
                    self.x += 1
        """
        assert self.findings(source) == []


class TestFingerprintDrift:
    CONTRACT = FingerprintContract(
        cls="repro.service.fixture.Spec",
        identity=frozenset({"kind", "seed"}),
        excluded=frozenset({"priority"}),
        exclusion_constant="_EXCLUDED")

    SOURCE = """
        from dataclasses import dataclass

        _EXCLUDED = frozenset({"priority"})

        @dataclass(frozen=True)
        class Spec:
            kind: str = "x"
            seed: int = 0
            priority: int = 5
    """

    def findings(self, source, contract=None):
        config = ProjectConfig(
            fingerprint_contracts=(contract or self.CONTRACT,))
        model = model_of(source, config=config)
        return list(FingerprintDriftRule().check_project(model))

    def test_silent_when_contract_matches(self):
        assert self.findings(self.SOURCE) == []

    def test_fires_on_unclassified_field(self):
        source = self.SOURCE.replace(
            "priority: int = 5",
            "priority: int = 5\n            new_knob: float = 0.0")
        (finding,) = self.findings(source)
        assert finding.rule == "REP009"
        assert "new_knob" in finding.message

    def test_fires_on_stale_contract_field(self):
        source = self.SOURCE.replace(
            "            seed: int = 0\n", "")
        (finding,) = self.findings(source)
        assert "seed" in finding.message
        assert "no longer exists" in finding.message

    def test_fires_when_exclusion_constant_drifts(self):
        source = self.SOURCE.replace(
            '_EXCLUDED = frozenset({"priority"})',
            '_EXCLUDED = frozenset({"priority", "seed"})')
        (finding,) = self.findings(source)
        assert "_EXCLUDED" in finding.message
        assert "seed" in finding.message

    def test_fires_when_exclusion_constant_missing(self):
        source = self.SOURCE.replace(
            '_EXCLUDED = frozenset({"priority"})\n', "")
        (finding,) = self.findings(source)
        assert "not found" in finding.message

    def test_absent_class_skipped(self):
        contract = FingerprintContract(cls="repro.nowhere.Ghost",
                                       identity=frozenset({"x"}))
        assert self.findings(self.SOURCE, contract=contract) == []


class TestRealTree:
    """Acceptance criteria against the live source tree."""

    def test_real_tree_is_clean(self):
        model = real_tree_model()
        for rule_cls in (LockDisciplineRule, SnapshotCompletenessRule,
                         FingerprintDriftRule):
            assert list(rule_cls().check_project(model)) == [], \
                rule_cls.__name__

    def test_deleting_snapshotted_attr_fails_lint(self):
        model = real_tree_model(replace={
            "core/ecripse.py": ('"blockade": self.blockade.state(),',
                                "")})
        findings = list(SnapshotCompletenessRule().check_project(model))
        assert any("blockade" in f.message for f in findings)

    def test_adding_unclassified_jobspec_field_fails_lint(self):
        spec = (SRC / "repro/service/spec.py").read_text()
        anchor = re.search(r"\n    priority: int = .*\n", spec).group(0)
        model = real_tree_model(replace={
            "service/spec.py": (anchor,
                                anchor + "    sneaky: float = 0.0\n")})
        findings = list(FingerprintDriftRule().check_project(model))
        assert any("sneaky" in f.message for f in findings)

    def test_adding_unclassified_healthconfig_field_fails_lint(self):
        anchor = "    inject: str | None = None\n"
        assert anchor in (SRC / "repro/health/policy.py").read_text()
        model = real_tree_model(replace={
            "health/policy.py": (anchor,
                                 anchor + "    sneaky: float = 0.0\n")})
        (finding,) = FingerprintDriftRule().check_project(model)
        assert "HealthConfig.sneaky" in finding.message

    def test_unlocking_a_guarded_read_fails_lint(self):
        cache = (SRC / "repro/perf/cache.py").read_text()
        assert "with self._lock:\n            total = self.hits" in cache
        model = real_tree_model(replace={
            "perf/cache.py": (
                "with self._lock:\n"
                "            total = self.hits + self.misses\n"
                "            return self.hits / total if total else 0.0",
                "total = self.hits + self.misses\n"
                "        return self.hits / total if total else 0.0")})
        findings = list(LockDisciplineRule().check_project(model))
        assert any("hits" in f.message for f in findings)
