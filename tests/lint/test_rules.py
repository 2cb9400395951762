"""Every REP rule: one fixture that fires, one clean variant."""

import pytest

from repro.lint import LintEngine

#: path inside the REP002 scope (core/) so all rules are active.
SCOPED = "src/repro/core/example.py"


def findings_for(source, path=SCOPED, **engine_kw):
    return LintEngine(**engine_kw).check_source(source, path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestRep001GlobalRng:
    def test_fires_on_legacy_numpy_global(self):
        source = (
            "import numpy as np\n"
            "def draw(n):\n"
            "    return np.random.normal(size=n)\n"
        )
        findings = findings_for(source)
        assert rules_of(findings) == ["REP001"]
        assert "np.random.normal" in findings[0].message

    def test_fires_on_unseeded_default_rng(self):
        source = (
            "from numpy.random import default_rng\n"
            "g = default_rng()\n"
        )
        assert rules_of(findings_for(source)) == ["REP001"]

    def test_fires_on_conditionally_unseeded_default_rng(self):
        source = (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(\n"
            "        seed if isinstance(seed, int) else None)\n"
        )
        assert rules_of(findings_for(source)) == ["REP001"]

    def test_fires_on_stdlib_random(self):
        source = (
            "import random\n"
            "x = random.random()\n"
        )
        assert rules_of(findings_for(source)) == ["REP001"]

    def test_clean_generator_argument(self):
        source = (
            "import numpy as np\n"
            "def draw(n, rng: np.random.Generator):\n"
            "    return rng.normal(size=n)\n"
        )
        assert findings_for(source) == []

    def test_clean_seeded_default_rng(self):
        source = (
            "import numpy as np\n"
            "g = np.random.default_rng(1234)\n"
        )
        assert findings_for(source) == []


class TestRep002WallClock:
    def test_fires_on_time_time_in_core(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert rules_of(findings_for(source)) == ["REP002"]

    def test_fires_on_datetime_now_and_uuid4(self):
        source = (
            "import uuid\n"
            "from datetime import datetime\n"
            "def tag():\n"
            "    return f'{datetime.now()}-{uuid.uuid4()}'\n"
        )
        findings = findings_for(source, path="src/repro/rtn/tag.py")
        assert [f.rule for f in findings] == ["REP002", "REP002"]

    def test_clean_perf_counter_telemetry(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        )
        assert findings_for(source) == []

    def test_out_of_scope_path_not_checked(self):
        source = (
            "import time\n"
            "t = time.time()\n"
        )
        path = "src/repro/analysis/persistence.py"
        assert findings_for(source, path=path) == []

    def test_fires_in_checkpoint_package(self):
        source = (
            "import time\n"
            "def written_at():\n"
            "    return time.time()\n"
        )
        path = "src/repro/checkpoint/store.py"
        assert rules_of(findings_for(source, path=path)) == ["REP002"]

    def test_fires_in_health_package(self):
        source = (
            "import time\n"
            "def event_stamp():\n"
            "    return time.time()\n"
        )
        path = "src/repro/health/monitor.py"
        assert rules_of(findings_for(source, path=path)) == ["REP002"]

    def test_fires_in_perf_package(self):
        source = (
            "import time\n"
            "def entry_stamp():\n"
            "    return time.time()\n"
        )
        path = "src/repro/perf/cache.py"
        assert rules_of(findings_for(source, path=path)) == ["REP002"]

    def test_perf_counter_allowed_in_perf_package(self):
        source = (
            "import time\n"
            "def span_start():\n"
            "    return time.perf_counter()\n"
        )
        path = "src/repro/perf/profile.py"
        assert findings_for(source, path=path) == []

    def test_trigger_module_hosts_sanctioned_wall_clock(self):
        source = (
            "import time\n"
            "def wall_clock_time():\n"
            "    return time.time()\n"
        )
        path = "src/repro/checkpoint/trigger.py"
        assert findings_for(source, path=path) == []

    def test_fires_in_service_package(self):
        source = (
            "import time\n"
            "def record_stamp():\n"
            "    return time.time()\n"
        )
        path = "src/repro/service/store.py"
        assert rules_of(findings_for(source, path=path)) == ["REP002"]

    def test_service_scheduler_hosts_sanctioned_wall_clock(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        path = "src/repro/service/scheduler.py"
        assert findings_for(source, path=path) == []

    def test_fires_in_chaos_package(self):
        # the fault plane is deterministic machinery: wall clock there
        # would make fault schedules time-dependent
        source = (
            "import time\n"
            "def fired_at():\n"
            "    return time.time()\n"
        )
        path = "src/repro/chaos/harness.py"
        assert rules_of(findings_for(source, path=path)) == ["REP002"]

    def test_chaos_clock_hosts_sanctioned_wall_clock(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        path = "src/repro/chaos/clock.py"
        assert findings_for(source, path=path) == []


class TestRep003ExecutorPickling:
    def test_fires_on_lambda(self):
        source = "out = ex.map_chunks(lambda c: c + 1, block)\n"
        findings = findings_for(source)
        assert rules_of(findings) == ["REP003"]
        assert "map_chunks" in findings[0].message

    def test_fires_on_locally_defined_function(self):
        source = (
            "def run(ex, tasks):\n"
            "    def helper(x):\n"
            "        return x\n"
            "    return ex.iter_tasks(helper, tasks)\n"
        )
        assert rules_of(findings_for(source)) == ["REP003"]

    def test_fires_on_local_lambda_assignment(self):
        source = (
            "def run(ex, tasks):\n"
            "    helper = lambda x: x\n"
            "    return ex.iter_tasks(helper, tasks)\n"
        )
        assert "REP003" in rules_of(findings_for(source))

    def test_clean_module_level_function(self):
        source = (
            "def helper(x):\n"
            "    return x\n"
            "def run(ex, tasks):\n"
            "    return ex.iter_tasks(helper, tasks)\n"
        )
        assert findings_for(source) == []

    def test_unrelated_lambda_not_flagged(self):
        source = "key = sorted(items, key=lambda i: i.name)\n"
        assert findings_for(source) == []


class TestRep004FloatEquality:
    def test_fires_on_if_comparison(self):
        source = (
            "def f(x):\n"
            "    if x == 1.0:\n"
            "        return 0\n"
        )
        findings = findings_for(source)
        assert rules_of(findings) == ["REP004"]
        assert "allow-float-eq" in findings[0].message

    def test_fires_on_not_equal(self):
        source = "flag = value != 0.5\n"
        assert rules_of(findings_for(source)) == ["REP004"]

    def test_clean_isclose(self):
        source = (
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.isclose(x, 1.0)\n"
        )
        assert findings_for(source) == []

    def test_assert_statements_exempt(self):
        """Exact-value assertions ARE the reproducibility check."""
        source = "assert result == 0.25\n"
        assert findings_for(source) == []

    def test_int_literal_not_flagged(self):
        source = (
            "def f(n):\n"
            "    if n == 3:\n"
            "        return 0\n"
        )
        assert findings_for(source) == []


class TestRep005MutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict()", "[x for x in y]"])
    def test_fires(self, default):
        source = f"def f(a, b={default}):\n    return b\n"
        assert rules_of(findings_for(source)) == ["REP005"]

    def test_fires_on_keyword_only_default(self):
        source = "def f(*, cache=[]):\n    return cache\n"
        assert rules_of(findings_for(source)) == ["REP005"]

    def test_clean_none_default(self):
        source = (
            "def f(a, b=None):\n"
            "    return [] if b is None else b\n"
        )
        assert findings_for(source) == []

    def test_clean_tuple_default(self):
        source = "def f(a, b=(1, 2)):\n    return b\n"
        assert findings_for(source) == []


class TestRep006BroadExcept:
    def test_fires_on_except_exception(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert rules_of(findings_for(source)) == ["REP006"]

    def test_fires_on_bare_except(self):
        source = (
            "try:\n"
            "    work()\n"
            "except:\n"
            "    pass\n"
        )
        assert rules_of(findings_for(source)) == ["REP006"]

    def test_clean_narrow_handler(self):
        source = (
            "try:\n"
            "    work()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        assert findings_for(source) == []

    def test_runtime_retry_layer_exempt(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n"
        )
        path = "src/repro/runtime/executor.py"
        assert findings_for(source, path=path) == []


class TestRuleSelection:
    SOURCE = (
        "import random\n"
        "def f(a=[]):\n"
        "    return random.random()\n"
    )

    def test_select_restricts_rules(self):
        findings = findings_for(self.SOURCE, select=["REP005"])
        assert rules_of(findings) == ["REP005"]

    def test_ignore_drops_rules(self):
        findings = findings_for(self.SOURCE, ignore=["global-rng"])
        assert rules_of(findings) == ["REP005"]
