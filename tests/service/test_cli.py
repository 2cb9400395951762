"""The service CLI surface added for resilience operations."""

import json

import pytest

from repro.service import cli


class TestParser:
    def test_serve_resilience_flags(self):
        args = cli._build_parser().parse_args(
            ["serve", "--root", "state", "--lease", "30",
             "--watchdog-interval", "5", "--max-attempts", "2",
             "--inject-fs", "rename:3:fail"])
        assert args.lease_s == 30.0
        assert args.watchdog_interval == 5.0
        assert args.max_attempts == 2
        assert args.inject_fs == "rename:3:fail"

    def test_serve_defaults(self):
        args = cli._build_parser().parse_args(
            ["serve", "--root", "state"])
        assert args.lease_s == 60.0
        assert args.watchdog_interval is None
        assert args.max_attempts == 3
        assert args.inject_fs is None

    def test_submit_max_attempts_reaches_the_spec(self):
        args = cli._build_parser().parse_args(
            ["submit", "--kind", "naive", "--max-attempts", "2"])
        assert cli._spec_from_args(args)["max_attempts"] == 2

    def test_submit_without_max_attempts_omits_it(self):
        args = cli._build_parser().parse_args(
            ["submit", "--kind", "naive"])
        assert "max_attempts" not in cli._spec_from_args(args)

    def test_requeue_is_exclusive_with_cancel(self, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(
                ["job", "job-000001", "--cancel", "--requeue"])


class TestJobsTable:
    RECORDS = [
        {"id": "job-000001", "state": "done", "attempts": 1,
         "pfail": 1.25e-07, "error": None},
        {"id": "job-000002", "state": "dead", "attempts": 3,
         "pfail": None, "error": "RuntimeError: " + "x" * 60},
    ]

    def test_columns_and_alignment(self):
        lines = cli._jobs_table(self.RECORDS).splitlines()
        assert lines[0].split() == ["ID", "STATE", "ATTEMPTS",
                                    "PFAIL", "ERROR"]
        assert lines[1].startswith("job-000001  done   1")
        assert "1.250e-07" in lines[1]
        assert lines[2].split()[1:3] == ["dead", "3"]

    def test_long_errors_truncated(self):
        [_, _, dead] = cli._jobs_table(self.RECORDS).splitlines()
        assert dead.endswith("...")
        assert len(dead.split("  ")[-1]) == 40


class FakeClient:
    def __init__(self, base_url):
        self.base_url = base_url
        self.calls = []

    def jobs(self):
        self.calls.append("jobs")
        return TestJobsTable.RECORDS

    def requeue(self, job_id):
        self.calls.append(("requeue", job_id))
        return {"id": job_id, "state": "queued", "attempts": 0}


@pytest.fixture()
def fake_client(monkeypatch):
    created = []

    def factory(base_url):
        client = FakeClient(base_url)
        created.append(client)
        return client

    monkeypatch.setattr(cli, "ServiceClient", factory)
    return created


class TestMainDispatch:
    def test_jobs_table_flag_renders_table(self, fake_client, capsys):
        assert cli.main(["jobs", "--table"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("ID")
        assert fake_client[0].calls == ["jobs"]

    def test_jobs_default_is_json(self, fake_client, capsys):
        assert cli.main(["jobs"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in parsed] == ["job-000001",
                                             "job-000002"]

    def test_job_requeue_dispatches(self, fake_client, capsys):
        assert cli.main(["job", "job-000002", "--requeue"]) == 0
        assert fake_client[0].calls == [("requeue", "job-000002")]
        assert json.loads(capsys.readouterr().out)["state"] == "queued"
