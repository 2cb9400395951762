"""The service-mixed workload: a real daemon under reads and writes.

The daemon is ``python -m repro.service serve --port 0 --workers 2`` on
a fresh state root (traced runs start it through ``launch_service.py``).
One client process drives it with two threads and at most two
connections, without client-side retries so every non-2xx response
counts as a failure:

* the **writer** (closed loop, one caller) submits cold quick estimate
  jobs -- a new seed each, so each runs the estimator and writes
  checkpoints and a result -- and waits for each to finish;
* the **reader** (open loop) sends a request every ``1/rate`` seconds,
  alternating a duplicate submit of the warm job's spec plus ``GET
  /result`` (the result-cache path) with a direct-pfail array job
  (queue, store writes, ``analyze_array``, no simulations), whose
  completion it polls between sends.  Each read is timed from when it
  was due, so a stalled generator shows up as latency, and the
  generator's lateness is reported on its own.  A run whose lateness
  reaches :data:`MAX_LATE_S` fails: the daemon fell behind the offered
  rate.

Completion is detected by polling ``GET /jobs/<id>``: every 10 ms for
array jobs, every 50 ms for the writer's cold jobs.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from queue import Empty, Queue

import harness
import layers
from reference import load_references
from tracer import TraceSummary
from workloads import Outcome, e2e_metrics, estimate_row, pooled_check, sane

TERMINAL = ("done", "failed", "cancelled", "dead")
#: completion polling of reads (array jobs take about 0.1 s)
POLL_S = 0.01
#: completion polling of the writer's cold jobs (1-2 s each).  At 10 ms
#: its polls alone were ~100 requests/s, each a thread and a
#: ``job.json`` read in the daemon -- load outside the traffic mix, under
#: which the writer's throughput spread by 20 % over ten runs (8 % at
#: 50 ms)
WRITER_POLL_S = 0.05
#: a job not terminal this long after it was due fails its operation [s]
JOB_TIMEOUT_S = 120.0
#: reads per run at least (60 of each kind: ten beyond the 80th
#: percentile), whatever ``--seconds`` asks for
MIN_READS = 120
#: generator lateness (90th percentile) above which the daemon is
#: falling behind the offered load and the run is invalid [s]
MAX_LATE_S = 0.05
#: read-latency metric -> (kind of read, percentile).  Untraced runs
#: measure them too, but they are not end-to-end metrics of every
#: workload: they go to result files (and ``compare.py``), not to the
#: result line.
READ_LATENCIES = {"service.cached_latency_s.p50": ("cached", 50),
                  "service.cached_latency_s.p80": ("cached", 80),
                  "service.array_latency_s.p50": ("array", 50),
                  "service.array_latency_s.p80": ("array", 80)}

#: quick estimate stopped at its 4-batch minimum, where the stopping
#: rule's relative error of 0.5 is met: about the same work per job.
#: About one seed in 40 misses it there and ran 65 batches (2,700
#: simulations, 6x the time); the simulation budget stops those near
#: the others' ~1,300, so one such seed no longer moves a run's
#: throughput by a sixth.
ESTIMATE_SPEC = {"kind": "estimate", "quick": True,
                 "target_relative_error": 0.5, "max_simulations": 1600}


def wait_terminal(client, job_id: str, poll_s: float = POLL_S) -> dict:
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    while True:
        record = client.job(job_id)
        if record["state"] in TERMINAL:
            return record
        if time.perf_counter() > deadline:
            raise TimeoutError(f"job {job_id} still {record['state']}")
        time.sleep(poll_s)


def result_row(result: dict) -> tuple[float, float, int]:
    """The ``(pfail, ci_halfwidth, n_simulations)`` of a result."""
    return (float(result["pfail"]), float(result["ci_halfwidth"]),
            int(result["n_simulations"]))


def queue_wait_s(record: dict) -> float | None:
    """Seconds from the record's first ``queued`` to its first
    ``running`` entry (``None`` for jobs the cache answered)."""
    times = {}
    for state, at in record["history"]:
        times.setdefault(state, at)
    if "queued" in times and "running" in times and not record["cached"]:
        return times["running"] - times["queued"]
    return None


class ServiceWorkload:
    """See the module docstring."""

    name = "service-mixed"

    def __init__(self, rate_per_s: float, count_ops: int) -> None:
        self.rate_per_s = rate_per_s
        self.count_ops = count_ops
        self.proc: subprocess.Popen | None = None

    # -- daemon lifecycle ----------------------------------------------
    def setup(self, seed: int, trace: bool) -> None:
        from repro.service.client import RetryPolicy, ServiceClient

        self.seed = seed
        self.trace = trace
        self.reference = load_references()["rdf"]
        self.root = Path(tempfile.mkdtemp(prefix="service-"))
        self.summary_path = self.root / "trace-summary.json"
        serve = ["serve", "--root", str(self.root / "state"), "--port",
                 "0", "--workers", "2"]
        if trace:
            command = [sys.executable, str(harness.HERE / "launch_service.py"),
                       str(self.summary_path), *serve]
        else:
            command = [sys.executable, "-m", "repro.service", *serve]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        url = self._listening_url()
        self.client = ServiceClient(url, retry=RetryPolicy(attempts=1))
        warm = dict(ESTIMATE_SPEC, seed=harness.derive_seed(seed, "warm", 0))
        self.warm_spec = warm
        record = wait_terminal(self.client, self.client.submit(warm)["id"])
        if record["state"] != "done":
            raise RuntimeError(f"warm job ended {record['state']}")
        self.warm_result = self._comparable(self.client.result(record["id"]))

    def _listening_url(self, timeout_s: float = 60.0) -> str:
        lines: Queue = Queue()
        threading.Thread(target=lambda: [lines.put(line) for line in
                                         self.proc.stdout],
                         daemon=True).start()
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            try:
                line = lines.get(timeout=0.1)
            except Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if "listening on" in line:
                return line.rsplit(" ", 1)[1].strip()
        raise RuntimeError("service daemon did not come up")

    def stop(self) -> None:
        """SIGTERM the daemon and wait for its drain."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    @staticmethod
    def _comparable(result: dict) -> dict:
        """A result without the per-job ``job`` block (id, cached)."""
        return {key: value for key, value in result.items()
                if key != "job"}

    # -- load ----------------------------------------------------------
    def _writer(self, outcome: Outcome, seconds: float, jobs: list,
                lock: threading.Lock, reader: threading.Thread) -> float:
        """Cold jobs back to back until ``seconds`` have passed, the
        reader is done and at least ``count_ops`` jobs were submitted."""
        start = time.perf_counter()
        seeds = harness.seed_stream(self.seed, "writer")
        for index, seed in enumerate(seeds):
            if (index >= self.count_ops and not reader.is_alive()
                    and time.perf_counter() - start >= seconds):
                break
            submitted = time.perf_counter()
            try:
                job_id = self.client.submit(dict(ESTIMATE_SPEC,
                                                 seed=seed))["id"]
                record = wait_terminal(self.client, job_id, WRITER_POLL_S)
                latency = time.perf_counter() - submitted
                if record["state"] != "done":
                    raise RuntimeError(f"ended {record['state']}: "
                                       f"{record['error']}")
                result = self.client.result(job_id)
            except Exception as exc:  # any failure fails the operation
                with lock:
                    outcome.attempted += 1
                    outcome.fail(f"writer seed {seed}: "
                                 f"{type(exc).__name__}: {exc}")
                continue
            with lock:
                outcome.attempted += 1
                sane(outcome, f"writer seed {seed}",
                     result_row(result))
            jobs.append((seed, latency, record, result))
        return time.perf_counter() - start

    def _check_first_job(self, outcome: Outcome, seed: int,
                         result: dict) -> None:
        """The service must return what the estimator returns in-process
        (the ``estimate --quick`` CLI path) for the same seed."""
        from repro.core.ecripse import EcripseConfig, EcripseEstimator
        from repro.experiments.setup import paper_setup

        setup = paper_setup()
        local = EcripseEstimator(
            setup.space, setup.indicator, setup.rtn_model,
            EcripseConfig.quick(), seed=seed).run(
                target_relative_error=ESTIMATE_SPEC["target_relative_error"],
                max_simulations=ESTIMATE_SPEC["max_simulations"])
        outcome.attempted += 1
        if estimate_row(local) != result_row(result):
            outcome.fail(f"writer seed {seed}: service result "
                         f"{result_row(result)} differs from "
                         f"the in-process run {estimate_row(local)}")

    def _send(self, index: int) -> str | None:
        """Send read ``index``.  A cache hit completes here (``None``); an
        array read returns the id of its job, still to be collected."""
        if index % 2 == 0:
            record = self.client.submit(self.warm_spec)
            if record["state"] != "done" or not record["cached"]:
                raise RuntimeError(f"duplicate submit was not a cache hit: "
                                   f"{record['state']}")
            result = self._comparable(self.client.result(record["id"]))
            if result != self.warm_result:
                raise RuntimeError("cache hit differs from the warm result")
            return None
        draw = harness.derive_seed(self.seed, "array", index) / 2**31
        return self.client.submit({"kind": "array",
                                   "pfail": 10.0 ** (-12 + 6 * draw)})["id"]

    def _collect(self, job_id: str, due: float) -> dict | None:
        """One poll of an array job: its checked record once it is
        terminal, else ``None``."""
        record = self.client.job(job_id)
        if record["state"] not in TERMINAL:
            if time.perf_counter() - due > JOB_TIMEOUT_S:
                raise TimeoutError(f"job {job_id} still {record['state']}")
            return None
        if record["state"] != "done" or record["n_simulations"] != 0:
            raise RuntimeError(f"array job ended {record['state']} with "
                               f"{record['n_simulations']} simulations")
        result = self.client.result(job_id)
        if "decision" not in result["metadata"].get("array", {}):
            raise RuntimeError("array result carries no decision")
        return record

    def _reader(self, outcome: Outcome, seconds: float, reads: dict,
                late: list, records: list, lock: threading.Lock) -> None:
        """Send read ``i`` at ``i / rate`` seconds.  An array job runs on
        while later reads go out; between sends the generator polls the
        pending jobs every :data:`POLL_S`.  So only the sends themselves
        can make it late, not a job that outlasts the period."""
        period = 1.0 / self.rate_per_s
        total = max(MIN_READS, round(seconds * self.rate_per_s))
        pending: dict[str, tuple[int, float]] = {}  # job id -> (read, due)

        def done(kind: str, due: float) -> None:
            reads[kind].append(time.perf_counter() - due)
            with lock:
                outcome.attempted += 1

        def failed(index: int, error: Exception) -> None:
            with lock:
                outcome.attempted += 1
                outcome.fail(f"read {index}: {type(error).__name__}: "
                             f"{error}")

        start = time.perf_counter()
        sent = 0
        while sent < total or pending:
            due = start + sent * period
            if sent < total and time.perf_counter() >= due:
                late.append(time.perf_counter() - due)
                try:
                    job_id = self._send(sent)
                except Exception as exc:  # any failure fails the read
                    failed(sent, exc)
                else:
                    if job_id is None:
                        done("cached", due)
                    else:
                        pending[job_id] = (sent, due)
                sent += 1
                continue
            for job_id, (index, job_due) in list(pending.items()):
                try:
                    record = self._collect(job_id, job_due)
                except Exception as exc:  # any failure fails the read
                    del pending[job_id]
                    failed(index, exc)
                    continue
                if record is not None:
                    del pending[job_id]
                    records.append(record)
                    done("array", job_due)
            wake = time.perf_counter() + POLL_S
            if sent < total:
                wake = min(wake, start + sent * period)
            time.sleep(max(0.0, wake - time.perf_counter()))

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        lock = threading.Lock()
        jobs: list = []
        reads: dict[str, list[float]] = {"cached": [], "array": []}
        late: list[float] = []
        array_records: list[dict] = []
        if self.trace:
            self.proc.send_signal(signal.SIGUSR1)  # start recording
        reader = threading.Thread(
            target=self._reader,
            args=(outcome, seconds, reads, late, array_records, lock))
        reader.start()
        elapsed = self._writer(outcome, seconds, jobs, lock, reader)
        reader.join()
        stats = self._read_stats(outcome, reads, late)
        if not jobs or stats is None:
            return outcome
        self._check_first_job(outcome, jobs[0][0], jobs[0][3])
        outcome.attempted += 1
        pooled_check(outcome, "service writer",
                     [res["pfail"] for _s, _l, _r, res in jobs],
                     self.reference)
        latencies = [latency for _s, latency, _r, _res in jobs]
        rows = [result_row(res) for _s, _l, _r, res
                in jobs[:self.count_ops]]
        outcome.digest = harness.digest(rows)
        outcome.detail = {"ops": len(jobs),
                          "estimate_s.p50": statistics.median(latencies),
                          "reads": {kind: len(values)
                                    for kind, values in reads.items()},
                          "load.late_s.p90": stats["load.late_s.p90"]}
        if not self.trace:
            outcome.metrics = {
                **e2e_metrics(len(jobs), elapsed, [row[2] for row in rows]),
                **{name: stats[name] for name in READ_LATENCIES}}
            return outcome
        waits = [w for w in map(queue_wait_s,
                                [r for _s, _l, r, _res in jobs]
                                + array_records)
                 if w is not None]
        health_start = time.perf_counter()
        health = self.client.healthz()
        stats["service.healthz_s"] = time.perf_counter() - health_start
        stats["service.jobs_in_store"] = float(sum(health["jobs"].values()))
        stats["service.queue_wait_s.p50"] = statistics.median(waits)
        self.stop()
        data = json.loads(self.summary_path.read_text())
        summary = TraceSummary.from_dict(data["summary"])
        stats["trace.overhead_frac"] = (summary.spans
                                        * data["per_span_cost_s"]
                                        / summary.root_wall_s)
        from repro.core.ecripse import EcripseConfig

        counters: Counter = Counter()
        for _s, _l, _r, result in jobs:
            counters.update(layers.perf_counters(result["metadata"]))
            counters["label_rows"] += layers.label_rows(
                EcripseConfig.quick(), True, result["n_statistical_samples"])
        outcome.metrics = layers.layer_metrics(summary, len(jobs), counters,
                                               stats)
        return outcome

    @staticmethod
    def _read_stats(outcome: Outcome, reads: dict,
                    late: list) -> dict | None:
        """Read-latency percentiles and the generator's lateness; fails
        the run (and returns ``None``) when a percentile lacks samples or
        the generator fell behind."""
        stats = {name: harness.tail_percentile(reads[kind], q)
                 for name, (kind, q) in READ_LATENCIES.items()}
        stats["load.late_s.p90"] = harness.tail_percentile(late, 90)
        missing = [name for name, value in stats.items() if value is None]
        if missing:
            outcome.fail(f"too few reads for {', '.join(missing)}: "
                         f"{len(reads['cached'])} cached, "
                         f"{len(reads['array'])} array")
            return None
        if stats["load.late_s.p90"] >= MAX_LATE_S:
            outcome.fail(f"read generator fell behind: lateness p90 "
                         f"{stats['load.late_s.p90']:.3f} s >= {MAX_LATE_S} s")
        return stats
