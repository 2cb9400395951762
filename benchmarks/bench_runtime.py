"""Benchmark the repro.runtime execution engine.

Compares the ``serial`` and ``process`` backends on the two workloads
the runtime serves -- a naive-MC sample block and one full ECRIPSE
estimate -- on the paper's 0.5 V cell.  The butterfly solve is the unit
of work (docs/TUNING.md has the measured trade-off).

Estimates must be bit-identical across backends (the runtime's core
contract); the >=2x process-backend speedup is asserted only when the
host has >= 4 usable cores -- a 1-core CI box cannot speed anything up,
but the numbers are still measured and written to root-level
``BENCH_runtime.json``.

Each backend row also records its device-model evaluation count (from
``metadata["perf"]``, see :mod:`repro.perf.report`).  Pool workers
solve on evaluator *copies*, but every chunk ships its counter delta
back with the result and the estimators absorb it
(``CellEvaluator.absorb_stats``), so the count is serial-matching on
every backend -- asserted below alongside the pfail bit-identity.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import FULL

from repro.core.naive import NaiveMonteCarlo
from repro.experiments.setup import paper_setup
from repro.core.ecripse import EcripseEstimator
from repro.runtime import BACKENDS, ExecutionConfig

WORKERS = 4
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_runtime.json"


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _execution(backend: str) -> ExecutionConfig:
    return ExecutionConfig(backend=backend, workers=WORKERS)


def _save(section: str, payload: dict) -> None:
    data = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    data[section] = payload
    data["cores"] = _cores()
    data["workers"] = WORKERS
    JSON_PATH.write_text(json.dumps(data, indent=2))


def _report(section: str, rows: dict[str, dict]) -> None:
    print()
    print(f"{section}: {_cores()} core(s), {WORKERS} workers")
    serial_t = rows["serial"]["wall_time_s"]
    for backend, row in rows.items():
        row["speedup_vs_serial"] = serial_t / row["wall_time_s"]
        print(f"  {backend:8s} {row['wall_time_s']:8.2f} s  "
              f"speedup {row['speedup_vs_serial']:.2f}x")
    _save(section, rows)


def test_naive_mc_backends():
    n_samples = 100_000 if FULL else 4000

    rows: dict[str, dict] = {}
    for backend in BACKENDS:
        # fresh setup per backend, so each row's counters start at zero
        setup = paper_setup(vdd=0.5, alpha=0.3)
        mc = NaiveMonteCarlo(setup.space, setup.indicator, setup.rtn_model,
                             batch_size=500, seed=0,
                             execution=_execution(backend))
        t0 = time.perf_counter()
        result = mc.run(n_samples)
        rows[backend] = {
            "wall_time_s": time.perf_counter() - t0,
            "pfail": result.pfail,
            "n_simulations": result.n_simulations,
            "n_fallbacks": result.metadata["execution"]["n_fallbacks"],
            "device_model_evals":
                result.metadata["perf"]["device_model_evals"],
        }
    _report("naive-mc", rows)

    # the determinism contract: every backend, the exact same estimate
    assert rows["process"]["pfail"] == rows["serial"]["pfail"]
    assert len({r["n_simulations"] for r in rows.values()}) == 1
    # worker counter deltas ride back with each chunk, so the perf
    # report is nonzero and serial-matching on every backend
    assert rows["serial"]["device_model_evals"] > 0
    assert len({r["device_model_evals"] for r in rows.values()}) == 1

    # the ISSUE acceptance number, only meaningful with real parallelism
    if _cores() >= WORKERS:
        assert rows["process"]["speedup_vs_serial"] >= 2.0


def test_ecripse_backends(bench_scale):
    config = bench_scale["config"]

    rows: dict[str, dict] = {}
    for backend in BACKENDS:
        setup = paper_setup(vdd=0.5, alpha=0.3)
        estimator = EcripseEstimator(
            setup.space, setup.indicator, setup.rtn_model, seed=0,
            config=config.with_(execution=_execution(backend)))
        t0 = time.perf_counter()
        result = estimator.run(
            target_relative_error=bench_scale["loose_rel_err"])
        rows[backend] = {
            "wall_time_s": time.perf_counter() - t0,
            "pfail": result.pfail,
            "n_simulations": result.n_simulations,
            "n_fallbacks": result.metadata["execution"]["n_fallbacks"],
            "device_model_evals":
                result.metadata["perf"]["device_model_evals"],
        }
    _report("ecripse", rows)

    assert rows["process"]["pfail"] == rows["serial"]["pfail"]
    assert len({r["n_simulations"] for r in rows.values()}) == 1
    assert rows["serial"]["device_model_evals"] > 0
    assert len({r["device_model_evals"] for r in rows.values()}) == 1
