"""One-off naive Monte-Carlo reference pfails for the correctness checks.

Runs the chunked :class:`~repro.core.naive.NaiveMonteCarlo` (Wilson 95 %
CI) on the process backend with two workers, on both problems the
estimate workloads solve -- RDF only, and RTN at duty ratio 0.5 -- and
records command, seed, pfail and CI in ``reference.json`` next to this
file, where the benchmark reads them::

    python benchmarks/e2e/reference.py --samples 2000000 --write

Each problem takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time

import harness

#: problem name -> duty ratio (None = RDF only)
PROBLEMS = {"rdf": None, "rtn-0.5": 0.5}
REFERENCE_FILE = harness.HERE / "reference.json"
WORKERS = 2


def load_references() -> dict:
    """The pinned references, keyed by problem name."""
    return json.loads(REFERENCE_FILE.read_text())


def run_reference(alpha: float | None, samples: int) -> dict:
    from repro.core.naive import NaiveMonteCarlo
    from repro.experiments.setup import paper_setup
    from repro.runtime import ExecutionConfig

    setup = paper_setup(alpha=alpha)
    seed = harness.DEFAULT_SEED
    estimator = NaiveMonteCarlo(
        setup.space, setup.indicator, setup.rtn_model, seed=seed,
        execution=ExecutionConfig(backend="process", workers=WORKERS))
    start = time.perf_counter()
    estimate = estimator.run(samples)
    return {"alpha": alpha, "samples": samples, "seed": seed,
            "backend": "process", "workers": WORKERS,
            "failures": int(estimate.metadata["failures"]),
            "pfail": float(estimate.pfail),
            "ci_halfwidth": float(estimate.ci_halfwidth),
            "wall_s": round(time.perf_counter() - start, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=2_000_000)
    parser.add_argument("--write", action="store_true",
                        help=f"write the results to {REFERENCE_FILE.name}")
    args = parser.parse_args(argv)
    harness.use_repo_sources()
    command = "python benchmarks/e2e/reference.py " + shlex.join(
        sys.argv[1:] if argv is None else argv)
    results = {}
    for name in sorted(PROBLEMS):
        result = run_reference(PROBLEMS[name], args.samples)
        result["command"] = command
        result["host"] = harness.host_info()
        results[name] = result
        print(json.dumps({name: result}), flush=True)
    if args.write:
        REFERENCE_FILE.write_text(json.dumps(results, indent=1,
                                             sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
