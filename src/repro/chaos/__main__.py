"""CLI entry point: ``python -m repro.chaos`` runs the harness.

Exit status 0 when every case satisfies the crash-consistency
invariants, 1 otherwise (CI's ``service`` job gates on this).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.chaos.harness import DEFAULT_SPEC, run_harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Crash-consistency harness: enumerate every "
                    "durable write in a job lifecycle and inject a "
                    "fault at each (see docs/ROBUSTNESS.md).")
    parser.add_argument("--quick", action="store_true",
                        help="kill-mode only (the CI sweep); the full "
                             "run adds injected failures and torn "
                             "writes")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="scratch directory (default: a fresh "
                             "temporary directory)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report on stdout")
    args = parser.parse_args(argv)

    progress = None if args.as_json \
        else lambda line: print(line, flush=True)
    if args.root is not None:
        root = Path(args.root)
        root.mkdir(parents=True, exist_ok=True)
        report = run_harness(root, quick=args.quick,
                             progress=progress)
    else:
        with tempfile.TemporaryDirectory(prefix="ecripse-chaos-") \
                as scratch:
            report = run_harness(scratch, quick=args.quick,
                                 progress=progress)

    if args.as_json:
        print(json.dumps({
            "spec": DEFAULT_SPEC.as_dict(),
            "write_points": report.write_points,
            "cases": len(report.cases),
            "passed": report.passed,
            "violations": [
                {"clause": c.clause, "path": c.path,
                 "outcome": c.outcome, "detail": c.detail}
                for c in report.violations],
        }, indent=1, sort_keys=True))
    else:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{verdict}: {len(report.cases)} cases over "
              f"{report.write_points} durable write points "
              f"({len(report.violations)} violations); reference "
              f"pfail={report.reference_pfail:.6e} over "
              f"{report.reference_simulations} simulations",
              flush=True)
        for case in report.violations:
            print(f"  VIOLATION {case.clause} on {case.path}: "
                  f"{case.detail}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
