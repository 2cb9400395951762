"""Run the job-service daemon with spans recorded.

    python benchmarks/e2e/launch_service.py SUMMARY.json serve --root DIR ...

Installs the layer wrappers (disabled), starts recording on SIGUSR1 and
runs the service CLI unchanged, so the daemon stays a separate process
that behaves as ``python -m repro.service`` does.  When the daemon has
drained, the span summary and the measured per-span cost go to
``SUMMARY.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import harness
import layers
from tracer import Tracer, per_span_cost_s, summarize


def main(argv: list[str]) -> int:
    summary_path, service_argv = Path(argv[0]), argv[1:]
    harness.use_repo_sources()
    from repro.service.cli import main as service_main

    tracer = Tracer(enabled=False)
    layers.install(tracer)
    signal.signal(signal.SIGUSR1,
                  lambda *_: setattr(tracer, "enabled", True))
    try:
        return service_main(service_argv)
    finally:
        tracer.enabled = False
        summary_path.write_text(json.dumps({
            "summary": summarize(tracer.spans).as_dict(),
            "per_span_cost_s": per_span_cost_s()}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
