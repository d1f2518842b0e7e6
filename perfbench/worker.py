"""Run one kgtyper pipeline in this fresh interpreter and report its cost.

Started by ``run.py``, one process per pipeline, so that set-up time and
peak RSS belong to that pipeline alone::

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --kg KG.nt --out DIR [--spans FILE]

The last stdout line is JSON: ``ready`` (``time.monotonic()`` once
``kgtyper`` is imported, which the parent subtracts from its spawn time),
and for a pipeline also ``pipeline_s``, ``peak_rss_mb`` and ``minor_faults``. With
``--spans`` the pipeline is traced and its spans are written to FILE.
"""

# kgtyper is imported before anything else so that READY measures its import.
import time

from kgtyper import pipeline

READY = time.monotonic()

import argparse
import json
import resource
from pathlib import Path

import tracing
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--kg", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    report = {"ready": READY, "kgtyper": pipeline.__file__}
    if not args.setup_only:
        if None in (args.workload, args.seed, args.kg, args.out):
            parser.error("--workload, --seed, --kg and --out are required")
        config = workloads.pipeline_config(args.workload, args.kg, args.out, args.seed)
        tracer = tracing.Tracer() if args.spans else None
        if tracer is not None:
            tracing.install(tracer)
        start = time.perf_counter()
        pipeline.run_pipeline(config)  # looked up here so that install() takes effect
        report["pipeline_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["peak_rss_mb"] = usage.ru_maxrss / 1024
        report["minor_faults"] = usage.ru_minflt
        if tracer is not None:
            tracer.probe_forward()
            args.spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
