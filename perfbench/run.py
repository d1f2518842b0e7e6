"""kgtyper pipeline benchmark: end-to-end metrics, or per-layer ones from a trace.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every workload in turn

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Run from a checkout that holds ``src/kgtyper``. For each workload the
synthetic graph is generated from ``--seed`` before timing starts. Then,
for ``--seconds`` seconds, one client runs pipelines in a closed loop, one
fresh ``worker.py`` process per pipeline and one at a time (at least
MIN_PIPELINES pipelines), every pipeline with the same input and seed.
Before each pipeline a further fresh interpreter only imports ``kgtyper``,
and ``calibrate.py`` runs before the first pipeline and after each one.
BLAS runs one thread.

Every pipeline's outputs are checked (``check.py``) and compared by digest
with the first pipeline of the run; a pipeline that raises, times out or
fails either check counts as failed, and any failure makes the exit code 1.

With ``--trace 0`` the end-to-end metrics are reported. On a shared host
the speed of the whole machine drifts by a third and more, in phases of
tens of seconds to minutes, which no statistic over one run's pipelines
removes. So ``pipeline_s`` and ``setup_s`` are medians of wall times
scaled to a host that runs ``calibrate.py`` in CAL_NOMINAL_S: each wall
time is multiplied by CAL_NOMINAL_S over the mean of the two calibration
times around it. The calibration never changes, so a change to kgtyper
moves these values as it moves wall time. The text lines also give the
unscaled wall times (min, median, max) and the calibration times.

With ``--trace 1`` every second pipeline is traced (``tracing.py``) and
the per-layer metrics are reported: medians over the traced pipelines,
unscaled, plus the tracing overhead against the untraced ones. Each traced
pipeline's spans are kept in ``.bench_work/<workload>-seed<N>/spans-<k>.json``.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PIPELINES = 4
CAL_NOMINAL_S = 0.5  # calibrate.py's wall time on a quiet 2-vCPU x86-64 VM
RUN_LIMIT_S = 165.0  # every run must end within 180 s, whatever --seconds says


@dataclass
class Sample:
    """One pipeline that passed every check."""

    pipeline_s: float
    peak_rss_mb: float
    minor_faults: int
    traced: bool
    host_scale: float  # CAL_NOMINAL_S over the calibration time around it
    layers: dict = field(default_factory=dict)


@dataclass
class WorkloadRun:
    attempted: int = 0
    failed: int = 0
    setup_s: list[tuple[float, float]] = field(default_factory=list)  # (wall time, host scale)
    calibration_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    untyped: int = 0
    test_entities: int = 0


def worker_env() -> dict[str, str]:
    # One BLAS thread: the client and its one pipeline are single-threaded,
    # and on a small shared machine a second BLAS thread mostly adds jitter.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(arguments: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns (spawn time, its JSON report)."""
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *arguments],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited {completed.returncode}: {completed.stderr[-2000:]}")
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    if not Path(report["kgtyper"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported kgtyper from {report['kgtyper']}, not {SRC}")
    return spawned, report


def calibrate(timeout: float) -> float:
    """Wall time of one calibrate.py process."""
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(BENCH / "calibrate.py")],
        env=worker_env(),
        capture_output=True,
        timeout=timeout,
        check=True,
    )
    return time.monotonic() - started


def run_workload(name: str, seed: int, seconds: float, trace: bool, began: float) -> WorkloadRun:
    # Imported here: they import kgtyper, which main() puts on sys.path.
    import check
    import tracing
    import workloads

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kg = workloads.generate_graph(name, work / "kg", seed).kg_path
    result = WorkloadRun()

    reference = None
    cycles: list[float] = []
    deadline = time.monotonic() + seconds
    result.calibration_s.append(calibrate(remaining()))
    while result.attempted < MIN_PIPELINES or time.monotonic() + statistics.median(cycles) <= deadline:
        index = result.attempted
        traced = trace and index % 2 == 1
        out = work / f"run-{index}"
        spans = work / f"spans-{index}.json"
        arguments = ["--workload", name, "--seed", str(seed), "--kg", str(kg), "--out", str(out)]
        if traced:
            arguments += ["--spans", str(spans)]
        started = time.monotonic()
        spawned, report = spawn(["--setup-only"], remaining())
        setups = [report["ready"] - spawned]
        result.attempted += 1
        try:
            spawned, report = spawn(arguments, remaining())
            outcome = check.check_run(out)
            result.untyped = max(result.untyped, outcome.untyped)
            result.test_entities = outcome.test_entities
            digests = check.digests(out)
            reference = reference or digests
            problems = outcome.problems + [
                f"{artifact} differs from the first pipeline at this seed"
                for artifact in check.ARTIFACTS
                if digests[artifact] != reference[artifact]
            ]
            layers = tracing.layer_metrics(json.loads(spans.read_text())) if traced else {}
        except subprocess.TimeoutExpired:
            result.failed += 1
            print(f"{name}: pipeline {index} killed at the run limit", file=sys.stderr)
            break
        except Exception:  # a failed pipeline is counted, and the loop goes on
            problems = [traceback.format_exc()]
        shutil.rmtree(out, ignore_errors=True)
        result.calibration_s.append(calibrate(remaining()))
        host_scale = CAL_NOMINAL_S / statistics.mean(result.calibration_s[-2:])
        cycles.append(time.monotonic() - started)
        if problems:
            result.failed += 1
            print(f"{name}: pipeline {index} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            setups.append(report["ready"] - spawned)
            result.samples.append(
                Sample(
                    report["pipeline_s"],
                    report["peak_rss_mb"],
                    report["minor_faults"],
                    traced,
                    host_scale,
                    layers,
                )
            )
            result.quality = outcome.metrics
        result.setup_s += [(setup, host_scale) for setup in setups]
        if remaining() < 0:
            break
    shutil.rmtree(work / "kg", ignore_errors=True)
    return result


def end_to_end(run: WorkloadRun) -> tuple[dict, list[str]]:
    """End-to-end values by name, and the text lines that report them.

    The last four values are printed but not in BENCHMARK.json: at this
    scale the classifier's quality swings with the seed by more than any
    allowed bound, and the two shares read 0 on a correct run.
    """
    times = [s.pipeline_s for s in run.samples]
    setups = [setup for setup, _ in run.setup_s]
    rss = [s.peak_rss_mb for s in run.samples]
    quality = run.quality
    values = {
        "pipeline_s": statistics.median(s.pipeline_s * s.host_scale for s in run.samples),
        "setup_s": statistics.median(setup * scale for setup, scale in run.setup_s),
        "peak_rss_mb": statistics.median(rss),
        "similarity_hits1": quality["similarity"]["hits@1"],
        "similarity_hits3": quality["similarity"]["hits@3"],
        "cnn_accuracy": quality["cnn"]["accuracy"],
        "cnn_hits3": quality["cnn"]["hits@3"],
        "untyped_share": run.untyped / run.test_entities,
        "failed_run_share": run.failed / run.attempted,
    }
    lines = [
        f"pipeline_s {values['pipeline_s']:.4f} s median at host scale",
        f"setup_s {values['setup_s']:.4f} s median at host scale",
        _spread_line("pipeline_wall_s", times, "s"),
        _spread_line("setup_wall_s", setups, "s"),
        _spread_line("calibration_wall_s", run.calibration_s, "s"),
        _spread_line("peak_rss_mb", rss, "MB"),
    ]
    lines += [f"{key} {values[key]:.4f} ratio" for key in list(values)[3:]]
    return values, lines


def per_layer(run: WorkloadRun) -> tuple[dict, list[str]]:
    """Per-layer values by name: medians over the traced pipelines."""
    traced = [s for s in run.samples if s.traced]
    untraced = [s for s in run.samples if not s.traced]
    values = {key: statistics.median(s.layers[key] for s in traced) for key in traced[0].layers}
    values["pipeline.minor_faults"] = statistics.median(s.minor_faults for s in traced)
    values["cnn.accuracy"] = run.quality["cnn"]["accuracy"]
    values["cnn.hits3"] = run.quality["cnn"]["hits@3"]
    values["trace.overhead_s"] = statistics.median(s.pipeline_s for s in traced) - statistics.median(
        s.pipeline_s for s in untraced
    )
    return values, [f"traced pipelines n={len(traced)}, untraced n={len(untraced)}"]


def _spread_line(name: str, values: list[float], unit: str) -> str:
    # Too few samples per run for a percentile with ten samples beyond it,
    # so the high end reported is the maximum.
    return (
        f"{name} {min(values):.4f} {unit} min, {statistics.median(values):.4f} {unit} median, "
        f"{max(values):.4f} {unit} max, n={len(values)}"
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run so that it kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "kgtyper" / "__init__.py").is_file():
        print(f"no kgtyper sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in selected:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic())
        attempted += run.attempted
        failed += run.failed
        kinds = {s.traced for s in run.samples}
        if not kinds or (args.trace and kinds != {False, True}):
            print(f"== {name}: no pipeline passed its checks", file=sys.stderr)
            continue
        values, lines = (per_layer if args.trace else end_to_end)(run)
        if args.trace:
            lines += [f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in reported]
        print(f"== {name} seed {args.seed}: {run.attempted} pipelines, {run.failed} failed")
        for line in lines:
            print(f"{name} {line}")
        prefix = "" if len(selected) == 1 else f"{name}."
        for metric in reported:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    correct = failed == 0 and len(metrics) == len(reported) * len(selected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
