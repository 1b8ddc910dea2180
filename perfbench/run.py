#!/usr/bin/env python3
"""The repo's benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload deep --seed 7 --seconds 20 --trace 1

Workloads: ``cold``, ``deep``, ``eco-session`` (see ``perfbench/README.md``).
The run sets up ``setup_repeats`` times (reporting the median set-up time),
then repeats the workload's unit of measured work until ``--seconds`` have
passed (at least once) and reports medians over the repetitions.

``--trace 0`` reports the end-to-end metrics.  Their times, ``setup_s`` and
``wall_s``, are calibrated by the host's speed (``probe.py``); the printed
lines also show them raw.  ``--trace 1`` sets up once,
runs one untraced repetition and one traced repetition, and reports the
per-layer metrics of the traced one plus its overhead (traced minus untraced
``wall_s``); it also writes the spans as Chrome trace-event JSON and prints
a per-span table of count, busy and self time.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Every run also writes its
full record (provenance, every issue metric, failed checks) under
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Bounded metrics, reported by every workload (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

#: What an untraced run prints beside the calibrated ``setup_s`` and
#: ``wall_s`` (see ``probe.py``): the raw times and the host speed.
UNCALIBRATED = {
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "host_speed": "x",
}

#: Per-engine metrics.  Some exist on one or two workloads only; the two
#: times every workload has did not stay within the largest bound across
#: seeds on a 2-CPU shared box (see README.md).  Untraced runs print them;
#: traced runs report them as per-layer metrics (0 where they do not apply),
#: measured on the untraced repetition.
WORKLOAD_METRICS = {
    "characterize_s": "s",
    "csm_run_s": "s",
    "mcsm_err_pct": "%",
    "hybrid_err_ps": "ps",
    "hybrid_run_s": "s",
    "nldm_run_s": "s",
    "stream_run_s": "s",
    "mmmc_run_s": "s",
    "eco_p50_ms": "ms",
    "eco_tail_ms": "ms",
    "eco_tail_pct": "%",
    "eco_tail_samples": "count",
}

LAYER_METRICS = {
    "spice.transient_calls": "count",
    "spice.transient_s": "s",
    "spice.batch_width": "stimuli/call",
    "characterization.csm_s": "s",
    "characterization.nldm_s": "s",
    "characterization.jobs": "count",
    "characterization.cache_hit_ratio": "ratio",
    "csm.settle_calls": "count",
    "csm.settle_units": "count",
    "csm.settle_s": "s",
    "csm.integrate_calls": "count",
    "csm.integrate_rows": "count",
    "csm.rows_per_call": "rows/call",
    "csm.integrate_s": "s",
    "lut.contract_calls": "count",
    "lut.contract_s": "s",
    "sta.run_s": "s",
    "sta.self_s": "s",
    "sta.levels": "count",
    "sta.instances": "count",
    "sta.integrations": "count",
    "sta.cone_hit_ratio": "ratio",
    "sta.duplicates": "count",
    "sta.spills": "count",
    "sta.faults": "count",
    "sta.hybrid_csm_fraction": "ratio",
    "sta.hybrid_iterations": "count",
    "sta.stimulus_s": "s",
    "waveform.crossing_s": "s",
    "runtime.hash_calls": "count",
    "runtime.hash_s": "s",
    "runtime.store_gets": "count",
    "runtime.store_get_s": "s",
    "runtime.store_hit_ratio": "ratio",
    "runtime.store_puts": "count",
    "runtime.store_put_s": "s",
    "runtime.store_bytes": "B",
    "server.requests": "count",
    "server.compute_ms": "ms",
    "server.queue_ms": "ms",
    "server.coalesced": "count",
    "server.errors": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

PER_LAYER = {**LAYER_METRICS, **WORKLOAD_METRICS}

DEFAULT_SEED = 0
WORKLOADS = ("cold", "deep", "eco-session")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, traced: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    from tracing import layer_table, outermost

    rows = layer_table(spans)

    def busy(name: str) -> float:
        return rows[name].busy if name in rows else 0.0

    def count(name: str) -> int:
        return rows[name].count if name in rows else 0

    def total(name: str, key: str) -> float:
        return sum(span.args.get(key, 0) for span in outermost(spans, name))

    many = [span for span in spans if span.name == "spice.transient" and span.args.get("many")]
    runs = outermost(spans, "sta.run")
    hybrid = [span.args["csm_fraction"] for span in runs if "csm_fraction" in span.args]
    instances = total("sta.run", "instances")
    jobs = total("characterization.run_jobs", "jobs")
    gets = count("runtime.store_get")
    metrics = {
        "spice.transient_calls": count("spice.transient"),
        "spice.transient_s": busy("spice.transient"),
        "spice.batch_width": _ratio(sum(span.args["batch"] for span in many), len(many)),
        "characterization.csm_s": busy("characterization.csm"),
        "characterization.nldm_s": busy("characterization.nldm"),
        "characterization.jobs": jobs,
        "characterization.cache_hit_ratio": _ratio(
            total("characterization.run_jobs", "hits"), jobs
        ),
        "csm.settle_calls": count("csm.settle"),
        "csm.settle_units": total("csm.settle", "units"),
        "csm.settle_s": busy("csm.settle"),
        "csm.integrate_calls": count("csm.integrate"),
        "csm.integrate_rows": total("csm.integrate", "rows"),
        "csm.rows_per_call": _ratio(total("csm.integrate", "rows"), count("csm.integrate")),
        "csm.integrate_s": busy("csm.integrate"),
        "lut.contract_calls": count("lut.contract"),
        "lut.contract_s": busy("lut.contract"),
        "sta.run_s": busy("sta.run"),
        "sta.self_s": rows["sta.run"].self_time if "sta.run" in rows else 0.0,
        "sta.levels": max((span.args.get("levels", 0) for span in runs), default=0),
        "sta.instances": instances,
        "sta.integrations": total("sta.run", "integrations"),
        "sta.cone_hit_ratio": _ratio(total("sta.run", "cone_hits"), instances),
        "sta.duplicates": total("sta.run", "duplicates"),
        "sta.spills": total("sta.run", "spills"),
        "sta.faults": total("sta.run", "faults"),
        "sta.hybrid_csm_fraction": _ratio(sum(hybrid), len(hybrid)),
        "sta.hybrid_iterations": total("sta.run", "iterations"),
        "sta.stimulus_s": busy("sta.stimulus"),
        "waveform.crossing_s": busy("waveform.crossing"),
        "runtime.hash_calls": count("runtime.hash"),
        "runtime.hash_s": busy("runtime.hash"),
        "runtime.store_gets": gets,
        "runtime.store_get_s": busy("runtime.store_get"),
        "runtime.store_hit_ratio": _ratio(total("runtime.store_get", "hit"), gets),
        "runtime.store_puts": total("runtime.store_put", "items"),
        "runtime.store_put_s": busy("runtime.store_put"),
        "runtime.store_bytes": total("runtime.store_put", "bytes"),
    }
    for name in ("requests", "compute_ms", "queue_ms", "coalesced", "errors"):
        metrics[f"server.{name}"] = traced.get(f"server.{name}", 0)
    return metrics


def workload_metrics(setups: List[Dict], reps: List[Dict]) -> Dict[str, float]:
    """Medians of every metric the set-ups and repetitions measured."""
    from harness import median, tail_percentile

    values: Dict[str, List[float]] = {}
    for record in setups + reps:
        for name, value in record.items():
            if isinstance(value, (int, float)):
                values.setdefault(name, []).append(value)
    metrics = {name: median(series) for name, series in values.items()}
    latencies = [value for rep in reps for value in rep.get("latencies_ms", [])]
    if latencies:
        tail = tail_percentile(latencies)
        metrics["eco_tail_ms"] = tail["value"]
        metrics["eco_tail_pct"] = tail["percentile"]
        metrics["eco_tail_samples"] = tail["samples"]
    return metrics


def run(args) -> Dict[str, Any]:
    """Run one workload invocation; returns the full record."""
    sys.path.insert(0, str(HERE))
    from probe import SpeedProbe

    # Untraced runs calibrate their bounded times by the host's speed.
    with SpeedProbe() if not args.trace else contextlib.nullcontext() as probe:
        return _run(args, probe)


def _run(args, probe) -> Dict[str, Any]:
    start_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program (repro) and numpy
    from harness import Checks, median, peak_rss_bytes, provenance
    from tracing import Tracer, format_layer_table, layer_table

    end_import = time.perf_counter()
    scale = workloads.TOY if args.toy else workloads.FULL
    out_dir = Path(args.out)
    workdir = out_dir / f"work-{os.getpid()}"
    tracer, checks = Tracer(), Checks(corrupt=args.corrupt)
    workload = workloads.WORKLOADS[args.workload](scale, args.seed, workdir, tracer, checks)
    record: Dict[str, Any] = {
        "provenance": provenance(ROOT, args.workload, args.seed, bool(args.trace))
    }
    try:
        repeats = 1 if args.trace else (scale.setup_repeats or workload.setup_repeats)
        setup_spans, setups = [], []
        for _ in range(repeats):
            workload.close()
            start = time.perf_counter()
            setups.append(workload.setup())
            setup_spans.append((start, time.perf_counter()))
        reps: List[Dict[str, Any]] = []
        rep_spans: List[List[Tuple[float, float]]] = []
        started = time.perf_counter()
        while True:
            reps.append(workload.rep(len(reps)))
            rep_spans.append(workload.timed)
            workload.timed = []
            if args.trace or time.perf_counter() - started >= args.seconds:
                break
        if args.trace:
            tracer.install()
            try:
                traced = workload.rep(len(reps))
            finally:
                tracer.uninstall()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = workload_metrics(setups, reps)
    attempted = workload.ops + checks.attempted
    failed = len(workload.failures) + checks.failed
    setup_times = [end - start for start, end in setup_spans]
    measured["setup_raw_s"] = end_import - start_import + median(setup_times)
    measured["wall_raw_s"] = measured["wall_s"]
    if probe is not None:
        measured["setup_s"] = probe.calibrate(start_import, end_import) + median(
            [probe.calibrate(*span) for span in setup_spans]
        )
        measured["wall_s"] = median(
            [sum(probe.calibrate(*span) for span in spans) for spans in rep_spans]
        )
        measured["host_speed"] = probe.speed()
    else:
        measured["setup_s"] = measured["setup_raw_s"]
    measured["peak_rss_mb"] = peak_rss_bytes(ROOT) / 2**20
    measured["pass_frac"] = 1.0 - failed / attempted
    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failures": workload.failures + checks.failures,
            "measured": measured,
            "setup_times_s": setup_times,
            "reps": [{k: v for k, v in rep.items() if k != "latencies_ms"} for rep in reps],
        }
    )
    if args.trace:
        metrics = layer_metrics(tracer.recorder.spans, traced)
        metrics["trace.overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / reps[0]["wall_s"]
        for name in WORKLOAD_METRICS:
            metrics[name] = measured.get(name, 0)
        units = PER_LAYER
        trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        record["trace_file"] = str(trace_path)
        record["layer_table"] = format_layer_table(layer_table(tracer.recorder.spans))
    else:
        metrics = {name: measured[name] for name in END_TO_END}
        units = END_TO_END
    record["metrics"] = {
        name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
    }
    return record


def report(record: Dict[str, Any], args) -> None:
    """Human-readable lines, then the result object as the last line."""
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    measured = record["measured"]
    print(
        f"  fail_frac {record['fail_frac']:.4f} fraction "
        f"({record['failed']} of {record['attempted']} operations failed)"
    )
    for name, unit in {**END_TO_END, **UNCALIBRATED, **WORKLOAD_METRICS}.items():
        if name in measured:
            print(f"  {name:<20} {measured[name]:>14.6g} {unit}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if "layer_table" in record:
        print(record["layer_table"])
        print(f"  chrome trace written to {record['trace_file']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or 'all' to run each in its own process",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="input seed (default %(default)s; claims must also hold on another seed)",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=".perfbench", help="directory for records and traces")
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)  # self-test size
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)  # self-test
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # A fresh process per workload, so each peak RSS is its own.
        common = [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", args.out,
        ] + ["--toy"] * args.toy + ["--corrupt"] * args.corrupt
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", name, *common])
            for name in WORKLOADS
        ]
        return max(codes)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    record = run(args)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (Path(args.out) / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(record, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
