"""Self-test of the benchmark harness at toy size.

Runs every workload on a few-gate design (``--toy``) and checks that the
result line carries exactly the metrics ``BENCHMARK.json`` declares, each
with a unit and a valid name, and that a deliberately corrupted waveform is
counted as a failed operation.
"""

from __future__ import annotations

import json
import math
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from probe import MIN_SAMPLES, SpeedProbe  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, *extra):
    argv = ["--seed", "3", "--seconds", "0", "--toy", "--out", str(tmp_path), *extra]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


def test_declared_metrics_match_the_harness():
    for group, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        entries = DECLARED[group]
        assert {entry["name"]: entry["unit"] for entry in entries} == units
        for entry in entries:
            assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
    assert "setup_s" in run.END_TO_END
    assert [w["name"] for w in DECLARED["workloads"]] == ["cold", "deep", "eco-session"]


@pytest.mark.parametrize("workload", ["cold", "deep", "eco-session"])
def test_every_end_to_end_metric_is_emitted(capsys, tmp_path, workload):
    result = _run(capsys, tmp_path, "--workload", workload)
    _check_metrics(result, DECLARED["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_traced_run_emits_layers_and_a_chrome_trace(capsys, tmp_path):
    result = _run(capsys, tmp_path, "--workload", "eco-session", "--trace", "1")
    _check_metrics(result, DECLARED["per_layer"])
    metrics = result["metrics"]
    assert metrics["server.requests"]["value"] > 0
    assert metrics["runtime.store_gets"]["value"] > 0
    events = json.loads((tmp_path / "trace-eco-session-s3.json").read_text())["traceEvents"]
    spans = {event["args"]["span"]: event for event in events}
    assert {"server.request", "server.handle", "sta.run", "runtime.hash"} <= {
        event["name"] for event in events
    }
    for event in events:
        parent = event["args"]["parent"]
        assert parent is None or spans[parent]["args"]["id"] == event["args"]["id"]
    # The server-side span of a request shares the client's request id.
    client_ids = {e["args"]["id"] for e in events if e["name"] == "server.request"}
    assert client_ids & {e["args"]["id"] for e in events if e["name"] == "server.handle"}


def test_corrupted_waveform_counts_as_a_failure(capsys, tmp_path):
    result = _run(capsys, tmp_path, "--workload", "deep", "--corrupt")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_speed_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.01) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert len(probe.samples) > 2 * MIN_SAMPLES
    assert signal.getsignal(signal.SIGALRM) == before
    probe_s = sum(wall for begin, wall, _ in probe.samples if start <= begin < end)
    assert 0 < probe_s < end - start
    assert 0 < probe.calibrate(start, end) < 10 * (end - start)
