"""Shared pieces of the benchmark: correctness checks, statistics, provenance."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Agreement budget of the paths that are not bitwise today (volts).
TOLERANCE_V = 1e-9

#: Samples that must lie beyond the reported ECO tail percentile.
TAIL_SAMPLES = 10


def _values(waveform: Any) -> np.ndarray:
    """Sample values of a ``Waveform`` or of a decoded ``(times, values)`` pair."""
    if isinstance(waveform, tuple):
        return np.asarray(waveform[1])
    return np.asarray(waveform.values)


class Checks:
    """Correctness checks of one run; every check is one attempted operation.

    ``corrupt=True`` perturbs the first waveform handed to
    :meth:`waveforms` by 1 mV, which is how the self-test proves that a wrong
    waveform is counted as a failure.
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._corrupt = corrupt

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def waveforms(
        self,
        name: str,
        reference: Mapping[str, Any],
        candidate: Mapping[str, Any],
        tolerance: float = 0.0,
        nets: Optional[Sequence[str]] = None,
    ) -> bool:
        """``candidate`` matches ``reference`` on every net: bitwise when
        ``tolerance`` is 0, else within ``tolerance`` volts."""
        worst = 0.0
        bad: Optional[str] = None
        for net in nets if nets is not None else list(reference):
            if net not in candidate:
                bad = f"net {net} missing"
                break
            expected, got = _values(reference[net]), _values(candidate[net])
            if self._corrupt:
                got = got.copy()
                got[got.size // 2] += 1e-3
                self._corrupt = False
            if expected.shape != got.shape:
                bad = f"net {net} shape {got.shape} != {expected.shape}"
                break
            if tolerance == 0.0 and not np.array_equal(expected, got):
                bad = f"net {net} not bitwise equal"
                break
            worst = max(worst, float(np.max(np.abs(expected - got), initial=0.0)))
        if bad is None and worst > tolerance:
            bad = f"max |dV| {worst:.3e} V > {tolerance:.0e} V"
        return self.record(name, bad is None, bad or "")


# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float]) -> Dict[str, float]:
    """The highest whole percentile with at least ``TAIL_SAMPLES`` samples
    beyond it, its value, and the sample count it was taken over."""
    count = len(samples)
    percent = max(0, math.floor(100.0 * (count - TAIL_SAMPLES) / count)) if count else 0
    value = float(np.percentile(samples, percent)) if count else float("nan")
    return {"percentile": percent, "value": value, "samples": count}


# ----------------------------------------------------------------------
def _git_revision(root: Path) -> str:
    """HEAD of ``root`` read from ``.git`` directly (no subprocess, no search
    outside ``root``); the benchmark also runs from plain source exports."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` file, so exports are identifiable."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_bytes(root: Path) -> int:
    """Peak RSS through the repo's shared sampler ``benchmarks/_mem.py``."""
    spec = importlib.util.spec_from_file_location("_bench_mem", root / "benchmarks" / "_mem.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.peak_rss_bytes()


def provenance(root: Path, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    import numpy

    cpus = os.cpu_count() or 1
    block: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpus": cpus,
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    if cpus < 4:
        block["warning"] = (
            f"only {cpus} CPU(s) visible: timings measure single-core "
            "algorithmic behaviour under time-slicing — re-measure on a "
            "machine with >= 4 cores before quoting concurrency numbers"
        )
        print(f"WARNING: {block['warning']}", file=sys.stderr)
    return block
