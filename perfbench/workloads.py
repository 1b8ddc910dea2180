"""The benchmark's workloads: ``cold``, ``deep`` and ``eco-session``.

A workload has a set-up (making its inputs from the seed, plus whatever a
user pays before the measured work starts) and a repetition, the unit of
measured work.  Each repetition starts from fresh, empty propagation stores,
times its phases with ``perf_counter`` and then runs its correctness checks
outside the timed phases.  Every phase and check counts as an attempted
operation; a failed check or server error counts as a failed one.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cells import default_library
from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.experiments import ExperimentContext, run_fig9
from repro.runtime import PackedStore
from repro.runtime.client import TimingClient
from repro.runtime.server import ServerConfig, TimingServer, TimingService
from repro.runtime.store import ShardedPackedStore
from repro.sta import CSMEngine, HybridEngine, NLDMEngine, generate_netlist
from repro.sta import generate
from repro.sta.engine import CornerSet
from repro.sta.generate import default_time_window
from repro.sta.hybrid import events_from_waveforms
from repro.sta.models import TimingModelLibrary
from repro.sta.netlist import GateNetlist, swap_partner

from harness import TOLERANCE_V, Checks
from tracing import Tracer

#: The repo's quick settings (``benchmarks/conftest.py``): 5-point I/V grids,
#: 4 ps reference step, 2 ps model step.
QUICK_CONFIG = CharacterizationConfig(io_grid_points=5)
MODEL_OPTIONS = SimulationOptions(time_step=2e-12)

#: Chance that an ECO edit swaps the previous edit back, returning the
#: session's design to a state the store already holds.
SWAP_BACK = 0.25

#: Corners of the ``deep`` MMMC run (the first is the reference corner).
CORNERS = ("TT", "SS")

#: Closed-loop ECO clients, one per CPU of the 2-CPU box the benchmark was
#: tuned on; the daemon gets as many workers and store shards.
ECO_CLIENTS = 2

#: Longest wait for one ECO client's loop before it counts as failed.
CLIENT_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Scale:
    """Design sizes and loop lengths; :data:`TOY` is the self-test's."""

    cold_spec: str = "dag:w256:d4"
    deep_spec: str = "dag:w64:d16"
    eco_spec: str = "dag:w256:d4"
    top_k: int = 8
    stream_budget_bytes: int = 1 << 20
    eco_pairs: int = 8  # edit + timing pairs per client per repetition
    setup_repeats: Optional[int] = None  # None: each workload's own count


FULL = Scale()
TOY = Scale(
    cold_spec="chain:6",
    deep_spec="chain:8",
    eco_spec="dag:w4:d2",
    top_k=2,
    stream_budget_bytes=1 << 14,
    eco_pairs=3,
    setup_repeats=1,
)


def seeded(spec: str, seed: int) -> str:
    """A generator spec whose random structure follows the seed."""
    return f"{spec}:s{seed}" if spec.startswith("dag:") else spec


def quick_context() -> ExperimentContext:
    return ExperimentContext(
        characterization=QUICK_CONFIG, reference_time_step=4e-12, model_time_step=2e-12
    )


class Workload:
    name = ""
    setup_repeats = 1

    def __init__(self, scale: Scale, seed: int, workdir: Path, tracer: Tracer, checks: Checks):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.tracer, self.checks = tracer, checks
        self.ops = 0  # attempted operations besides checks
        self.failures: List[str] = []  # failed operations besides checks
        self.timed: List[Tuple[float, float]] = []  # perf_counter intervals of wall_s
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{self._dirs:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def store(self, path: Path) -> PackedStore:
        return self.tracer.watch_store(PackedStore(path))

    @contextmanager
    def phase(self, times: Dict[str, float], name: str, rep: int):
        self.ops += 1
        with self.tracer.span(f"bench.{name}", rid=f"{self.name}:{rep}:{name}"):
            start = time.perf_counter()
            yield
            end = time.perf_counter()
            times[name] = end - start
            self.timed.append((start, end))

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def rep(self, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last :meth:`setup` started."""


def _arrivals(waveforms, vdd: float, nets) -> Dict[str, float]:
    events = events_from_waveforms(waveforms, vdd)
    return {net: events[net].arrival for net in nets if net in events}


class Cold(Workload):
    """``dag:w256:d4`` from empty caches: characterize, Fig. 9, CSM, hybrid."""

    name = "cold"
    setup_repeats = 3

    def setup(self) -> Dict[str, float]:
        self.library = default_library()
        self.netlist = generate_netlist(self.library, seeded(self.scale.cold_spec, self.seed))
        self.t_stop = default_time_window(self.netlist)
        self.waveforms = generate.primary_input_waveforms(
            self.netlist, t_stop=self.t_stop, seed=self.seed
        )
        return {}

    def rep(self, index: int) -> Dict[str, Any]:
        workdir = self.fresh_dir(f"cold-{index}")
        context = quick_context()
        context.cache = PackedStore(workdir / "characterization")
        models = TimingModelLibrary(
            library=self.library, config=context.characterization, cache=context.cache
        )
        netlist, waveforms, t_stop = self.netlist, self.waveforms, self.t_stop
        times: Dict[str, float] = {}
        with self.phase(times, "characterize", index):
            models.prewarm_for_netlist(netlist, kinds=("sis", "mis"), include_nldm=True)
        with self.phase(times, "fig9", index):
            fig9 = run_fig9(context, fanout=1)
        csm_store = self.store(workdir / "csm")
        with self.phase(times, "csm", index):
            full = CSMEngine(netlist, models, options=MODEL_OPTIONS, cache=csm_store).run(
                waveforms, t_stop=t_stop
            )
        with self.phase(times, "hybrid", index):
            hybrid = HybridEngine(
                netlist, models, options=MODEL_OPTIONS,
                cache=self.store(workdir / "hybrid"),
                top_k=self.scale.top_k, max_iterations=1,
            ).run(waveforms, t_stop=t_stop)

        with self.tracer.paused():
            mcsm_err, baseline_err = fig9.max_mcsm_error_percent(), fig9.max_baseline_error_percent()
            self.checks.record(
                "fig9: MCSM delay error below baseline MIS",
                mcsm_err < baseline_err,
                f"MCSM {mcsm_err:.2f} % vs baseline {baseline_err:.2f} %",
            )
            self.checks.waveforms(
                "hybrid: CSM-exact nets vs full CSM", full.waveforms, hybrid.waveforms,
                TOLERANCE_V, nets=sorted(hybrid.exact_nets),
            )
            warm = CSMEngine(netlist, models, options=MODEL_OPTIONS, cache=csm_store).run(
                waveforms, t_stop=t_stop
            )
            self.checks.waveforms("warm re-run vs cold run (bitwise)", full.waveforms, warm.waveforms)
            endpoints = list(netlist.primary_outputs)
            reference = _arrivals(full.waveforms, netlist.library.technology.vdd, endpoints)
            errors = [
                abs(hybrid.endpoint_arrivals[net] - reference[net])
                for net in endpoints
                if net in reference and hybrid.endpoint_arrivals.get(net) is not None
            ]
        return {
            "wall_s": sum(times.values()),
            "characterize_s": times["characterize"],
            "csm_run_s": times["csm"],
            "hybrid_run_s": times["hybrid"],
            "mcsm_err_pct": mcsm_err,
            "hybrid_err_ps": max(errors, default=0.0) * 1e12,
        }


class Deep(Workload):
    """``dag:w64:d16``: resident, streaming, NLDM and 2-corner MMMC runs."""

    name = "deep"
    setup_repeats = 1  # characterizing two corners takes ~12 s

    def setup(self) -> Dict[str, float]:
        workdir = self.fresh_dir("deep-setup")
        spec = seeded(self.scale.deep_spec, self.seed)
        self.corner_set = CornerSet.from_names(
            list(CORNERS), config=QUICK_CONFIG,
            cache=PackedStore(workdir / "characterization"),
        )
        reference = self.corner_set.reference
        self.models = reference.models
        self.netlist = generate_netlist(reference.library, spec)
        self.t_stop = default_time_window(self.netlist)
        self.waveforms = generate.primary_input_waveforms(
            self.netlist, t_stop=self.t_stop, seed=self.seed
        )
        self.events = generate.primary_input_events(self.netlist, seed=self.seed)
        # The same design bound to each other corner's library, for the
        # single-corner runs the MMMC corners are checked against.
        self.corner_netlists = {
            context.name: generate_netlist(context.library, spec)
            for context in self.corner_set
            if context is not reference
        }
        self._single_corner: Dict[str, Any] = {}
        start = time.perf_counter()
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis", "mis"), include_nldm=True)
        for name, netlist in self.corner_netlists.items():
            self.corner_set[name].models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
        return {"characterize_s": time.perf_counter() - start}

    def rep(self, index: int) -> Dict[str, Any]:
        workdir = self.fresh_dir(f"deep-{index}")
        netlist, models, waveforms, t_stop = self.netlist, self.models, self.waveforms, self.t_stop
        times: Dict[str, float] = {}
        csm_store = self.store(workdir / "csm")
        with self.phase(times, "csm", index):
            resident = CSMEngine(netlist, models, options=MODEL_OPTIONS, cache=csm_store).run(
                waveforms, t_stop=t_stop
            )
        with self.phase(times, "stream", index):
            stream = CSMEngine(
                netlist, models, options=MODEL_OPTIONS, cache=self.store(workdir / "stream"),
                memory_mode="stream", memory_budget_bytes=self.scale.stream_budget_bytes,
            ).run(waveforms, t_stop=t_stop)
        with self.phase(times, "nldm", index):
            NLDMEngine(netlist, models, cache=self.store(workdir / "nldm")).run(self.events)
        with self.phase(times, "mmmc", index):
            # The fused single-stack pass: with one thread per corner, how the
            # corners' temporaries overlapped in time moved peak RSS between
            # 390 and 515 MB on a 2-CPU shared host.
            mmmc = CSMEngine(
                netlist, models, options=MODEL_OPTIONS, corners=self.corner_set,
                corner_workers=1, cache=self.store(workdir / "mmmc"),
            ).run(waveforms, t_stop=t_stop)

        with self.tracer.paused():
            self.checks.waveforms(
                "stream vs resident (bitwise)", resident.waveforms, stream.waveforms
            )
            warm = CSMEngine(netlist, models, options=MODEL_OPTIONS, cache=csm_store).run(
                waveforms, t_stop=t_stop
            )
            self.checks.waveforms("warm vs resident (bitwise)", resident.waveforms, warm.waveforms)
            for name in mmmc.corner_order:
                single = resident if name == self.corner_set.reference.name else self._single(name)
                self.checks.waveforms(
                    f"mmmc corner {name} vs its single-corner run",
                    single.waveforms, mmmc.result(name).waveforms, TOLERANCE_V,
                )
        return {
            "wall_s": sum(times.values()),
            "csm_run_s": times["csm"],
            "stream_run_s": times["stream"],
            "nldm_run_s": times["nldm"],
            "mmmc_run_s": times["mmmc"],
        }

    def _single(self, corner: str):
        """One corner alone, uncached; computed once per set-up."""
        if corner not in self._single_corner:
            netlist = self.corner_netlists[corner]
            self._single_corner[corner] = CSMEngine(
                netlist, self.corner_set[corner].models, options=MODEL_OPTIONS, use_cache=False
            ).run(self.waveforms, t_stop=self.t_stop)
        return self._single_corner[corner]


class EcoSession(Workload):
    """A timing daemon over a warmed store, driven by closed-loop ECO clients."""

    name = "eco-session"
    setup_repeats = 3

    def setup(self) -> Dict[str, float]:
        workdir = self.fresh_dir("eco-setup")
        self.library = default_library()
        self.models = TimingModelLibrary(library=self.library, config=QUICK_CONFIG)
        self.service = TimingService(
            models=self.models, options=MODEL_OPTIONS,
            store=ShardedPackedStore(workdir / "store", shards=ECO_CLIENTS),
        )
        self.netlist = generate_netlist(self.library, seeded(self.scale.eco_spec, self.seed))
        cells = {instance.cell_name for instance in self.netlist.instances.values()}
        self.candidates = sorted(
            name
            for name, instance in self.netlist.instances.items()
            if swap_partner(self.library, instance.cell_name) in cells
        )
        start = time.perf_counter()
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis", "mis"))
        characterize_s = time.perf_counter() - start

        # A relative socket path keeps clear of the unix-socket length limit.
        socket_path = Path(os.path.relpath(workdir / "timing.sock"))
        config = ServerConfig(socket_path=socket_path, workers=ECO_CLIENTS)
        self.server = TimingServer(self.service, config)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve(ready=lambda _s: ready.set())),
            name="perfbench-timing-server",
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("timing server did not come up")
        self.client = TimingClient(socket_path=socket_path)
        self.payload = self.netlist.to_dict()
        session = self.client.open_session({"netlist": self.payload})["session"]
        start = time.perf_counter()
        self.client.timing(session, engine="csm", seed=self.seed)
        return {"characterize_s": characterize_s, "csm_run_s": time.perf_counter() - start}

    def close(self) -> None:
        if getattr(self, "thread", None) is None:
            return
        self.client.shutdown()
        self.thread.join(60)
        self.thread = None

    def rep(self, index: int) -> Dict[str, Any]:
        self.tracer.watch_service(self.service)
        clients = ECO_CLIENTS
        sessions = [
            self.client.open_session({"netlist": self.payload}, session_name=f"r{index}c{c}")[
                "session"
            ]
            for c in range(clients)
        ]
        local = [GateNetlist.from_dict(self.library, self.payload) for _ in range(clients)]
        records: List[List[Dict[str, float]]] = [[] for _ in range(clients)]
        barrier = threading.Barrier(clients + 1)
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(index, c, sessions[c], local[c], records[c], barrier),
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(CLIENT_TIMEOUT_S)
        wall = time.perf_counter() - start
        self.timed.append((start, start + wall))
        for c, thread in enumerate(threads):
            if thread.is_alive():
                self.failures.append(f"eco client {c} did not finish in {CLIENT_TIMEOUT_S} s")

        samples = [record for client in records for record in client]
        ok = [record for record in samples if not record["error"]]
        self.ops += 2 * len(samples)
        self.failures.extend(record["error"] for record in samples if record["error"])
        with self.tracer.paused():
            for c in range(clients):
                if index == 0:  # the sampled responses: each client's final design
                    self._check_against_rebuild(sessions[c], local[c])
                self.client.close_session(sessions[c])
        latencies = [record["latency_ms"] for record in ok]
        return {
            "wall_s": wall,
            "eco_p50_ms": float(np.median(latencies)) if latencies else 0.0,
            "latencies_ms": latencies,
            "server.requests": 2 * len(samples),
            "server.compute_ms": float(np.median([r["compute_ms"] for r in ok])) if ok else 0.0,
            "server.queue_ms": float(np.median([r["queue_ms"] for r in ok])) if ok else 0.0,
            "server.coalesced": sum(int(r["coalesced"]) for r in ok),
            "server.errors": len(samples) - len(ok),
        }

    def _client_loop(self, index, c, session, netlist, records, barrier) -> None:
        rng = np.random.default_rng([self.seed, index, c])
        history: List[Tuple[str, str]] = []
        barrier.wait()
        for pair in range(self.scale.eco_pairs):
            if history and rng.random() < SWAP_BACK:
                instance, cell = history.pop()
            else:
                instance = self.candidates[int(rng.integers(len(self.candidates)))]
                cell = swap_partner(self.library, netlist.instances[instance].cell_name)
                history.append((instance, netlist.instances[instance].cell_name))
            netlist.swap_cell(instance, cell)
            record = {"error": "", "coalesced": False}
            try:
                start = time.perf_counter()
                with self.tracer.span("server.request", rid=f"{session}#{2 * pair + 1}", op="eco"):
                    self.client.eco(session, [{"kind": "swap_cell", "instance": instance, "cell": cell}])
                sent = time.perf_counter()
                with self.tracer.span("server.request", rid=f"{session}#{2 * pair + 2}", op="timing"):
                    response = self.client.timing(session, engine="csm", seed=self.seed)
                done = time.perf_counter()
                record["latency_ms"] = (done - start) * 1e3
                record["compute_ms"] = float(response["latency_ms"])
                record["queue_ms"] = (done - sent) * 1e3 - record["compute_ms"]
                record["coalesced"] = bool(response.get("coalesced"))
            except Exception as exc:  # any failed request is a failed operation
                record["error"] = f"eco request {session}#{2 * pair + 1}: {exc!r}"
            records.append(record)

    def _check_against_rebuild(self, session: str, netlist: GateNetlist) -> None:
        """A sampled response (the session's final design) vs a no-cache rebuild."""
        response = self.client.timing(session, engine="csm", seed=self.seed, return_waveforms=True)
        served = TimingClient.waveforms_of(response)
        window = default_time_window(netlist)
        rebuild = CSMEngine(netlist, self.models, options=MODEL_OPTIONS, use_cache=False).run(
            generate.primary_input_waveforms(netlist, t_stop=window, seed=self.seed),
            t_stop=window,
        )
        if not served:
            self.checks.record("eco: sampled response carries waveforms", False)
            return
        self.checks.waveforms(
            "eco: sampled response vs no-cache rebuild", rebuild.waveforms, served, TOLERANCE_V,
            nets=sorted(served),
        )


WORKLOADS = {workload.name: workload for workload in (Cold, Deep, EcoSession)}
