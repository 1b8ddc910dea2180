"""Design/session registry and the transport-free timing service core.

:class:`TimingService` is the whole server minus I/O: it owns the model
library, the shared (usually sharded) result store, the design registry and
the sessions, and exposes one synchronous ``handle(request) -> response``
dispatch that the asyncio daemon calls from its worker pool.  Keeping the
core synchronous and transport-free is what makes it directly testable —
the concurrent-session integration tests drive it with plain threads.

Session model
-------------
Designs are registered once per content fingerprint
(:func:`repro.sta.netlist.netlist_fingerprint`); each session gets a
*private* :class:`~repro.sta.netlist.GateNetlist` copy plus lazily created
per-session engines.  ECO edits mutate only the session's copy — two
sessions editing "the same" design never conflict structurally, while the
content-addressed propagation keys still share every identical sub-cone
between them through the common store.  A per-session lock serializes that
session's requests; different sessions run concurrently, bounded by the
daemon's worker pool.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...cells import default_library
from ...csm.base import SimulationOptions
from ...exceptions import TimingError
from ...sta.engine import CornerSet, CSMEngine, NLDMEngine, TimingEngine
from ...sta.events import TimingEvent
from ...sta.hybrid import HybridEngine
from ...sta.generate import (
    default_time_window,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
)
from ...sta.models import TimingModelLibrary
from ...sta.netlist import (
    GateNetlist,
    eco_swap_candidate,
    netlist_fingerprint,
)
from ..jobs import content_hash
from .protocol import PROTOCOL_VERSION, ServerError, encode_waveform, error_response, ok_response
from .scheduler import SingleFlight, SingleFlightStore

__all__ = ["DesignRecord", "Session", "TimingService"]


@dataclass
class DesignRecord:
    """One registered design revision, addressed by content fingerprint."""

    design_id: str
    name: str
    gates: int
    payload: Dict[str, Any]  # canonical GateNetlist.to_dict()
    registered_at: float
    sessions_opened: int = 0


@dataclass
class Session:
    """One client's private view of a design: mutable netlist + engines."""

    session_id: str
    design_id: str
    netlist: GateNetlist
    created_at: float
    lock: threading.RLock = field(default_factory=threading.RLock)
    engines: Dict[str, TimingEngine] = field(default_factory=dict)
    requests: int = 0
    eco_edits: int = 0
    #: Last time a request addressed this session (the idle-reaper clock;
    #: same ``time.time()`` timeline the store's age policies ride).
    last_used: float = 0.0


class TimingService:
    """The synchronous server core: registry + scheduling + engines.

    Parameters
    ----------
    models:
        A prebuilt :class:`TimingModelLibrary` (tests share one to avoid
        re-characterizing); built from ``library``/``config`` otherwise.
    store:
        The shared result store (typically a
        :class:`~repro.runtime.store.ShardedPackedStore`).  Wrapped in a
        :class:`SingleFlightStore` so overlapping in-flight keys dedupe
        across sessions.  ``None`` runs uncached.
    options:
        CSM simulation options; defaults to the quick profile (2 ps step)
        matching the CLI's ``--settings quick``.
    session_ttl_s:
        Idle-session time-to-live in seconds.  Sessions untouched for longer
        than this are reaped at the next request dispatch (``status`` reports
        the count); ``None`` (the default) keeps sessions forever.
    """

    def __init__(
        self,
        models: Optional[TimingModelLibrary] = None,
        library=None,
        config=None,
        options: Optional[SimulationOptions] = None,
        store=None,
        dedupe_wait_timeout: float = 60.0,
        session_ttl_s: Optional[float] = None,
    ):
        if models is not None:
            self.models = models
            self.library = models.library
        else:
            self.library = library if library is not None else default_library()
            kwargs = {"library": self.library}
            if config is not None:
                kwargs["config"] = config
            self.models = TimingModelLibrary(**kwargs)
        self.store = (
            SingleFlightStore(store, wait_timeout=dedupe_wait_timeout)
            if store is not None
            else None
        )
        if self.models.cache is None and self.store is not None:
            self.models.cache = self.store
        self.options = options or SimulationOptions(time_step=2e-12)
        self.session_ttl_s = session_ttl_s
        self.flight = SingleFlight()
        self.started_at = time.time()
        self._lock = threading.RLock()
        self._designs: Dict[str, DesignRecord] = {}
        self._sessions: Dict[str, Session] = {}
        self._session_counter = itertools.count(1)
        self._corner_sets: Dict[Tuple[str, ...], CornerSet] = {}
        self.requests_total = 0
        self.timing_requests = 0
        self.eco_requests = 0
        self.errors = 0
        self.sessions_reaped = 0
        self._ops = {
            "ping": self.ping,
            "status": self.status,
            "open_session": self.open_session,
            "close_session": self.close_session,
            "timing": self.timing,
            "eco": self.eco,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """One request in, one response out; failures become error frames."""
        self._reap_idle()
        op = request.get("op")
        handler = self._ops.get(op)
        with self._lock:
            self.requests_total += 1
        if handler is None:
            with self._lock:
                self.errors += 1
            return error_response(f"unknown op {op!r}", "bad-request")
        params = {key: value for key, value in request.items() if key != "op"}
        try:
            response = ok_response(**handler(**params))
            # Touch the session again on completion so a request that
            # computes longer than the TTL does not leave its own session
            # instantly reapable.
            self._touch(request.get("session"))
            return response
        except ServerError as exc:
            with self._lock:
                self.errors += 1
            return error_response(str(exc), exc.code)
        except (TimingError, KeyError, TypeError, ValueError) as exc:
            with self._lock:
                self.errors += 1
            return error_response(f"{type(exc).__name__}: {exc}", "bad-request")
        except Exception as exc:  # pragma: no cover - defensive
            with self._lock:
                self.errors += 1
            return error_response(f"{type(exc).__name__}: {exc}", "internal")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return {"pong": True, "pid": os.getpid(), "protocol": PROTOCOL_VERSION}

    def open_session(
        self, design: Mapping[str, Any], session_name: Optional[str] = None
    ) -> Dict[str, Any]:
        record = self._resolve_design(design)
        with self._lock:
            number = next(self._session_counter)
            session_id = session_name or f"s{number:04d}"
            if session_id in self._sessions:
                raise ServerError(
                    f"session {session_id!r} already open", "conflict"
                )
            netlist = GateNetlist.from_dict(self.library, record.payload)
            now = time.time()
            session = Session(
                session_id=session_id,
                design_id=record.design_id,
                netlist=netlist,
                created_at=now,
                last_used=now,
            )
            self._sessions[session_id] = session
            record.sessions_opened += 1
        return {
            "session": session_id,
            "design": record.design_id,
            "gates": record.gates,
            "name": record.name,
        }

    def close_session(self, session: str) -> Dict[str, Any]:
        with self._lock:
            record = self._sessions.pop(session, None)
        if record is None:
            raise ServerError(f"no such session {session!r}", "not-found")
        return {"closed": session, "requests": record.requests}

    def timing(
        self,
        session: str,
        engine: str = "csm",
        seed: int = 0,
        t_stop: Optional[float] = None,
        events: Optional[Mapping[str, Any]] = None,
        nets: Optional[List[str]] = None,
        return_waveforms: bool = False,
        corners: Optional[List[str]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
        required: Optional[Any] = None,
        top_k: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One timing run, single-flighted across sessions by content key.

        ``corners`` selects the batched MMMC path: every named corner is
        propagated in one levelized pass and the response carries per-corner
        arrivals plus a cross-corner worst merge.  ``memory_mode="stream"``
        propagates with the bounded-memory streaming engine (spilling retired
        levels to the server's store); spill/fault counts show up in the
        response stats and the session's ``status`` entry.
        ``engine="hybrid"`` runs the criticality-adaptive NLDM+CSM engine;
        ``required`` (scalar or per-net mapping) and ``top_k`` (int or
        ``"all"``) tune its slack ranking, and the response adds per-net
        exactness flags plus per-iteration refinement stats.
        """
        if memory_mode not in ("resident", "stream"):
            raise ServerError(
                f"unknown memory_mode {memory_mode!r} (use 'resident' or 'stream')",
                "bad-request",
            )
        if memory_budget_bytes is not None and (
            isinstance(memory_budget_bytes, bool)
            or not isinstance(memory_budget_bytes, int)
            or memory_budget_bytes < 0
        ):
            raise ServerError(
                f"memory_budget_bytes must be null or an integer >= 0, got "
                f"{memory_budget_bytes!r}",
                "bad-request",
            )
        if (required is not None or top_k is not None) and engine != "hybrid":
            raise ServerError(
                "'required'/'top_k' only apply to engine='hybrid'",
                "bad-request",
            )
        if engine == "hybrid":
            if corners:
                raise ServerError(
                    "engine='hybrid' is single-corner; submit corners one at "
                    "a time",
                    "bad-request",
                )
            if memory_mode == "stream":
                raise ServerError(
                    "engine='hybrid' does not support memory_mode='stream'",
                    "bad-request",
                )
        if memory_mode == "stream":
            if corners:
                raise ServerError(
                    "memory_mode='stream' does not support multi-corner "
                    "requests; submit corners one at a time",
                    "bad-request",
                )
            if self.store is None:
                raise ServerError(
                    "memory_mode='stream' needs a server store (start the "
                    "server with --cache)",
                    "bad-request",
                )
        record = self._session(session)
        start = time.perf_counter()
        corner_names = (
            tuple(str(name).strip().upper() for name in corners) if corners else None
        )
        with self._lock:
            self.timing_requests += 1
        with record.lock:
            record.requests += 1
            design_digest = content_hash(
                "server-netlist", netlist_fingerprint(record.netlist)
            )
            revision = record.netlist.revision
        request_key = content_hash(
            "server-timing",
            engine,
            design_digest,
            seed,
            t_stop,
            sorted(events.items()) if events else None,
            sorted(nets) if nets else None,
            bool(return_waveforms),
            list(corner_names) if corner_names else None,
            self._settings_token(),
            memory_mode,
            memory_budget_bytes,
            sorted(required.items()) if isinstance(required, Mapping) else required,
            top_k,
        )

        def compute() -> Dict[str, Any]:
            with record.lock:
                return self._timing_locked(
                    record,
                    engine,
                    seed,
                    t_stop,
                    events,
                    nets,
                    return_waveforms,
                    corner_names,
                    memory_mode,
                    memory_budget_bytes,
                    required,
                    top_k,
                )

        payload, coalesced = self.flight.execute(request_key, compute)
        response = dict(payload)
        response["coalesced"] = coalesced
        response["revision"] = revision
        response["design_fingerprint"] = design_digest
        response["latency_ms"] = (time.perf_counter() - start) * 1e3
        return response

    def eco(self, session: str, edits: List[Mapping[str, Any]]) -> Dict[str, Any]:
        """Apply ECO edits to the session's private netlist copy."""
        record = self._session(session)
        with self._lock:
            self.eco_requests += 1
        applied: List[Dict[str, Any]] = []
        with record.lock:
            record.requests += 1
            # Every edit kind reports the same thing: the size of the union
            # of the pre- and post-edit affected regions (what an incremental
            # re-timing may re-integrate).  ``swap_cell``/``auto_swap`` used
            # to report only the pre-swap region, diverging from
            # ``rewire_pin``'s before|after union.
            for edit in edits:
                kind = edit.get("kind")
                if kind == "swap_cell":
                    before = record.netlist.affected_region(edit["instance"])
                    previous = record.netlist.instances[edit["instance"]].cell_name
                    record.netlist.swap_cell(edit["instance"], edit["cell"])
                    after = record.netlist.affected_region(edit["instance"])
                    applied.append(
                        {
                            "kind": kind,
                            "instance": edit["instance"],
                            "cell": edit["cell"],
                            "swapped_from": previous,
                            "affected": len(set(before) | set(after)),
                        }
                    )
                elif kind == "rewire_pin":
                    before = record.netlist.affected_region(edit["instance"])
                    record.netlist.rewire_pin(
                        edit["instance"], edit["pin"], edit["net"]
                    )
                    after = record.netlist.affected_region(edit["instance"])
                    applied.append(
                        {
                            "kind": kind,
                            "instance": edit["instance"],
                            "pin": edit["pin"],
                            "net": edit["net"],
                            "affected": len(set(before) | set(after)),
                        }
                    )
                elif kind == "auto_swap":
                    candidate = eco_swap_candidate(record.netlist)
                    if candidate is None:
                        raise ServerError(
                            "no pin-compatible swap candidate in design",
                            "not-found",
                        )
                    _, instance_name, partner = candidate
                    before = record.netlist.affected_region(instance_name)
                    previous = record.netlist.instances[instance_name].cell_name
                    record.netlist.swap_cell(instance_name, partner)
                    after = record.netlist.affected_region(instance_name)
                    applied.append(
                        {
                            "kind": "swap_cell",
                            "instance": instance_name,
                            "cell": partner,
                            "swapped_from": previous,
                            "affected": len(set(before) | set(after)),
                        }
                    )
                else:
                    raise ServerError(f"unknown edit kind {kind!r}", "bad-request")
            record.eco_edits += len(applied)
            return {
                "applied": applied,
                "revision": record.netlist.revision,
                "design_fingerprint": content_hash(
                    "server-netlist", netlist_fingerprint(record.netlist)
                ),
            }

    def status(self) -> Dict[str, Any]:
        with self._lock:
            designs = {
                design_id: {
                    "name": record.name,
                    "gates": record.gates,
                    "sessions_opened": record.sessions_opened,
                }
                for design_id, record in self._designs.items()
            }
            sessions = {}
            for session_id, record in self._sessions.items():
                sessions[session_id] = {
                    "design": record.design_id,
                    "revision": record.netlist.revision,
                    "requests": record.requests,
                    "eco_edits": record.eco_edits,
                    # Streaming-mode accounting, summed across the session's
                    # engines (always present; zero for resident-only use).
                    "spills": sum(
                        engine.total_stats.get("spills", 0)
                        for engine in record.engines.values()
                    ),
                    "faults": sum(
                        engine.total_stats.get("faults", 0)
                        for engine in record.engines.values()
                    ),
                    "engines": {
                        kind: engine.stats_summary()
                        for kind, engine in record.engines.items()
                    },
                }
            counters = {
                "requests_total": self.requests_total,
                "timing_requests": self.timing_requests,
                "eco_requests": self.eco_requests,
                "errors": self.errors,
                "sessions_reaped": self.sessions_reaped,
            }
        store_report = None
        dedupe = None
        if self.store is not None:
            inner = self.store.inner
            store_report = inner.report() if hasattr(inner, "report") else None
            dedupe = self.store.dedupe_stats()
        return {
            "uptime_s": time.time() - self.started_at,
            "protocol": PROTOCOL_VERSION,
            "session_ttl_s": self.session_ttl_s,
            "designs": designs,
            "sessions": sessions,
            "counters": counters,
            "single_flight": self.flight.stats(),
            "store_dedupe": dedupe,
            "store": store_report,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, session_id: Any) -> None:
        """Refresh a session's idle clock (no-op for unknown/absent ids)."""
        if not isinstance(session_id, str):
            return
        with self._lock:
            record = self._sessions.get(session_id)
            if record is not None:
                record.last_used = time.time()

    def _session(self, session_id: str) -> Session:
        with self._lock:
            record = self._sessions.get(session_id)
            if record is not None:
                record.last_used = time.time()
        if record is None:
            raise ServerError(f"no such session {session_id!r}", "not-found")
        return record

    def _reap_idle(self) -> int:
        """Drop sessions idle past :attr:`session_ttl_s` (no-op when unset).

        Runs at every request dispatch, so the reaper needs no timer thread;
        a request already holding its :class:`Session` object completes
        normally even if the session is reaped underneath it (only the
        registry entry goes away).  Returns the number of sessions reaped.
        """
        ttl = self.session_ttl_s
        if ttl is None:
            return 0
        cutoff = time.time() - ttl
        reaped = 0
        with self._lock:
            for session_id in [
                session_id
                for session_id, record in self._sessions.items()
                if record.last_used < cutoff
            ]:
                del self._sessions[session_id]
                reaped += 1
            self.sessions_reaped += reaped
        return reaped

    def _resolve_design(self, design: Mapping[str, Any]) -> DesignRecord:
        if "generate" in design:
            netlist = generate_netlist(self.library, str(design["generate"]))
        elif "netlist" in design:
            netlist = GateNetlist.from_dict(self.library, design["netlist"])
        else:
            raise ServerError(
                "design must carry 'generate' (a spec string) or 'netlist'",
                "bad-request",
            )
        netlist.validate()
        design_id = content_hash("server-design", netlist_fingerprint(netlist))
        with self._lock:
            record = self._designs.get(design_id)
            if record is None:
                record = DesignRecord(
                    design_id=design_id,
                    name=netlist.name,
                    gates=len(netlist.instances),
                    payload=netlist.to_dict(),
                    registered_at=time.time(),
                )
                self._designs[design_id] = record
        return record

    def _settings_token(self) -> str:
        return content_hash(
            "server-settings",
            self.options,
            self.models.config,
            self.models.use_internal_node,
        )

    def _corner_set(self, corner_names: Tuple[str, ...]) -> CornerSet:
        """The service-wide corner set for these names (built once; corner
        libraries characterize through the shared store)."""
        with self._lock:
            corner_set = self._corner_sets.get(corner_names)
        if corner_set is None:
            corner_set = CornerSet.from_names(
                list(corner_names),
                technology=self.library.technology,
                config=self.models.config,
                cache=self.store,
                use_internal_node=self.models.use_internal_node,
            )
            with self._lock:
                corner_set = self._corner_sets.setdefault(corner_names, corner_set)
        return corner_set

    def _engine(
        self,
        record: Session,
        kind: str,
        corner_names: Optional[Tuple[str, ...]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
    ) -> TimingEngine:
        """The session's engine of this kind (created lazily, rebound on use).

        Multi-corner engines key separately per corner list (``"csm@TT,FF"``)
        so a session can interleave single- and multi-corner requests without
        rebuilding engines; streaming engines key separately per budget
        (``"csm#stream:33554432"``, ``"csm#stream:None"`` for an unbounded
        hot set) for the same reason.  Must hold the session lock.
        """
        engine_key = kind if not corner_names else f"{kind}@{','.join(corner_names)}"
        if memory_mode == "stream":
            engine_key += f"#stream:{memory_budget_bytes}"
        engine = record.engines.get(engine_key)
        if engine is None:
            corner_set = self._corner_set(corner_names) if corner_names else None
            if kind == "csm":
                engine = CSMEngine(
                    record.netlist,
                    self.models,
                    options=self.options,
                    cache=self.store,
                    corners=corner_set,
                    memory_mode=memory_mode,
                    memory_budget_bytes=memory_budget_bytes,
                )
            elif kind == "nldm":
                engine = NLDMEngine(
                    record.netlist,
                    self.models,
                    cache=self.store,
                    corners=corner_set,
                    memory_mode=memory_mode,
                )
            elif kind == "hybrid":
                engine = HybridEngine(
                    record.netlist,
                    self.models,
                    options=self.options,
                    cache=self.store,
                    corners=corner_set,
                    memory_mode=memory_mode,
                )
            else:
                raise ServerError(
                    f"unknown engine kind {kind!r} (use 'csm', 'nldm' or 'hybrid')",
                    "bad-request",
                )
            record.engines[engine_key] = engine
        engine.rebind(record.netlist)
        return engine

    def _timing_locked(
        self,
        record: Session,
        engine_kind: str,
        seed: int,
        t_stop: Optional[float],
        events: Optional[Mapping[str, Any]],
        nets: Optional[List[str]],
        return_waveforms: bool,
        corner_names: Optional[Tuple[str, ...]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
        required: Optional[Any] = None,
        top_k: Optional[Any] = None,
    ) -> Dict[str, Any]:
        engine = self._engine(
            record, engine_kind, corner_names, memory_mode, memory_budget_bytes
        )
        netlist = record.netlist
        report_nets = list(nets) if nets else list(netlist.primary_outputs)
        if corner_names:
            return self._timing_multicorner(
                engine, engine_kind, netlist, report_nets, seed, t_stop, events
            )
        if engine_kind == "hybrid":
            window = float(t_stop) if t_stop else default_time_window(netlist)
            waveforms = primary_input_waveforms(netlist, t_stop=window, seed=int(seed))
            run_kwargs: Dict[str, Any] = {}
            if required is not None:
                run_kwargs["required"] = required
            if top_k is not None:
                run_kwargs["top_k"] = top_k
            result = engine.run(waveforms, t_stop=window, **run_kwargs)
            arrivals = {}
            exact = {}
            for net in report_nets:
                try:
                    arrivals[net] = float(result.arrival(net))
                except TimingError:
                    arrivals[net] = None  # stable or unpropagated
                exact[net] = result.is_exact(net)
            payload: Dict[str, Any] = {
                "engine": "hybrid",
                "arrivals": arrivals,
                "exact": exact,
                "slacks": {
                    net: (list(entry) if entry is not None else None)
                    for net, entry in result.endpoint_slacks.items()
                },
                "csm_fraction": result.csm_fraction,
                "iterations": result.iterations,
                "t_stop": window,
                "stats": result.stats,
            }
            if return_waveforms:
                payload["waveforms"] = {
                    net: encode_waveform(
                        result.waveforms[net].times, result.waveforms[net].values
                    )
                    for net in report_nets
                    if net in result.waveforms
                }
            return payload
        if engine_kind == "nldm":
            if events:
                input_events = {
                    net: TimingEvent(
                        net=net,
                        arrival=float(fields["arrival"]),
                        slew=float(fields["slew"]),
                        rising=bool(fields["rising"]),
                    )
                    for net, fields in events.items()
                }
            else:
                input_events = primary_input_events(netlist, seed=int(seed))
            result = engine.run(input_events)
            arrivals = {}
            slews = {}
            for net in report_nets:
                event = result.events.get(net)
                arrivals[net] = event.arrival if event else None
                slews[net] = event.slew if event else None
            payload: Dict[str, Any] = {
                "engine": "nldm",
                "arrivals": arrivals,
                "slews": slews,
                "stats": result.stats
                if isinstance(result.stats, dict)
                else result.stats.as_dict(),
            }
            return payload

        window = float(t_stop) if t_stop else default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=window, seed=int(seed))
        result = engine.run(waveforms, t_stop=window)
        arrivals = {}
        for net in report_nets:
            try:
                arrivals[net] = float(result.arrival(net))
            except TimingError:
                arrivals[net] = None  # never crosses the threshold
        payload = {
            "engine": "csm",
            "arrivals": arrivals,
            "t_stop": window,
            "stats": result.stats
            if isinstance(result.stats, dict)
            else result.stats.as_dict(),
        }
        if return_waveforms:
            payload["waveforms"] = {
                net: encode_waveform(
                    result.waveforms[net].times, result.waveforms[net].values
                )
                for net in report_nets
                if net in result.waveforms
            }
        return payload

    def _timing_multicorner(
        self,
        engine: TimingEngine,
        engine_kind: str,
        netlist: GateNetlist,
        report_nets: List[str],
        seed: int,
        t_stop: Optional[float],
        events: Optional[Mapping[str, Any]],
    ) -> Dict[str, Any]:
        """One batched MMMC run: per-corner arrivals + cross-corner worst
        merge (``worst_arrivals[net]`` is ``[corner, arrival]`` or ``None``
        for nets that never switch at any corner)."""
        if engine_kind == "nldm":
            if events:
                input_events = {
                    net: TimingEvent(
                        net=net,
                        arrival=float(fields["arrival"]),
                        slew=float(fields["slew"]),
                        rising=bool(fields["rising"]),
                    )
                    for net, fields in events.items()
                }
            else:
                input_events = primary_input_events(netlist, seed=int(seed))
            result = engine.run(input_events)
            arrivals = {
                name: {
                    net: (
                        result.result(name).events[net].arrival
                        if net in result.result(name).events
                        else None
                    )
                    for net in report_nets
                }
                for name in result.corner_order
            }
            payload: Dict[str, Any] = {"engine": "nldm", "t_stop": None}
        else:
            window = float(t_stop) if t_stop else default_time_window(netlist)
            waveforms = primary_input_waveforms(netlist, t_stop=window, seed=int(seed))
            result = engine.run(waveforms, t_stop=window)
            arrivals = {}
            for name in result.corner_order:
                corner_result = result.result(name)
                corner_arrivals: Dict[str, Optional[float]] = {}
                for net in report_nets:
                    try:
                        corner_arrivals[net] = float(corner_result.arrival(net))
                    except TimingError:
                        corner_arrivals[net] = None
                arrivals[name] = corner_arrivals
            payload = {"engine": "csm", "t_stop": window}
        worst = {
            net: (list(entry) if entry is not None else None)
            for net, entry in result.worst_arrivals(report_nets).items()
        }
        payload.update(
            {
                "corners": list(result.corner_order),
                "arrivals": arrivals,
                "worst_arrivals": worst,
                "stats": result.stats,
            }
        )
        return payload
