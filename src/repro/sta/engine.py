"""The unified, levelized timing engines.

One :class:`TimingEngine` interface fronts both timing views of the paper:

* :class:`NLDMEngine` — the conventional voltage-based STA flow: (arrival,
  slew, direction) events looked up in pre-characterized delay/slew tables,
  worst arc propagated, MIS situations flagged but not modeled;
* :class:`CSMEngine` — the waveform-propagating engine built on the
  characterized current-source models, which switches to the cell's MIS model
  (complete MCSM or the baseline) when several inputs switch together.

Both engines walk the netlist in *levelized* order — topological generations
in which every instance's inputs are already resolved — instead of recursing
per instance, and each has exactly one level loop whose modes are
parameters:

* the **corner axis**: a plain run is a corner axis of length 1, an MMMC run
  (``corners=``) one of length C; a per-corner *view* supplies the context
  digest, cell digests, loads and models, so single-corner keys
  (``sta-context``, ``sta-level``, ``sta-run``, ``nldm-*``) and MMMC keys
  (``*-mmmc``) come out of the same code;
* the **memory policy**: ``"resident"`` keeps the in-memory memo and the
  whole-run cache entry, ``"stream"`` adds liveness retirement, a pinned
  hot-level LRU under ``memory_budget_bytes`` and fault-back from the store;
* the **restriction set** (``only=`` / ``boundary_waveforms=``): a full run
  is the restriction to every instance.

For the waveform engine the level is the unit of batching: every level is
one ``(rows, corners, samples)`` :class:`LevelTensor`, integrated in lockstep
through :func:`repro.csm.simulate.integrate_model_many` and spilled to the
store as one record.  ``batched=False`` keeps the per-instance reference path
(the oracle the tensor loop is tested against); the two agree to well below
the 1e-9 V equivalence budget.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Mapping as AbstractMapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..csm.base import SimulationOptions
from ..csm.dc import settle_units
from ..csm.loads import CapacitiveLoad, Load, ReceiverLoad
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..csm.simulate import BatchUnit, integrate_model_many, simulation_time_grid
from ..exceptions import TimingError
from ..runtime.cache import ResultCache
from ..runtime.jobs import cell_fingerprint, content_hash
from ..waveform.level_tensor import LevelTensor
from ..waveform.metrics import crossing_times
from ..waveform.waveform import Waveform
from .events import TimingEvent, detect_mis_pairs
from .mmmc import CornerSet, MulticornerNLDMResult, MulticornerTimingResult
from .models import TimingModelLibrary
from .netlist import GateInstance, GateNetlist, NetConnectivity, netlist_fingerprint

__all__ = [
    "TimingEngine",
    "create_engine",
    "PropagationStats",
    "WaveformTimingResult",
    "CSMEngine",
    "NLDMTimingResult",
    "NLDMEngine",
    "CornerSet",
    "MulticornerTimingResult",
    "MulticornerNLDMResult",
    "waveform_deviation",
]

#: A net is considered switching when its waveform spans more than this
#: fraction of Vdd.
SWITCHING_THRESHOLD_FRACTION = 0.4


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class PropagationStats:
    """Cache accounting of one engine run (CSM waveforms or NLDM events).

    Attributes
    ----------
    instances:
        Instances visited (the whole design, hits included).
    integrations:
        Instances actually evaluated — waveform integrations for the CSM
        engine, table-lookup event evaluations for the NLDM engine.  This is
        the number the incremental tests pin down: zero on a warm repeat,
        exactly the dirty fan-out cone after an edit.
    memo_hits / cache_hits:
        Waveforms served from the engine's in-memory memo respectively the
        content-addressed disk cache.
    duplicates:
        Same-level instances whose propagation key matched another instance
        of the level (identical cell, inputs and load): integrated once,
        shared.
    stores:
        Waveforms written to the disk cache.
    full_run_hit:
        The entire run was served from the whole-design cache entry (no
        per-instance work at all).
    spills:
        Streaming mode only: waveform rows retired from RAM once every
        reader level consumed them (their bytes live on in the packed
        store's data file).
    faults:
        Streaming mode only: spilled level tensors transparently mapped back
        in (zero-copy memmap views) because a later level, an ECO or a
        report touched a retired net.
    """

    instances: int = 0
    integrations: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    stores: int = 0
    full_run_hit: bool = False
    spills: int = 0
    faults: int = 0

    @property
    def cone_hits(self) -> int:
        """Instances served without integration (memo + disk + duplicates)."""
        return self.memo_hits + self.cache_hits + self.duplicates

    def as_dict(self) -> Dict[str, int]:
        return {
            "instances": self.instances,
            "integrations": self.integrations,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "duplicates": self.duplicates,
            "stores": self.stores,
            "full_run_hit": self.full_run_hit,
            "spills": self.spills,
            "faults": self.faults,
        }


@dataclass
class WaveformTimingResult:
    """Per-net waveforms plus per-instance model-choice bookkeeping.

    ``waveforms`` is a plain dict for resident runs; a streaming run hands
    back a lazy mapping (:class:`_SpilledWaveforms`) whose entries fault
    spilled levels back in as zero-copy memmap views on access — same
    interface, bounded memory.
    """

    waveforms: Mapping[str, Waveform]
    model_used: Dict[str, str]
    netlist_name: str
    vdd: float
    stats: Optional[Dict[str, int]] = None

    def waveform(self, net: str) -> Waveform:
        if net not in self.waveforms:
            raise TimingError(f"net {net!r} has no propagated waveform")
        return self.waveforms[net]

    def arrival(self, net: str, rising: Optional[bool] = None) -> float:
        """50 % crossing time of a net (last crossing in the given direction)."""
        waveform = self.waveform(net)
        direction = "any" if rising is None else ("rise" if rising else "fall")
        crossings = crossing_times(waveform, 0.5 * self.vdd, direction)
        if not crossings:
            raise TimingError(f"net {net!r} never crosses 50% of Vdd")
        return crossings[-1]

    def path_delay(self, from_net: str, to_net: str) -> float:
        """Delay between the last 50 % crossings of two nets."""
        return self.arrival(to_net) - self.arrival(from_net)

    def report(self) -> str:
        lines = [f"Waveform (CSM) timing report for {self.netlist_name!r}"]
        for net, waveform in self.waveforms.items():
            crossings = crossing_times(waveform, 0.5 * self.vdd)
            arrival = f"{crossings[-1] * 1e12:9.2f} ps" if crossings else "   stable"
            lines.append(f"  net {net:<12} last 50% crossing {arrival}")
        for instance, model in self.model_used.items():
            lines.append(f"  instance {instance:<10} evaluated with {model}")
        return "\n".join(lines)


@dataclass
class NLDMTimingResult:
    """Per-net events plus bookkeeping produced by the NLDM engine."""

    events: Dict[str, TimingEvent]
    mis_flags: Dict[str, List[Tuple[str, str]]]
    netlist_name: str
    stats: Optional[Dict[str, int]] = None

    def arrival(self, net: str) -> float:
        if net not in self.events:
            raise TimingError(f"net {net!r} has no propagated event")
        return self.events[net].arrival

    def slew(self, net: str) -> float:
        if net not in self.events:
            raise TimingError(f"net {net!r} has no propagated event")
        return self.events[net].slew

    def instances_with_mis(self) -> List[str]:
        """Instances whose input timing windows overlap (potential MIS)."""
        return [name for name, pairs in self.mis_flags.items() if pairs]

    def report(self) -> str:
        lines = [f"NLDM timing report for {self.netlist_name!r}"]
        for net, event in sorted(self.events.items(), key=lambda item: item[1].arrival):
            direction = "rise" if event.rising else "fall"
            lines.append(
                f"  net {net:<12} arrival {event.arrival * 1e12:9.2f} ps  "
                f"slew {event.slew * 1e12:7.2f} ps  ({direction})"
            )
        flagged = self.instances_with_mis()
        if flagged:
            lines.append(f"  instances with overlapping input windows (potential MIS): {flagged}")
        return "\n".join(lines)


def waveform_deviation(
    candidate: WaveformTimingResult, reference: WaveformTimingResult
) -> float:
    """Maximum per-net |dV| between two timing results (over the reference's
    nets).  This is THE equivalence metric between the batched and sequential
    engines — the experiment, the CLI's ``--engine both`` check and the tests
    all compare through it."""
    return max(
        float(
            np.abs(
                candidate.waveform(net).values - reference.waveform(net).values
            ).max()
        )
        for net in reference.waveforms
    )


class _SpilledWaveforms(AbstractMapping):
    """Lazy per-net waveform mapping produced by a streaming run.

    Primary inputs stay resident; every other net holds only a ``(level
    record key, row, corner)`` pointer and materializes on access through
    the engine's hot-level LRU — a zero-copy memmap view when the level has
    to come back from the packed store.  The mapping quacks like the
    resident result's dict (iteration, ``in``, ``len``, indexing), so
    reports, deviation checks and arrival queries work unchanged; only the
    memory behaviour differs.
    """

    def __init__(
        self,
        resident: Dict[str, Waveform],
        pointers: Dict[str, Tuple[str, int, int]],
        fetch,
    ):
        self._resident = resident
        self._pointers = pointers
        self._fetch = fetch  # (net, level_key, row, corner) -> Waveform

    def __getitem__(self, net: str) -> Waveform:
        wave = self._resident.get(net)
        if wave is not None:
            return wave
        pointer = self._pointers.get(net)
        if pointer is None:
            raise KeyError(net)
        return self._fetch(net, *pointer)

    def __iter__(self):
        yield from self._resident
        for net in self._pointers:
            if net not in self._resident:
                yield net

    def __len__(self) -> int:
        extra = sum(1 for net in self._pointers if net not in self._resident)
        return len(self._resident) + extra

    def __contains__(self, net) -> bool:  # the Mapping default would fault
        return net in self._resident or net in self._pointers


@dataclass
class _CornerView:
    """What one corner contributes to a level walk.

    ``name`` is ``None`` for a plain single-corner run (the design's own
    library and models) and the corner name in an MMMC run.  ``context`` is
    the digest every propagation key of that corner shares."""

    name: Optional[str]
    models: TimingModelLibrary
    library: Any  # CellLibrary
    context: str


# ----------------------------------------------------------------------
# The engine interface
# ----------------------------------------------------------------------
class TimingEngine:
    """Base class: a netlist bound to a model library, walked by levels.

    Subclasses implement :meth:`run` for their signal representation (events
    for NLDM, waveforms for CSM).  The base class owns what both need: the
    O(1) net connectivity index, the levelization, and output-load
    construction from characterized receiver capacitances.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        corners: Optional[CornerSet] = None,
    ):
        self.netlist = netlist
        self.models = models
        #: Optional MMMC corner set: when bound, :meth:`run` propagates every
        #: corner in one levelized pass and returns a multi-corner result.
        self.corners = corners
        self._connectivity: Optional[NetConnectivity] = None
        self._levels: Optional[List[List[GateInstance]]] = None
        self._structure_revision = netlist.revision
        self._structure_identity = id(netlist)
        self._library_identity = id(netlist.library)
        #: (corner name or None, cell name) -> cell fingerprint digest.
        self._cell_digests: Dict[Tuple[Optional[str], str], str] = {}
        #: Cache key of the last whole-run entry (None before the first
        #: cached run; handy for targeted eviction).
        self.last_run_key: Optional[str] = None
        self._netlist_digest_cache: Optional[Tuple[int, str]] = None
        #: Serializes :meth:`run` so one engine instance can be shared by
        #: concurrent callers (the timing server's per-session engines).
        self._run_lock = threading.RLock()
        #: Per-run cache accounting of the most recent :meth:`run`; ``None``
        #: until the first run *on the currently bound design* — rebinding
        #: the engine to a different netlist resets it, so a server reusing
        #: one engine can never report another design's stats.
        self.last_stats: Optional[PropagationStats] = None
        #: Lifetime accounting across runs on the bound design.
        self.runs_completed = 0
        self.total_stats: Dict[str, int] = self._zero_totals()

    @staticmethod
    def _zero_totals() -> Dict[str, int]:
        return {
            "instances": 0,
            "integrations": 0,
            "memo_hits": 0,
            "cache_hits": 0,
            "duplicates": 0,
            "stores": 0,
            "full_run_hits": 0,
            "spills": 0,
            "faults": 0,
        }

    # -- lazily built structural views ---------------------------------
    def _sync_structure(self) -> None:
        """Drop structural caches after the netlist was edited or swapped.

        Two triggers: the bound netlist's ``revision`` advanced (an ECO
        edit), or :attr:`netlist` now refers to a *different* object (the
        engine was rebound to another design).  Either way the structural
        views are stale; per-run state (:attr:`last_stats`, the run totals)
        additionally resets on a rebind, and the cell-digest cache resets
        when the new design brings a different cell library.
        """
        rebound = self._structure_identity != id(self.netlist)
        if not rebound and self._structure_revision == self.netlist.revision:
            return
        self._connectivity = None
        self._levels = None
        self._netlist_digest_cache = None
        if rebound:
            self.last_stats = None
            self.runs_completed = 0
            self.total_stats = self._zero_totals()
        if self._library_identity != id(self.netlist.library):
            self._cell_digests = {}
            self._library_identity = id(self.netlist.library)
            self._on_library_change()
        self._on_structure_change()
        self._structure_revision = self.netlist.revision
        self._structure_identity = id(self.netlist)

    def rebind(self, netlist: GateNetlist) -> "TimingEngine":
        """Point the engine at another netlist, resetting per-run state.

        Content-addressed memo entries survive (an identical sub-cone in the
        new design still hits), but stats, levels and connectivity are those
        of the new design only.  Returns ``self`` for chaining.
        """
        self.netlist = netlist
        self._sync_structure()
        return self

    def _on_structure_change(self) -> None:
        """Hook for subclasses holding further netlist-derived caches."""

    def _on_library_change(self) -> None:
        """Hook for subclasses holding library-derived state (e.g. vdd)."""

    # -- content fingerprints shared by both engines's caches -----------
    def _cell_digest(self, view: _CornerView, cell_name: str) -> str:
        """Cell fingerprint against the view's library (a corner library's
        cell differs from the design library's even though the name
        matches)."""
        key = (view.name, cell_name)
        digest = self._cell_digests.get(key)
        if digest is None:
            digest = content_hash("sta-cell", cell_fingerprint(view.library[cell_name]))
            self._cell_digests[key] = digest
        return digest

    def _corner_views(
        self, base_context: Callable[[TimingModelLibrary], str], prefix: str
    ) -> List[_CornerView]:
        """The run's corner axis: one view of the bound design, or one per
        MMMC corner whose context digest adds the corner's identity
        (``<prefix>-context-mmmc``), so per-corner keys never collide."""
        if self.corners is None:
            return [
                _CornerView(None, self.models, self.netlist.library, base_context(self.models))
            ]
        return [
            _CornerView(
                cc.name,
                cc.models,
                cc.library,
                content_hash(
                    f"{prefix}-context-mmmc", base_context(cc.models), cc.name, cc.corner
                ),
            )
            for cc in self.corners
        ]

    def _run_key(
        self,
        prefix: str,
        views: Sequence[_CornerView],
        seed_keys: Mapping[str, str],
        only: Optional[Set[str]] = None,
    ) -> str:
        """Whole-run cache key: ``<prefix>-run`` for one view,
        ``<prefix>-run-mmmc`` over the corner contexts, and a separate
        ``-restricted`` namespace (so a partial result is never served to a
        full run)."""
        if self.corners is None:
            tag, context = f"{prefix}-run", views[0].context
        else:
            tag, context = f"{prefix}-run-mmmc", [view.context for view in views]
        parts = [context, self._netlist_digest(), sorted(seed_keys.items())]
        if only is not None:
            tag += "-restricted"
            parts.append(sorted(only))
        return content_hash(tag, *parts)

    def _netlist_digest(self) -> str:
        self._sync_structure()
        if self._netlist_digest_cache is None:
            digest = content_hash("sta-netlist", netlist_fingerprint(self.netlist))
            self._netlist_digest_cache = (self.netlist.revision, digest)
        return self._netlist_digest_cache[1]

    @property
    def connectivity(self) -> NetConnectivity:
        self._sync_structure()
        if (
            self._connectivity is None
            or self._connectivity.revision != self.netlist.revision
        ):
            # `_sync_structure` already drops the snapshot on a revision
            # bump; this guard additionally refuses to serve a snapshot whose
            # recorded revision disagrees with the netlist, so a stale CSR
            # row map can never survive an ECO edit even if a subclass (or a
            # future refactor) repopulates `_connectivity` out of band.
            self._connectivity = self.netlist.connectivity()
        return self._connectivity

    def levels(self) -> List[List[GateInstance]]:
        """Topological generations of the netlist (cached per engine,
        rebuilt automatically after netlist edits)."""
        self._sync_structure()
        if self._levels is None:
            self._levels = self.netlist.topological_generations()
        return self._levels

    # -- shared helpers ------------------------------------------------
    def _cell(self, instance: GateInstance):
        return self.netlist.library[instance.cell_name]

    def _output_net(self, instance: GateInstance) -> str:
        return instance.connections[self._cell(instance).output]

    def _lumped_output_load(
        self, instance: GateInstance, models: TimingModelLibrary
    ) -> float:
        """Scalar load: receiver input capacitances (against the given
        model library — MMMC corners characterize their own) plus wire
        capacitance."""
        output_net = self._output_net(instance)
        load = self.netlist.net_wire_capacitance.get(output_net, 0.0)
        for receiver, pin in self.connectivity.receivers_of(output_net):
            load += models.receiver_input_capacitance(receiver.cell_name, pin)
        return load

    def _output_load(self, instance: GateInstance, models: TimingModelLibrary) -> Load:
        """Structured load for the waveform engine (receiver caps + wire)."""
        output_net = self._output_net(instance)
        receiver_caps = [
            models.receiver_input_capacitance(receiver.cell_name, pin)
            for receiver, pin in self.connectivity.receivers_of(output_net)
        ]
        wire = self.netlist.net_wire_capacitance.get(output_net, 0.0)
        if not receiver_caps and wire == 0.0:
            # An unloaded primary output still needs some charge storage for
            # the output update equation to be well conditioned.
            return CapacitiveLoad(1e-15)
        return ReceiverLoad(receiver_caps=receiver_caps, wire_capacitance=wire)

    def _stamp_stats(self, value, per_stats: Sequence[PropagationStats]):
        """Attach per-corner accounting to a (single- or multi-corner)
        result and fold it into :attr:`last_stats`; an MMMC run is a full
        hit only when *every* corner was served from the run cache."""
        if self.corners is None:
            value.stats = per_stats[0].as_dict()
            self.last_stats = per_stats[0]
            return value
        names = self.corners.names
        for name, stats in zip(names, per_stats):
            result = value.results.get(name)
            if result is not None:
                result.stats = stats.as_dict()
        value.stats = {name: stats.as_dict() for name, stats in zip(names, per_stats)}
        total = PropagationStats()
        for stats in per_stats:
            total.instances += stats.instances
            total.integrations += stats.integrations
            total.memo_hits += stats.memo_hits
            total.cache_hits += stats.cache_hits
            total.duplicates += stats.duplicates
            total.stores += stats.stores
            total.spills += stats.spills
            total.faults += stats.faults
        total.full_run_hit = all(stats.full_run_hit for stats in per_stats)
        self.last_stats = total
        return value

    def _cached_run(self, run_key: str, per_stats: Sequence[PropagationStats]):
        """Serve a whole-run cache entry (``None`` on a miss)."""
        self.last_run_key = run_key
        hit, value = self.cache.lookup(run_key)
        if not hit:
            return None
        for stats in per_stats:
            stats.full_run_hit = True
        return self._stamp_stats(value, per_stats)

    def run(self, *args, **kwargs):
        """Run the engine (thread-safe: concurrent calls serialize).

        Dispatches to the subclass :meth:`_run_impl` under the run lock and
        folds the run's :class:`PropagationStats` into the lifetime totals.
        """
        with self._run_lock:
            result = self._run_impl(*args, **kwargs)
            self.runs_completed += 1
            stats = self.last_stats
            if stats is not None:
                self.total_stats["instances"] += stats.instances
                self.total_stats["integrations"] += stats.integrations
                self.total_stats["memo_hits"] += stats.memo_hits
                self.total_stats["cache_hits"] += stats.cache_hits
                self.total_stats["duplicates"] += stats.duplicates
                self.total_stats["stores"] += stats.stores
                self.total_stats["full_run_hits"] += int(stats.full_run_hit)
                self.total_stats["spills"] += stats.spills
                self.total_stats["faults"] += stats.faults
            return result

    def _run_impl(self, *args, **kwargs):
        raise NotImplementedError

    def stats_summary(self) -> Dict[str, Any]:
        """JSON-ready per-engine accounting (surfaced by the timing server)."""
        return {
            "runs": self.runs_completed,
            "last": self.last_stats.as_dict() if self.last_stats else None,
            "total": dict(self.total_stats),
        }


def create_engine(
    kind: str,
    netlist: GateNetlist,
    models: TimingModelLibrary,
    **kwargs,
) -> TimingEngine:
    """Engine factory: ``"csm"`` (levelized batched waveform propagation),
    ``"csm-sequential"`` (the per-instance reference path), ``"nldm"`` or
    ``"hybrid"`` (NLDM everywhere, CSM on the critical cones)."""
    if kind == "csm":
        return CSMEngine(netlist, models, **kwargs)
    if kind == "csm-sequential":
        kwargs.pop("batched", None)
        return CSMEngine(netlist, models, batched=False, **kwargs)
    if kind == "nldm":
        return NLDMEngine(netlist, models, **kwargs)
    if kind == "hybrid":
        from .hybrid import HybridEngine

        return HybridEngine(netlist, models, **kwargs)
    raise TimingError(
        f"unknown timing engine kind {kind!r}; expected 'csm', 'csm-sequential', "
        "'nldm' or 'hybrid'"
    )


def _validate_memory_mode(memory_mode: str, use_cache: bool, cache) -> None:
    """Shared engine-constructor guard for ``memory_mode=``."""
    if memory_mode not in ("resident", "stream"):
        raise TimingError(
            f"unknown memory_mode {memory_mode!r}; expected 'resident' or 'stream'"
        )
    if memory_mode == "stream" and (not use_cache or cache is None):
        raise TimingError(
            "memory_mode='stream' spills working-set data to the "
            "content-addressed store; construct the engine with a cache and "
            "use_cache=True"
        )


# ----------------------------------------------------------------------
# NLDM: event propagation per level
# ----------------------------------------------------------------------
class NLDMEngine(TimingEngine):
    """Propagates (arrival, slew) events through a gate netlist.

    Like :class:`CSMEngine`, event propagation is content-addressed: every
    instance gets a per-net propagation key built bottom-up from the stimulus
    events, the cell fingerprint and the lumped output load, and its output
    event (plus the MIS bookkeeping) is served from an in-memory memo or the
    disk cache on a repeat.  Event tuples are tiny, so on the packed store
    (:class:`repro.runtime.store.PackedStore`) they live directly in the
    index — no data-file record at all.  A warm repeat of an unchanged
    netlist evaluates zero instances; an ECO edit re-evaluates only the
    affected region.

    Parameters
    ----------
    cache:
        Content-addressed disk store for per-instance events and whole-run
        results; defaults to the model library's cache.
    use_cache:
        Disable all propagation fingerprinting/memoization when false (the
        pre-PR5 always-evaluate behaviour).
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        corners: Optional[CornerSet] = None,
        memory_mode: str = "resident",
    ):
        super().__init__(netlist, models, corners=corners)
        self.cache = cache if cache is not None else models.cache
        self.use_cache = use_cache
        _validate_memory_mode(memory_mode, use_cache, self.cache)
        #: ``"resident"`` keeps every propagated event memoized in RAM;
        #: ``"stream"`` makes the disk store the working set (no in-memory
        #: memo, no whole-run entry) — events are tiny, so this mostly buys
        #: uniform semantics with the CSM engine's streaming mode.
        self.memory_mode = memory_mode
        #: key -> (event fields tuple | None, MIS pin pairs); content-addressed,
        #: so it survives netlist edits just like the CSM waveform memo.
        self._memo: Dict[str, Tuple[Optional[Tuple[float, float, bool]], List[Tuple[str, str]]]] = {}

    @staticmethod
    def _context_digest(models: TimingModelLibrary) -> str:
        """Everything every NLDM propagation key of one corner shares: the
        characterized table axes.  (The characterization config shapes CSM
        models, not the NLDM tables, so it does not participate; receiver
        input capacitances participate through each key's load value.)"""
        return content_hash("nldm-context", models.nldm_input_slews, models.nldm_loads)

    @staticmethod
    def stimulus_keys(input_events: Mapping[str, TimingEvent]) -> Dict[str, str]:
        """Content keys of the primary-input events (name-independent)."""
        return {
            net: content_hash("nldm-stimulus", event.arrival, event.slew, event.rising)
            for net, event in input_events.items()
        }

    def clear_propagation_memo(self) -> None:
        """Drop the in-memory event memo (the disk cache is untouched)."""
        self._memo.clear()

    def _lookup_event(
        self, key: str, stats: PropagationStats
    ) -> Optional[Tuple[Optional[Tuple[float, float, bool]], List[Tuple[str, str]]]]:
        """Memo, then disk; counts the provenance on the run's stats."""
        if key in self._memo:
            stats.memo_hits += 1
            return self._memo[key]
        if self.cache is not None:
            hit, value = self.cache.lookup(key)
            if hit:
                try:
                    fields = value["event"]
                    pairs = [tuple(pair) for pair in value["mis"]]
                except (TypeError, KeyError):  # foreign entry under our key
                    return None
                cached = (tuple(fields) if fields is not None else None, pairs)
                stats.cache_hits += 1
                if self.memory_mode == "stream":
                    stats.faults += 1  # served straight from the store
                else:
                    self._memo[key] = cached
                return cached
        return None

    def _run_impl(self, input_events: Dict[str, TimingEvent]):
        """Propagate events from the primary inputs to every net.

        One level walk serves every corner of the run: the structural work
        (levelization, pin-net maps) is shared while per-corner model
        lookups, propagation keys and events stay fully separate.  Returns a
        :class:`NLDMTimingResult`, or a :class:`MulticornerNLDMResult` when
        the engine is bound to a corner set.

        Parameters
        ----------
        input_events:
            Net name -> event for every switching primary input.  Primary
            inputs without an event are treated as stable.
        """
        for net in input_events:
            if net not in self.netlist.primary_inputs:
                raise TimingError(f"{net!r} is not a primary input of {self.netlist.name!r}")
        levels = self.levels()  # also re-syncs structural caches after edits
        views = self._corner_views(self._context_digest, "nldm")
        per_stats = [PropagationStats(instances=len(self.netlist.instances)) for _ in views]
        caching = self.use_cache
        streaming = self.memory_mode == "stream"
        net_keys: List[Dict[str, str]] = [{} for _ in views]
        run_key: Optional[str] = None
        if caching:
            stimuli = self.stimulus_keys(input_events)
            net_keys = [dict(stimuli) for _ in views]
            # Streaming skips the whole-run entry both ways: looking one up
            # would materialize every event at once, and storing one would
            # let a later resident run be served by a streaming run (the
            # per-instance entries are shared — and identical — either way).
            if self.cache is not None and not streaming:
                run_key = self._run_key("nldm", views, stimuli)
                cached = self._cached_run(run_key, per_stats)
                if cached is not None:
                    return cached

        # Characterize every receiver pin's SIS model up front, exactly like
        # the waveform engine: load construction then always uses
        # characterized input capacitances, so per-instance propagation keys
        # (which embed the lumped load) never depend on which models some
        # earlier run happened to characterize.
        for view in views:
            view.models.prewarm_for_netlist(self.netlist, kinds=("sis",))

        events: List[Dict[str, TimingEvent]] = [dict(input_events) for _ in views]
        mis_flags: List[Dict[str, List[Tuple[str, str]]]] = [{} for _ in views]

        for level in levels:
            for instance in level:
                cell = self._cell(instance)
                output_net = instance.connections[cell.output]
                pin_nets = {pin: instance.connections[pin] for pin in cell.inputs}
                for view, stats, keys, corner_events, flags in zip(
                    views, per_stats, net_keys, events, mis_flags
                ):
                    load = self._lumped_output_load(instance, view.models)
                    key: Optional[str] = None
                    if caching:
                        inputs = [
                            (pin, keys.get(pin_nets[pin], "stable")) for pin in cell.inputs
                        ]
                        key = content_hash(
                            "nldm-propagation",
                            view.context,
                            self._cell_digest(view, instance.cell_name),
                            load,
                            inputs,
                        )
                        keys[output_net] = key
                        cached = self._lookup_event(key, stats)
                        if cached is not None:
                            fields, pairs = cached
                            flags[instance.name] = list(pairs)
                            if fields is not None:
                                arrival, slew, rising = fields
                                corner_events[output_net] = TimingEvent(
                                    net=output_net, arrival=arrival, slew=slew, rising=rising
                                )
                            continue

                    flags[instance.name] = detect_mis_pairs(corner_events, cell.inputs, pin_nets)
                    candidate: Optional[TimingEvent] = None
                    for pin in cell.inputs:
                        net = pin_nets[pin]
                        if net not in corner_events:
                            continue
                        event = corner_events[net]
                        table = view.models.nldm_table(
                            instance.cell_name, pin, input_rise=event.rising
                        )
                        delay = table.delay(event.slew, load)
                        output_slew = table.output_slew(event.slew, load)
                        output_event = TimingEvent(
                            net=output_net,
                            arrival=event.arrival + delay,
                            slew=output_slew,
                            rising=table.output_rise,
                        )
                        if candidate is None or output_event.arrival > candidate.arrival:
                            candidate = output_event
                    stats.integrations += 1
                    if candidate is not None:
                        corner_events[output_net] = candidate

                    if key is not None:
                        fields = (
                            (candidate.arrival, candidate.slew, candidate.rising)
                            if candidate is not None
                            else None
                        )
                        if streaming:
                            stats.spills += 1  # the store is the only copy
                        else:
                            self._memo[key] = (fields, flags[instance.name])
                        if self.cache is not None:
                            self.cache.store(key, {"event": fields, "mis": flags[instance.name]})
                            stats.stores += 1

        results = [
            NLDMTimingResult(
                events=corner_events, mis_flags=flags, netlist_name=self.netlist.name
            )
            for corner_events, flags in zip(events, mis_flags)
        ]
        if self.corners is None:
            merged = results[0]
        else:
            merged = MulticornerNLDMResult(
                results=dict(zip(self.corners.names, results)),
                corner_order=list(self.corners.names),
                netlist_name=self.netlist.name,
            )
        self._stamp_stats(merged, per_stats)
        if run_key is not None:
            self.cache.store(run_key, merged)
        return merged


# ----------------------------------------------------------------------
# CSM: waveform propagation, one tensor level loop
# ----------------------------------------------------------------------
#: Streaming pointer of a spilled net: (level record key, row, corner).
_Pointer = Tuple[str, int, int]


@dataclass
class _Plan:
    """Model-free description of one instance evaluation at one corner.

    Everything here is derived from the netlist structure, the per-net
    switching classification and the characterization *configuration* —
    never from a characterized model — so computing it (and the propagation
    ``key``) stays cheap on cache hits.
    """

    instance: GateInstance
    output_net: str
    pins: Tuple[str, ...]
    mis: bool
    label: str
    load: Load
    key: Optional[str] = None


@dataclass
class _StructuralPlan(_Plan):
    """A :class:`_Plan` of the per-instance reference path, which carries
    its pins' :class:`Waveform` objects instead of sample rows."""

    pin_waves: Dict[str, Waveform] = field(default_factory=dict)


@dataclass
class _InstancePlan:
    """Everything needed to evaluate one instance of a level."""

    instance: GateInstance
    output_net: str
    model: object  # SISCSM | BaselineMISCSM | MCSM
    pins: Tuple[str, ...]
    waves: Dict[str, Waveform]
    load: Load
    label: str

    @property
    def has_internal(self) -> bool:
        return isinstance(self.model, MCSM)

    def miller_caps(self) -> Dict[str, object]:
        model = self.model
        if isinstance(model, SISCSM):
            return {model.pin: model.miller_cap}
        if isinstance(model, BaselineMISCSM):
            return model.effective_miller_caps()
        return dict(model.miller_caps)


@dataclass
class _CornerRun:
    """One corner's propagation state through a level walk."""

    view: _CornerView
    stats: PropagationStats
    net_keys: Dict[str, str] = field(default_factory=dict)
    model_used: Dict[str, str] = field(default_factory=dict)
    #: Sample rows (on the run grid) of every live net; streaming retires
    #: a row once its last reader level consumed it.
    rows: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-net initial value and switching class — a few bytes per net that
    #: never retire, which keeps propagation keys identical across memory
    #: policies.
    initials: Dict[str, float] = field(default_factory=dict)
    switching: Dict[str, bool] = field(default_factory=dict)
    #: Materialized result waveforms (streaming: primary inputs only).
    waveforms: Dict[str, Waveform] = field(default_factory=dict)
    #: Streaming: every produced net's spilled level row.
    pointers: Dict[str, _Pointer] = field(default_factory=dict)


def _decode_pointer(value: object) -> Optional[_Pointer]:
    """``{"t": "level-row", "level": <key>, "row": <r>[, "corner": <c>]}``
    -> ``(level, row, corner)``; anything else is ``None``.  Single-corner
    pointers omit the corner (column 0)."""
    if not (isinstance(value, dict) and value.get("t") == "level-row"):
        return None
    level_key, row, corner = value.get("level"), value.get("row"), value.get("corner", 0)
    if not (isinstance(level_key, str) and isinstance(row, int) and isinstance(corner, int)):
        return None
    return level_key, row, corner


def _tensor_row(
    tensor: Optional[LevelTensor], row: int, corner: int, times: np.ndarray
) -> Optional[np.ndarray]:
    """A level tensor's sample row, or ``None`` when the tensor is missing
    or does not match the pointer and the run grid."""
    if (
        tensor is None
        or tensor.num_samples != len(times)
        or not 0 <= row < tensor.num_rows
        or not 0 <= corner < tensor.num_corners
    ):
        return None
    return tensor.row_values(row, corner)


class CSMEngine(TimingEngine):
    """Propagates waveforms through a gate netlist using CSM models.

    Parameters
    ----------
    batched:
        When true (default) each level is one ``(instances, corners,
        samples)`` :class:`LevelTensor`: instances gather their input rows by
        index, every level is settled and integrated in lockstep through
        :func:`~repro.csm.simulate.integrate_model_many` (table lookups
        shared across instances of the same model), and the propagation
        cache spills the level as a single record whose per-instance entries
        are row pointers into it.  When false each instance runs through
        ``model.simulate`` individually — the reference path the tensor loop
        is tested against.
    cache:
        Content-addressed disk cache for per-instance output waveforms and
        whole-run results; defaults to the model library's cache.  Every
        instance evaluation is keyed by the full upstream content (cell
        fingerprint, model configuration, load, input-net keys down to the
        stimuli), so a warm run integrates nothing and an edited run
        re-integrates exactly the dirty fan-out cone.
    use_cache:
        Disable all propagation fingerprinting/memoization (the pre-PR4
        always-integrate behaviour) when false.
    corners:
        Optional MMMC corner set: the level loop then carries one corner
        axis entry per corner and :meth:`run` returns a
        :class:`MulticornerTimingResult`.
    corner_workers:
        Threads for a multi-corner level evaluation (one corner per task).
        ``None`` resolves to ``min(corner count, visible CPUs)``; one worker
        runs the fused single-stack pass over every corner.
    memory_mode / memory_budget_bytes:
        ``"resident"`` (default) keeps every propagated waveform in RAM;
        ``"stream"`` retires each level's sample rows to the store once
        their last reader level consumed them, keeping only a pinned LRU of
        hot level tensors bounded by ``memory_budget_bytes`` (``None``:
        unbounded).
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        options: Optional[SimulationOptions] = None,
        batched: bool = True,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        corners: Optional[CornerSet] = None,
        corner_workers: Optional[int] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
    ):
        super().__init__(netlist, models, corners=corners)
        self.options = options or SimulationOptions()
        self.batched = batched
        self.corner_workers = corner_workers
        self.vdd = netlist.library.technology.vdd
        self.cache = cache if cache is not None else models.cache
        self.use_cache = use_cache
        # The in-memory memo survives netlist edits: its entries are
        # content-addressed, so an edit simply stops addressing the stale
        # ones — that is what makes a re-run after an ECO edit incremental
        # even without a disk cache.
        self._memo: Dict[str, Waveform] = {}
        #: Level-record key -> decoded LevelTensor; content-addressed like
        #: the waveform memo, so it too survives netlist edits.
        self._level_tensors: Dict[str, LevelTensor] = {}
        #: (corner name or None, instance name) -> structured output load;
        #: purely structural, so it is dropped whenever the netlist changes.
        self._load_cache: Dict[Tuple[Optional[str], str], Load] = {}
        _validate_memory_mode(memory_mode, use_cache, self.cache)
        if memory_mode == "stream" and not batched:
            raise TimingError("memory_mode='stream' requires the batched tensor path")
        self.memory_mode = memory_mode
        self.memory_budget_bytes = memory_budget_bytes
        #: Streaming hot set: level record key -> (tensor, nbytes), oldest
        #: first (an OrderedDict used as an LRU).
        self._hot_levels: "OrderedDict[str, Tuple[LevelTensor, int]]" = OrderedDict()
        self._hot_bytes = 0
        #: Level record keys this engine pinned in the store (never evicted
        #: or compacted away while a run's views may still reference them).
        self._stream_pins: Set[str] = set()
        if corners is not None:
            if not batched:
                raise TimingError(
                    "multi-corner propagation requires the batched tensor path"
                )
            for cc in corners:
                corner_vdd = cc.library.technology.vdd
                if abs(corner_vdd - self.vdd) > 1e-12:
                    raise TimingError(
                        f"corner {cc.name!r} has vdd {corner_vdd} != design vdd "
                        f"{self.vdd}; per-corner voltage grids are not batchable"
                    )

    def _on_structure_change(self) -> None:
        self._load_cache = {}

    def _on_library_change(self) -> None:
        self.vdd = self.netlist.library.technology.vdd

    def _corner_worker_count(self, num_corners: int) -> int:
        """Threads to spend on one multi-corner level evaluation."""
        if self.corner_workers is not None:
            return max(1, min(self.corner_workers, num_corners))
        return max(1, min(num_corners, os.cpu_count() or 1))

    # -- fingerprints --------------------------------------------------
    def _mode(self) -> str:
        # The per-instance reference path keeps its own cache namespace so
        # "sequential" results are never silently served from batched runs
        # (they agree to 1e-9 V, not bitwise).
        return "batched" if self.batched else "sequential"

    def _context_digest(self, t_start: float, t_stop: float) -> str:
        """Everything every propagation key shares for one run."""
        return content_hash(
            "sta-context",
            self._mode(),
            self.options,
            self.models.config,
            self.models.use_internal_node,
            t_start,
            t_stop,
        )

    @staticmethod
    def stimulus_keys(input_waveforms: Mapping[str, Waveform]) -> Dict[str, str]:
        """Content keys of the primary-input stimuli (name-independent)."""
        return {
            net: content_hash("sta-stimulus", wave.times, wave.values)
            for net, wave in input_waveforms.items()
        }

    def clear_propagation_memo(self) -> None:
        """Drop the in-memory waveform memo (the disk cache is untouched)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    def _run_impl(
        self,
        input_waveforms: Dict[str, Waveform],
        t_stop: Optional[float] = None,
        t_start: Optional[float] = None,
        only: Optional[Iterable[str]] = None,
        boundary_waveforms: Optional[Dict[str, Waveform]] = None,
    ):
        """Propagate waveforms from the primary inputs through the design.

        With caching enabled (the default) every instance consults the
        in-memory memo and the disk cache through its propagation key before
        integrating, and the completed result is stored under a whole-run key
        — so an unchanged repeat is a no-op and a run after a netlist edit
        re-integrates only the edit's fan-out cone.  ``result.stats`` (and
        :attr:`last_stats`) record the hit/integration accounting.  Returns a
        :class:`WaveformTimingResult`, or a :class:`MulticornerTimingResult`
        when the engine is bound to a corner set.

        Parameters
        ----------
        input_waveforms:
            Net name -> waveform for every primary input (switching or not).
        t_stop / t_start:
            The common time window every net's waveform is computed over;
            defaults to the intersection of the input waveforms' spans.
        only:
            Restrict propagation to these instance names (the hybrid engine's
            critical cones).  Loads, grids and stimuli are those of the FULL
            design, so every in-cone instance whose whole fan-in is in the
            cone gets the *same* propagation key as a full run.  Requires the
            batched path.  A cone covering every instance is normalized back
            to an unrestricted run so even the whole-run cache entry is
            shared.
        boundary_waveforms:
            Net name -> stimulus for nets driven *outside* a truncated cone
            (only valid together with ``only``).  Boundary nets chain their
            content keys from the stimulus samples, so approximate boundary
            values can never collide with the exact namespace; they are not
            part of the result's waveforms.
        """
        missing = [net for net in self.netlist.primary_inputs if net not in input_waveforms]
        if missing:
            raise TimingError(f"missing waveforms for primary inputs {missing}")
        t_stop = t_stop if t_stop is not None else min(w.t_stop for w in input_waveforms.values())
        t_start = t_start if t_start is not None else max(w.t_start for w in input_waveforms.values())
        boundary_waveforms = dict(boundary_waveforms or {})
        if boundary_waveforms and only is None:
            raise TimingError("boundary_waveforms requires a restricted cone (only=)")
        if only is not None:
            if not self.batched:
                raise TimingError(
                    "restricted propagation (only=) requires the batched tensor path"
                )
            names = set(self.netlist.instances)
            only = set(only)
            unknown = sorted(only - names)
            if unknown:
                raise TimingError(
                    f"restricted cone names unknown instances {unknown} "
                    f"in {self.netlist.name!r}"
                )
            overlap = sorted(set(boundary_waveforms) & set(input_waveforms))
            if overlap:
                raise TimingError(
                    f"boundary waveforms shadow primary inputs {overlap}"
                )
            if only == names and not boundary_waveforms:
                only = None  # full cover IS a plain run: share its run key

        levels = self.levels()  # also re-syncs structural caches after edits
        views = self._corner_views(lambda _models: self._context_digest(t_start, t_stop), "sta")
        instances = len(only) if only is not None else len(self.netlist.instances)
        runs = [_CornerRun(view, PropagationStats(instances=instances)) for view in views]
        per_stats = [run.stats for run in runs]
        caching = self.use_cache
        streaming = self.memory_mode == "stream"
        run_key: Optional[str] = None
        if caching:
            seed_keys = self.stimulus_keys(input_waveforms)
            seed_keys.update(self.stimulus_keys(boundary_waveforms))
            for run in runs:
                run.net_keys = dict(seed_keys)
            # Streaming skips the whole-run entry both ways: looking one up
            # would materialize every waveform at once, and storing one would
            # let a later resident run skip re-populating its memo.  The
            # per-instance propagation keys are identical in both modes, so
            # the run entry is the only namespace difference.
            if self.cache is not None and not streaming:
                run_key = self._run_key("sta", views, seed_keys, only)
                cached = self._cached_run(run_key, per_stats)
                if cached is not None:
                    return cached

        # Characterize the SIS models of every receiver pin up front (one
        # cache-aware parallel job set).  Loads then always use characterized
        # input capacitances, identically for the batched and sequential
        # paths and independent of instance evaluation order.
        for view in views:
            view.models.prewarm_for_netlist(self.netlist, kinds=("sis",))

        inputs = {net: wave.renamed(net) for net, wave in input_waveforms.items()}
        for run in runs:
            run.waveforms = dict(inputs)
        if self.batched:
            waveforms = self._propagate(
                levels, runs, input_waveforms, boundary_waveforms, only,
                t_start, t_stop, caching, streaming,
            )
        else:
            self._propagate_waveforms(levels, runs[0], t_start, t_stop, caching)
            waveforms = [runs[0].waveforms]

        results = [
            WaveformTimingResult(
                waveforms=corner_waveforms,
                model_used=run.model_used,
                netlist_name=self.netlist.name,
                vdd=self.vdd,
            )
            for run, corner_waveforms in zip(runs, waveforms)
        ]
        if self.corners is None:
            merged = results[0]
        else:
            merged = MulticornerTimingResult(
                results=dict(zip(self.corners.names, results)),
                corner_order=list(self.corners.names),
                netlist_name=self.netlist.name,
                vdd=self.vdd,
            )
        self._stamp_stats(merged, per_stats)
        if run_key is not None:
            self.cache.store(run_key, merged)
        return merged

    # ------------------------------------------------------------------
    # The tensor level loop
    # ------------------------------------------------------------------
    def _propagate(
        self,
        levels: Sequence[Sequence[GateInstance]],
        runs: List[_CornerRun],
        input_waveforms: Dict[str, Waveform],
        boundary_waveforms: Dict[str, Waveform],
        only: Optional[Set[str]],
        t_start: float,
        t_stop: float,
        caching: bool,
        streaming: bool,
    ) -> List[Mapping[str, Waveform]]:
        """Walk the levels once for every corner, memory policy and cone.

        Every driven net lives as one row of a :class:`LevelTensor` on the
        run grid; per level, each instance is planned and keyed per corner,
        served from the memo/store when every corner hits, deduplicated
        against an earlier identical instance, or else integrated with the
        level's other misses in one :meth:`_evaluate_level` pass whose
        ``(instances, corners, samples)`` tensor :meth:`_spill` stores as
        one record.

        ``only`` skips everything outside the cone outright (no plan, no
        key, no row); ``boundary_waveforms`` seed rows and chained content
        keys for the cut nets of a truncated cone.  An in-cone instance
        reading a driven net that neither the cone nor the boundary provides
        is a closure violation and raises, because silently treating it as a
        constant-at-non-controlling net would corrupt the "exact" guarantee.

        ``streaming`` changes memory behaviour only, never a sample: nothing
        is memoized in RAM, rows retire after their last reader level (a
        liveness pass gives exact retire points), hot level tensors are
        capped by :attr:`memory_budget_bytes`, and a retired net reached
        again (a deep skip-connection, a report) faults its level back in.

        Bitwise-equivalence bookkeeping vs the per-instance reference:

        * primary inputs are classified and settled from their *original*
          waveforms — their resampled rows could miss inter-grid peaks and
          ``values[0]`` when the stimulus starts before the run window;
        * stable nets reuse the constant-at-non-controlling-level semantics
          (a constant row interpolates to exactly the level).
        """
        times = simulation_time_grid(t_start, t_stop, self.options)
        step = float(times[1] - times[0])
        threshold = SWITCHING_THRESHOLD_FRACTION * self.vdd
        if only is not None:
            levels = [[instance for instance in level if instance.name in only] for level in levels]
        seeds = {**input_waveforms, **boundary_waveforms}
        for net, wave in seeds.items():
            row = np.asarray(wave.value_at(times), dtype=float)
            initial = float(wave.initial_value())
            switching = self._is_switching(wave)
            for run in runs:
                run.rows[net] = row
                run.initials[net] = initial
                run.switching[net] = switching

        #: Streaming: level position -> nets whose last reader it is, and
        #: level record key -> (corner, net) rows viewing that tensor (a
        #: budget eviction drops those references so the memory comes back).
        retire_at: Dict[int, List[str]] = {}
        live_rows: Dict[str, Set[Tuple[int, str]]] = {}
        if streaming:
            # Pins of the previous streaming run are released: its result
            # mapping (if anyone still holds it) keeps old records readable
            # through the already-open memmap even if they get evicted now.
            self._release_stream_pins()
            last_read: Dict[str, int] = {}
            for position, level in enumerate(levels):
                for instance in level:
                    for pin in self._cell(instance).inputs:
                        last_read[instance.connections[pin]] = position
            for position, level in enumerate(levels):
                for instance in level:
                    out = self._output_net(instance)
                    retire_at.setdefault(max(last_read.get(out, position), position), []).append(out)
            for net in seeds:
                if net in last_read:
                    retire_at.setdefault(last_read[net], []).append(net)

        def admit(c: int, net: str, values: np.ndarray, pointer: Optional[_Pointer]) -> None:
            run = runs[c]
            run.rows[net] = values
            run.initials[net] = float(values[0])
            run.switching[net] = float(values.max() - values.min()) > threshold
            if streaming:
                run.pointers[net] = pointer
                live_rows.setdefault(pointer[0], set()).add((c, net))
            else:
                run.waveforms[net] = Waveform(times, values, name=net)

        def fault_row(c: int, net: str) -> None:
            run = runs[c]
            level_key, row, corner = run.pointers[net]
            values = _tensor_row(self._fault_level(level_key, run.stats), row, corner, times)
            if values is None:
                raise TimingError(
                    f"streaming run lost the spilled level record for net "
                    f"{net!r}; the store evicted or corrupted a pinned level"
                )
            run.rows[net] = values
            live_rows.setdefault(level_key, set()).add((c, net))

        def on_evict(level_key: str) -> None:
            for c, net in live_rows.pop(level_key, ()):
                if runs[c].rows.pop(net, None) is not None:
                    runs[c].stats.spills += 1

        for position, level in enumerate(levels):
            # Each entry: (per-corner plans, corner -> (row values, pointer)
            # of the corners already served from the memo or the store).
            pending: List[Tuple[List[_Plan], Dict[int, Tuple[np.ndarray, Optional[_Pointer]]]]] = []
            duplicates = []
            first_with_keys: Dict[Tuple[str, ...], List[_Plan]] = {}
            for instance in level:
                if only is not None:
                    self._check_closed(instance, runs[0].switching)
                plans: List[_Plan] = []
                hits: Dict[int, Tuple[np.ndarray, Optional[_Pointer]]] = {}
                for c, run in enumerate(runs):
                    plan = self._plan(
                        run.view, instance, run.switching, run.net_keys if caching else None
                    )
                    plans.append(plan)
                    run.model_used[instance.name] = plan.label
                    if plan.key is not None:
                        run.net_keys[plan.output_net] = plan.key
                        hit = self._lookup(plan.key, run.stats, times, streaming)
                        if hit is not None:
                            hits[c] = hit
                if len(hits) == len(runs):
                    for c, (values, pointer) in hits.items():
                        admit(c, plans[c].output_net, values, pointer)
                    continue
                keys = tuple(plan.key for plan in plans) if caching else None
                if keys is not None and keys in first_with_keys:
                    duplicates.append((first_with_keys[keys], plans, hits))
                    continue
                if keys is not None:
                    first_with_keys[keys] = plans
                pending.append((plans, hits))

            if pending:
                # Re-materialize retired (or budget-evicted) input rows this
                # level still needs — skip connections can reach past the
                # hot frontier.
                for plans, hits in pending:
                    for c, plan in enumerate(plans):
                        if c in hits:
                            continue
                        for pin in plan.pins:
                            net = plan.instance.connections[pin]
                            if net not in runs[c].rows and net in runs[c].pointers:
                                fault_row(c, net)
                tensor = self._evaluate_level(pending, runs, times, t_start, step, t_stop)
                level_key = self._spill(pending, tensor, runs, streaming) if caching else None
                for r, (plans, hits) in enumerate(pending):
                    for c, plan in enumerate(plans):
                        admit(c, plan.output_net, tensor.row_values(r, c), (level_key, r, c))
                        if plan.key is not None and not streaming:
                            self._memo[plan.key] = runs[c].waveforms[plan.output_net]
                if streaming:
                    self._hot_put(level_key, tensor)

            for first, plans, hits in duplicates:
                for c, plan in enumerate(plans):
                    if c in hits:
                        values, pointer = hits[c]
                    else:
                        runs[c].stats.duplicates += 1
                        source = first[c].output_net
                        values, pointer = runs[c].rows[source], runs[c].pointers.get(source)
                    admit(c, plan.output_net, values, pointer)

            if streaming:
                for net in retire_at.get(position, ()):
                    for c, run in enumerate(runs):
                        if run.rows.pop(net, None) is None:
                            continue
                        run.stats.spills += 1
                        pointer = run.pointers.get(net)
                        if pointer is not None and pointer[0] in live_rows:
                            live_rows[pointer[0]].discard((c, net))
                self._enforce_hot_budget(on_evict)

        if not streaming:
            return [run.waveforms for run in runs]

        def fetch(net: str, level_key: str, row: int, corner: int) -> Waveform:
            values = _tensor_row(self._fault_level(level_key, None), row, corner, times)
            self._enforce_hot_budget()
            if values is None:
                raise TimingError(
                    f"net {net!r}: the spilled level record backing this "
                    "waveform is gone from the store"
                )
            return Waveform(times, values, name=net)

        return [_SpilledWaveforms(run.waveforms, run.pointers, fetch) for run in runs]

    def _check_closed(self, instance: GateInstance, known: Mapping[str, bool]) -> None:
        """Refuse an in-cone instance that reads a net driven outside the
        cone without a boundary waveform."""
        for pin in self._cell(instance).inputs:
            net = instance.connections[pin]
            if net not in known and self.connectivity.driver_of(net) is not None:
                raise TimingError(
                    f"restricted cone is not closed: instance "
                    f"{instance.name!r} reads net {net!r}, which is "
                    "driven outside the cone and has no boundary "
                    "waveform"
                )

    @staticmethod
    def _select_model(
        cell, switching_pins: Sequence[str], models: TimingModelLibrary
    ) -> Tuple[Tuple[str, ...], bool, str]:
        """``(pins, mis, label)``: the MIS model of the first two switching
        pins, else the SIS model of the switching (or first) pin."""
        if len(switching_pins) >= 2 and cell.num_inputs >= 2:
            label = "MCSM" if models._mis_kind(cell) == "mcsm" else "BaselineMISCSM"
            return (switching_pins[0], switching_pins[1]), True, label
        pin = switching_pins[0] if switching_pins else cell.inputs[0]
        return (pin,), False, f"SISCSM[{pin}]"

    def _propagation_key(
        self,
        view: _CornerView,
        instance: GateInstance,
        load: Load,
        net_keys: Optional[Dict[str, str]],
    ) -> Optional[str]:
        """The instance's content key at one corner.  Every input pin's net
        content participates: stable-but-driven nets still shape the output
        through the model's pin selection."""
        if net_keys is None:
            return None
        inputs = [
            (pin, net_keys.get(instance.connections[pin], "primary-constant"))
            for pin in self._cell(instance).inputs
        ]
        return content_hash(
            "sta-propagation",
            view.context,
            self._cell_digest(view, instance.cell_name),
            load,
            inputs,
        )

    def _plan(
        self,
        view: _CornerView,
        instance: GateInstance,
        switching: Dict[str, bool],
        net_keys: Optional[Dict[str, str]],
    ) -> _Plan:
        """Model selection, load and propagation key from the per-net
        switching classification alone (stable nets default to not
        switching, exactly like their constant pin waveforms).  Model-kind
        selection uses the design cell — pin structure is corner-invariant —
        while the load and the cell fingerprint come from the corner."""
        cell = self._cell(instance)
        switching_pins = [
            pin for pin in cell.inputs if switching.get(instance.connections[pin], False)
        ]
        pins, mis, label = self._select_model(cell, switching_pins, view.models)
        load_key = (view.name, instance.name)
        load = self._load_cache.get(load_key)
        if load is None:
            load = self._output_load(instance, view.models)
            self._load_cache[load_key] = load
        return _Plan(
            instance=instance,
            output_net=instance.connections[cell.output],
            pins=pins,
            mis=mis,
            label=label,
            load=load,
            key=self._propagation_key(view, instance, load, net_keys),
        )

    def _evaluate_level(
        self,
        pending: Sequence[Tuple[List[_Plan], Dict[int, Tuple[np.ndarray, Optional[_Pointer]]]]],
        runs: List[_CornerRun],
        times: np.ndarray,
        t_start: float,
        step: float,
        t_stop: float,
    ) -> LevelTensor:
        """Settle + integrate one level's missing ``(instance, corner)``
        pairs, returning the level's ``(instances, corners, samples)``
        tensor.  Corners already served from the cache are scattered into
        their slots without re-integration, so every row comes back
        complete.

        One worker runs ONE settle stack and ONE integration batch with the
        corner dimension folded into the row axis (per-chunk lookup and
        per-step loop overheads are paid once for all corners).  Several
        workers run each corner as one task on a shared-memory thread pool
        (numpy releases the GIL inside its lookup/gather loops); each
        corner's batch then has exactly the composition of its own
        single-corner run, so the results match that reference bitwise.
        """
        values = np.empty((len(pending), len(runs), len(times)))
        jobs: List[Tuple[int, int, _Plan, _InstancePlan]] = []
        for r, (plans, hits) in enumerate(pending):
            for c, plan in enumerate(plans):
                if c in hits:
                    values[r, c] = hits[c][0]
                else:
                    jobs.append((r, c, plan, self._materialize(plan, runs[c].view.models)))

        def pin_level(plan: _Plan, pin: str) -> float:
            return self._cell(plan.instance).non_controlling_value(pin) * self.vdd

        def evaluate(batch):
            constant_units = []
            for _, c, plan, iplan in batch:
                initials = runs[c].initials
                constants = {}
                for pin in plan.pins:
                    net = plan.instance.connections[pin]
                    value = initials[net] if net in initials else pin_level(plan, pin)
                    constants[pin] = Waveform.constant(
                        value, 0.0, self.options.settle_time, name=pin
                    )
                constant_units.append(self._unit(iplan, constants, self.vdd / 2.0, self.vdd / 2.0))
            settled = settle_units(constant_units, self.options, batched_polish=True)
            units = []
            for (_, c, plan, iplan), (initial_output, initial_internal) in zip(batch, settled):
                rows = runs[c].rows
                samples: Dict[str, np.ndarray] = {}
                for pin in plan.pins:
                    net = plan.instance.connections[pin]
                    samples[pin] = (
                        rows[net] if net in rows else np.full(times.shape, pin_level(plan, pin))
                    )
                units.append(
                    self._unit(iplan, {}, initial_output, initial_internal, samples=samples)
                )
            _, outputs = integrate_model_many(
                units, self.options, t_start, t_stop, shared_precompute=True
            )
            return outputs

        workers = self._corner_worker_count(len(runs))
        if workers <= 1:
            outputs = evaluate(jobs)
        else:
            by_corner: Dict[int, List[int]] = {}
            for position, job in enumerate(jobs):
                by_corner.setdefault(job[1], []).append(position)
            groups = list(by_corner.values())
            outputs = [None] * len(jobs)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = pool.map(lambda group: evaluate([jobs[p] for p in group]), groups)
                for group, batch_outputs in zip(groups, batches):
                    for position, output in zip(group, batch_outputs):
                        outputs[position] = output

        for (r, c, _, _), (v_out, _) in zip(jobs, outputs):
            values[r, c] = v_out
            runs[c].stats.integrations += 1
        names = [plans[0].output_net for plans, _ in pending]
        return LevelTensor(names, values, t_start, step)

    # ------------------------------------------------------------------
    # The spill / lookup pair (owns the level-row pointer format)
    # ------------------------------------------------------------------
    def _spill(
        self,
        pending: Sequence[Tuple[List[_Plan], Dict[int, Tuple[np.ndarray, Optional[_Pointer]]]]],
        tensor: LevelTensor,
        runs: List[_CornerRun],
        streaming: bool,
    ) -> Optional[str]:
        """Spill one level to the store; returns the level record key.

        On disk the level becomes ONE record (the whole tensor) under a
        content key over its rows' propagation keys (``sta-level`` with the
        run context, ``sta-level-mmmc`` for a corner set); each freshly
        integrated ``(instance, corner)`` pair gets a tiny
        ``{"t": "level-row", "level": <key>, "row": r}`` pointer (MMMC adds
        ``"corner": c``) that lives inline in the packed store's index —
        pairs served from the store already have theirs.  Resident runs keep
        the tensor in the level memo; streaming pins the record so the
        store's eviction never compacts away what live views reference.
        """
        if self.cache is None:
            return None
        multi = self.corners is not None
        keys = [plan.key for plans, _ in pending for plan in plans]
        if multi:
            level_key = content_hash("sta-level-mmmc", keys)
        else:
            level_key = content_hash("sta-level", runs[0].view.context, keys)
        items: List[Tuple[str, object]] = []
        for r, (plans, hits) in enumerate(pending):
            for c, plan in enumerate(plans):
                if c in hits:
                    continue
                pointer = {"t": "level-row", "level": level_key, "row": r}
                if multi:
                    pointer["corner"] = c
                items.append((plan.key, pointer))
                runs[c].stats.stores += 1
        items.append((level_key, {"keys": keys, "tensor": tensor}))
        store_many = getattr(self.cache, "store_many", None)
        if store_many is not None:
            store_many(items)
        else:
            for item_key, item_value in items:
                self.cache.store(item_key, item_value)
        if streaming:
            self._pin_level(level_key)
        else:
            self._level_tensors[level_key] = tensor
        return level_key

    def _lookup(
        self, key: str, stats: PropagationStats, times: np.ndarray, streaming: bool
    ) -> Optional[Tuple[np.ndarray, Optional[_Pointer]]]:
        """Resolve a propagation key to ``(sample row, pointer)``.

        Resident runs try the memo first (pointer ``None``), then the store;
        a store entry is a level-row pointer resolved against the level memo
        (resident) or the hot LRU, faulting the record in (streaming).
        Anything unresolvable is a miss — the instance just re-integrates.
        """
        if not streaming:
            wave = self._memo.get(key)
            if wave is not None:
                stats.memo_hits += 1
                return wave.values, None
        if self.cache is None:
            return None
        hit, value = self.cache.lookup(key)
        pointer = _decode_pointer(value) if hit else None
        if pointer is None:
            return None
        level_key, row, corner = pointer
        if streaming:
            tensor = self._fault_level(level_key, stats)
        else:
            tensor = self._level_tensors.get(level_key)
            if tensor is None:
                tensor = self._load_level(level_key)
                if tensor is not None:
                    self._level_tensors[level_key] = tensor
        values = _tensor_row(tensor, row, corner, times)
        if values is None:
            return None
        stats.cache_hits += 1
        if not streaming:
            self._memo[key] = Waveform(times, values, name=tensor.names[row])
        return values, pointer

    def _load_level(self, level_key: str) -> Optional[LevelTensor]:
        """A level record's tensor from the store (``None`` if absent)."""
        hit, record = self.cache.lookup(level_key)
        tensor = record.get("tensor") if hit and isinstance(record, dict) else None
        return tensor if isinstance(tensor, LevelTensor) else None

    # ------------------------------------------------------------------
    # Streaming memory policy: pinned hot-level LRU
    # ------------------------------------------------------------------
    def _fault_level(
        self, level_key: str, stats: Optional[PropagationStats]
    ) -> Optional[LevelTensor]:
        """Hot LRU first, then the store (a zero-copy memmap view decode).

        Faulted levels are pinned and enter the hot LRU; the caller is
        responsible for enforcing the budget afterwards (during a run that
        must also drop the evicted levels' live rows).
        """
        entry = self._hot_levels.get(level_key)
        if entry is not None:
            self._hot_levels.move_to_end(level_key)
            return entry[0]
        if self.cache is None:
            return None
        tensor = self._load_level(level_key)
        if tensor is None:
            return None
        if stats is not None:
            stats.faults += 1
        self._pin_level(level_key)
        self._hot_put(level_key, tensor)
        return tensor

    def _hot_put(self, level_key: str, tensor: LevelTensor) -> None:
        entry = self._hot_levels.pop(level_key, None)
        if entry is not None:
            self._hot_bytes -= entry[1]
        nbytes = int(tensor.values.nbytes)
        self._hot_levels[level_key] = (tensor, nbytes)
        self._hot_bytes += nbytes

    def _enforce_hot_budget(self, on_evict=None) -> None:
        """Evict oldest hot levels until the budget fits (keeping at least
        the newest — evicting the level just produced would thrash).  Evicted
        store records get their resident pages released; ``on_evict`` lets
        the run drop the strong row references that would otherwise keep the
        tensor's memory alive."""
        budget = self.memory_budget_bytes
        if budget is None:
            return
        release = getattr(self.cache, "release_record_pages", None)
        while self._hot_bytes > budget and len(self._hot_levels) > 1:
            level_key, (_tensor, nbytes) = next(iter(self._hot_levels.items()))
            del self._hot_levels[level_key]
            self._hot_bytes -= nbytes
            if on_evict is not None:
                on_evict(level_key)
            if release is not None:
                release(level_key)

    def _pin_level(self, level_key: str) -> None:
        if level_key in self._stream_pins:
            return
        pin = getattr(self.cache, "pin", None)
        if pin is not None and pin(level_key):
            self._stream_pins.add(level_key)

    def _release_stream_pins(self) -> None:
        unpin = getattr(self.cache, "unpin", None)
        if unpin is not None:
            for level_key in self._stream_pins:
                unpin(level_key)
        self._stream_pins.clear()

    # ------------------------------------------------------------------
    # The per-instance reference path (batched=False)
    # ------------------------------------------------------------------
    def _propagate_waveforms(
        self,
        levels: Sequence[Sequence[GateInstance]],
        run: _CornerRun,
        t_start: float,
        t_stop: float,
        caching: bool,
    ) -> None:
        """The per-instance reference level loop: one ``model.simulate`` per
        instance, plain waveforms in the memo and the store."""
        waveforms = run.waveforms
        stats = run.stats
        for level in levels:
            pending: List[_StructuralPlan] = []
            duplicates: List[_StructuralPlan] = []
            first_with_key: Dict[str, _StructuralPlan] = {}
            for instance in level:
                splan = self._structural_plan(
                    run.view, instance, waveforms, t_start, t_stop,
                    run.net_keys if caching else None,
                )
                run.model_used[splan.instance.name] = splan.label
                if splan.key is None:
                    pending.append(splan)
                    continue
                run.net_keys[splan.output_net] = splan.key
                wave = self._lookup_waveform(splan.key, stats)
                if wave is not None:
                    waveforms[splan.output_net] = wave.renamed(splan.output_net)
                elif splan.key in first_with_key:
                    duplicates.append(splan)
                else:
                    first_with_key[splan.key] = splan
                    pending.append(splan)

            plans = [
                self._materialize(
                    splan, self.models, {pin: splan.pin_waves[pin] for pin in splan.pins}
                )
                for splan in pending
            ]
            self._evaluate_level_sequential(plans, waveforms, t_start, t_stop)
            stats.integrations += len(plans)

            for splan in pending:
                if splan.key is None:
                    continue
                wave = waveforms[splan.output_net]
                self._memo[splan.key] = wave
                if self.cache is not None:
                    self.cache.store(splan.key, wave)
                    stats.stores += 1
            for splan in duplicates:
                stats.duplicates += 1
                waveforms[splan.output_net] = self._memo[splan.key].renamed(splan.output_net)

    def _lookup_waveform(self, key: str, stats: PropagationStats) -> Optional[Waveform]:
        """Memo, then disk (plain waveform entries only); counts the
        provenance on the run's stats."""
        if key in self._memo:
            stats.memo_hits += 1
            return self._memo[key]
        if self.cache is not None:
            hit, value = self.cache.lookup(key)
            if hit and isinstance(value, Waveform):
                stats.cache_hits += 1
                self._memo[key] = value
                return value
        return None

    def _structural_plan(
        self,
        view: _CornerView,
        instance: GateInstance,
        waveforms: Dict[str, Waveform],
        t_start: float,
        t_stop: float,
        net_keys: Optional[Dict[str, str]],
    ) -> _StructuralPlan:
        """Select model kind, switching pins, load — and the propagation key.

        Nothing here characterizes a model: the key depends on the cell
        fingerprint and the configuration, not on the characterized tables
        (which are a pure function of both), so cache hits skip model
        construction entirely.
        """
        cell = self._cell(instance)
        pin_waves = self._pin_waveforms(instance, waveforms, t_start, t_stop)
        switching = [pin for pin in cell.inputs if self._is_switching(pin_waves[pin])]
        pins, mis, label = self._select_model(cell, switching, self.models)
        load = self._output_load(instance, self.models)
        return _StructuralPlan(
            instance=instance,
            output_net=instance.connections[cell.output],
            pins=pins,
            mis=mis,
            label=label,
            load=load,
            key=self._propagation_key(view, instance, load, net_keys),
            pin_waves=pin_waves,
        )

    def _materialize(
        self,
        plan: _Plan,
        models: TimingModelLibrary,
        waves: Optional[Dict[str, Waveform]] = None,
    ) -> _InstancePlan:
        """Fetch the characterized model for a cache miss."""
        if plan.mis:
            model = models.mis_model(plan.instance.cell_name, *plan.pins)
        else:
            model = models.sis_model(plan.instance.cell_name, plan.pins[0])
        return _InstancePlan(
            instance=plan.instance,
            output_net=plan.output_net,
            model=model,
            pins=plan.pins,
            waves=waves or {},
            load=plan.load,
            label=plan.label,
        )

    def _evaluate_level_sequential(
        self,
        plans: Sequence[_InstancePlan],
        waveforms: Dict[str, Waveform],
        t_start: float,
        t_stop: float,
    ) -> None:
        """Per-instance reference path: one ``model.simulate`` per plan."""
        for plan in plans:
            model = plan.model
            if isinstance(model, SISCSM):
                result = model.simulate(
                    plan.waves[plan.pins[0]],
                    plan.load,
                    options=self.options,
                    t_start=t_start,
                    t_stop=t_stop,
                )
            else:
                result = model.simulate(
                    plan.waves, plan.load, options=self.options, t_start=t_start, t_stop=t_stop
                )
            waveforms[plan.output_net] = result.output.renamed(plan.output_net)

    def _unit(
        self,
        plan: _InstancePlan,
        waves: Mapping[str, Waveform],
        initial_output: float,
        initial_internal: Optional[float],
        samples: Optional[Mapping[str, np.ndarray]] = None,
    ) -> BatchUnit:
        model = plan.model
        return BatchUnit(
            pins=plan.pins,
            input_waveforms=dict(waves),
            output_current=model.io_table,
            miller_caps=plan.miller_caps(),
            output_cap=model.output_cap,
            load=plan.load,
            vdd=model.vdd,
            initial_output=initial_output,
            internal_current=model.in_table if plan.has_internal else None,
            internal_cap=model.internal_cap if plan.has_internal else None,
            initial_internal=initial_internal if plan.has_internal else None,
            input_samples=samples,
        )

    # ------------------------------------------------------------------
    def _pin_waveforms(
        self,
        instance: GateInstance,
        waveforms: Dict[str, Waveform],
        t_start: float,
        t_stop: float,
    ) -> Dict[str, Waveform]:
        cell = self._cell(instance)
        result: Dict[str, Waveform] = {}
        for pin in cell.inputs:
            net = instance.connections[pin]
            if net in waveforms:
                result[pin] = waveforms[net]
            else:
                # A stable net: hold the pin at its non-controlling value so
                # that the cell is sensitized through the switching pin(s).
                level = cell.non_controlling_value(pin) * self.vdd
                result[pin] = Waveform.constant(level, t_start, t_stop, name=pin)
        return result

    def _is_switching(self, waveform: Waveform) -> bool:
        return (waveform.maximum() - waveform.minimum()) > SWITCHING_THRESHOLD_FRACTION * self.vdd
