"""Command-line entry point: run paper-figure sets on the parallel runtime.

Usage::

    python -m repro.runtime.cli --figures fig5 fig9 --workers 4 --cache ~/.repro-cache
    python -m repro.runtime.cli --figures all --workers 8 --executor thread
    python -m repro.runtime.cli --figures fig3 --settings paper --json report.json
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --engine both --workers 2 --cache DIR
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --corners TT,FF,SS --cache DIR
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --incremental --cache DIR

The CLI builds one :class:`~repro.experiments.ExperimentContext` wired to the
chosen executor and disk cache, pre-characterizes every model the requested
figures need (as one parallel job set), then runs the figures and reports
per-figure wall-clock plus cache statistics.  A second invocation with the
same ``--cache`` directory skips all characterization jobs — the hits are
logged and counted in the summary.

``--sta`` switches to the timing-engine mode: each argument is a synthetic
netlist spec (``chain:inv:64``, ``tree:4:2``, ``dag:w16:d8:s42`` — see
:mod:`repro.sta.generate`), whose models are characterized as one parallel,
cache-aware job set before the requested engine(s) propagate seeded input
waveforms through the design.  With ``--engine both`` the batched and
sequential waveform engines both run and the CLI *fails* unless their
waveforms agree to 1e-9 V, which is what the CI smoke relies on.

Two further ``--sta`` axes:

* ``--corners TT,FF,SS`` times every spec across the named process corners
  (per-corner libraries characterized as parallel content-addressed jobs)
  and reports the primary-output arrival deltas against the TT corner;
* ``--incremental`` exercises the content-addressed propagation caches of
  *both* engines: a cold run, a warm repeat that must integrate (CSM) /
  evaluate (NLDM) *zero* instances, and one ECO-style cell swap that must
  re-time only the affected cone while matching a cold full rebuild (1e-9 V
  for waveforms, exact event equality for NLDM) — non-zero exit on any
  violation (the CI incremental smoke).

``--cache-format packed`` stores results in the packed single-file mmap
store (:mod:`repro.runtime.store`) instead of per-entry ``.npz`` files;
``auto`` (the default) keeps whatever layout the cache directory already
uses.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .executor import default_executor
from .store import open_result_store

__all__ = ["main", "FIGURES", "MODEL_KINDS"]

#: Figure name -> callable(context) -> result object with ``summary()``.
FIGURES: Dict[str, object] = {}

#: Figure name -> model kinds it characterizes (prewarmed in parallel).
MODEL_KINDS: Dict[str, tuple] = {
    "fig3": (),
    "fig4": (),
    "fig5": (),
    "fig9": ("mcsm", "mis"),
    "fig10": ("mcsm",),
    "fig11": ("mcsm", "sis"),
    "fig12": ("mcsm",),
    "sta": (),
    "corners": (),
}


def _load_figures() -> None:
    """Populate FIGURES lazily so ``--help`` stays fast."""
    if FIGURES:
        return
    from ..experiments import (
        run_corner_sweep,
        run_fig3,
        run_fig4,
        run_fig5,
        run_fig9,
        run_fig10,
        run_fig11,
        run_fig12,
        run_sta_scale,
    )

    FIGURES.update(
        {
            "fig3": lambda ctx: run_fig3(ctx),
            "fig4": lambda ctx: run_fig4(ctx),
            "fig5": lambda ctx: run_fig5(ctx),
            "fig9": lambda ctx: run_fig9(ctx, fanout=1),
            "fig10": lambda ctx: run_fig10(ctx),
            "fig11": lambda ctx: run_fig11(ctx),
            "fig12": lambda ctx: run_fig12(ctx),
            "sta": lambda ctx: run_sta_scale(ctx),
            "corners": lambda ctx: run_corner_sweep(ctx),
        }
    )


def build_context(settings: str, executor=None, cache: Optional[ResultCache] = None):
    """An :class:`ExperimentContext` for ``settings`` ('quick' or 'paper')."""
    from ..characterization import CharacterizationConfig
    from ..experiments import ExperimentContext

    if settings == "quick":
        return ExperimentContext(
            characterization=CharacterizationConfig(io_grid_points=5),
            reference_time_step=4e-12,
            model_time_step=2e-12,
            executor=executor,
            cache=cache,
        )
    if settings == "paper":
        return ExperimentContext(executor=executor, cache=cache)
    raise ValueError(f"unknown settings {settings!r}")


def _run_corner_mode(args, context) -> int:
    """--sta --corners: time every spec across the requested process corners.

    ``--corner-mode`` picks the path: ``serial`` (one engine run per corner,
    the reference), ``batched`` (all corners in one MMMC tensor pass) or
    ``both`` (run both and FAIL — exit 1 — unless every corner's waveforms
    agree to 1e-9 V)."""
    from ..experiments import batched_corner_sta_sweep, corner_sta_sweep
    from ..sta.engine import waveform_deviation

    mode = args.corner_mode
    corners = tuple(name.strip().upper() for name in args.corners.split(",") if name.strip())
    report: Dict[str, object] = {
        "mode": "sta-corners",
        "settings": args.settings,
        "workers": args.workers,
        "corners": list(corners),
        "corner_mode": mode,
        "seed": args.seed,
        "designs": {},
    }
    failures = 0
    total_start = time.perf_counter()
    for spec in args.sta:
        entry: Dict[str, object] = {}
        serial = None
        if mode in ("serial", "both"):
            serial = corner_sta_sweep(
                context,
                spec=spec,
                corners=corners,
                seed=args.seed,
                keep_results=mode == "both",
            )
            print(serial.summary())
            deltas = serial.deltas()
            entry.update(
                {
                    "gates": serial.gates,
                    "reference_corner": serial.reference_corner,
                    "corners": {
                        point.corner: {
                            "vdd": point.vdd,
                            "characterization_seconds": round(point.characterization_seconds, 4),
                            "models_executed": point.models_executed,
                            "propagation_seconds": round(point.propagation_seconds, 4),
                            "arrivals": point.arrivals,
                            "arrival_deltas": deltas[point.corner],
                        }
                        for point in serial.points
                    },
                }
            )
        if mode in ("batched", "both"):
            batched = batched_corner_sta_sweep(
                context, spec=spec, corners=corners, seed=args.seed
            )
            entry["gates"] = batched.gates
            entry["batched"] = {
                "corners": batched.corners,
                "characterization_seconds": round(batched.characterization_seconds, 4),
                "propagation_seconds": round(batched.propagation_seconds, 4),
                "arrivals": batched.arrivals,
                "integrations": {
                    name: stats.get("integrations") for name, stats in batched.stats.items()
                },
            }
            print(
                f"  batched MMMC: {len(batched.corners)} corners in "
                f"{batched.propagation_seconds:.3f} s"
            )
            if mode == "both":
                deviation = 0.0
                for point in serial.points:
                    deviation = max(
                        deviation,
                        waveform_deviation(batched.result.result(point.corner), point.result),
                    )
                serial_seconds = sum(p.propagation_seconds for p in serial.points)
                speedup = serial_seconds / max(batched.propagation_seconds, 1e-12)
                entry["max_abs_delta_v"] = deviation
                entry["batched_speedup"] = round(speedup, 3)
                ok = deviation <= 1e-9
                failures += 0 if ok else 1
                print(
                    f"  equivalence: max |dV| = {deviation:.2e} V over {len(corners)} "
                    f"corners, batched speedup {speedup:.2f}x vs serial"
                    + ("" if ok else "  <-- FAILED")
                )
        report["designs"][spec] = entry
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)
    if context.cache is not None:
        print(f"cache: {context.cache.stats} ({args.cache})")
        report["cache"] = context.cache.stats.as_dict()
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} design(s) FAILED the batched/serial corner equivalence check")
        return 1
    return 0


def _run_incremental_mode(args, context, models) -> int:
    """--sta --incremental: cold run, warm no-op repeat, one ECO edit.

    Fails (exit 1) unless the warm repeat integrates zero waveforms, the
    edited run re-integrates only the affected region, and the edited result
    matches a cold full rebuild to 1e-9 V.
    """
    from ..sta.engine import CSMEngine, NLDMEngine, waveform_deviation
    from ..sta.generate import (
        generate_netlist,
        primary_input_events,
        primary_input_waveforms,
    )
    from ..sta.netlist import eco_swap_candidate

    options = context.model_options()
    report: Dict[str, object] = {
        "mode": "sta-incremental",
        "settings": args.settings,
        "seed": args.seed,
        "designs": {},
    }
    failures = 0
    for spec in args.sta:
        netlist = generate_netlist(context.library, spec)
        waveforms = primary_input_waveforms(netlist, seed=args.seed)
        input_events = primary_input_events(netlist, seed=args.seed)
        instances = len(netlist.instances)

        # NLDM phase first: warm repeat must evaluate zero instances.  (The
        # engine prewarms receiver SIS models itself, so its loads — and so
        # its keys — are stable across the later CSM runs.)
        NLDMEngine(netlist, models, cache=context.cache).run(input_events)
        nldm_warm = NLDMEngine(netlist, models, cache=context.cache).run(input_events)
        nldm_warm_ok = (nldm_warm.stats or {}).get("integrations", -1) == 0

        start = time.perf_counter()
        CSMEngine(netlist, models, options=options).run(waveforms)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = CSMEngine(netlist, models, options=options).run(waveforms)
        warm_seconds = time.perf_counter() - start
        warm_stats = warm.stats or {}
        warm_ok = warm_stats.get("integrations", -1) == 0

        # ECO edit: the cheapest pin-compatible cell swap in the design.
        candidate = eco_swap_candidate(netlist)
        if candidate is None:
            failures += 0 if (warm_ok and nldm_warm_ok) else 1
            print(
                f"{spec}: cold {cold_seconds:.3f} s, warm {warm_seconds:.3f} s "
                f"({warm_stats.get('integrations')} integrations); no pin-compatible "
                f"swap candidate, edit phase skipped"
                + ("" if (warm_ok and nldm_warm_ok) else "  <-- FAILED")
            )
            report["designs"][spec] = {
                "gates": instances,
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds": round(warm_seconds, 4),
                "warm_stats": warm_stats,
            }
            continue
        region_size, target, partner = candidate
        netlist.swap_cell(target, partner)
        start = time.perf_counter()
        edited = CSMEngine(netlist, models, options=options).run(waveforms)
        edit_seconds = time.perf_counter() - start
        edit_stats = edited.stats or {}
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(waveforms)
        deviation = waveform_deviation(edited, reference)
        edit_ok = (
            0 < edit_stats.get("integrations", 0) <= region_size
            and deviation <= 1e-9
            and edited.model_used == reference.model_used
        )

        # NLDM edit: re-evaluates only the dirty region and matches a cold
        # no-cache rebuild exactly (events round-trip bitwise).
        nldm_edited = NLDMEngine(netlist, models, cache=context.cache).run(input_events)
        nldm_reference = NLDMEngine(netlist, models, use_cache=False).run(input_events)
        nldm_edit_stats = nldm_edited.stats or {}
        nldm_ok = (
            nldm_warm_ok
            and 0 < nldm_edit_stats.get("integrations", 0) <= region_size
            and nldm_edited.events == nldm_reference.events
            and nldm_edited.mis_flags == nldm_reference.mis_flags
        )

        failures += 0 if (warm_ok and edit_ok and nldm_ok) else 1
        print(
            f"{spec}: cold {cold_seconds:.3f} s, warm {warm_seconds:.3f} s "
            f"({warm_stats.get('integrations')} integrations"
            f"{', full-run hit' if warm_stats.get('full_run_hit') else ''}); "
            f"swap {target} -> {partner}: {edit_stats.get('integrations')}/{instances} "
            f"re-integrated (affected region {region_size}), max |dV| {deviation:.2e} V; "
            f"nldm warm {(nldm_warm.stats or {}).get('integrations')} / edit "
            f"{nldm_edit_stats.get('integrations')} evaluations"
            + ("" if (warm_ok and edit_ok and nldm_ok) else "  <-- FAILED")
        )
        report["designs"][spec] = {
            "gates": instances,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_stats": warm_stats,
            "edit": {
                "target": target,
                "partner": partner,
                "affected_region": region_size,
                "seconds": round(edit_seconds, 4),
                "stats": edit_stats,
                "max_abs_delta_v": deviation,
            },
            "nldm": {
                "warm_stats": nldm_warm.stats,
                "edit_stats": nldm_edit_stats,
                "events_equal": nldm_edited.events == nldm_reference.events,
            },
        }
    if context.cache is not None:
        print(f"cache: {context.cache.stats} ({args.cache})")
        report["cache"] = context.cache.stats.as_dict()
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} design(s) FAILED the incremental-STA checks")
        return 1
    return 0


def _run_sta_mode(args) -> int:
    """Drive the levelized timing engine(s) over generated netlists."""
    import numpy as np

    from ..experiments import timing_models_for
    from ..sta.engine import CSMEngine, waveform_deviation
    from ..sta.generate import generate_netlist, primary_input_waveforms

    executor = default_executor(args.workers, args.executor)
    cache = (
        open_result_store(args.cache, args.cache_format, shards=args.shards)
        if args.cache is not None
        else None
    )
    context = build_context(args.settings, executor=executor, cache=cache)
    models = timing_models_for(context)
    streaming = args.memory_mode == "stream"
    if streaming:
        if cache is None:
            print("--memory-mode stream needs --cache DIR (retired levels spill there)")
            return 2
        if args.corners is not None or args.incremental:
            print("--memory-mode stream composes with neither --corners nor --incremental")
            return 2
    if args.corners is not None:
        return _run_corner_mode(args, context)
    if args.incremental:
        if cache is None:
            print("--incremental needs --cache DIR (the warm repeat reads the disk cache)")
            return 2
        return _run_incremental_mode(args, context, models)
    options = context.model_options()
    if args.engine == "hybrid":
        if streaming:
            print("--engine hybrid does not support --memory-mode stream")
            return 2
        return _run_hybrid_mode(args, context, models)
    if args.required is not None or args.top_k != "all":
        print("--required/--top-k only apply to --engine hybrid")
        return 2
    engines = ("batched", "sequential") if args.engine == "both" else (args.engine,)
    if streaming and "batched" not in engines:
        print("--memory-mode stream needs the batched engine (--engine batched/both)")
        return 2

    report: Dict[str, object] = {
        "mode": "sta",
        "settings": args.settings,
        "workers": args.workers,
        "executor": executor.describe(),
        "engine": args.engine,
        "seed": args.seed,
        "memory_mode": args.memory_mode,
        "memory_budget_bytes": args.memory_budget,
        "designs": {},
    }
    failures = 0
    total_start = time.perf_counter()
    for spec in args.sta:
        netlist = generate_netlist(context.library, spec)
        waveforms = primary_input_waveforms(netlist, seed=args.seed)
        start = time.perf_counter()
        executed = models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
        characterization = time.perf_counter() - start
        entry: Dict[str, object] = {
            "gates": len(netlist.instances),
            "levels": len(netlist.topological_generations()),
            "characterization_seconds": round(characterization, 4),
            "models_executed": executed,
        }
        print(
            f"{spec}: {entry['gates']} gates, {entry['levels']} levels "
            f"(characterization {characterization:.3f} s, {executed} executed)"
        )
        results = {}
        for engine_kind in engines:
            stream_kind = streaming and engine_kind == "batched"
            engine = CSMEngine(
                netlist,
                models,
                options=options,
                batched=engine_kind == "batched",
                memory_mode="stream" if stream_kind else "resident",
                memory_budget_bytes=args.memory_budget if stream_kind else None,
            )
            start = time.perf_counter()
            results[engine_kind] = engine.run(waveforms)
            elapsed = time.perf_counter() - start
            entry[f"{engine_kind}_seconds"] = round(elapsed, 4)
            print(f"  {engine_kind:<10} {elapsed:8.3f} s")
            if stream_kind:
                stream_stats = engine.last_stats
                # Bitwise equivalence against a pure-compute resident run
                # (use_cache=False so nothing is read back from the spilled
                # store): the streaming mode must change memory behaviour
                # only, never a single sample.
                reference_engine = CSMEngine(
                    netlist,
                    models,
                    options=options,
                    batched=True,
                    use_cache=False,
                )
                reference = reference_engine.run(waveforms)
                streamed = results[engine_kind]
                bitwise = streamed.model_used == reference.model_used and all(
                    np.array_equal(
                        streamed.waveforms[net].values, reference.waveforms[net].values
                    )
                    for net in reference.waveforms
                )
                entry["stream"] = {
                    "budget_bytes": args.memory_budget,
                    "spills": stream_stats.spills if stream_stats else 0,
                    "faults": stream_stats.faults if stream_stats else 0,
                    "bitwise_equal_vs_resident": bitwise,
                    "max_abs_delta_v_vs_resident": waveform_deviation(
                        streamed, reference
                    ),
                }
                failures += 0 if bitwise else 1
                print(
                    f"  stream: {entry['stream']['spills']} spills, "
                    f"{entry['stream']['faults']} faults, resident equivalence "
                    f"{'bitwise' if bitwise else 'FAILED'}"
                )
        if len(engines) == 2:
            batched, sequential = results["batched"], results["sequential"]
            deviation = waveform_deviation(batched, sequential)
            bookkeeping = batched.model_used == sequential.model_used
            speedup = entry["sequential_seconds"] / max(entry["batched_seconds"], 1e-12)
            entry["speedup"] = round(speedup, 3)
            entry["max_abs_delta_v"] = deviation
            entry["model_selection_equal"] = bookkeeping
            ok = deviation <= 1e-9 and bookkeeping
            failures += 0 if ok else 1
            print(
                f"  equivalence: max |dV| = {deviation:.2e} V, model selection "
                f"{'identical' if bookkeeping else 'DIFFERS'}, speedup {speedup:.2f}x"
                + ("" if ok else "  <-- FAILED")
            )
        report["designs"][spec] = entry
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)

    if cache is not None:
        print(f"cache: {cache.stats} ({args.cache})")
        report["cache"] = cache.stats.as_dict()
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} design(s) FAILED the batched/sequential equivalence check")
        return 1
    return 0


def _run_hybrid_mode(args, context, models) -> int:
    """--engine hybrid: criticality-adaptive NLDM+CSM vs a full-CSM reference.

    Every spec is run through :class:`HybridEngine` (with the --required /
    --top-k knobs) and through a plain full CSM engine on the same stimuli.
    The report records the speed-vs-exactness point: wall-clocks, the
    fraction of instances refined through CSM, and the max endpoint-arrival
    error against the reference.  When top-k covers every endpoint the
    refinement must be bitwise-identical to the full run (exit 1 otherwise)
    — that is the contract the CI hybrid smoke leg asserts.
    """
    import numpy as np

    from ..exceptions import TimingError
    from ..sta.engine import CSMEngine
    from ..sta.generate import generate_netlist, primary_input_waveforms
    from ..sta.hybrid import HybridEngine, events_from_waveforms

    if args.top_k == "all":
        top_k: object = "all"
    else:
        try:
            top_k = int(args.top_k)
        except ValueError:
            print(f"--top-k must be an integer or 'all', got {args.top_k!r}")
            return 2
        if top_k < 0:
            print(f"--top-k must be >= 0, got {top_k}")
            return 2
    options = context.model_options()
    report: Dict[str, object] = {
        "mode": "sta-hybrid",
        "settings": args.settings,
        "engine": "hybrid",
        "seed": args.seed,
        "required": args.required,
        "top_k": args.top_k,
        "designs": {},
    }
    failures = 0
    total_start = time.perf_counter()
    for spec in args.sta:
        netlist = generate_netlist(context.library, spec)
        waveforms = primary_input_waveforms(netlist, seed=args.seed)
        start = time.perf_counter()
        # NLDM tables too: the hybrid engine's NLDM pass would otherwise
        # characterize them inside the timed run.
        executed = models.prewarm_for_netlist(
            netlist, kinds=("sis", "mis"), include_nldm=True
        )
        characterization = time.perf_counter() - start
        endpoints = list(netlist.primary_outputs)
        covers_all = top_k == "all" or top_k >= len(endpoints)
        print(
            f"{spec}: {len(netlist.instances)} gates, {len(endpoints)} endpoints "
            f"(characterization {characterization:.3f} s, {executed} executed)"
        )
        hybrid_kwargs: Dict[str, object] = {"top_k": top_k}
        if args.required is not None:
            hybrid_kwargs["required"] = args.required
        hybrid = HybridEngine(netlist, models, options=options, **hybrid_kwargs)
        start = time.perf_counter()
        result = hybrid.run(waveforms)
        hybrid_seconds = time.perf_counter() - start
        reference_engine = CSMEngine(netlist, models, options=options)
        start = time.perf_counter()
        reference = reference_engine.run(waveforms)
        full_seconds = time.perf_counter() - start
        reference_arrivals = {
            net: event.arrival
            for net, event in events_from_waveforms(
                reference.waveforms, result.vdd
            ).items()
        }
        max_error = 0.0
        presence_mismatch = []
        for net in endpoints:
            try:
                hybrid_arrival = result.arrival(net)
            except TimingError:
                hybrid_arrival = None
            full_arrival = reference_arrivals.get(net)
            if (hybrid_arrival is None) != (full_arrival is None):
                presence_mismatch.append(net)
            elif hybrid_arrival is not None:
                max_error = max(max_error, abs(hybrid_arrival - full_arrival))
        bitwise = all(
            np.array_equal(
                result.waveforms[net].values, reference.waveforms[net].values
            )
            for net in result.exact_nets
        )
        max_exact_dv = max(
            (
                float(
                    np.abs(
                        result.waveforms[net].values - reference.waveforms[net].values
                    ).max()
                )
                for net in result.exact_nets
            ),
            default=0.0,
        )
        entry: Dict[str, object] = {
            "gates": len(netlist.instances),
            "endpoints": len(endpoints),
            "characterization_seconds": round(characterization, 4),
            "characterization_executed": executed,
            "hybrid_seconds": round(hybrid_seconds, 4),
            "full_csm_seconds": round(full_seconds, 4),
            "csm_fraction": round(result.csm_fraction, 6),
            "iterations": len(result.iterations),
            "refined_instances": len(result.refined_instances),
            "exact_nets": len(result.exact_nets),
            "max_arrival_error_s": max_error,
            "arrival_presence_mismatches": presence_mismatch,
            "max_exact_value_error_v": max_exact_dv,
            "exact_nets_bitwise_vs_full": bitwise,
            "covers_all_endpoints": covers_all,
        }
        # Partial refinement re-batches the levels, so exact nets agree with
        # the full run only to the integrator's cross-batch rounding (1e-9 V);
        # full cover normalizes to an unrestricted run and must be bitwise,
        # with endpoint arrivals (including switches-vs-stable presence)
        # agreeing too.
        ok = max_exact_dv <= 1e-9
        if covers_all:
            ok = bitwise and max_error <= 1e-9 and not presence_mismatch
        failures += 0 if ok else 1
        print(
            f"  hybrid {hybrid_seconds:8.3f} s vs full CSM {full_seconds:8.3f} s, "
            f"csm fraction {result.csm_fraction:.3f}, "
            f"{len(result.iterations)} iteration(s), "
            f"max arrival error {max_error:.2e} s"
            + ("" if ok else "  <-- FAILED")
        )
        report["designs"][spec] = entry
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)
    if context.cache is not None:
        print(f"cache: {context.cache.stats} ({args.cache})")
        report["cache"] = context.cache.stats.as_dict()
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} design(s) FAILED the hybrid-vs-CSM checks")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.cli",
        description="Run paper-figure experiment sets on the parallel runtime.",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=["all"],
        help="figure names (fig3 fig4 fig5 fig9 fig10 fig11 fig12, plus the "
        "'sta' engine-scale sweep) — 'all' runs the paper figures only",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker count; 1 means serial execution (default)",
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="pool flavour when --workers > 1 (default: process)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (created if missing)",
    )
    parser.add_argument(
        "--cache-format",
        choices=("auto", "npz", "packed", "sharded"),
        default="auto",
        help="result-store layout: per-entry .npz files, the packed "
        "single-file mmap store, or a hash-sharded set of packed stores; "
        "'auto' (default) keeps whatever layout the directory already holds",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the packed result store N ways (hash-prefix routing; "
        "reduces lock contention under concurrent writers)",
    )
    parser.add_argument(
        "--settings",
        choices=("quick", "paper"),
        default="quick",
        help="characterization/time-step resolution (default: quick)",
    )
    parser.add_argument(
        "--serve",
        type=Path,
        default=None,
        metavar="SOCKET",
        help="start the timing server on SOCKET instead of running figures "
        "(shorthand for 'python -m repro.runtime.server start --socket "
        "SOCKET', honouring --cache/--cache-format/--shards/--workers/"
        "--settings)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write a machine-readable timing/cache report",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-figure result summaries"
    )
    parser.add_argument(
        "--sta",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="timing-engine mode: synthetic netlist specs "
        "(chain:inv:64, tree:4:2, dag:w16:d8:s42) instead of figures",
    )
    parser.add_argument(
        "--engine",
        choices=("batched", "sequential", "both", "hybrid"),
        default="batched",
        help="--sta mode: which waveform engine(s) to run; 'both' additionally "
        "asserts <=1e-9 V equivalence; 'hybrid' runs the criticality-adaptive "
        "NLDM+CSM engine against a full-CSM reference (see --required/--top-k) "
        "(default: batched)",
    )
    parser.add_argument(
        "--required",
        type=float,
        default=None,
        metavar="T",
        help="--engine hybrid: required time (seconds) for the slack ranking; "
        "omitted means rank endpoints by latest arrival",
    )
    parser.add_argument(
        "--top-k",
        default="all",
        metavar="K",
        help="--engine hybrid: number of critical endpoints to refine with CSM "
        "per iteration — an integer, 0 (pure NLDM) or 'all' (full CSM, "
        "bitwise-checked against the reference; default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="--sta mode: stimulus seed (default: 0)"
    )
    parser.add_argument(
        "--memory-mode",
        choices=("resident", "stream"),
        default="resident",
        help="--sta mode: 'stream' propagates the batched engine with bounded "
        "memory (retired levels spill to --cache and fault back as memmap "
        "views); a resident reference run is repeated for a bitwise "
        "equivalence check",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="--memory-mode stream: hot-level LRU budget in bytes "
        "(default: keep the whole active frontier hot)",
    )
    parser.add_argument(
        "--corners",
        default=None,
        metavar="TT,FF,SS",
        help="--sta mode: comma-separated process corners; characterizes one "
        "library per corner (parallel content-addressed jobs) and reports "
        "per-corner primary-output arrival deltas",
    )
    parser.add_argument(
        "--corner-mode",
        choices=("serial", "batched", "both"),
        default="serial",
        help="--corners path: 'serial' runs one engine per corner, 'batched' "
        "propagates all corners in one MMMC tensor pass, 'both' runs both "
        "and asserts <=1e-9 V per-corner equivalence (default: serial)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="--sta mode: incremental-STA smoke — cold run, warm no-op repeat "
        "(must integrate zero waveforms), one ECO cell swap (must re-integrate "
        "only the affected cone and match a cold rebuild to 1e-9 V)",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    if args.serve is not None:
        from .server.__main__ import main as server_main

        server_argv = ["start", "--socket", str(args.serve),
                       "--workers", str(max(args.workers, 1)),
                       "--settings", args.settings,
                       "--cache-format", args.cache_format]
        if args.cache is not None:
            server_argv += ["--cache", str(args.cache)]
        if args.shards is not None:
            server_argv += ["--shards", str(args.shards)]
        return server_main(server_argv)

    if args.sta is not None:
        return _run_sta_mode(args)

    _load_figures()
    # 'all' means the paper-figure set; the STA scale sweep and the corner
    # sweep are opt-in (slow, and both have their own --sta modes).
    all_names = [name for name in FIGURES if name not in ("sta", "corners")]
    names = all_names if args.figures == ["all"] else args.figures
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figures {unknown}; available: {sorted(FIGURES)}")

    executor = default_executor(args.workers, args.executor)
    cache = (
        open_result_store(args.cache, args.cache_format, shards=args.shards)
        if args.cache is not None
        else None
    )
    context = build_context(args.settings, executor=executor, cache=cache)

    kinds = tuple(dict.fromkeys(k for name in names for k in MODEL_KINDS[name]))
    report: Dict[str, object] = {
        "settings": args.settings,
        "workers": args.workers,
        "executor": executor.describe(),
        "figures": {},
    }

    total_start = time.perf_counter()
    if kinds:
        start = time.perf_counter()
        executed = context.prewarm_characterizations(kinds)
        elapsed = time.perf_counter() - start
        print(
            f"characterization: {len(kinds)} model(s) ready in {elapsed:.3f} s "
            f"({executed} executed, {len(kinds) - executed} from cache)"
        )
        report["characterization"] = {
            "kinds": list(kinds),
            "seconds": round(elapsed, 4),
            "executed": executed,
        }

    for name in names:
        start = time.perf_counter()
        result = FIGURES[name](context)
        elapsed = time.perf_counter() - start
        report["figures"][name] = round(elapsed, 4)
        print(f"{name}: {elapsed:.3f} s")
        if not args.quiet and hasattr(result, "summary"):
            print(result.summary())
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)

    if cache is not None:
        print(f"cache: {cache.stats} ({args.cache})")
        report["cache"] = cache.stats.as_dict()

    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
