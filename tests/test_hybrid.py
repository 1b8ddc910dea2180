"""Criticality-adaptive hybrid engine tests (PR 10).

The tentpole invariants:

* ``top_k="all"`` refines every endpoint's complete fan-in cone, which the
  engine layer normalizes to an unrestricted run — bitwise equal to full CSM;
* ``top_k=0`` degenerates to pure NLDM (no CSM work, no exact nets);
* a warm repeat is a full-run hit on *both* sub-engines (the NLDM events
  derived from the stimuli are deterministic, and restricted runs have their
  own whole-run entries);
* after an ECO the hybrid only re-integrates when the edit lands inside the
  refined critical cone — an out-of-cone swap re-times entirely from cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.runtime import ResultCache
from repro.sta import (
    CSMEngine,
    HybridEngine,
    HybridTimingResult,
    NLDMEngine,
    TimingModelLibrary,
    create_engine,
    events_from_waveforms,
    generate_netlist,
    primary_input_waveforms,
)
from repro.sta.generate import default_time_window
from repro.sta.netlist import GateNetlist
from repro.waveform.metrics import crossing_times

DAG = "dag:w6:d3:s5"


@pytest.fixture(scope="module")
def disk_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("pr10-cache"))


@pytest.fixture(scope="module")
def models(library, disk_cache):
    return TimingModelLibrary(
        library=library,
        config=CharacterizationConfig(io_grid_points=5),
        cache=disk_cache,
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


@pytest.fixture(scope="module")
def netlist(library):
    return generate_netlist(library, DAG)


@pytest.fixture(scope="module")
def stimulus(netlist):
    t_stop = default_time_window(netlist)
    return primary_input_waveforms(netlist, t_stop=t_stop, seed=0), t_stop


def _two_chain_netlist(library) -> GateNetlist:
    """A deep 3-stage chain and a shallow 1-stage chain off one input.

    The deep endpoint always arrives last, so with ``top_k=1`` the hybrid
    refines exactly the deep cone — the shallow instance stays NLDM-only.
    """
    cell = library["NAND2_X1"]
    netlist = GateNetlist(library=library, name="two_chains")
    source = netlist.add_primary_input("a")
    previous = source
    for index in range(3):
        net = f"d{index + 1}"
        connections = {pin: previous for pin in cell.inputs}
        connections[cell.output] = net
        netlist.add_instance(f"deep{index}", "NAND2_X1", connections)
        previous = net
    netlist.add_primary_output(previous)
    connections = {pin: source for pin in cell.inputs}
    connections[cell.output] = "s1"
    netlist.add_instance("shallow0", "NAND2_X1", connections)
    netlist.add_primary_output("s1")
    return netlist


# ----------------------------------------------------------------------
# Exactness bounds: top-k = all / top-k = 0
# ----------------------------------------------------------------------
class TestExactnessBounds:
    def test_top_k_all_is_bitwise_full_csm(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k="all")
        result = hybrid.run(waveforms, t_stop=t_stop)
        assert isinstance(result, HybridTimingResult)
        # use_cache=False: a pure-compute reference, not the cached entry the
        # hybrid's own full-cover run may have stored.
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(
            waveforms, t_stop=t_stop
        )
        driven = {net for net in netlist.nets() if netlist.driver_of(net) is not None}
        assert result.exact_nets == driven
        assert result.csm_fraction == 1.0
        assert len(result.refined_instances) == len(netlist.instances)
        for net in driven:
            assert np.array_equal(
                result.waveform(net).values, reference.waveform(net).values
            )
        for net in netlist.primary_outputs:
            crossings = crossing_times(reference.waveform(net), 0.5 * result.vdd)
            if crossings:
                assert result.arrival(net) == float(crossings[-1])
                assert result.endpoint_arrivals[net] == float(crossings[-1])
                assert result.endpoint_slacks[net][0] == "csm"

    def test_top_k_zero_is_pure_nldm(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=0)
        result = hybrid.run(waveforms, t_stop=t_stop)
        events = events_from_waveforms(waveforms, hybrid.csm.vdd)
        nldm = NLDMEngine(netlist, models).run(events)
        assert result.exact_nets == frozenset()
        assert result.csm_fraction == 0.0
        assert result.iterations == []
        assert result.nldm.events == nldm.events
        for net in netlist.primary_outputs:
            if net in nldm.events:
                assert result.arrival(net) == nldm.events[net].arrival
                assert result.endpoint_slacks[net][0] == "nldm"
                with pytest.raises(TimingError, match="NLDM events only"):
                    result.waveform(net)

    def test_create_engine_and_validation(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        engine = create_engine("hybrid", netlist, models, options=options)
        assert isinstance(engine, HybridEngine)
        with pytest.raises(TimingError, match="memory_mode"):
            HybridEngine(netlist, models, options=options, memory_mode="stream")
        with pytest.raises(TimingError, match="max_iterations"):
            HybridEngine(netlist, models, options=options, max_iterations=0)
        with pytest.raises(TimingError, match="top_k"):
            engine.run(waveforms, t_stop=t_stop, top_k="some")
        with pytest.raises(TimingError, match="top_k"):
            engine.run(waveforms, t_stop=t_stop, top_k=-1)


# ----------------------------------------------------------------------
# Iteration, caching and provenance
# ----------------------------------------------------------------------
class TestRefinementLoop:
    def test_warm_repeat_is_full_run_hit_on_both_sub_engines(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=2)
        first = hybrid.run(waveforms, t_stop=t_stop)
        assert first.iterations  # something was refined
        second = hybrid.run(waveforms, t_stop=t_stop)
        assert second.stats["integrations"] == 0
        assert second.stats["full_run_hit"]
        assert hybrid.nldm.last_stats.full_run_hit
        assert hybrid.csm.last_stats.full_run_hit
        assert second.exact_nets == first.exact_nets
        assert second.endpoint_arrivals == first.endpoint_arrivals

    def test_partial_refinement_reports_provenance(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        result = hybrid.run(waveforms, t_stop=t_stop)
        assert 0.0 < result.csm_fraction <= 1.0
        assert result.iterations
        # Every refined endpoint is CSM-exact and its waveform matches the
        # stored values; everything else answers from the NLDM events.
        for net, entry in result.endpoint_slacks.items():
            if entry is None:
                continue
            source, slack = entry
            assert source == ("csm" if result.is_exact(net) else "nldm")
            assert slack == pytest.approx(-result.arrival(net))
        report = result.report()
        assert "CSM-refined" in report
        with pytest.raises(TimingError, match="not an endpoint"):
            result.slack("no_such_net")

    def test_required_mapping_uses_worst_slacks_merge_semantics(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        endpoints = list(netlist.primary_outputs)
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        required = {endpoints[0]: 1e-9}
        with pytest.raises(TimingError, match="no entry for net"):
            hybrid.run(waveforms, t_stop=t_stop, required=required)
        result = hybrid.run(
            waveforms, t_stop=t_stop, required=required, required_default=5e-9
        )
        for net, entry in result.endpoint_slacks.items():
            if entry is None:
                continue
            target = required.get(net, 5e-9)
            assert entry[1] == pytest.approx(target - result.arrival(net))

    def test_cone_depth_truncation_drops_exactness_not_answers(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        full = HybridEngine(netlist, models, options=options, top_k=1)
        truncated = HybridEngine(
            netlist, models, options=options, top_k=1, cone_depth=1
        )
        exact_full = full.run(waveforms, t_stop=t_stop)
        result = truncated.run(waveforms, t_stop=t_stop)
        # The truncated cone refines fewer instances and certifies no more
        # nets than the complete cone.
        assert len(result.refined_instances) <= len(exact_full.refined_instances)
        assert len(result.exact_nets) <= len(exact_full.exact_nets)
        # Endpoints still answer (NLDM covers whatever was not refined).
        for net in netlist.primary_outputs:
            if exact_full.endpoint_arrivals[net] is not None:
                assert result.endpoint_arrivals[net] is not None


# ----------------------------------------------------------------------
# ECO interaction with the critical cone
# ----------------------------------------------------------------------
class TestEcoRefinement:
    def test_swap_outside_cone_retimes_from_cache_inside_reintegrates(
        self, library, models, options
    ):
        netlist = _two_chain_netlist(library)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        baseline = hybrid.run(waveforms, t_stop=t_stop)
        # The deep endpoint arrives last, so the deep chain is the cone.
        assert set(baseline.refined_instances) == {"deep0", "deep1", "deep2"}
        assert baseline.is_exact("d3") and not baseline.is_exact("s1")

        # Out-of-cone ECO: the critical cone's propagation keys are intact,
        # so the CSM refinement resolves entirely from the shared store.
        netlist.swap_cell("shallow0", "NOR2_X1")
        after_outside = hybrid.run(waveforms, t_stop=t_stop)
        assert set(after_outside.refined_instances) == {"deep0", "deep1", "deep2"}
        assert hybrid.csm.last_stats.integrations == 0

        # In-cone ECO: the swapped stage and everything downstream of it
        # must re-integrate.
        netlist.swap_cell("deep1", "NOR2_X1")
        after_inside = hybrid.run(waveforms, t_stop=t_stop)
        assert set(after_inside.refined_instances) == {"deep0", "deep1", "deep2"}
        assert hybrid.csm.last_stats.integrations >= 2
        assert after_inside.is_exact("d3")


# ----------------------------------------------------------------------
# CLI: characterization stays out of the timed hybrid run
# ----------------------------------------------------------------------
def test_cli_hybrid_prewarms_nldm_and_reruns_warm(tmp_path):
    import json

    from repro.runtime.cli import main

    def run(label):
        report = tmp_path / f"{label}.json"
        argv = ["--sta", "chain:3", "--engine", "hybrid", "--top-k", "all",
                "--cache", str(tmp_path / "cache"), "--json", str(report)]
        assert main(argv) == 0
        return json.loads(report.read_text())["designs"]["chain:3"]

    cold = run("cold")
    # INV_X1: its SIS model and its NLDM tables (one job for the cell).
    assert cold["characterization_executed"] == 2
    warm = run("warm")
    assert warm["characterization_executed"] == 0
    assert warm["exact_nets_bitwise_vs_full"]
