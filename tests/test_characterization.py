"""Tests for the characterization flows (DC tables, capacitances, NLDM)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells.testbench import build_testbench
from repro.characterization import (
    CharacterizationConfig,
    NLDMTable,
    ProbeBench,
    characterize_nldm,
    characterize_sis,
    nldm_arcs,
    nldm_characterization_key,
)
from repro.characterization.nldm import (
    RAMP_START,
    measure_nldm_run,
    nldm_runs,
    simulate_nldm_runs,
)
from repro.csm.base import cap_value
from repro.exceptions import AnalysisError, CharacterizationError, NetlistError
from repro.runtime import PackedStore
from repro.spice.sources import SaturatedRamp
from repro.spice.transient import TransientAnalysis, TransientOptions, transient_analysis
from repro.sta.models import TimingModelLibrary
from repro.technology import terminal_capacitances
from repro.waveform.metrics import propagation_delay, transition_time

#: The NLDM grid the timing-model library characterizes.
LIBRARY_SLEWS = TimingModelLibrary.nldm_input_slews
LIBRARY_LOADS = TimingModelLibrary.nldm_loads


class TestConfig:
    def test_defaults_valid(self):
        config = CharacterizationConfig()
        assert config.io_grid_points >= 3

    def test_validation(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(io_grid_points=2)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(voltage_margin=-0.1)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(cap_ramp_slews=(50e-12, 50e-12))
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(cap_sample_fractions=(0.8, 0.2))
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(miller_other_pin_state="both")

    def test_with_grid_points(self):
        config = CharacterizationConfig().with_grid_points(9)
        assert config.io_grid_points == 9


class TestProbeBench:
    def test_output_current_sign_pulldown(self, nor2, fast_config):
        """With an input at 1 and the output held high, the cell sinks current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 1.2, "B": 0.0}, output_voltage=1.2)
        assert currents["output"] > 10e-6

    def test_output_current_sign_pullup(self, nor2, fast_config):
        """With inputs at 0 and the output held low, the cell sources current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 0.0}, output_voltage=0.0)
        assert currents["output"] < -10e-6

    def test_output_current_off_state(self, nor2, fast_config):
        """Inputs 0/0 with output at Vdd: the cell is at its stable point, ~no current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 0.0}, output_voltage=1.2)
        assert abs(currents["output"]) < 1e-6

    def test_internal_probe_requires_stack_node(self, inverter, fast_config):
        with pytest.raises(CharacterizationError):
            ProbeBench(cell=inverter, switching_pins=("A",), probe_internal=True, config=fast_config)

    def test_internal_current_discharges_low_node(self, nor2, fast_config):
        """With inputs '01' the stack node is pulled toward |Vt,p|: holding it at
        Vdd must draw a positive (discharging) current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), probe_internal=True, config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 1.2}, output_voltage=0.0, internal_voltage=1.2)
        assert currents["internal"] > 1e-6

    def test_unknown_pin_rejected(self, nor2, fast_config):
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        with pytest.raises(CharacterizationError):
            bench.measure_dc_currents({"Z": 0.0}, output_voltage=0.0)

    def test_fixed_inputs_default_to_non_controlling(self, library, fast_config):
        nor3 = library["NOR3_X1"]
        bench = ProbeBench(cell=nor3, switching_pins=("A", "B"), config=fast_config)
        assert bench.fixed_inputs == {"C": 0.0}


class TestCurrentTables:
    def test_mcsm_io_table_axes_and_signs(self, nor2_mcsm, technology):
        table = nor2_mcsm.io_table
        assert table.ndim == 4
        vdd = technology.vdd
        # Pull-down active: inputs high, output high -> cell sinks current.
        assert table.evaluate(vdd, vdd, vdd, vdd) > 10e-6
        # Pull-up active: inputs low, output low, stack node high -> cell sources.
        assert table.evaluate(0.0, 0.0, vdd, 0.0) < -10e-6
        # Stable state: inputs low, output and stack node at Vdd -> ~zero.
        assert abs(table.evaluate(0.0, 0.0, vdd, vdd)) < 2e-6

    def test_mcsm_internal_current_drives_node_to_history_value(self, nor2_mcsm, technology):
        vdd = technology.vdd
        in_table = nor2_mcsm.in_table
        # Inputs '10' (A=1): the stack node is connected to Vdd through the
        # B-gated PMOS, so holding it at 0.3 V sources current into it.
        assert in_table.evaluate(vdd, 0.0, 0.3, 0.0) < -1e-6
        # Inputs '01' (B=1): the node can only discharge toward |Vt,p| through
        # the A-gated PMOS; holding it at Vdd draws a discharging current.
        assert in_table.evaluate(0.0, vdd, vdd, 0.0) > 1e-6

    def test_baseline_io_table_is_3d(self, nor2_baseline_mis):
        assert nor2_baseline_mis.io_table.ndim == 3

    def test_sis_io_table_is_2d(self, nor2_sis):
        assert nor2_sis.io_table.ndim == 2
        # Switching input high with output high: NOR2 pulls down.
        assert nor2_sis.io_table.evaluate(1.2, 1.2) > 10e-6


class TestCapacitances:
    def test_miller_cap_close_to_structural_estimate(self, nor2, nor2_mcsm):
        """CmA should be within a factor ~2 of the sum of gate-drain overlaps of
        the devices whose gate is A and whose drain/source touches the output."""
        structural = 0.0
        for device in nor2.mosfets():
            if device.gate != "A":
                continue
            caps = terminal_capacitances(device.params, device.width, device.length)
            if nor2.output in (device.drain, device.source):
                structural += caps["cgd"]
        measured = cap_value(nor2_mcsm.miller_caps["A"], 0.0, 0.0)
        assert 0.5 * structural < measured < 2.5 * structural

    def test_internal_cap_positive_and_plausible(self, nor2, nor2_mcsm):
        cn = cap_value(nor2_mcsm.internal_cap, 0.0, 0.0, 0.0, 0.0)
        assert cn > 0.5e-15
        assert cn < 30e-15

    def test_input_caps_positive(self, nor2_mcsm):
        for pin in ("A", "B"):
            assert cap_value(nor2_mcsm.input_caps[pin], 0.6) > 0.3e-15

    def test_output_cap_positive(self, nor2_mcsm):
        assert cap_value(nor2_mcsm.output_cap, 0, 0, 0, 0) > 0


class TestModelCharacterizationFlows:
    def test_sis_requires_known_pin(self, nor2, fast_config):
        with pytest.raises(CharacterizationError):
            characterize_sis(nor2, "Z", fast_config)

    def test_mcsm_requires_stack_node(self, inverter, fast_config):
        from repro.characterization import characterize_mcsm

        with pytest.raises(CharacterizationError):
            characterize_mcsm(inverter, config=fast_config)

    def test_baseline_requires_two_pins(self, inverter, fast_config):
        from repro.characterization import characterize_baseline_mis

        with pytest.raises(CharacterizationError):
            characterize_baseline_mis(inverter, config=fast_config)

    def test_mcsm_metadata_and_pins(self, nor2_mcsm):
        assert nor2_mcsm.pins == ("A", "B")
        assert nor2_mcsm.internal_node == "n1"
        assert nor2_mcsm.metadata["grid_points"] == "5"


class TestNLDM:
    @pytest.fixture(scope="class")
    def inv_nldm(self, inverter):
        return characterize_nldm(
            inverter, "A", input_rise=True,
            input_slews=(30e-12, 120e-12), loads=(3e-15, 15e-15),
        )

    def test_arc_direction(self, inv_nldm):
        assert inv_nldm.input_rise is True
        assert inv_nldm.output_rise is False

    def test_delay_increases_with_load(self, inv_nldm):
        assert inv_nldm.delay(60e-12, 15e-15) > inv_nldm.delay(60e-12, 3e-15)

    def test_slew_increases_with_load(self, inv_nldm):
        assert inv_nldm.output_slew(60e-12, 15e-15) > inv_nldm.output_slew(60e-12, 3e-15)

    def test_delays_are_positive(self, inv_nldm):
        for slew in (30e-12, 120e-12):
            for load in (3e-15, 15e-15):
                assert inv_nldm.delay(slew, load) > 0

    def test_requires_multiple_grid_points(self, nor2):
        with pytest.raises(CharacterizationError):
            characterize_nldm(nor2, "A", input_slews=(30e-12,), loads=(3e-15,))
        with pytest.raises(CharacterizationError):
            characterize_nldm(nor2, "A", input_slews=(30e-12, 60e-12), loads=(0.0, 3e-15))


def _scalar_nldm_point(cell, pin, input_rise, input_slew, load, time_step=1e-12):
    """The scalar oracle: one testbench and one transient per point, with the
    window of the original per-point loop."""
    vdd = cell.technology.vdd
    output_rise = cell.output_for_pin(pin, 1 if input_rise else 0) == 1
    fixed = {
        other: cell.non_controlling_value(other) * vdd for other in cell.inputs if other != pin
    }
    ramp = SaturatedRamp(
        0.0 if input_rise else vdd, vdd if input_rise else 0.0, RAMP_START, input_slew
    )
    bench = build_testbench(cell, {pin: ramp, **fixed}, load_capacitance=load)
    t_stop = RAMP_START + input_slew + max(30 * load * 1e12 * 1e-12, 600e-12)
    result = transient_analysis(
        bench.circuit,
        t_stop=t_stop,
        options=TransientOptions(time_step=time_step, record_source_currents=False),
    )
    output_wave = result.waveform(cell.output)
    delay = propagation_delay(
        result.waveform(pin),
        output_wave,
        vdd,
        input_direction="rise" if input_rise else "fall",
        output_direction="rise" if output_rise else "fall",
    )
    slew = transition_time(output_wave, vdd, direction="rise" if output_rise else "fall")
    return result.times, delay, slew


class TestNLDMBatch:
    """Every arc of a cell as one lockstep batch with per-run loads and grids."""

    @pytest.mark.parametrize("cell_name", ["INV_X1", "NOR2_X1"])
    def test_matches_scalar_oracle(self, library, cell_name):
        cell = library[cell_name]
        runs = nldm_runs(cell, nldm_arcs(cell), LIBRARY_SLEWS, LIBRARY_LOADS)
        assert len(runs) == 2 * len(cell.inputs) * len(LIBRARY_SLEWS) * len(LIBRARY_LOADS)
        results = simulate_nldm_runs(cell, runs)
        for run, result in zip(runs, results):
            times, delay, slew = _scalar_nldm_point(
                cell, run.pin, run.input_rise, run.input_slew, run.load
            )
            assert np.array_equal(result.times, times), run
            batch_delay, batch_slew = measure_nldm_run(cell, run, result)
            assert batch_delay == pytest.approx(delay, rel=1e-12, abs=0.0), run
            assert batch_slew == pytest.approx(slew, rel=1e-12, abs=0.0), run

    @pytest.fixture(scope="class")
    def nor2_batch(self, library):
        cell = library["NOR2_X1"]
        runs = nldm_runs(cell, nldm_arcs(cell), (30e-12, 120e-12), (3e-15, 15e-15))
        return cell, runs, simulate_nldm_runs(cell, runs)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_partitions_are_bitwise_identical(self, nor2_batch, data):
        cell, runs, whole = nor2_batch
        order = data.draw(st.permutations(range(len(runs))), label="order")
        cuts = data.draw(
            st.sets(st.integers(1, len(runs) - 1), max_size=3), label="cuts"
        )
        bounds = [0, *sorted(cuts), len(runs)]
        for lo, hi in zip(bounds, bounds[1:]):
            members = order[lo:hi]
            part = simulate_nldm_runs(cell, [runs[i] for i in members])
            for i, result in zip(members, part):
                assert np.array_equal(result.times, whole[i].times)
                for node, trace in whole[i].node_voltages.items():
                    assert np.array_equal(result.node_voltages[node], trace), (runs[i], node)
                assert measure_nldm_run(cell, runs[i], result) == measure_nldm_run(
                    cell, runs[i], whole[i]
                )

    @pytest.mark.parametrize("t_stop", [500e-12, [500e-12, 450e-12, 400e-12]])
    def test_unchanged_capacitor_values_are_bitwise_a_no_op(self, nor2, t_stop):
        """Shared grid (one stop time) and per-run grids (one per run)."""
        bench = build_testbench(nor2, load_capacitance=8e-15)
        stimulus_sets = [
            {"VA": SaturatedRamp(0.0, 1.2, 50e-12, slew), "VB": SaturatedRamp(1.2, 0.0, 80e-12, 40e-12)}
            for slew in (20e-12, 60e-12, 150e-12)
        ]
        engine = TransientAnalysis(bench.circuit, TransientOptions(time_step=2e-12))
        plain = engine.run_many(stimulus_sets, t_stop)
        channel = engine.run_many(
            stimulus_sets,
            t_stop,
            capacitor_values=[{"CLOAD": 8e-15}] * len(stimulus_sets),
        )
        for a, b in zip(plain, channel):
            assert np.array_equal(a.times, b.times)
            for node in a.node_voltages:
                assert np.array_equal(a.node_voltages[node], b.node_voltages[node]), node
            for source in a.source_currents:
                assert np.array_equal(a.source_currents[source], b.source_currents[source])

    def test_per_run_stop_times(self, nor2):
        engine = TransientAnalysis(build_testbench(nor2, load_capacitance=8e-15).circuit)
        results = engine.run_many([{}, {}], [300e-12, 400e-12])
        assert [result.times[-1] for result in results] == [300e-12, 400e-12]
        with pytest.raises(AnalysisError):
            engine.run_many([{}, {}], [300e-12])
        with pytest.raises(NetlistError):
            engine.run_many([{}, {}], 300e-12, capacitor_values=[{"CNOPE": 1e-15}] * 2)

    def test_cell_job_round_trips_through_packed_store(self, library, tmp_path):
        store = PackedStore(tmp_path / "store")
        kwargs = dict(
            library=library,
            nldm_input_slews=(40e-12, 120e-12),
            nldm_loads=(3e-15, 12e-15),
            cache=store,
        )
        inverter = library["INV_X1"]
        cold = TimingModelLibrary(**kwargs)
        assert cold.prewarm(cells=[inverter], kinds=(), include_nldm=True) == 1
        hit, stored = store.lookup(
            nldm_characterization_key(inverter, (40e-12, 120e-12), (3e-15, 12e-15))
        )
        assert hit and isinstance(stored, tuple)
        assert [(table.pin, table.input_rise) for table in stored] == list(nldm_arcs(inverter))

        warm = TimingModelLibrary(**kwargs)
        assert warm.prewarm(cells=[inverter], kinds=(), include_nldm=True) == 0
        for pin, input_rise in nldm_arcs(inverter):
            a = cold.nldm_table("INV_X1", pin, input_rise)
            b = warm.nldm_table("INV_X1", pin, input_rise)
            assert b.output_rise == a.output_rise
            assert np.array_equal(a.delay_table.values, b.delay_table.values)
            assert np.array_equal(a.slew_table.values, b.slew_table.values)
            assert a.delay_table.axes == b.delay_table.axes
