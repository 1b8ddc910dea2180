"""Voltage-based (NLDM-style) characterization.

This is the conventional approach the paper contrasts against: the cell is
characterized for propagation delay and output transition time as functions
of input slew and output load, assuming saturated-ramp waveforms.  The tables
feed the voltage-based STA engine (:mod:`repro.sta`) which serves as the
"what existing tools do" baseline in the experiments.

Every arc of a cell (input pin x edge) at every (input slew, load) point is
one run of a single lockstep batch (:meth:`TransientAnalysis.run_many`) on
one testbench: each run drives its own pin ramp, sets its own ``CLOAD`` and
steps on exactly the time grid a scalar transient of that point would use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.cell import Cell
from ..cells.testbench import build_testbench
from ..exceptions import CharacterizationError
from ..lut.grid import Axis
from ..lut.table import NDTable
from ..spice.results import TransientResult
from ..spice.sources import SaturatedRamp
# ``transient_analysis`` is unused here but stays importable: the benchmark's
# tracer patches it by this module attribute.
from ..spice.transient import TransientAnalysis, TransientOptions, transient_analysis  # noqa: F401
from ..waveform.metrics import propagation_delay, transition_time

__all__ = [
    "NLDMTable",
    "NLDMRun",
    "characterize_nldm",
    "characterize_nldm_cell",
    "nldm_arcs",
    "nldm_runs",
    "simulate_nldm_runs",
    "measure_nldm_run",
]

#: Start time of every characterization input ramp (s).
RAMP_START = 100e-12

#: Time simulated after the input ramp ends (s): long enough for the output
#: of every library cell to complete its swing at the characterized loads,
#: which the delay and slew measurements need.
SETTLE_WINDOW = 600e-12


@dataclass
class NLDMTable:
    """Delay / output-slew tables for one timing arc of a cell.

    Attributes
    ----------
    cell_name / pin:
        The characterized cell and the switching input pin of the arc.
    input_rise:
        True when the characterized arc is for a rising input edge.
    delay_table / slew_table:
        2-D tables over (input slew, load capacitance).
    """

    cell_name: str
    pin: str
    input_rise: bool
    output_rise: bool
    delay_table: NDTable
    slew_table: NDTable
    vdd: float
    metadata: Dict[str, str] = field(default_factory=dict)

    def delay(self, input_slew: float, load: float) -> float:
        """Interpolated 50 % propagation delay (s)."""
        return self.delay_table.evaluate(input_slew, load)

    def output_slew(self, input_slew: float, load: float) -> float:
        """Interpolated 20-80 % output transition time (s)."""
        return self.slew_table.evaluate(input_slew, load)


@dataclass(frozen=True)
class NLDMRun:
    """One characterization point: an arc at one (input slew, load)."""

    pin: str
    input_rise: bool
    input_slew: float
    load: float

    @property
    def t_stop(self) -> float:
        return RAMP_START + self.input_slew + SETTLE_WINDOW


def nldm_arcs(cell: Cell) -> Tuple[Tuple[str, bool], ...]:
    """Every NLDM arc of a cell as ``(pin, input_rise)``, in table order."""
    return tuple((pin, input_rise) for pin in cell.inputs for input_rise in (True, False))


def _output_rise(cell: Cell, pin: str, input_rise: bool) -> bool:
    """Output edge of an arc; raises if the pin does not toggle the output."""
    if pin not in cell.inputs:
        raise CharacterizationError(f"cell {cell.name!r} has no input pin {pin!r}")
    out_initial = cell.output_for_pin(pin, 0 if input_rise else 1)
    out_final = cell.output_for_pin(pin, 1 if input_rise else 0)
    if out_initial == out_final:
        raise CharacterizationError(
            f"pin {pin!r} of cell {cell.name!r} does not toggle the output for this edge"
        )
    return out_final == 1


def nldm_runs(
    cell: Cell,
    arcs: Sequence[Tuple[str, bool]],
    input_slews: Sequence[float],
    loads: Sequence[float],
) -> List[NLDMRun]:
    """The runs of a characterization: arcs x input slews x loads, in order."""
    for pin, input_rise in arcs:
        _output_rise(cell, pin, input_rise)
    if len(input_slews) < 2 or len(loads) < 2:
        raise CharacterizationError("need at least two input slews and two loads")
    if min(loads) <= 0:
        raise CharacterizationError("NLDM loads must be positive")
    return [
        NLDMRun(pin, input_rise, float(input_slew), float(load))
        for pin, input_rise in arcs
        for input_slew in input_slews
        for load in loads
    ]


def simulate_nldm_runs(
    cell: Cell, runs: Sequence[NLDMRun], time_step: float = 1e-12
) -> List[TransientResult]:
    """Simulate runs of one cell as one lockstep batch on one testbench.

    The switching pin ramps, the other inputs sit at their non-controlling
    values, and the output drives ``CLOAD``.  Only the input pins and the
    output are recorded, without source currents.
    """
    vdd = cell.technology.vdd
    bench = build_testbench(cell, load_capacitance=runs[0].load)
    stimulus_sets = []
    for run in runs:
        ramp = SaturatedRamp(
            0.0 if run.input_rise else vdd,
            vdd if run.input_rise else 0.0,
            RAMP_START,
            run.input_slew,
        )
        stimulus_sets.append(
            {
                bench.input_source_names[pin]: (
                    ramp if pin == run.pin else cell.non_controlling_value(pin) * vdd
                )
                for pin in cell.inputs
            }
        )
    engine = TransientAnalysis(
        bench.circuit, TransientOptions(time_step=time_step, record_source_currents=False)
    )
    return engine.run_many(
        stimulus_sets,
        [run.t_stop for run in runs],
        record_nodes=(*cell.inputs, cell.output),
        capacitor_values=[{bench.load_capacitor_name: run.load} for run in runs],
    )


def measure_nldm_run(cell: Cell, run: NLDMRun, result: TransientResult) -> Tuple[float, float]:
    """``(50 % propagation delay, 20-80 % output slew)`` of one simulated run."""
    vdd = cell.technology.vdd
    output_rise = _output_rise(cell, run.pin, run.input_rise)
    output_wave = result.waveform(cell.output)
    delay = propagation_delay(
        result.waveform(run.pin),
        output_wave,
        vdd,
        input_direction="rise" if run.input_rise else "fall",
        output_direction="rise" if output_rise else "fall",
    )
    slew = transition_time(output_wave, vdd, direction="rise" if output_rise else "fall")
    return delay, slew


def characterize_nldm_cell(
    cell: Cell,
    input_slews: Sequence[float] = (20e-12, 50e-12, 100e-12, 200e-12),
    loads: Sequence[float] = (2e-15, 5e-15, 10e-15, 20e-15, 40e-15),
    time_step: float = 1e-12,
    arcs: Optional[Sequence[Tuple[str, bool]]] = None,
) -> Tuple[NLDMTable, ...]:
    """Characterize NLDM arcs of a cell as one lockstep batch.

    ``arcs`` lists ``(pin, input_rise)`` pairs and defaults to every arc
    (:func:`nldm_arcs`); one table is returned per arc, in that order.
    """
    arcs = nldm_arcs(cell) if arcs is None else tuple(arcs)
    runs = nldm_runs(cell, arcs, input_slews, loads)
    results = simulate_nldm_runs(cell, runs, time_step)
    measured = np.array(
        [measure_nldm_run(cell, run, result) for run, result in zip(runs, results)]
    ).reshape(len(arcs), len(input_slews), len(loads), 2)

    slew_axis = Axis("input_slew", tuple(float(s) for s in input_slews))
    load_axis = Axis("load", tuple(float(c) for c in loads))
    tables = []
    for (pin, input_rise), arc in zip(arcs, measured):
        delays, slews = arc[..., 0].copy(), arc[..., 1].copy()
        tables.append(
            NLDMTable(
                cell_name=cell.name,
                pin=pin,
                input_rise=input_rise,
                output_rise=_output_rise(cell, pin, input_rise),
                delay_table=NDTable(
                    (slew_axis, load_axis), delays, name=f"{cell.name}.delay[{pin}]"
                ),
                slew_table=NDTable((slew_axis, load_axis), slews, name=f"{cell.name}.slew[{pin}]"),
                vdd=cell.technology.vdd,
            )
        )
    return tuple(tables)


def characterize_nldm(
    cell: Cell,
    pin: Optional[str] = None,
    input_rise: bool = True,
    input_slews: Sequence[float] = (20e-12, 50e-12, 100e-12, 200e-12),
    loads: Sequence[float] = (2e-15, 5e-15, 10e-15, 20e-15, 40e-15),
    time_step: float = 1e-12,
) -> NLDMTable:
    """Characterize one NLDM timing arc against the reference simulator.

    The one-arc case of :func:`characterize_nldm_cell`.  The remaining
    inputs are held at their non-controlling values; the output edge
    direction follows from the cell's logic function.
    """
    [table] = characterize_nldm_cell(
        cell, input_slews, loads, time_step, arcs=[(pin or cell.inputs[0], input_rise)]
    )
    return table
