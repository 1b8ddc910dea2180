"""Transient analysis (backward-Euler integration with per-step Newton).

Backward Euler is unconditionally stable and slightly lossy, which is exactly
what is wanted from a reference simulator used for cell characterization: the
waveforms stay smooth and monotone for saturated-ramp stimuli, and accuracy is
controlled by the step size.  All of the paper's experiments run with steps of
0.5-2 ps over windows of a few nanoseconds.

The engine is built for throughput: every stimulus is pre-sampled over the
whole time grid with one vectorized call, the ``static + C/dt`` base matrix
(and, for linear circuits, its LU factorization) is cached per distinct time
step, node waveforms are recorded into preallocated ``(num_nodes, num_steps)``
arrays instead of per-step list appends, and :meth:`TransientAnalysis.run_many`
integrates a whole batch of stimulus variants of the same circuit in lockstep
through the batched Newton solver (one ``np.linalg.solve`` over ``(B, n, n)``
per iteration).  The capacitance-characterization flows use that to run all
their ramp variants simultaneously; NLDM characterization runs every arc of a
cell as one batch, each run with its own load capacitance and its own grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import AnalysisError, ConvergenceError
from .mna import MNAAssembler, NewtonOptions, newton_solve, newton_solve_many
from .netlist import Circuit
from .results import TransientResult
from .sources import DCValue, Stimulus

__all__ = [
    "TransientOptions",
    "transient_analysis",
    "transient_analysis_many",
    "TransientAnalysis",
]


@dataclass
class TransientOptions:
    """Settings for a transient run.

    Attributes
    ----------
    time_step:
        Nominal integration step in seconds.
    gmin:
        Minimum conductance from each node to ground.
    include_breakpoints:
        When true (default) all stimulus breakpoints are inserted into the
        time grid so that ramp corners are hit exactly.
    newton:
        Newton-Raphson options used at every time point.
    record_source_currents:
        When true (default) the current of every voltage source is stored;
        characterization needs this, plain waveform comparisons do not.
    """

    time_step: float = 1e-12
    gmin: float = 1e-12
    include_breakpoints: bool = True
    newton: NewtonOptions = None  # type: ignore[assignment]
    record_source_currents: bool = True

    def __post_init__(self) -> None:
        if self.time_step <= 0:
            raise AnalysisError("time_step must be positive")
        if self.newton is None:
            self.newton = NewtonOptions()


class TransientAnalysis:
    """A transient engine bound to a circuit (reusable across runs)."""

    def __init__(self, circuit: Circuit, options: Optional[TransientOptions] = None):
        self.circuit = circuit
        self.options = options or TransientOptions()
        self.assembler = MNAAssembler(circuit, gmin=self.options.gmin)

    # ------------------------------------------------------------------
    def _time_grid(
        self,
        t_stop: float,
        t_start: float,
        extra_breakpoints: Iterable[float] = (),
        overrides: Optional[Mapping[str, Stimulus]] = None,
    ) -> np.ndarray:
        """The step grid from ``t_start`` to ``t_stop`` with stimulus breakpoints.

        ``overrides`` replaces the stimuli of some sources by name (one
        lockstep run's stimulus set), so the grid is the one a scalar
        :meth:`run` would use with those stimuli attached.
        """
        overrides = overrides or {}
        base = np.arange(t_start, t_stop + 0.5 * self.options.time_step, self.options.time_step)
        # np.arange can overshoot t_stop by up to half a step; the window must
        # end exactly at t_stop so waveform comparisons line up.
        if base[-1] > t_stop:
            base[-1] = t_stop
        elif base[-1] < t_stop:
            base = np.append(base, t_stop)
        breakpoints: List[float] = list(extra_breakpoints)
        if self.options.include_breakpoints:
            for source in self.assembler.voltage_sources + self.assembler.current_sources:
                breakpoints.extend(overrides.get(source.name, source.stimulus).breakpoints())
        inside = [t for t in breakpoints if t_start < t < t_stop]
        if not inside:
            return base
        grid = np.unique(np.concatenate([base, np.asarray(inside, dtype=float)]))
        return grid

    def _initial_solution(
        self,
        initial_voltages: Optional[Dict[str, float]],
        t_start: float,
        source_values=None,
    ) -> np.ndarray:
        """DC solution at ``t_start`` seeded (and optionally pinned) by user ICs."""
        guess = np.zeros(self.assembler.size)
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = self.assembler.index_of_node(node)
                if idx >= 0:
                    guess[idx] = value
        try:
            solution = newton_solve(
                self.assembler,
                guess,
                t_start,
                options=self.options.newton,
                source_values=source_values,
            )
        except ConvergenceError:
            # Fall back to gmin-stepped DC for a robust starting point.
            from .dc import DCAnalysis

            analysis = DCAnalysis(self.circuit, gmin=self.options.gmin, options=self.options.newton)
            op = analysis.solve(time=t_start, initial_guess=initial_voltages)
            solution = np.zeros(self.assembler.size)
            for node, idx in self.assembler.node_index.items():
                solution[idx] = op.voltages[node]
            for name, idx in self.assembler.branch_index.items():
                solution[idx] = op.branch_currents[name]
        if initial_voltages:
            # Honour explicit initial conditions exactly: override the DC value.
            for node, value in initial_voltages.items():
                idx = self.assembler.index_of_node(node)
                if idx >= 0:
                    solution[idx] = value
        return solution

    # ------------------------------------------------------------------
    def _record_indices(self, record_nodes: Optional[Sequence[str]]) -> List[str]:
        nodes = list(record_nodes) if record_nodes else list(self.circuit.non_ground_nodes)
        for node in nodes:
            if not self.circuit.has_node(node):
                raise AnalysisError(f"cannot record unknown node {node!r}")
        return nodes

    def _recording_plan(self, nodes: Sequence[str]):
        """Gather indices shared by the scalar and lockstep recorders.

        Node gathers go through a zero-padded solution vector so that
        ground-recorded nodes read 0.0 without masking.
        """
        assembler = self.assembler
        pad = assembler.size
        node_gather = np.array(
            [assembler.index_of_node(n) if assembler.index_of_node(n) >= 0 else pad for n in nodes],
            dtype=np.intp,
        )
        branch_gather = np.array(
            [assembler.branch_index[s.name] for s in assembler.voltage_sources], dtype=np.intp
        )
        return node_gather, branch_gather

    def _step_cache_entry(self, step_cache: Dict[float, tuple], dt: float):
        """Per-dt companion matrix, prebuilt base matrix and (linear) LU."""
        key = round(dt, 18)
        cached = step_cache.get(key)
        if cached is None:
            assembler = self.assembler
            cap_matrix = assembler.capacitor_companion_matrix(dt)
            base_matrix = assembler._static_matrix + cap_matrix
            lu = assembler.linear_lu(cap_matrix) if assembler.is_linear else None
            cached = (cap_matrix, base_matrix, lu)
            step_cache[key] = cached
        return cached

    def _sample_sources(self, times: np.ndarray, overrides: Optional[Mapping[str, Stimulus]] = None):
        """Pre-sample every source stimulus over the whole grid.

        Returns ``(vs_samples, cs_samples)`` with shapes ``(V, T)`` and
        ``(C, T)``.  ``overrides`` maps source names to replacement stimuli
        (used by the lockstep batch runner).
        """
        overrides = overrides or {}

        def stimulus_for(source) -> Stimulus:
            return overrides.get(source.name, source.stimulus)

        assembler = self.assembler
        num_steps = len(times)
        vs = np.empty((len(assembler.voltage_sources), num_steps))
        for position, source in enumerate(assembler.voltage_sources):
            vs[position] = stimulus_for(source).sample(times)
        cs = np.empty((len(assembler.current_sources), num_steps))
        for position, source in enumerate(assembler.current_sources):
            cs[position] = stimulus_for(source).sample(times)
        return vs, cs

    def run(
        self,
        t_stop: float,
        t_start: float = 0.0,
        initial_voltages: Optional[Dict[str, float]] = None,
        record_nodes: Optional[Sequence[str]] = None,
    ) -> TransientResult:
        """Integrate the circuit from ``t_start`` to ``t_stop``.

        Parameters
        ----------
        t_stop, t_start:
            Simulation window in seconds.
        initial_voltages:
            Optional initial node voltages.  Nodes not listed start from the
            DC operating point at ``t_start``; listed nodes are forced to the
            given value at the first time point (useful for imposing an
            internal-node precharge without simulating its history).
        record_nodes:
            Subset of nodes to record.  Defaults to every node.
        """
        if t_stop <= t_start:
            raise AnalysisError("t_stop must be greater than t_start")

        assembler = self.assembler
        times = self._time_grid(t_stop, t_start)
        num_steps = len(times)
        nodes = self._record_indices(record_nodes)

        vs_samples, cs_samples = self._sample_sources(times)
        solution = self._initial_solution(
            initial_voltages, times[0], source_values=(vs_samples[:, 0], cs_samples[:, 0])
        )

        # Preallocated recording: one (num_recorded, num_steps) voltage block
        # and one (num_sources, num_steps) current block.
        node_gather, branch_gather = self._recording_plan(nodes)
        record_currents = self.options.record_source_currents
        voltage_block = np.empty((len(nodes), num_steps))
        current_block = np.empty((len(branch_gather), num_steps)) if record_currents else None
        padded = np.zeros(assembler.size + 1)

        def record(step: int, current_solution: np.ndarray) -> None:
            padded[: assembler.size] = current_solution
            voltage_block[:, step] = padded[node_gather]
            if current_block is not None:
                current_block[:, step] = -current_solution[branch_gather]

        record(0, solution)

        step_cache: Dict[float, tuple] = {}
        newton = self.options.newton
        for step in range(1, num_steps):
            dt = times[step] - times[step - 1]
            if dt <= 0:
                record(step, solution)
                continue
            cap_matrix, base_matrix, lu = self._step_cache_entry(step_cache, dt)
            cap_rhs = assembler.capacitor_companion_rhs(dt, solution)
            solution = newton_solve(
                assembler,
                solution,
                times[step],
                cap_matrix=cap_matrix,
                cap_rhs=cap_rhs,
                options=newton,
                base_matrix=base_matrix,
                source_values=(vs_samples[:, step], cs_samples[:, step]),
                linear_lu=lu,
            )
            record(step, solution)

        return self._package_result(times, nodes, voltage_block, current_block)

    def _package_result(
        self,
        times: np.ndarray,
        nodes: Sequence[str],
        voltage_block: np.ndarray,
        current_block: Optional[np.ndarray],
    ) -> TransientResult:
        source_currents: Dict[str, np.ndarray] = {}
        if current_block is not None:
            for position, source in enumerate(self.assembler.voltage_sources):
                source_currents[source.name] = current_block[position]
        return TransientResult(
            times=times,
            node_voltages={node: voltage_block[i] for i, node in enumerate(nodes)},
            source_currents=source_currents,
            metadata={"time_step": self.options.time_step},
        )

    # ------------------------------------------------------------------
    def run_many(
        self,
        stimulus_sets: Sequence[Mapping[str, Union[Stimulus, float]]],
        t_stop: Union[float, Sequence[float]],
        t_start: float = 0.0,
        initial_voltages: Optional[Dict[str, float]] = None,
        record_nodes: Optional[Sequence[str]] = None,
        capacitor_values: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> List[TransientResult]:
        """Integrate several variants of this circuit in lockstep.

        Every entry of ``stimulus_sets`` maps *source element names* to the
        stimulus that run should apply (bare numbers become DC values); sources
        not listed keep the stimulus currently attached to the circuit.  Every
        integration step solves all runs through one batched Newton
        iteration, which is dramatically faster than sequential runs for the
        characterization sweeps.

        Besides the stimuli, two data channels vary per run:

        ``t_stop``
            One stop time gives every run one shared time grid, the union of
            every run's breakpoints, and the companion matrix (plus, for
            linear circuits, its LU factors) is cached per distinct step.
            One stop time per run gives every run exactly the grid its
            scalar :meth:`run` would use: its own breakpoints up to its own
            stop time.  A run leaves the batch when its grid ends, and its
            result does not depend on which other runs share its batch.
        ``capacitor_values``
            One mapping per run from Capacitor element names to that run's
            capacitance (for example ``{"CLOAD": 5e-15}``); each run's value
            enters its own companion matrix and right-hand side.  Unlisted
            capacitors keep their circuit value.

        Newton tolerances, damping, the iteration limit and the DC start are
        the same as :meth:`run`'s.  Returns one :class:`TransientResult` per
        entry, in order.
        """
        stops = np.asarray(t_stop, dtype=float)
        if np.any(stops <= t_start):
            raise AnalysisError("t_stop must be greater than t_start")
        if not stimulus_sets:
            return []
        batch = len(stimulus_sets)
        per_run_grids = stops.ndim == 1
        if per_run_grids and len(stops) != batch:
            raise AnalysisError("t_stop needs one stop time per stimulus set")
        stops = np.broadcast_to(stops, (batch,))
        if capacitor_values is not None and len(capacitor_values) != batch:
            raise AnalysisError("capacitor_values needs one mapping per stimulus set")

        assembler = self.assembler
        known_sources = {s.name for s in assembler.voltage_sources} | {
            s.name for s in assembler.current_sources
        }
        overrides: List[Dict[str, Stimulus]] = []
        for stimulus_set in stimulus_sets:
            resolved: Dict[str, Stimulus] = {}
            for name, stimulus in stimulus_set.items():
                if name not in known_sources:
                    raise AnalysisError(f"cannot drive unknown source {name!r}")
                resolved[name] = (
                    stimulus if isinstance(stimulus, Stimulus) else DCValue(float(stimulus))
                )
            overrides.append(resolved)

        if per_run_grids:
            grids = [
                self._time_grid(float(stop), t_start, overrides=resolved)
                for stop, resolved in zip(stops, overrides)
            ]
        else:
            extra_breakpoints: List[float] = []
            for resolved in overrides:
                for stimulus in resolved.values():
                    extra_breakpoints.extend(stimulus.breakpoints())
            grids = [self._time_grid(float(stops[0]), t_start, extra_breakpoints=extra_breakpoints)]
        # ``times`` holds one row per grid (one shared row, or one per run);
        # rows shorter than the longest repeat their last time, a zero step
        # that no run integrates.
        lengths = np.array([len(grid) for grid in grids])
        num_steps = int(lengths.max())
        times = np.empty((len(grids), num_steps))
        for row, grid in enumerate(grids):
            times[row, : len(grid)] = grid
            times[row, len(grid) :] = grid[-1]
        # One shared grid over the circuit's own capacitors shares one
        # companion matrix per step (cached per distinct step); per-run grids
        # or capacitances index a bank of per-run matrices built up front.
        bank = pick = capacitances = None
        if per_run_grids or capacitor_values is not None:
            capacitances = np.stack(
                [assembler.capacitor_values(values) for values in capacitor_values or [{}] * batch]
            )
            bank, pick = self._companion_bank(
                grids if per_run_grids else grids * batch, capacitances
            )
        nodes = self._record_indices(record_nodes)

        vs_all = np.zeros((batch, len(assembler.voltage_sources), num_steps))
        cs_all = np.zeros((batch, len(assembler.current_sources), num_steps))
        for run, resolved in enumerate(overrides):
            grid = grids[run if per_run_grids else 0]
            vs_all[run, :, : len(grid)], cs_all[run, :, : len(grid)] = self._sample_sources(
                grid, overrides=resolved
            )

        solutions = self._initial_solutions_many(initial_voltages, t_start, vs_all, cs_all, overrides)

        node_gather, branch_gather = self._recording_plan(nodes)
        record_currents = self.options.record_source_currents
        voltage_block = np.empty((batch, len(nodes), num_steps))
        current_block = (
            np.empty((batch, len(branch_gather), num_steps)) if record_currents else None
        )
        padded = np.zeros((batch, assembler.size + 1))

        def record(step: int, current_solutions: np.ndarray) -> None:
            padded[:, : assembler.size] = current_solutions
            voltage_block[:, :, step] = padded[:, node_gather]
            if current_block is not None:
                current_block[:, :, step] = -current_solutions[:, branch_gather]

        record(0, solutions)

        step_cache: Dict[float, tuple] = {}
        newton = self.options.newton
        from scipy.linalg import lu_solve

        for step in range(1, num_steps):
            step_dt = times[:, step] - times[:, step - 1]
            moving = step_dt > 0
            if not moving.any():
                record(step, solutions)
                continue
            if moving.all():
                runs = slice(None)
                dt = step_dt if per_run_grids else step_dt[0]
            else:  # the runs whose grids have ended sit this step out
                runs = np.flatnonzero(moving)
                dt = step_dt[runs]
            previous = solutions[runs]
            if bank is None:
                cap_matrix, _, lu = self._step_cache_entry(step_cache, dt)
                cap_rhs = assembler.capacitor_companion_rhs(dt, previous)
            else:
                cap_matrix, lu = bank[pick[runs, step]], None
                cap_rhs = assembler.capacitor_companion_rhs(dt, previous, capacitances[runs])
            vs_step = vs_all[runs, :, step]
            cs_step = cs_all[runs, :, step]
            if lu is not None:
                rhs = np.empty_like(previous)
                for run in range(len(previous)):
                    rhs[run] = assembler.build_rhs(cap_rhs[run], vs_step[run], cs_step[run])
                solutions[runs] = lu_solve(lu, rhs.T, check_finite=False).T
            else:
                solutions[runs] = newton_solve_many(
                    assembler,
                    previous,
                    vs_step,
                    cs_step,
                    cap_matrix=cap_matrix,
                    cap_rhs=cap_rhs,
                    options=newton,
                )
            record(step, solutions)

        results: List[TransientResult] = []
        for run in range(batch):
            length = lengths[run if per_run_grids else 0]
            results.append(
                self._package_result(
                    grids[run if per_run_grids else 0],
                    nodes,
                    voltage_block[run, :, :length],
                    current_block[run, :, :length] if current_block is not None else None,
                )
            )
        return results

    def _companion_bank(
        self, grids: Sequence[np.ndarray], capacitances: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every companion matrix of a batch with per-run steps or capacitances.

        Returns ``(bank, pick)``: run ``r`` at step ``k`` uses
        ``bank[pick[r, k]]``.  Like the cache of a scalar :meth:`run`, each
        run keys its matrices by the step rounded to 1e-18 s and builds each
        from the first step seen with that key, so a run's matrices depend on
        its own grid and capacitances only, never on the other runs of its
        batch.
        """
        assembler = self.assembler
        pick = np.zeros((len(grids), max(len(grid) for grid in grids)), dtype=np.intp)
        banks: List[np.ndarray] = []
        offset = 0
        for run, grid in enumerate(grids):
            dts = np.diff(grid)
            steps = np.flatnonzero(dts > 0)
            keys, first, inverse = np.unique(
                np.round(dts[steps], 18), return_index=True, return_inverse=True
            )
            values = np.broadcast_to(capacitances[run], (len(keys), capacitances.shape[1]))
            banks.append(assembler.capacitor_companion_matrix(dts[steps][first], values))
            pick[run, steps + 1] = offset + inverse
            offset += len(keys)
        return np.concatenate(banks), pick

    def _initial_solutions_many(
        self,
        initial_voltages: Optional[Dict[str, float]],
        t_start: float,
        vs_all: np.ndarray,
        cs_all: np.ndarray,
        overrides: Sequence[Mapping[str, Stimulus]],
    ) -> np.ndarray:
        """Batched DC solves at ``t_start``, with per-run scalar fallback."""
        assembler = self.assembler
        batch = vs_all.shape[0]
        guess = np.zeros((batch, assembler.size))
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = assembler.index_of_node(node)
                if idx >= 0:
                    guess[:, idx] = value
        try:
            solutions = newton_solve_many(
                assembler,
                guess,
                vs_all[:, :, 0],
                cs_all[:, :, 0],
                options=self.options.newton,
            )
        except ConvergenceError:
            solutions = np.empty((batch, assembler.size))
            for run in range(batch):
                solutions[run] = self._initial_solution(
                    initial_voltages,
                    t_start,
                    source_values=(vs_all[run, :, 0], cs_all[run, :, 0]),
                )
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = assembler.index_of_node(node)
                if idx >= 0:
                    solutions[:, idx] = value
        return solutions


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    time_step: float = 1e-12,
    t_start: float = 0.0,
    initial_voltages: Optional[Dict[str, float]] = None,
    record_nodes: Optional[Sequence[str]] = None,
    options: Optional[TransientOptions] = None,
) -> TransientResult:
    """Convenience wrapper building a :class:`TransientAnalysis` and running it."""
    if options is None:
        options = TransientOptions(time_step=time_step)
    engine = TransientAnalysis(circuit, options)
    return engine.run(
        t_stop=t_stop,
        t_start=t_start,
        initial_voltages=initial_voltages,
        record_nodes=record_nodes,
    )


def transient_analysis_many(
    circuit: Circuit,
    stimulus_sets: Sequence[Mapping[str, Union[Stimulus, float]]],
    t_stop: float,
    time_step: float = 1e-12,
    t_start: float = 0.0,
    initial_voltages: Optional[Dict[str, float]] = None,
    record_nodes: Optional[Sequence[str]] = None,
    options: Optional[TransientOptions] = None,
) -> List[TransientResult]:
    """Run several stimulus variants of one circuit in lockstep (see
    :meth:`TransientAnalysis.run_many`)."""
    if options is None:
        options = TransientOptions(time_step=time_step)
    engine = TransientAnalysis(circuit, options)
    return engine.run_many(
        stimulus_sets,
        t_stop=t_stop,
        t_start=t_start,
        initial_voltages=initial_voltages,
        record_nodes=record_nodes,
    )
