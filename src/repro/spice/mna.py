"""Modified nodal analysis (MNA) assembly and the Newton-Raphson solvers.

The assembler owns the mapping from node names / voltage-source branches to
matrix indices and knows how to build the linearized system ``G x = rhs`` at a
given candidate solution.  Both the DC and the transient engines reuse it; the
transient engine additionally passes pre-built capacitor companion terms.

Stamping is performed through precomputed COO-style index arrays rather than
per-element Python loops: at construction time the assembler enumerates, once,
every ``(row, column, derivative, sign)`` quadruple a MOSFET linearization can
touch and every node a capacitor or current-source branch scatters into.  A
build then reduces to one vectorized device evaluation
(:class:`~repro.technology.mosfet.MosfetBank`), one ``np.add.at`` scatter into
the matrix and one into the right-hand side.  The same index arrays serve a
single bias point or a whole batch of ``B`` bias points (shape ``(B, size)``),
which is what :func:`newton_solve_many` and the lockstep transient engine
build on.  Circuits without nonlinear devices expose ``is_linear`` so callers
can factorize the (then constant) matrix once and reuse the LU factors.

The system layout is::

    x = [ v_1 ... v_N | i_V1 ... i_VM ]

where ``v_k`` are non-ground node voltages and ``i_Vj`` is the current
entering the positive terminal of voltage source ``j`` from the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgesv as _dgesv

from ..exceptions import ConvergenceError, NetlistError
from ..technology.mosfet import MosfetBank
from .elements import Capacitor, CurrentSource, Mosfet, Resistor, VoltageSource
from .netlist import GROUND, Circuit

__all__ = ["MNAAssembler", "NewtonOptions", "newton_solve", "newton_solve_many"]


@dataclass
class NewtonOptions:
    """Settings for the Newton-Raphson iteration.

    Attributes
    ----------
    max_iterations:
        Hard iteration limit before declaring non-convergence.
    voltage_tolerance:
        Convergence threshold on the largest node-voltage update (V).
    current_tolerance:
        Convergence threshold on the largest branch-current update (A).
    damping_limit:
        Maximum node-voltage change applied per iteration (V); larger Newton
        steps are clipped, which is the usual way to keep exponential device
        models from overflowing.
    """

    max_iterations: int = 100
    voltage_tolerance: float = 1e-7
    current_tolerance: float = 1e-10
    damping_limit: float = 0.5


class MNAAssembler:
    """Builds linearized MNA systems for a fixed circuit topology."""

    def __init__(self, circuit: Circuit, gmin: float = 1e-12):
        self.circuit = circuit
        self.gmin = gmin
        self.node_index: Dict[str, int] = {}
        for node in circuit.non_ground_nodes:
            self.node_index[node] = len(self.node_index)
        self.num_nodes = len(self.node_index)

        self.voltage_sources: List[VoltageSource] = circuit.voltage_sources()
        self.branch_index: Dict[str, int] = {
            source.name: self.num_nodes + position
            for position, source in enumerate(self.voltage_sources)
        }
        self.size = self.num_nodes + len(self.voltage_sources)
        if self.size == 0:
            raise NetlistError(f"circuit {circuit.name!r} has no unknowns to solve for")

        self.mosfets: List[Mosfet] = circuit.mosfets()
        self._mosfet_indices: List[Tuple[int, int, int, int]] = [
            (
                self._index(m.drain),
                self._index(m.gate),
                self._index(m.source),
                self._index(m.bulk),
            )
            for m in self.mosfets
        ]
        self.current_sources: List[CurrentSource] = [
            e for e in circuit.elements if isinstance(e, CurrentSource)
        ]
        self._current_source_indices: List[Tuple[int, int]] = [
            (self._index(s.node_plus), self._index(s.node_minus)) for s in self.current_sources
        ]

        #: True when the circuit has no nonlinear (device) elements, i.e. the
        #: assembled matrix depends only on the topology and the time step.
        self.is_linear = not self.mosfets

        self._static_matrix = self._build_static_matrix()
        self._build_index_arrays()

    # ------------------------------------------------------------------
    def _index(self, node: str) -> int:
        """Matrix index of a node; ground maps to -1 (excluded)."""
        if node == GROUND:
            return -1
        try:
            return self.node_index[node]
        except KeyError as exc:
            raise NetlistError(f"node {node!r} not present in circuit {self.circuit.name!r}") from exc

    def index_of_node(self, node: str) -> int:
        """Public variant of :meth:`_index` used by the analysis engines."""
        return self._index(node)

    def _build_static_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.size, self.size))
        # gmin from every node to ground keeps floating nodes solvable.
        for idx in range(self.num_nodes):
            matrix[idx, idx] += self.gmin
        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                self._stamp_conductance(
                    matrix, self._index(element.node_a), self._index(element.node_b),
                    1.0 / element.resistance,
                )
        for source in self.voltage_sources:
            branch = self.branch_index[source.name]
            plus = self._index(source.node_plus)
            minus = self._index(source.node_minus)
            if plus >= 0:
                matrix[plus, branch] += 1.0
                matrix[branch, plus] += 1.0
            if minus >= 0:
                matrix[minus, branch] -= 1.0
                matrix[branch, minus] -= 1.0
        return matrix

    def _build_index_arrays(self) -> None:
        """Precompute every scatter/gather pattern a build needs.

        Gathers use a padded solution vector of length ``size + 1`` whose last
        entry is pinned to 0.0, so ground terminals index the pad instead of
        needing masks.  Scatters are flat (row-major) matrix indices with
        parallel sign / derivative-selector arrays, applied via ``np.add.at``
        (which accumulates duplicate indices, unlike fancy-index assignment).
        """
        size = self.size
        pad = size  # index of the zero-pinned pad entry in a padded solution

        def padded(idx: int) -> int:
            return idx if idx >= 0 else pad

        # -- MOSFET gather: terminal voltages as one (4, M) fancy index ------
        num_devices = len(self.mosfets)
        terminals = np.empty((4, num_devices), dtype=np.intp)
        for position, (d, g, s, b) in enumerate(self._mosfet_indices):
            terminals[:, position] = (padded(g), padded(d), padded(s), padded(b))
        self._m_terminals = terminals  # order: gate, drain, source, bulk
        self._bank = MosfetBank([(m.params, m.width, m.length) for m in self.mosfets])

        # -- MOSFET matrix scatter -------------------------------------------
        # The channel current flows drain -> source; its linearization stamps
        # +g into row ``drain`` and -g into row ``source`` for each of the four
        # controlling terminals (ground rows/columns are dropped).
        flat: List[int] = []
        take: List[int] = []  # derivative-selector * M + device (flat index)
        sign: List[float] = []
        rhs_idx: List[int] = []
        rhs_sign: List[float] = []
        rhs_dev: List[int] = []
        for position, (d, g, s, b) in enumerate(self._mosfet_indices):
            controls = (g, d, s, b)  # must match MosfetBank derivative order
            for row, row_sign in ((d, 1.0), (s, -1.0)):
                if row < 0:
                    continue
                for sel, ctrl in enumerate(controls):
                    if ctrl < 0:
                        continue
                    flat.append(row * size + ctrl)
                    take.append(sel * num_devices + position)
                    sign.append(row_sign)
            if d >= 0:
                rhs_idx.append(d)
                rhs_sign.append(-1.0)
                rhs_dev.append(position)
            if s >= 0:
                rhs_idx.append(s)
                rhs_sign.append(1.0)
                rhs_dev.append(position)
        self._stamp_flat = np.asarray(flat, dtype=np.intp)
        self._stamp_take = np.asarray(take, dtype=np.intp)
        self._stamp_sign = np.asarray(sign)
        self._rhs_idx = np.asarray(rhs_idx, dtype=np.intp)
        self._rhs_sign = np.asarray(rhs_sign)
        self._rhs_dev = np.asarray(rhs_dev, dtype=np.intp)

        # -- voltage-source branch rows --------------------------------------
        self._vs_branch = np.asarray(
            [self.branch_index[s.name] for s in self.voltage_sources], dtype=np.intp
        )

        # -- current-source scatter ------------------------------------------
        cs_idx: List[int] = []
        cs_sign: List[float] = []
        cs_pos: List[int] = []
        for position, (plus, minus) in enumerate(self._current_source_indices):
            if plus >= 0:
                cs_idx.append(plus)
                cs_sign.append(-1.0)
                cs_pos.append(position)
            if minus >= 0:
                cs_idx.append(minus)
                cs_sign.append(1.0)
                cs_pos.append(position)
        self._cs_idx = np.asarray(cs_idx, dtype=np.intp)
        self._cs_sign = np.asarray(cs_sign)
        self._cs_pos = np.asarray(cs_pos, dtype=np.intp)

        # -- capacitor branches ----------------------------------------------
        # ``capacitor_position`` maps each Capacitor element to its branch, the
        # column a per-run capacitance override (``capacitor_values``) replaces.
        branches = []
        self.capacitor_position: Dict[str, int] = {}
        for element in self.circuit.elements:
            for a, b, c in element.capacitor_branches():
                if c > 0.0:
                    if isinstance(element, Capacitor):
                        self.capacitor_position[element.name] = len(branches)
                    branches.append((self._index(a), self._index(b), c))
        self._cap_values = np.asarray([c for _, _, c in branches])
        self._cap_a = np.asarray([padded(a) for a, _, _ in branches], dtype=np.intp)
        self._cap_b = np.asarray([padded(b) for _, b, _ in branches], dtype=np.intp)
        cap_flat: List[int] = []
        cap_sign: List[float] = []
        cap_branch: List[int] = []
        cap_rhs_idx: List[int] = []
        cap_rhs_sign: List[float] = []
        cap_rhs_branch: List[int] = []
        for position, (a, b, _) in enumerate(branches):
            for row, col, s_ in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                if row >= 0 and col >= 0:
                    cap_flat.append(row * size + col)
                    cap_sign.append(s_)
                    cap_branch.append(position)
            if a >= 0:
                cap_rhs_idx.append(a)
                cap_rhs_sign.append(1.0)
                cap_rhs_branch.append(position)
            if b >= 0:
                cap_rhs_idx.append(b)
                cap_rhs_sign.append(-1.0)
                cap_rhs_branch.append(position)
        self._cap_flat = np.asarray(cap_flat, dtype=np.intp)
        self._cap_sign = np.asarray(cap_sign)
        self._cap_branch = np.asarray(cap_branch, dtype=np.intp)
        self._cap_rhs_idx = np.asarray(cap_rhs_idx, dtype=np.intp)
        self._cap_rhs_sign = np.asarray(cap_rhs_sign)
        self._cap_rhs_branch = np.asarray(cap_rhs_branch, dtype=np.intp)

        # Reusable padded-solution buffer for the unbatched build path, and a
        # grow-on-demand workspace (matrices / rhs / padded solutions) for the
        # batched path: newton iterations run thousands of times per
        # transient, so the allocations are hoisted out of the hot loop.  The
        # workspace is sized for the largest batch seen and sliced for smaller
        # ones, which is what lets the batched Newton solver shrink its
        # rebuilds to the active (non-converged) subset without reallocating.
        self._padded = np.zeros(size + 1)
        self._max_workspace: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _workspace(self, batch: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        workspace = self._max_workspace
        if workspace is None or workspace[0].shape[0] < batch:
            workspace = (
                np.empty((batch, self.size, self.size)),
                np.empty((batch, self.size)),
                np.zeros((batch, self.size + 1)),
            )
            self._max_workspace = workspace
        return tuple(buffer[:batch] for buffer in workspace)

    @staticmethod
    def _stamp_conductance(matrix: np.ndarray, a: int, b: int, g: float) -> None:
        if a >= 0:
            matrix[a, a] += g
        if b >= 0:
            matrix[b, b] += g
        if a >= 0 and b >= 0:
            matrix[a, b] -= g
            matrix[b, a] -= g

    # ------------------------------------------------------------------
    def capacitor_values(self, overrides: Mapping[str, float]) -> np.ndarray:
        """Branch capacitances with some Capacitor elements set by name.

        Returns a copy of the circuit's own branch values (one per capacitive
        branch, MOSFET parasitics included) in which every element named in
        ``overrides`` takes the given capacitance.
        """
        values = self._cap_values.copy()
        for name, capacitance in overrides.items():
            try:
                position = self.capacitor_position[name]
            except KeyError:
                raise NetlistError(
                    f"cannot set unknown capacitor {name!r} of circuit {self.circuit.name!r}"
                ) from None
            if capacitance < 0:
                raise NetlistError(f"capacitor {name}: capacitance must be non-negative")
            values[position] = capacitance
        return values

    def capacitor_companion_matrix(
        self, dt, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Conductance contribution ``C / dt`` of all capacitive branches.

        With per-run branch capacitances ``values`` of shape ``(B, K)`` (see
        :meth:`capacitor_values`) and ``dt`` a scalar or a ``(B,)`` vector of
        per-run steps, returns ``(B, size, size)``: row ``b`` is bitwise the
        unbatched matrix of run ``b``'s step and capacitances.
        """
        if values is None:
            return self.capacitor_companion_matrix(dt, self._cap_values[None])[0]
        batch = values.shape[0]
        matrices = np.zeros((batch, self.size, self.size))
        if len(self._cap_values):
            scaled = (values / np.reshape(dt, (-1, 1)))[:, self._cap_branch] * self._cap_sign
            np.add.at(
                matrices.reshape(batch, -1),
                (np.arange(batch)[:, None], self._cap_flat[None, :]),
                scaled,
            )
        return matrices

    def capacitor_companion_rhs(
        self, dt, previous: np.ndarray, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Right-hand-side contribution of capacitor branches (backward Euler).

        ``previous`` may be a single solution vector ``(size,)`` or a batch
        ``(B, size)``; the result has the matching shape.  A batch may carry
        per-run capacitances ``values`` ``(B, K)`` and per-run steps ``dt``
        ``(B,)``, as in :meth:`capacitor_companion_matrix`.
        """
        previous = np.asarray(previous, dtype=float)
        batched = previous.ndim == 2
        shape = previous.shape[:-1] + (self.size,)
        rhs = np.zeros(shape)
        if not len(self._cap_values):
            return rhs
        padded_shape = previous.shape[:-1] + (self.size + 1,)
        padded = np.zeros(padded_shape)
        padded[..., : self.size] = previous
        conductance = (
            self._cap_values / dt if values is None else values / np.reshape(dt, (-1, 1))
        )
        g_times_v = conductance * (padded[..., self._cap_a] - padded[..., self._cap_b])
        contributions = self._cap_rhs_sign * g_times_v[..., self._cap_rhs_branch]
        if batched:
            batch = previous.shape[0]
            np.add.at(
                rhs,
                (np.arange(batch)[:, None], self._cap_rhs_idx[None, :]),
                contributions,
            )
        else:
            np.add.at(rhs, self._cap_rhs_idx, contributions)
        return rhs

    # ------------------------------------------------------------------
    def source_values_at(self, time: float) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate every voltage- and current-source stimulus at ``time``."""
        vs = np.array([source.value(time) for source in self.voltage_sources])
        cs = np.array([source.value(time) for source in self.current_sources])
        return vs, cs

    def build_rhs(
        self,
        cap_rhs: Optional[np.ndarray],
        vs_values: np.ndarray,
        cs_values: np.ndarray,
    ) -> np.ndarray:
        """Right-hand side without the nonlinear (solution-dependent) terms."""
        rhs = np.zeros(self.size) if cap_rhs is None else cap_rhs.copy()
        if len(self._vs_branch):
            rhs[self._vs_branch] += vs_values
        if len(self._cs_idx):
            np.add.at(rhs, self._cs_idx, self._cs_sign * cs_values[self._cs_pos])
        return rhs

    def build(
        self,
        solution: np.ndarray,
        time: float,
        cap_matrix: Optional[np.ndarray] = None,
        cap_rhs: Optional[np.ndarray] = None,
        base_matrix: Optional[np.ndarray] = None,
        source_values: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the linearized system around ``solution`` at ``time``.

        ``base_matrix`` (when given) must equal ``static + cap_matrix``; the
        transient engine caches it per time step so the per-iteration cost is
        one copy.  ``source_values`` optionally carries pre-evaluated
        ``(voltage_source_values, current_source_values)`` so stimuli are not
        re-evaluated on every Newton iteration.
        """
        if base_matrix is not None:
            matrix = base_matrix.copy()
        else:
            matrix = self._static_matrix.copy()
            if cap_matrix is not None:
                matrix += cap_matrix

        if source_values is None:
            source_values = self.source_values_at(time)
        rhs = self.build_rhs(cap_rhs, *source_values)

        if self.mosfets:
            padded = self._padded
            padded[: self.size] = solution
            voltages = padded[self._m_terminals]  # (4, M): vg, vd, vs, vb
            current, derivs = self._bank.evaluate(
                voltages[0], voltages[1], voltages[2], voltages[3]
            )
            flat_derivs = derivs.reshape(-1)
            np.add.at(
                matrix.ravel(),
                self._stamp_flat,
                self._stamp_sign * flat_derivs[self._stamp_take],
            )
            equivalent = current - np.einsum("km,km->m", derivs, voltages)
            np.add.at(rhs, self._rhs_idx, self._rhs_sign * equivalent[self._rhs_dev])

        return matrix, rhs

    def build_many(
        self,
        solutions: np.ndarray,
        vs_values: np.ndarray,
        cs_values: np.ndarray,
        cap_matrix: Optional[np.ndarray] = None,
        cap_rhs: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``B`` linearized systems at once.

        Parameters
        ----------
        solutions:
            Candidate solutions, shape ``(B, size)``.
        vs_values / cs_values:
            Per-run source values, shapes ``(B, num_voltage_sources)`` and
            ``(B, num_current_sources)``.
        cap_matrix:
            Companion-conductance matrix shared by every run ``(size, size)``
            or one per run ``(B, size, size)`` (per-run steps or
            capacitances), or ``None`` for DC.
        cap_rhs:
            Per-run companion right-hand sides, shape ``(B, size)``.

        The returned arrays are per-batch-size scratch buffers owned by the
        assembler — consume them before the next ``build_many`` call.
        """
        solutions = np.asarray(solutions, dtype=float)
        batch = solutions.shape[0]
        size = self.size

        matrices, rhs, padded = self._workspace(batch)
        base = self._static_matrix if cap_matrix is None else self._static_matrix + cap_matrix
        matrices[:] = base

        if cap_rhs is None:
            rhs.fill(0.0)
        else:
            np.copyto(rhs, cap_rhs)
        batch_rows = np.arange(batch)[:, None]
        if len(self._vs_branch):
            rhs[:, self._vs_branch] += vs_values
        if len(self._cs_idx):
            np.add.at(
                rhs,
                (batch_rows, self._cs_idx[None, :]),
                self._cs_sign * cs_values[:, self._cs_pos],
            )

        if self.mosfets:
            padded[:, :size] = solutions
            voltages = padded[:, self._m_terminals]  # (B, 4, M)
            current, derivs = self._bank.evaluate(
                voltages[:, 0], voltages[:, 1], voltages[:, 2], voltages[:, 3]
            )
            # derivs: (B, 4, M) -> (B, 4*M) so _stamp_take indexes run-locally.
            flat_derivs = derivs.reshape(batch, -1)
            np.add.at(
                matrices.reshape(batch, -1),
                (batch_rows, self._stamp_flat[None, :]),
                self._stamp_sign * flat_derivs[:, self._stamp_take],
            )
            equivalent = current - np.einsum("bkm,bkm->bm", derivs, voltages)
            np.add.at(
                rhs,
                (batch_rows, self._rhs_idx[None, :]),
                self._rhs_sign * equivalent[:, self._rhs_dev],
            )

        return matrices, rhs

    # ------------------------------------------------------------------
    def linear_lu(self, cap_matrix: Optional[np.ndarray] = None):
        """LU factors of ``static + cap_matrix`` (linear circuits only)."""
        matrix = self._static_matrix if cap_matrix is None else self._static_matrix + cap_matrix
        return lu_factor(matrix, check_finite=False)

    # ------------------------------------------------------------------
    def voltages_from_solution(self, solution: np.ndarray) -> Dict[str, float]:
        result = {GROUND: 0.0}
        for node, idx in self.node_index.items():
            result[node] = float(solution[idx])
        return result

    def branch_currents_from_solution(self, solution: np.ndarray) -> Dict[str, float]:
        """Current *entering the positive terminal from the circuit*, per source."""
        return {
            source.name: float(solution[self.branch_index[source.name]])
            for source in self.voltage_sources
        }


def newton_solve(
    assembler: MNAAssembler,
    initial: np.ndarray,
    time: float,
    cap_matrix: Optional[np.ndarray] = None,
    cap_rhs: Optional[np.ndarray] = None,
    options: Optional[NewtonOptions] = None,
    base_matrix: Optional[np.ndarray] = None,
    source_values: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    linear_lu: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Solve the nonlinear MNA system by damped Newton-Raphson iteration.

    For linear circuits a prefactored ``linear_lu`` (from
    :meth:`MNAAssembler.linear_lu`) short-circuits the iteration to a single
    triangular solve.
    """
    options = options or NewtonOptions()
    if source_values is None:
        source_values = assembler.source_values_at(time)

    if assembler.is_linear and linear_lu is not None:
        rhs = assembler.build_rhs(cap_rhs, *source_values)
        return lu_solve(linear_lu, rhs, check_finite=False)

    solution = np.array(initial, dtype=float, copy=True)
    num_nodes = assembler.num_nodes

    last_delta = float("inf")
    for iteration in range(1, options.max_iterations + 1):
        matrix, rhs = assembler.build(
            solution,
            time,
            cap_matrix,
            cap_rhs,
            base_matrix=base_matrix,
            source_values=source_values,
        )
        # Low-overhead LAPACK solve; the freshly assembled matrix is scratch,
        # so it can be factorized in place.
        _, _, proposed, info = _dgesv(matrix, rhs, overwrite_a=1, overwrite_b=0)
        if info != 0:
            raise ConvergenceError(
                f"singular MNA matrix while solving {assembler.circuit.name!r} at t={time:g}s",
                iterations=iteration,
            )

        delta = proposed - solution
        abs_delta = np.abs(delta)
        voltage_delta = abs_delta[:num_nodes].max() if num_nodes else 0.0
        current_delta = abs_delta[num_nodes:].max() if len(delta) > num_nodes else 0.0
        last_delta = max(voltage_delta, current_delta)

        if num_nodes:
            np.clip(
                delta[:num_nodes],
                -options.damping_limit,
                options.damping_limit,
                out=delta[:num_nodes],
            )
        solution += delta

        if (
            voltage_delta < options.voltage_tolerance
            and current_delta < options.current_tolerance
        ):
            return solution

    raise ConvergenceError(
        f"Newton iteration did not converge for {assembler.circuit.name!r} at t={time:g}s "
        f"(last update {last_delta:.3e})",
        iterations=options.max_iterations,
        residual=last_delta,
    )


def newton_solve_many(
    assembler: MNAAssembler,
    initial: np.ndarray,
    vs_values: np.ndarray,
    cs_values: np.ndarray,
    cap_matrix: Optional[np.ndarray] = None,
    cap_rhs: Optional[np.ndarray] = None,
    options: Optional[NewtonOptions] = None,
    rebuild_converged: bool = False,
) -> np.ndarray:
    """Damped Newton-Raphson over a batch of ``B`` independent bias points.

    All runs share the circuit topology; each run has its own source values
    and candidate solution, and may have its own companion conductances.  Runs drop out of the
    iteration as soon as they individually satisfy the tolerances: each
    subsequent iteration assembles and factorizes only the *active*
    (non-converged) subset, so wide batches with a few straggling runs don't
    keep paying for the runs that finished early.  Because every run's
    linearized system is assembled and solved independently of its batch
    neighbours, the results are bit-identical to rebuilding the full batch
    every iteration (``rebuild_converged=True`` keeps that legacy behaviour
    for verification).

    Parameters mirror :meth:`MNAAssembler.build_many`.  Raises
    :class:`~repro.exceptions.ConvergenceError` if any run fails to converge
    within ``max_iterations``; the error's ``metadata["failed_runs"]`` lists
    the offending batch positions so callers can fall back per-run.
    """
    options = options or NewtonOptions()
    solutions = np.array(initial, dtype=float, copy=True)
    if solutions.ndim != 2:
        raise ValueError("newton_solve_many expects an (B, size) initial array")
    batch = solutions.shape[0]
    num_nodes = assembler.num_nodes

    active = np.arange(batch)
    for _ in range(options.max_iterations):
        if rebuild_converged:
            subset = np.arange(batch)  # legacy: rebuild every run, every time
        else:
            subset = active
        matrices, rhs = assembler.build_many(
            solutions[subset],
            vs_values[subset],
            cs_values[subset],
            cap_matrix if cap_matrix is None or cap_matrix.ndim == 2 else cap_matrix[subset],
            None if cap_rhs is None else cap_rhs[subset],
        )
        try:
            proposed = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix while batch-solving {assembler.circuit.name!r}",
            ) from exc

        delta = proposed - solutions[subset]
        abs_delta = np.abs(delta)
        count = len(subset)
        voltage_delta = abs_delta[:, :num_nodes].max(axis=1) if num_nodes else np.zeros(count)
        if solutions.shape[1] > num_nodes:
            current_delta = abs_delta[:, num_nodes:].max(axis=1)
        else:
            current_delta = np.zeros(count)

        np.clip(
            delta[:, :num_nodes],
            -options.damping_limit,
            options.damping_limit,
            out=delta[:, :num_nodes],
        )
        # Only the still-active runs move; converged runs stay frozen even on
        # the legacy full-rebuild path.
        if rebuild_converged:
            is_active = np.isin(subset, active, assume_unique=True)
        else:
            is_active = np.ones(count, dtype=bool)
        solutions[subset[is_active]] += delta[is_active]

        converged_now = (voltage_delta < options.voltage_tolerance) & (
            current_delta < options.current_tolerance
        )
        still_active = is_active & ~converged_now
        active = subset[still_active]
        if active.size == 0:
            return solutions

    failed = active.tolist()
    error = ConvergenceError(
        f"batch Newton did not converge for {assembler.circuit.name!r} "
        f"(runs {failed} still active after {options.max_iterations} iterations)",
        iterations=options.max_iterations,
    )
    error.metadata = {"failed_runs": failed, "solutions": solutions}
    raise error
