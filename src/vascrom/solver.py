"""Solution engines for 0D networks.

Two engines:
  * standard: per-vessel R/L/C elements with zero-pressure-drop junctions,
    solved by Newton iteration (backward Euler in time) on a sparse
    Jacobian factored with SuperLU;
  * rri / ri: vessels act as wires, junctions carry fitted/predicted
    coefficients, solved as an equality-constrained least-squares problem.
    All constraints (mass conservation, wire continuity, boundary conditions)
    are linear and are eliminated along the tree: the free unknowns are the
    first-outlet flow and the inlet pressure of each junction, read straight
    off the state, and the junction residuals are minimized over them with
    Levenberg-Marquardt.  The null-space basis is built in one pass over the
    tree; no matrix factorization is needed.  Each flow unknown is scaled by
    its junction's share of the inflow.

``SolverConfig`` holds only the time grid (``mode``, ``dt``, ``n_steps``).
The convergence gates are module constants: ``NEWTON_TOL`` on the standard
engine's scaled residual, ``CONSTRAINT_TOL`` and ``STATIONARITY_TOL`` on each
rri/ri step.

Each engine's problem is built whole from the network and the config: it
holds the time grid (``_time_grid``), the start and a ``step``, and one
driver, ``_solve``, walks the grid with one step loop, ``_march``: a steady
step 0, then one backward-Euler step per later time.  An rri/ri problem sets
its variable scales as it is built, so ``kkt_report`` rebuilds the solve's
problem from the solution alone, scales and inflows included.

Both engines start from ``_tree_start``, the steady state that is exact for
linear flow on a tree: a steady standard solve of a tree without stenoses
takes 0 Newton iterations and factors nothing (``nnz_factor`` None), and
rri/ri take their step-0 start and pressure scale from it.  Each later
backward-Euler step of the standard engine starts from the state before;
one of rri/ri starts from a predicted state (``_OptProblem.step_start``):
the previous flows plus the inflow's change split by the given splits, and
the pressures that meet the junction law, inertance term included, on every
first outlet, which about halves the least-squares Jacobians of a step.

The linear constraints of both engines are the rows of one sparse matrix,
``_LinearConstraints``: the standard residual, the rri/ri diagnostics,
``kkt_report`` and the mass check each read their rows of ``A @ x - b``.
One builder, ``_fixed_pattern``, lays out every fixed sparse pattern from
index arrays: that matrix, the standard engine's CSC Jacobian (the vessel
blocks over the linear rows) and the rri/ri engines' CSR Jacobian, whose
flow-split rows are constant.  Each engine builds its Jacobian's structure
once per solve; Newton and Levenberg-Marquardt iterations refill only the
values that depend on the state.  The rri/ri Jacobian stays sparse in the
diagnostics and ``kkt_report``; only MINPACK's Levenberg-Marquardt gets a
dense copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .flowsplit import _reduce
from .formats import write_csv, write_json
from .network import Topology, VascularNetwork


class SolverError(Exception):
    pass


class ConvergenceError(SolverError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "steady"  # "steady" | "transient"
    dt: float = 1e-3
    n_steps: int = 100

    def __post_init__(self):
        if self.mode not in ("steady", "transient"):
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.mode == "transient" and not (
            math.isfinite(self.dt) and self.dt > 0 and self.n_steps >= 1
        ):
            raise SolverError(
                "transient mode needs a finite dt > 0 and n_steps >= 1, "
                f"got dt={self.dt}, n_steps={self.n_steps}"
            )


# offsets of the quantities in the (vessel, quantity) view of a state
P_IN, P_OUT, Q_IN, Q_OUT = range(4)


class VarIndex:
    """Maps (vessel, quantity) to a position in the unknown vector: four
    entries per vessel, vessels in the topology's sorted order.

    Quantities per vessel: p_in, p_out, q_in, q_out.
    """

    QUANTITIES = ("p_in", "p_out", "q_in", "q_out")
    _OFFSET = {q: k for k, q in enumerate(QUANTITIES)}

    def __init__(self, network: VascularNetwork):
        self.vessel_ids = list(network.topology.vessel_ids)
        self.position = network.topology.position
        self.n = 4 * len(self.vessel_ids)

    def __call__(self, vessel_id: str, quantity: str) -> int:
        return 4 * self.position[vessel_id] + self._OFFSET[quantity]


@dataclass
class Solution:
    times: np.ndarray
    states: np.ndarray  # (n_times, n_vars)
    index: VarIndex
    network: VascularNetwork
    engine: str
    config: SolverConfig
    diagnostics: list[dict] = field(default_factory=list)

    def p(self, vessel_id: str, end: str = "in") -> np.ndarray:
        return self.states[:, self.index(vessel_id, f"p_{end}")]

    def q(self, vessel_id: str, end: str = "in") -> np.ndarray:
        return self.states[:, self.index(vessel_id, f"q_{end}")]

    @property
    def inlet_pressure(self) -> np.ndarray:
        return self.p(self.network.inflow_bc.vessel_id, "in")


def _time_grid(network: VascularNetwork, config: SolverConfig):
    """The times of a solve and the inflow at each: t = 0 at the steady
    inflow, or the transient dt grid with the inflow series interpolated."""
    bc = network.inflow_bc
    if config.mode == "steady":
        return np.array([0.0]), np.array([bc.steady_flow()])
    times = config.dt * np.arange(config.n_steps + 1)
    if isinstance(bc.value, tuple):
        return times, np.interp(times, *bc.value)
    return times, np.full(times.size, float(bc.value))


def _march(step, x0, times, inflows, dt):
    """States and diagnostics of a steady step 0 from x0, then one
    backward-Euler step per later time.  ``step(inflow, x_prev, dt, x_start)``
    returns one state and its diagnostics; x_prev and dt are None in the
    steady step, and a later step gets the state before as both x_prev and
    x_start (a step may predict its own start from x_prev)."""
    x, diag = step(inflows[0], None, None, x0)
    states, diags = [x], [diag]
    for k in range(1, len(times)):
        try:
            x, diag = step(inflows[k], x, dt, x)
        except ConvergenceError as e:
            raise ConvergenceError(f"step {k} (t={times[k]:.6g}): {e}") from e
        states.append(x)
        diags.append(diag)
    return np.array(states), diags


def _fixed_pattern(rows, cols, shape, fmt="csr"):
    """A zero sparse matrix of the given shape in ``fmt`` ("csr" or "csc")
    with one stored entry per (row, column) pair, and the data slot of each
    pair.  The pairs must be distinct.  Entries go by row (csr) or by column
    (csc) and keep their given order within one: the order in which a CSR
    product sums a row's terms."""
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    order = np.argsort(major, kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(order.size)
    indptr = np.searchsorted(major[order], np.arange(shape[fmt == "csc"] + 1))
    # the index type scipy would pick, given up front: it then checks no contents
    index = np.int32 if max(*shape, order.size) < 2**31 else np.int64
    kind = scipy.sparse.csr_matrix if fmt == "csr" else scipy.sparse.csc_matrix
    matrix = kind((np.zeros(order.size), minor[order].astype(index), indptr.astype(index)),
                  shape=shape)
    return matrix, slots


class _LinearConstraints:
    """The linear equations on a state x, as the rows of ``A @ x - b``, one
    block after another: pressure and flow continuity along each vessel,
    junction mass balance, equal pressure across each junction, the inflow
    and the leaf BCs ``p_out - R*q_out - Pd`` (read when this is built).  The
    rri/ri engines impose every block but the junction pressures, the
    standard engine the last four.  Each row sums its terms in the order
    they are listed here."""

    def __init__(self, network: VascularNetwork):
        topo = network.topology
        pos = topo.position
        leaves = [b for b in network.boundary_conditions if b.kind == "RESISTANCE"]
        self.leaf = np.array([pos[b.vessel_id] for b in leaves], dtype=int)
        self.leaf_r = np.array([b.r for b in leaves])
        self.leaf_pd = np.array([b.pd for b in leaves])

        v, inlet, outlets, leaf = (
            4 * a for a in (np.arange(len(pos)), topo.inlet, topo.outlets, self.leaf)
        )
        blocks = (  # the (columns, coefficient) terms of the rows of each block
            ((v + P_IN, 1.0), (v + P_OUT, -1.0)),
            ((v + Q_IN, 1.0), (v + Q_OUT, -1.0)),
            ((inlet + Q_OUT, 1.0), (outlets[:, 0] + Q_IN, -1.0), (outlets[:, 1] + Q_IN, -1.0)),
            ((np.repeat(inlet, 2) + P_OUT, 1.0), (outlets.ravel() + P_IN, -1.0)),
            ((np.array([4 * pos[network.inflow_bc.vessel_id] + Q_IN]), 1.0),),
            ((leaf + P_OUT, 1.0), (leaf + Q_OUT, -self.leaf_r)),
        )
        start = list(accumulate((terms[0][0].size for terms in blocks), initial=0))
        row = np.arange(start[-1])
        terms = [(row[a:b], c, k) for ts, a, b in zip(blocks, start, start[1:]) for c, k in ts]
        self.A, slots = _fixed_pattern(
            np.concatenate([r for r, _, _ in terms]), np.concatenate([c for _, c, _ in terms]),
            (start[-1], 4 * len(pos)),
        )
        self.A.data[slots] = np.concatenate([np.full(r.size, k) for r, _, k in terms])
        self.b = np.zeros(start[-1])
        self.b[start[5]:] = self.leaf_pd
        self.inflow_row = start[4]
        self.mass_rows = slice(start[1], start[3])  # flow continuity, junction mass
        self.standard_rows = slice(start[2], start[6])
        self.opt_rows = np.concatenate([np.arange(start[3]), np.arange(start[4], start[6])])

    def residual(self, x: np.ndarray, inflow: float = 0.0) -> np.ndarray:
        """``A @ x - b`` of flat states x (..., n) at one inflow."""
        r = (self.A @ x.T).T - self.b
        r[..., self.inflow_row] -= inflow
        return r

    def mass(self, x: np.ndarray) -> np.ndarray:
        """Vessel flow continuity, then junction mass balance, of x (..., n)."""
        return self.residual(x)[..., self.mass_rows]


def _shares(topology: Topology, phi: np.ndarray) -> np.ndarray:
    """Each vessel's share of the inflow, by state position: the product of
    the flow splits phi (junctions, 2) from the root down to it, one depth
    level at a time."""
    share = np.ones(len(topology.vessel_ids))
    for js in topology.levels():
        share[topology.outlets[js]] = share[topology.inlet[js], None] * phi[js]
    return share


def _tree_start(network: VascularNetwork, constraints, inflow: float) -> np.ndarray:
    """The steady state that is exact for linear flow on a tree: the inflow
    split by the series-parallel resistances, each leaf at ``R_leaf*q + Pd``
    and each vessel adding ``R*q + Rs*q|q|`` from the leaves up.  A junction
    takes its first outlet's pressure; a stenosis or unequal distal
    pressures make its outlets differ."""
    topo, c = network.topology, constraints
    q = inflow * _shares(topo, _reduce(network)[1])
    r, _, rs, _ = topo.elements.T
    drop = r * q + rs * q * np.abs(q)
    p_out = np.zeros(q.size)
    p_out[c.leaf] = c.leaf_r * q[c.leaf] + c.leaf_pd
    for js in reversed(topo.levels()):
        first = topo.outlets[js, 0]
        p_out[topo.inlet[js]] = p_out[first] + drop[first]
    return np.stack([p_out + drop, p_out, q, q], axis=1).ravel()


def mass_conservation_error(solution: Solution) -> float:
    """Largest junction or vessel mass-balance violation over all stored states."""
    return float(np.max(np.abs(_LinearConstraints(solution.network).mass(solution.states))))


# -- standard engine ------------------------------------------------------


class _StandardSystem:
    """The standard engine's equations on one network and time grid: the two
    vessel equations, then its rows of the linear constraints: junction mass
    balance, equal pressure across each junction, the inflow and the leaf
    BCs.  The vessel elements are the topology's; the Jacobian's sparsity
    pattern with the linear rows' values is built on the first
    ``jacobian()``, and each call then writes only the vessel blocks."""

    def __init__(self, network: VascularNetwork, config: SolverConfig):
        self.R, self.L, self.Rs, self.C = network.topology.elements.T
        self.constraints = _LinearConstraints(network)
        self.times, self.inflows = _time_grid(network, config)
        self.x0 = _tree_start(network, self.constraints, self.inflows[0])

    @cached_property
    def _jac_pattern(self):
        """The Jacobian's fixed CSC structure, built on the first ``jacobian()``:
        every vessel's full 2x4 block (zeros kept) above the linear rows, rows
        ascending within each column.  Returns the matrix with the linear
        values in place and the data slot of each ``block.ravel()`` entry."""
        n_v, c = self.R.size, self.constraints
        linear = c.A[c.standard_rows].tocoo()
        v, eq, k = np.indices((n_v, 2, 4)).reshape(3, -1)
        template, slots = _fixed_pattern(
            np.concatenate([2 * v + eq, 2 * n_v + linear.row]),
            np.concatenate([4 * v + k, linear.col]),
            (4 * n_v, 4 * n_v), "csc",
        )
        template.data[slots[v.size:]] = linear.data
        return template, slots[: v.size]

    @staticmethod
    def _rates(x, x_prev, dt):
        """Backward differences of the state as (vessels, 4); zero when steady."""
        return np.zeros((x.size // 4, 4)) if dt is None else ((x - x_prev) / dt).reshape(-1, 4)

    def residual(self, x, x_prev, dt, inflow):
        s, ds = x.reshape(-1, 4), self._rates(x, x_prev, dt)
        q, qdot = s[:, Q_IN], ds[:, Q_IN]
        vessel = np.stack([
            # Q_in - Q_out = C (Pdot_in + R Qdot_in + 2 Rs |Q_in| Qdot_in)
            q - s[:, Q_OUT]
            - self.C * (ds[:, P_IN] + self.R * qdot + 2 * self.Rs * np.abs(q) * qdot),
            # P_in - P_out = R Q_in + Rs Q_in |Q_in| + L Qdot_out
            s[:, P_IN] - s[:, P_OUT] - self.R * q - self.Rs * q * np.abs(q)
            - self.L * ds[:, Q_OUT],
        ], axis=1)
        c = self.constraints
        return np.concatenate([vessel.ravel(), c.residual(x, inflow)[c.standard_rows]])

    def jacobian(self, x, x_prev, dt) -> scipy.sparse.csc_matrix:
        q, qdot = x.reshape(-1, 4)[:, Q_IN], self._rates(x, x_prev, dt)[:, Q_IN]
        ddx = 0.0 if dt is None else 1.0 / dt
        C, R, Rs = self.C, self.R, self.Rs
        # per vessel, d(first, second equation) / d(p_in, p_out, q_in, q_out)
        block = np.zeros((q.size, 2, 4))
        block[:, 0, P_IN] = -C * ddx
        block[:, 0, Q_IN] = 1.0 - C * (R * ddx + 2 * Rs * (np.sign(q) * qdot + np.abs(q) * ddx))
        block[:, 0, Q_OUT] = -1.0
        block[:, 1, P_IN], block[:, 1, P_OUT] = 1.0, -1.0
        block[:, 1, Q_IN] = -R - 2 * Rs * np.abs(q)
        block[:, 1, Q_OUT] = -self.L * ddx
        template, slots = self._jac_pattern
        jac = template.copy()
        jac.data[slots] = block.ravel()
        return jac

    def step(self, inflow, x_prev, dt, x):
        return _newton(self, x, x_prev, dt, inflow)


def _scaled_norm(res, jac, x):
    # residual relative to the magnitude of each equation's own terms, so
    # convergence is meaningful across the Ba-vs-cm^3/s magnitude spread
    scale = np.maximum(1.0, abs(jac) @ np.abs(x))
    return float(np.max(np.abs(res) / scale))


MAX_NEWTON_ITERATIONS = 50
NEWTON_TOL = 1e-10  # the standard engine's scaled residual inf-norm
CONSTRAINT_TOL = 1e-8  # an rri/ri step's largest constraint violation
STATIONARITY_TOL = 1e-6  # and its stationarity, or an objective below its square


def _newton(system, x0, x_prev, dt, inflow):
    x, lu = x0.copy(), None
    for it in range(MAX_NEWTON_ITERATIONS + 1):
        res = system.residual(x, x_prev, dt, inflow)
        jac = system.jacobian(x, x_prev, dt)
        norm = _scaled_norm(res, jac, x)
        if norm <= NEWTON_TOL:
            # work counters: the Jacobian's stored entries and the entries of
            # the last factorisation's L and U (SuperLU's own nnz counts its
            # supernodal storage, not the factors)
            return x, {"iterations": it, "residual_norm": norm, "nnz_jacobian": jac.nnz,
                       "nnz_factor": None if lu is None else lu.L.nnz + lu.U.nnz}
        if it == MAX_NEWTON_ITERATIONS:
            break
        try:
            lu = scipy.sparse.linalg.splu(jac)
            x = x + lu.solve(-res)
        except RuntimeError as e:  # splu: "Factor is exactly singular"
            raise ConvergenceError(f"singular Jacobian at iteration {it}") from e
    raise ConvergenceError(
        f"Newton did not converge in {MAX_NEWTON_ITERATIONS} iterations "
        f"(scaled residual inf-norm {norm:.3e})"
    )


def _solve(network: VascularNetwork, config: SolverConfig, engine: str, mode: str) -> Solution:
    """March the engine's problem over its time grid from its start; the
    config must be of the given mode."""
    if config.mode != mode:
        raise SolverError(f"config.mode must be {mode!r}")
    problem = (_StandardSystem(network, config) if engine == "standard"
               else _OptProblem(network, engine, config))
    states, diags = _march(problem.step, problem.x0, problem.times, problem.inflows, config.dt)
    return Solution(times=problem.times, states=states, index=VarIndex(network),
                    network=network, engine=engine, config=config, diagnostics=diags)


def solve_steady_standard(
    network: VascularNetwork, config: SolverConfig = SolverConfig()
) -> Solution:
    return _solve(network, config, "standard", "steady")


def solve_transient_standard(
    network: VascularNetwork, config: SolverConfig
) -> Solution:
    return _solve(network, config, "standard", "transient")


# -- RRI / RI optimization engine -----------------------------------------


class _OptProblem:
    """Junction residuals of one network/engine pair over its feasible set,
    and the time grid, start and variable scales of its solve.

    On a tree the linear constraints (wire continuity, mass balance, inflow,
    leaf resistance BCs) leave two free entries of the state per junction:
    the flow into its first outlet and the pressure of its inlet vessel.
    Every feasible state is ``inflow * x_unit + basis @ (scale * z)`` with
    ``z`` those entries divided by their scales, and leaf pressures then set
    to ``R * q + Pd``.  A unit flow entering a vessel leaves through second
    outlets down to a leaf, where it raises the leaf pressure by R.  Rebuilt
    from a solution's network, engine and config, it has the solve's bits.
    """

    def __init__(self, network: VascularNetwork, engine: str, config: SolverConfig):
        self.network = network
        outlets = []
        for j in network.junctions:
            for o in j.outlets:
                if o.coefficients is None:
                    raise SolverError(
                        f"junction {j.id}: outlet {o.vessel_id} has no coefficients"
                    )
                if o.flow_split is None:
                    raise SolverError(
                        f"junction {j.id}: outlet {o.vessel_id} has no flow split"
                    )
                if engine == "rri" and o.coefficients.kind == "RI":
                    raise SolverError(f"junction {j.id}: outlet {o.vessel_id} has RI "
                                      "coefficients; the rri engine needs RRI ones")
                outlets.append(o)
        self.constraints = _LinearConstraints(network)

        # per outlet: junction pressure, outlet pressure, outlet flow, junction
        # inflow, and the junction-law coefficients
        topo = network.topology
        inlet, outlet = 4 * np.repeat(topo.inlet, 2), 4 * topo.outlets.ravel()
        self.i_pj, self.i_po = inlet + P_OUT, outlet + P_IN
        self.i_q, self.i_qj = outlet + Q_IN, inlet + Q_OUT
        use_quad = engine == "rri"
        self.r_lin = np.array([o.coefficients.r_lin for o in outlets])
        self.r_quad = np.array([o.coefficients.quad() if use_quad else 0.0 for o in outlets])
        self.l = np.array([o.coefficients.l for o in outlets])
        self.phi = np.array([o.flow_split for o in outlets])
        self.i_inflow = 4 * topo.position[network.inflow_bc.vessel_id] + Q_IN
        self._tree_basis()

        # each vessel's share of the inflow under the given splits
        self.vessel_share = _shares(topo, self.phi.reshape(-1, 2))
        self.share = np.abs(self.vessel_share[topo.outlets[:, 0]])
        # a zero share would zero the flow column and the start's divisor
        self.share[self.share == 0.0] = 1.0

        self.times, self.inflows = _time_grid(network, config)
        self.x0 = _tree_start(network, self.constraints, self.inflows[0])
        # unscaled, LM stalls far from the attainable objective on deep trees:
        # the peak inflow scales the residuals, and times each share (about
        # 2^-depth; LM stops on xtol without it) the flows; the start's
        # largest pressure scales the pressures
        self.q_scale = float(np.max(np.abs(self.inflows))) or 1.0
        p_var = max(1.0, self.q_scale, float(np.max(np.abs(self.x0.reshape(-1, 4)[:, :2]))))
        self.scale = np.concatenate([self.q_scale * self.share, np.full(self.share.size, p_var)])
        self._jacobian_pattern()

    def _tree_basis(self):
        """The basis and x_unit, following the second-outlet links from every
        junction's two outlets and from the inflow vessel as one frontier."""
        con, topo, n_j = self.constraints, self.network.topology, len(self.network.junctions)
        n_v = len(topo.vessel_ids)
        leaf_r = np.zeros(n_v)  # by vessel position
        leaf_r[con.leaf] = con.leaf_r
        second = np.full(n_v, -1)  # each vessel's second outlet; -1 at a leaf
        second[topo.inlet] = topo.outlets[:, 1]
        # a unit flow into each first outlet (column k) and out of each second
        # one (column k), and into the inflow vessel (column 2 n_j, x_unit)
        j = np.arange(n_j)
        vessel = np.concatenate([topo.outlets[:, 0], topo.outlets[:, 1],
                                 [topo.position[self.network.inflow_bc.vessel_id]]])
        col = np.concatenate([j, j, [2 * n_j]])
        sign = np.concatenate([np.ones(n_j), -np.ones(n_j), [1.0]])
        path = []  # (vessel, column, sign) at every vessel a unit flow passes
        while vessel.size:
            path.append((vessel, col, sign))
            on = second[vessel] >= 0
            vessel, col, sign = second[vessel[on]], col[on], sign[on]
        vessel, col, sign = (np.concatenate(a) for a in zip(*path))
        # it flows through each vessel on its path and at the leaf raises both
        # pressures by R; a pressure unknown moves its own inlet's pressures
        leaf = second[vessel] < 0
        r = sign[leaf] * leaf_r[vessel[leaf]]
        v, lv, inlet = 4 * vessel, 4 * vessel[leaf], 4 * topo.inlet
        rows = np.concatenate([v + Q_IN, v + Q_OUT, lv + P_IN, lv + P_OUT,
                               inlet + P_IN, inlet + P_OUT])
        cols = np.concatenate([col, col, col[leaf], col[leaf], n_j + j, n_j + j])
        vals = np.concatenate([sign, sign, r, r, np.ones(2 * n_j)])
        unit = cols == 2 * n_j
        self.basis = scipy.sparse.csr_matrix(
            (vals[~unit], (rows[~unit], cols[~unit])), shape=(4 * n_v, 2 * n_j)
        )
        self.free = np.concatenate([4 * topo.outlets[:, 0] + Q_IN, 4 * topo.inlet + P_OUT])
        self.x_unit = np.zeros(4 * n_v)
        self.x_unit[rows[unit]] = vals[unit]

    def _jacobian_pattern(self):
        """The Jacobian's fixed CSR pattern: each outlet's pressure-drop row on
        the union of the entries of its basis rows b_pj, b_po and b_q, then
        its constant flow-split row, with its values, on the union of b_qj's
        and b_q's."""
        n_out, n, q_scale = self.i_q.size, self.scale.size, self.q_scale
        b = self.basis[np.concatenate([self.i_pj, self.i_po, self.i_q, self.i_qj])].tocoo()
        part, k = np.divmod(b.row, max(n_out, 1))  # b_pj, b_po, b_q or b_qj; the outlet
        pj, po, q, qj = (part == i for i in range(4))
        # a b_q entry sits on both rows of its outlet
        rows = np.concatenate([k + n_out * qj, n_out + k[q]])
        cols = np.concatenate([b.col, b.col[q]])
        union, entry = np.unique(rows * n + cols, return_inverse=True)
        self._jac, slots = _fixed_pattern(*np.divmod(union, max(n, 1)), (2 * n_out, n))
        at, flow_q = slots[entry[: b.nnz]], slots[entry[b.nnz:]]
        const, bq = np.zeros((2, union.size))
        const[at[pj]] = b.data[pj]
        const[at[po]] -= b.data[po]  # b_pj - b_po
        bq[at[q]] = b.data[q]
        const[at[qj]] = self.phi[k[qj]] * b.data[qj]
        const[flow_q] -= b.data[q]  # phi * b_qj - b_q
        n_p = self._jac.indptr[n_out]
        self._rows, self._cols = np.divmod(union[:n_p], max(n, 1))
        self._dp, self._bq = const[:n_p], bq[:n_p]
        self._jac.data[n_p:] = const[n_p:] / q_scale * self.scale[self._jac.indices[n_p:]]

    def state(self, inflow: float, z: np.ndarray) -> np.ndarray:
        """The feasible state with scaled free unknowns z."""
        x = inflow * self.x_unit + self.basis @ (self.scale * z)
        # leaf pressures come from the leaf's own flow: summed through the
        # basis, their +-R*q_scale terms cancel and lose digits
        s, c = x.reshape(-1, 4), self.constraints
        s[c.leaf, P_IN] = s[c.leaf, P_OUT] = c.leaf_r * s[c.leaf, Q_OUT] + c.leaf_pd
        return x

    def _drop(self, q, x_prev, dt):
        """The junction law's pressure drop at outlet flows q."""
        qdot = 0.0 if dt is None else (q - x_prev[self.i_q]) / dt
        return self.r_lin * q + self.r_quad * q * np.abs(q) + self.l * qdot

    def _law_state(self, q, x_prev, dt):
        """The state with vessel flows q (by position) whose leaves sit at
        ``R*q + Pd`` and whose junctions meet the junction law on their first
        outlet, summed in one pass from the leaves up."""
        topo, c = self.network.topology, self.constraints
        drop = self._drop(q[topo.outlets.ravel()], x_prev, dt)[::2]
        p = np.zeros(q.size)
        p[c.leaf] = c.leaf_r * q[c.leaf] + c.leaf_pd
        for js in reversed(topo.levels()):
            p[topo.inlet[js]] = p[topo.outlets[js, 0]] + drop[js]
        return np.stack([p, p, q, q], axis=1).ravel()

    def step_start(self, x_prev, inflow, dt):
        """The predicted start of a backward-Euler step from the state
        before: the previous flows plus the inflow's change split by the
        given splits, with the pressures of ``_law_state``.  It meets every
        first outlet's junction law, so only the second outlets' pressure
        rows and the previous step's flow-split rows are left."""
        q = x_prev[Q_IN::4] + (inflow - x_prev[self.i_inflow]) * self.vessel_share
        return self._law_state(q, x_prev, dt)

    def residuals(self, x, x_prev, dt):
        """Junction pressure-law residuals, then flow-split residuals."""
        q = x[self.i_q]
        return np.concatenate([
            (x[self.i_pj] - x[self.i_po] - self._drop(q, x_prev, dt)) / self.q_scale**2,
            (self.phi * x[self.i_qj] - q) / self.q_scale,
        ])

    def jacobian(self, x, dt) -> scipy.sparse.csr_matrix:
        """Jacobian of the residuals w.r.t. the scaled free unknowns, on the
        fixed pattern; only the pressure-law rows depend on the state."""
        dqdot = 0.0 if dt is None else 1.0 / dt
        dq = self.r_lin + 2 * self.r_quad * np.abs(x[self.i_q]) + self.l * dqdot
        jac = self._jac.copy()
        jac.data[: self._dp.size] = (
            (self._dp - dq[self._rows] * self._bq) / self.q_scale**2 * self.scale[self._cols]
        )
        return jac

    def diagnostics(self, x, inflow, x_prev, dt) -> dict:
        """Objective, constraint violation and stationarity (inf-norm of the
        objective gradient w.r.t. the scaled free unknowns) at state x."""
        r, c = self.residuals(x, x_prev, dt), self.constraints
        grad = 2.0 * (self.jacobian(x, dt).T @ r)
        return {
            "objective": float(np.sum(r**2)),
            "constraint_violation": float(np.max(np.abs(c.residual(x, inflow)[c.opt_rows]))),
            "stationarity": float(np.max(np.abs(grad), initial=0.0)),
        }

    def step(self, inflow, x_prev, dt, x_start):
        """One least-squares step, from ``step_start`` after step 0."""
        if x_prev is not None:
            x_start = self.step_start(x_prev, inflow, dt)
        z = x_start[self.free] / self.scale
        lm = {"nfev": 0, "njev": 0, "status": None, "message": "no free unknowns"}
        if z.size:
            result = scipy.optimize.least_squares(
                lambda z: self.residuals(self.state(inflow, z), x_prev, dt),
                z,
                # MINPACK takes only a dense Jacobian
                jac=lambda z: self.jacobian(self.state(inflow, z), dt).toarray(),
                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000,
            )
            z = result.x
            lm = {"nfev": result.nfev, "njev": result.njev,
                  "status": result.status, "message": result.message}
        x = self.state(inflow, z)
        diag = {**self.diagnostics(x, inflow, x_prev, dt), **lm}
        violation, z_val = diag["constraint_violation"], diag["objective"]
        if violation > CONSTRAINT_TOL:
            raise ConvergenceError(
                f"constraint violation {violation:.3e} exceeds {CONSTRAINT_TOL:.1e}"
            )
        # an objective below tol^2 means normalized residuals below tol, which
        # is convergence regardless of the (scale-sensitive) gradient norm
        stationarity = diag["stationarity"]
        if stationarity > STATIONARITY_TOL and z_val > STATIONARITY_TOL**2:
            raise ConvergenceError(
                f"stationarity {stationarity:.3e} exceeds {STATIONARITY_TOL:.1e} "
                f"(objective {z_val:.3e}; {diag['nfev']} evaluations: {diag['message']})"
            )
        return x, diag


def solve_opt(
    network: VascularNetwork,
    config: SolverConfig = SolverConfig(),
    engine: str = "rri",
) -> Solution:
    """Constrained solve of an RRI/RI-augmented network.

    Mass conservation, wire continuity, and boundary conditions are satisfied
    to machine precision by construction; the junction pressure and flow-split
    residuals are minimized over the feasible subspace.  Step 0 starts from
    the tree start, and each later step from ``_OptProblem.step_start``,
    the state predicted from the one before.
    """
    if engine not in ("rri", "ri"):
        raise SolverError(f"unknown optimization engine {engine!r}")
    return _solve(network, config, engine, config.mode)


def kkt_report(solution: Solution) -> list[dict]:
    """Recompute per-step objective, constraint violation, and stationarity
    from the stored states (independent of the solve's own diagnostics).  The
    problem is rebuilt from the solution's network, engine and config alone,
    so each step is recomputed at the solve's own inflow and scales."""
    if solution.engine not in ("rri", "ri"):
        raise SolverError("kkt_report applies to optimization-engine solutions")
    problem = _OptProblem(solution.network, solution.engine, solution.config)
    stored = iter(solution.states)

    def step(inflow, x_prev, dt, _):
        x = next(stored)
        return x, problem.diagnostics(x, inflow, x_prev, dt)

    _, diags = _march(step, None, problem.times, problem.inflows, solution.config.dt)
    return [{"t": float(t), **diag} for t, diag in zip(solution.times, diags)]


# -- export ---------------------------------------------------------------


def export_solution(solution: Solution, outdir) -> None:
    outdir = Path(outdir)
    header = ["t"]
    for vid in solution.index.vessel_ids:
        header += [f"P_{vid}_in", f"P_{vid}_out", f"Q_{vid}_in", f"Q_{vid}_out"]
    # a state already lists each vessel's p_in, p_out, q_in, q_out in order
    write_csv(outdir / "solution.csv", header,
              np.column_stack([solution.times, solution.states]), None)
    write_json(
        {
            "engine": solution.engine,
            "mode": solution.config.mode,
            "steps": solution.diagnostics,
        },
        outdir / "diagnostics.json",
    )
