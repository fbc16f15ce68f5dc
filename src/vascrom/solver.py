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

Both engines, ``kkt_report`` and the mass check read one linear-constraint
assembly, ``_LinearConstraints``.  Every solver and ``kkt_report`` take their
times and inflows from one time grid, ``_time_grid``, and walk it with one
step loop, ``_march``: a steady step 0, then one backward-Euler step per later
time; ``kkt_report`` so recomputes each step at the solve's own inflow.  Each
engine builds its Jacobian's structure once per solve (the standard engine's
CSC pattern, the rri/ri engines' densified basis blocks); Newton and
Levenberg-Marquardt iterations update only the values that depend on the
state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .network import VascularNetwork


class SolverError(Exception):
    pass


class ConvergenceError(SolverError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "steady"  # "steady" | "transient"
    dt: float = 1e-3
    n_steps: int = 100
    newton_tol: float = 1e-10  # residual inf-norm
    max_iterations: int = 50
    constraint_tol: float = 1e-8
    stationarity_tol: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("steady", "transient"):
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.mode == "transient" and (self.dt <= 0 or self.n_steps < 1):
            raise SolverError("transient mode needs dt > 0 and n_steps >= 1")
        if self.newton_tol <= 0 or self.constraint_tol <= 0 or self.stationarity_tol <= 0:
            raise SolverError("tolerances must be positive")


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
    meta: dict = field(default_factory=dict)

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
    backward-Euler step per later time, each starting from the state before.
    ``step(inflow, x_prev, dt, x_start)`` returns one state and its
    diagnostics; x_prev and dt are None in the steady step."""
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


class _Rows:
    """Linear rows ``sum_k coef_k * x[cols_k]`` of flat states x (..., n),
    one row per entry of the column arrays; the terms give values and Jacobian."""

    def __init__(self, *terms):
        self.terms = [(np.asarray(c), np.broadcast_to(v, np.shape(c))) for c, v in terms]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return sum(v * x[..., c] for c, v in self.terms)

    def matrix(self, n: int) -> scipy.sparse.csr_matrix:
        """The rows as a sparse (rows, n) matrix."""
        m = len(self.terms[0][0])
        cols, vals = (np.concatenate(a) for a in zip(*self.terms))
        rows = np.tile(np.arange(m), len(self.terms))
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))


class _LinearConstraints:
    """Linear constraints on a state: flow and pressure continuity along each
    vessel, junction mass balance, the inflow and the leaf BCs
    ``p_out - R*q_out - Pd`` (read when this is built)."""

    def __init__(self, network: VascularNetwork):
        pos = network.topology.position
        self.inlet = np.array([pos[j.inlet_vessel] for j in network.junctions], dtype=int)
        self.outlets = np.array(
            [[pos[o.vessel_id] for o in j.outlets] for j in network.junctions], dtype=int
        ).reshape(-1, 2)
        leaves = [b for b in network.boundary_conditions if b.kind == "RESISTANCE"]
        self.leaf = np.array([pos[b.vessel_id] for b in leaves], dtype=int)
        self.leaf_r = np.array([b.r for b in leaves])
        self.leaf_pd = np.array([b.pd for b in leaves])

        v, inlet, outlets, leaf = (
            4 * a for a in (np.arange(len(pos)), self.inlet, self.outlets, self.leaf)
        )
        self.flow = _Rows((v + Q_IN, 1.0), (v + Q_OUT, -1.0))
        self.pressure = _Rows((v + P_IN, 1.0), (v + P_OUT, -1.0))
        self.junction_mass = _Rows(
            (inlet + Q_OUT, 1.0), (outlets[:, 0] + Q_IN, -1.0), (outlets[:, 1] + Q_IN, -1.0)
        )
        self.inflow = _Rows(([4 * pos[network.inflow_bc.vessel_id] + Q_IN], 1.0))
        self.leaf_bc = _Rows((leaf + P_OUT, 1.0), (leaf + Q_OUT, -self.leaf_r))

    def mass(self, x: np.ndarray) -> np.ndarray:
        """Vessel flow continuity, then junction mass balance, of x (..., n)."""
        return np.concatenate([self.flow(x), self.junction_mass(x)], axis=-1)

    def boundary(self, x: np.ndarray, inflow: float) -> np.ndarray:
        """The inflow row, then the leaf rows, of one state x."""
        return np.concatenate([self.inflow(x) - inflow, self.leaf_bc(x) - self.leaf_pd])

    def residual(self, x: np.ndarray, inflow: float) -> np.ndarray:
        """All constraint residuals of one state x."""
        return np.concatenate([self.mass(x), self.pressure(x), self.boundary(x, inflow)])


def mass_conservation_error(solution: Solution) -> float:
    """Largest junction or vessel mass-balance violation over all stored states."""
    return float(np.max(np.abs(_LinearConstraints(solution.network).mass(solution.states))))


# -- standard engine ------------------------------------------------------


class _StandardSystem:
    """The standard engine's equations on one network: the two vessel
    equations, then junction mass balance, equal pressure across each
    junction, the inflow and the leaf BCs.  Vessel elements are computed
    once, and the Jacobian's sparsity pattern with the linear rows' values
    on the first ``jacobian()``; each call then writes only the vessel
    blocks."""

    def __init__(self, network: VascularNetwork):
        fluid = network.fluid
        vessels = [network.vessels[vid] for vid in network.topology.vessel_ids]
        self.R, self.L = np.array([v.elements(fluid) for v in vessels]).T
        self.Rs = np.array([v.stenosis_r(fluid) for v in vessels])
        self.C = np.array([v.capacitance for v in vessels])
        c = self.constraints = _LinearConstraints(network)
        inlet, outlets = 4 * np.repeat(c.inlet, 2), 4 * c.outlets.ravel()
        self.junction_pressure = _Rows((inlet + P_OUT, 1.0), (outlets + P_IN, -1.0))

    @cached_property
    def _jac_pattern(self):
        """The Jacobian's fixed CSC structure, built on the first ``jacobian()``:
        every vessel's full 2x4 block (zeros kept) above the linear rows, rows
        ascending within each column.  Returns the matrix with the linear
        values in place and the data slot of each ``block.ravel()`` entry."""
        n_v, c = self.R.size, self.constraints
        n = 4 * n_v
        linear = (c.junction_mass, self.junction_pressure, c.inflow, c.leaf_bc)
        linear = scipy.sparse.vstack([r.matrix(n) for r in linear]).tocoo()
        v, eq, k = np.indices((n_v, 2, 4)).reshape(3, -1)
        rows = np.concatenate([2 * v + eq, 2 * n_v + linear.row])
        cols = np.concatenate([4 * v + k, linear.col])
        vals = np.concatenate([np.zeros(v.size), linear.data])
        order = np.lexsort((rows, cols))
        indptr = np.searchsorted(cols[order], np.arange(n + 1))
        template = scipy.sparse.csc_matrix((vals[order], rows[order], indptr), shape=(n, n))
        return template, np.argsort(order)[: v.size]

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
        return np.concatenate([
            vessel.ravel(), c.junction_mass(x), self.junction_pressure(x), c.boundary(x, inflow)
        ])

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


def assemble_standard_residual(
    network: VascularNetwork,
    state: np.ndarray,
    state_prev: Optional[np.ndarray] = None,
    dt: Optional[float] = None,
    inflow: Optional[float] = None,
) -> np.ndarray:
    """Residual of the standard 0D equations.  dt=None means steady
    (all time derivatives zero); otherwise backward differences against
    state_prev.  States are in the network's topology order.
    """
    if inflow is None:
        inflow = network.inflow_bc.steady_flow()
    return _StandardSystem(network).residual(state, state_prev, dt, inflow)


def _scaled_norm(res, jac, x):
    # residual relative to the magnitude of each equation's own terms, so
    # convergence is meaningful across the Ba-vs-cm^3/s magnitude spread
    scale = np.maximum(1.0, abs(jac) @ np.abs(x))
    return float(np.max(np.abs(res) / scale))


def _newton(system, x0, x_prev, dt, inflow, config):
    x = x0.copy()
    for it in range(config.max_iterations + 1):
        res = system.residual(x, x_prev, dt, inflow)
        jac = system.jacobian(x, x_prev, dt)
        norm = _scaled_norm(res, jac, x)
        if norm <= config.newton_tol:
            return x, {"iterations": it, "residual_norm": norm}
        if it == config.max_iterations:
            break
        try:
            x = x + scipy.sparse.linalg.splu(jac).solve(-res)
        except RuntimeError as e:  # splu: "Factor is exactly singular"
            raise ConvergenceError(f"singular Jacobian at iteration {it}") from e
    raise ConvergenceError(
        f"Newton did not converge in {config.max_iterations} iterations "
        f"(scaled residual inf-norm {norm:.3e})"
    )


def _solve_standard(network: VascularNetwork, config: SolverConfig, mode: str) -> Solution:
    if config.mode != mode:
        raise SolverError(f"config.mode must be {mode!r}")
    times, inflows = _time_grid(network, config)
    system = _StandardSystem(network)
    # Newton starts from the inflow through every vessel at zero pressure
    x0 = np.tile([0.0, 0.0, inflows[0], inflows[0]], len(network.topology.vessel_ids))
    states, diags = _march(
        lambda inflow, x_prev, dt, x: _newton(system, x, x_prev, dt, inflow, config),
        x0, times, inflows, config.dt,
    )
    return Solution(times=times, states=states, index=VarIndex(network), network=network,
                    engine="standard", config=config, diagnostics=diags)


def solve_steady_standard(
    network: VascularNetwork, config: SolverConfig = SolverConfig()
) -> Solution:
    return _solve_standard(network, config, "steady")


def solve_transient_standard(
    network: VascularNetwork, config: SolverConfig
) -> Solution:
    return _solve_standard(network, config, "transient")


# -- RRI / RI optimization engine -----------------------------------------


class _OptProblem:
    """Junction residuals of one network/engine pair over its feasible set.

    On a tree the linear constraints (wire continuity, mass balance, inflow,
    leaf resistance BCs) leave two free entries of the state per junction:
    the flow into its first outlet and the pressure of its inlet vessel.
    Every feasible state is ``inflow * x_unit + basis @ (scale * z)`` with
    ``z`` those entries divided by their scales, and leaf pressures then set
    to ``R * q + Pd``.  A unit flow entering a vessel leaves through second
    outlets down to a leaf, where it raises the leaf pressure by R.
    """

    def __init__(self, network: VascularNetwork, engine: str):
        if engine not in ("rri", "ri"):
            raise SolverError(f"unknown optimization engine {engine!r}")
        self.network = network
        self.engine = engine
        self.idx = VarIndex(network)
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
                outlets.append((j, o))
        c = self.constraints = _LinearConstraints(network)

        # per outlet: junction pressure, outlet pressure, outlet flow, junction
        # inflow, and the junction-law coefficients
        inlet, outlet = 4 * np.repeat(c.inlet, 2), 4 * c.outlets.ravel()
        self.i_pj, self.i_po = inlet + P_OUT, outlet + P_IN
        self.i_q, self.i_qj = outlet + Q_IN, inlet + Q_OUT
        use_quad = engine == "rri"
        self.r_lin = np.array([o.coefficients.r_lin for _, o in outlets])
        self.r_quad = np.array([o.coefficients.quad() if use_quad else 0.0 for _, o in outlets])
        self.l = np.array([o.coefficients.l for _, o in outlets])
        self.phi = np.array([o.flow_split for _, o in outlets])
        self._tree_basis()

        # each first outlet's share of the inflow: the product of the flow
        # splits from the root down to it, in one root-first pass
        topo = network.topology
        share = {topo.preorder[0]: 1.0}
        for vid in topo.preorder:
            if vid in topo.feeds:
                for o in topo.feeds[vid].outlets:
                    share[o.vessel_id] = share[vid] * o.flow_split
        self.share = np.array([abs(share[j.outlets[0].vessel_id]) for j in network.junctions])
        # a zero share would zero the flow column and the warm start's divisor
        self.share[self.share == 0.0] = 1.0

    def _tree_basis(self):
        net, idx, con = self.network, self.idx, self.constraints
        feeds = net.topology.feeds
        leaf_r = np.zeros(len(idx.vessel_ids))  # by vessel position
        leaf_r[con.leaf] = con.leaf_r

        def unit_flow(vid, sign=1.0):
            """State entries moved by a unit flow entering vessel vid."""
            while vid in feeds:
                yield from ((idx(vid, "q_in"), sign), (idx(vid, "q_out"), sign))
                vid = feeds[vid].outlets[1].vessel_id
            r = sign * leaf_r[idx.position[vid]]
            yield from (
                (idx(vid, "q_in"), sign), (idx(vid, "q_out"), sign),
                (idx(vid, "p_in"), r), (idx(vid, "p_out"), r),
            )

        n_j = len(net.junctions)
        entries = []  # (row, column, value)
        for k, j in enumerate(net.junctions):
            first, second = (o.vessel_id for o in j.outlets)
            entries += [(i, k, c) for i, c in unit_flow(first)]
            entries += [(i, k, c) for i, c in unit_flow(second, -1.0)]
            entries += [(idx(j.inlet_vessel, q), n_j + k, 1.0) for q in ("p_in", "p_out")]
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        self.basis = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(idx.n, 2 * n_j))
        self.free = np.concatenate([4 * con.outlets[:, 0] + Q_IN, 4 * con.inlet + P_OUT])
        self.x_unit = np.zeros(idx.n)
        for i, c in unit_flow(net.inflow_bc.vessel_id):
            self.x_unit[i] = c

    def set_variable_scales(self, q_scale: float, p_var: float) -> None:
        """Column-scale the basis so flow and pressure unknowns are comparable
        in the reduced least-squares problem; without this the optimizer
        stalls far from the attainable objective on deep trees.  A flow is
        scaled by q_scale times its share of the inflow (about 2^-depth):
        with q_scale alone LM stops on xtol above the stationarity gate.
        q_scale also normalizes the residuals."""
        self.q_scale = q_scale
        self.scale = np.concatenate([q_scale * self.share, np.full(self.share.size, p_var)])
        # the state-independent parts of the Jacobian, densified once: the
        # pressure-drop rows' basis blocks and the whole flow-split block
        b_pj, b_po, self._b_q, b_qj = (
            self.basis[i].toarray() for i in (self.i_pj, self.i_po, self.i_q, self.i_qj)
        )
        self._b_dp = b_pj - b_po
        self._flow_jac = (self.phi[:, None] * b_qj - self._b_q) / q_scale * self.scale

    def state(self, inflow: float, z: np.ndarray) -> np.ndarray:
        """The feasible state with scaled free unknowns z."""
        x = inflow * self.x_unit + self.basis @ (self.scale * z)
        # leaf pressures come from the leaf's own flow: summed through the
        # basis, their +-R*q_scale terms cancel and lose digits
        s, c = x.reshape(-1, 4), self.constraints
        s[c.leaf, P_IN] = s[c.leaf, P_OUT] = c.leaf_r * s[c.leaf, Q_OUT] + c.leaf_pd
        return x

    def residuals(self, x, x_prev, dt):
        """Junction pressure-law residuals, then flow-split residuals."""
        q = x[self.i_q]
        qdot = 0.0 if dt is None else (q - x_prev[self.i_q]) / dt
        dp_model = self.r_lin * q + self.r_quad * q * np.abs(q) + self.l * qdot
        return np.concatenate([
            (x[self.i_pj] - x[self.i_po] - dp_model) / self.q_scale**2,
            (self.phi * x[self.i_qj] - q) / self.q_scale,
        ])

    def jacobian(self, x, dt):
        """Jacobian of the residuals w.r.t. the scaled free unknowns; only the
        pressure-law rows depend on the state."""
        dqdot = 0.0 if dt is None else 1.0 / dt
        dq = self.r_lin + 2 * self.r_quad * np.abs(x[self.i_q]) + self.l * dqdot
        pressure = (self._b_dp - dq[:, None] * self._b_q) / self.q_scale**2 * self.scale
        return np.vstack([pressure, self._flow_jac])

    def diagnostics(self, x, inflow, x_prev, dt) -> dict:
        """Objective, constraint violation and stationarity (inf-norm of the
        objective gradient w.r.t. the scaled free unknowns) at state x."""
        r = self.residuals(x, x_prev, dt)
        grad = 2.0 * self.jacobian(x, dt).T @ r
        return {
            "objective": float(np.sum(r**2)),
            "constraint_violation": float(np.max(np.abs(self.constraints.residual(x, inflow)))),
            "stationarity": float(np.max(np.abs(grad), initial=0.0)),
        }

    def solve_step(self, inflow, x_prev, dt, config, x_start=None):
        z = np.zeros(self.free.size) if x_start is None else x_start[self.free] / self.scale
        lm = {"nfev": 0, "njev": 0, "status": None, "message": "no free unknowns"}
        if z.size:
            result = scipy.optimize.least_squares(
                lambda z: self.residuals(self.state(inflow, z), x_prev, dt),
                z,
                jac=lambda z: self.jacobian(self.state(inflow, z), dt),
                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000,
            )
            z = result.x
            lm = {"nfev": result.nfev, "njev": result.njev,
                  "status": result.status, "message": result.message}
        x = self.state(inflow, z)
        diag = {**self.diagnostics(x, inflow, x_prev, dt), **lm}
        violation, z_val = diag["constraint_violation"], diag["objective"]
        if violation > config.constraint_tol:
            raise ConvergenceError(
                f"constraint violation {violation:.3e} exceeds {config.constraint_tol:.1e}"
            )
        # an objective below tol^2 means normalized residuals below tol, which
        # is convergence regardless of the (scale-sensitive) gradient norm
        stationarity = diag["stationarity"]
        if stationarity > config.stationarity_tol and z_val > config.stationarity_tol**2:
            raise ConvergenceError(
                f"stationarity {stationarity:.3e} exceeds {config.stationarity_tol:.1e} "
                f"(objective {z_val:.3e}; {diag['nfev']} evaluations: {diag['message']})"
            )
        return x, diag


def _standard_warm_start(network):
    try:
        return solve_steady_standard(network).states[0]
    except SolverError:
        return None


def solve_opt(
    network: VascularNetwork,
    config: SolverConfig = SolverConfig(),
    engine: str = "rri",
) -> Solution:
    """Constrained solve of an RRI/RI-augmented network.

    Mass conservation, wire continuity, and boundary conditions are satisfied
    to machine precision by construction; the junction pressure and flow-split
    residuals are minimized over the feasible subspace.
    """
    problem = _OptProblem(network, engine)
    warm = _standard_warm_start(network)
    times, inflows = _time_grid(network, config)
    # peak inflow scales the objective and the flow unknowns
    q_scale = float(np.max(np.abs(inflows))) or 1.0
    p_var = max(1.0, q_scale)
    if warm is not None:
        p_var = max(p_var, float(np.max(np.abs(warm.reshape(-1, 4)[:, :2]))))
    problem.set_variable_scales(q_scale, p_var)
    states, diags = _march(
        lambda inflow, x_prev, dt, x: problem.solve_step(inflow, x_prev, dt, config, x_start=x),
        warm, times, inflows, config.dt,
    )
    return Solution(times=times, states=states, index=problem.idx, network=network,
                    engine=engine, config=config, diagnostics=diags,
                    meta={"q_scale": q_scale, "p_var": p_var})


def kkt_report(solution: Solution) -> list[dict]:
    """Recompute per-step objective, constraint violation, and stationarity
    from the stored states (independent of the solve's own diagnostics), at
    the inflows and steps the solve marched through."""
    if solution.engine not in ("rri", "ri"):
        raise SolverError("kkt_report applies to optimization-engine solutions")
    problem = _OptProblem(solution.network, solution.engine)
    problem.set_variable_scales(solution.meta["q_scale"], solution.meta["p_var"])
    stored = iter(solution.states)

    def step(inflow, x_prev, dt, _):
        x = next(stored)
        return x, problem.diagnostics(x, inflow, x_prev, dt)

    config = solution.config
    _, diags = _march(step, None, *_time_grid(solution.network, config), config.dt)
    return [{"t": float(t), **diag} for t, diag in zip(solution.times, diags)]


# -- export ---------------------------------------------------------------


def export_solution(solution: Solution, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "solution.csv", "w", newline="") as f:
        w = csv.writer(f)
        header = ["t"]
        for vid in solution.index.vessel_ids:
            header += [f"P_{vid}_in", f"P_{vid}_out", f"Q_{vid}_in", f"Q_{vid}_out"]
        w.writerow(header)
        # a state already lists each vessel's p_in, p_out, q_in, q_out in order
        for t, x in zip(solution.times, solution.states):
            w.writerow([repr(float(v)) for v in (t, *x)])
    with open(outdir / "diagnostics.json", "w") as f:
        json.dump(
            {
                "engine": solution.engine,
                "mode": solution.config.mode,
                "meta": solution.meta,
                "steps": solution.diagnostics,
            },
            f,
            indent=1,
        )
