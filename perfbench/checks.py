"""Independent output checks, run outside the timed sections.

Nothing here calls into ``vascrom``: every reference answer is computed from
the network's JSON form with the benchmark's own code.

* ``series_parallel`` -- exact steady answer of the standard engine
  (Poiseuille vessels, resistance leaves) by series-parallel reduction.
* ``rri_errors``      -- steady or backward-Euler answer of the junction law
  ``dP = R_lin*Q + R_quad*Q|Q| + L*dQ/dt`` with vessels as wires, solved by
  Newton's method on the square system (mass balance, one pressure-drop law
  per outlet, inflow, leaf resistances).  On symmetric trees the split
  residuals of the rri objective vanish at this root, so the rri engine must
  reproduce it.
* ``mass_balance``    -- worst vessel or junction flow imbalance.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MASS_TOL = 1e-10
CONSTRAINT_TOL = 1e-8
NODE_TOL = 1e-6  # relative, as in the acceptance test of the rri engine
SPLIT_TOL = 1e-12
QUANTITIES = ("p_in", "p_out", "q_in", "q_out")


class Topo:
    """Tree structure and parameters read from a network dict."""

    def __init__(self, data: dict):
        fluid = data.get("fluid", {})
        self.mu = float(fluid.get("mu", 0.04))
        self.ids = [v["id"] for v in data["vessels"]]
        self.pos = {vid: i for i, vid in enumerate(self.ids)}
        self.length = np.array([v["length"] for v in data["vessels"]], float)
        self.area = np.array([v["area"] for v in data["vessels"]], float)
        # 1e-8 cm^3/Ba is the schema's default compliance
        self.capacitance = np.array([v.get("capacitance", 1e-8) for v in data["vessels"]], float)
        self.junctions = data.get("junctions", [])
        self.children = {j["inlet_vessel"]: j["outlet_vessels"] for j in self.junctions}
        self.leaves: dict[str, tuple[float, float]] = {}
        for b in data["boundary_conditions"]:
            if b["kind"] == "FLOW":
                self.root = b["vessel_id"]
                self.inflow = b["value"]
            else:
                self.leaves[b["vessel_id"]] = (b["value"]["R"], b["value"].get("Pd", 0.0))

    def poiseuille_r(self) -> np.ndarray:
        return 8.0 * math.pi * self.mu * self.length / self.area**2

    def preorder(self) -> list[str]:
        out, stack = [], [self.root]
        while stack:
            vid = stack.pop()
            out.append(vid)
            stack.extend(self.children.get(vid, []))
        return out


class States:
    """Solution values by (vessel, quantity), one row per stored time."""

    def __init__(self, columns: dict[tuple[str, str], int], rows: np.ndarray):
        self.columns = columns
        self.rows = np.atleast_2d(rows)

    def get(self, vid: str, quantity: str) -> np.ndarray:
        return self.rows[:, self.columns[(vid, quantity)]]

    @classmethod
    def from_solution(cls, solution) -> "States":
        columns = {
            (vid, q): solution.index(vid, q)
            for vid in solution.index.vessel_ids
            for q in QUANTITIES
        }
        return cls(columns, np.asarray(solution.states, float))

    @classmethod
    def from_csv(cls, path) -> "States":
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        columns = {}
        for i, name in enumerate(header[1:], start=1):
            kind, rest = name[0], name[2:]
            vid, end = rest.rsplit("_", 1)
            columns[(vid, f"{kind.lower()}_{end}")] = i
        return cls(columns, rows)


def mass_balance(topo: Topo, st: States, dt: float | None = None) -> float:
    """Worst flow imbalance over vessels and junctions.  With ``dt`` the
    solution is a standard-engine transient, whose vessels store
    ``C*(dP_in + R*dQ_in)/dt`` between backward-Euler steps (the trees here
    have no stenoses); the first state is steady."""
    worst = 0.0
    r = topo.poiseuille_r()
    for i, vid in enumerate(topo.ids):
        imbalance = st.get(vid, "q_in") - st.get(vid, "q_out")
        if dt is not None:
            p, q = st.get(vid, "p_in"), st.get(vid, "q_in")
            imbalance[1:] -= topo.capacitance[i] * (np.diff(p) + r[i] * np.diff(q)) / dt
        worst = max(worst, float(np.max(np.abs(imbalance))))
    for parent, kids in topo.children.items():
        imbalance = st.get(parent, "q_out") - sum(st.get(k, "q_in") for k in kids)
        worst = max(worst, float(np.max(np.abs(imbalance))))
    return worst


def _effective_resistances(topo: Topo, r: dict[str, float]) -> dict[str, float]:
    """Resistance of each vessel plus everything downstream of it."""
    r_eff: dict[str, float] = {}
    for vid in reversed(topo.preorder()):
        kids = topo.children.get(vid)
        if kids:
            downstream = 1.0 / sum(1.0 / r_eff[k] for k in kids)
        else:
            downstream = topo.leaves[vid][0]
        r_eff[vid] = r[vid] + downstream
    return r_eff


def series_parallel(topo: Topo, inflow: float) -> dict[str, tuple[float, float, float]]:
    """(p_in, p_out, q) per vessel for the steady standard engine."""
    r = dict(zip(topo.ids, topo.poiseuille_r()))
    r_eff = _effective_resistances(topo, r)
    out: dict[str, tuple[float, float, float]] = {}
    flow = {topo.root: inflow}
    p_in = {topo.root: inflow * r_eff[topo.root]}
    for vid in topo.preorder():
        q = flow[vid]
        p_out = p_in[vid] - r[vid] * q
        out[vid] = (p_in[vid], p_out, q)
        kids = topo.children.get(vid, [])
        g = [1.0 / r_eff[k] for k in kids]
        for k, gk in zip(kids, g):
            flow[k] = q * gk / sum(g)
            p_in[k] = p_out
    return out


def split_estimates(topo: Topo) -> dict[str, float]:
    """phi of the first outlet per junction, from the same reduction."""
    r_eff = _effective_resistances(topo, dict(zip(topo.ids, topo.poiseuille_r())))
    return {
        j["id"]: r_eff[j["outlet_vessels"][1]]
        / (r_eff[j["outlet_vessels"][0]] + r_eff[j["outlet_vessels"][1]])
        for j in topo.junctions
    }


def _node_error(st: States, k: int, q: dict, p: dict) -> float:
    worst = 0.0
    for vid in q:
        for quantity, ref in (("q_in", q[vid]), ("q_out", q[vid]), ("p_in", p[vid][0]), ("p_out", p[vid][1])):
            worst = max(worst, abs(st.get(vid, quantity)[k] - ref) / max(abs(ref), 1.0))
    return worst


def standard_error(topo: Topo, st: States, inflow: float) -> float:
    ref = series_parallel(topo, inflow)
    q = {vid: v[2] for vid, v in ref.items()}
    p = {vid: (v[0], v[1]) for vid, v in ref.items()}
    return _node_error(st, 0, q, p)


class RriRoot:
    """Newton solver for the wire-model junction law with ``Q|Q|``."""

    def __init__(self, topo: Topo):
        n = len(topo.ids)
        self.n = n
        pos = topo.pos
        a = np.zeros((2 * n, 2 * n))
        self.base_b = np.zeros(2 * n)
        self.outlet_rows, self.outlet_cols, self.r_quad, self.r_lin, self.ind = [], [], [], [], []
        row = 0
        a[row, pos[topo.root]] = 1.0
        self.inflow_row = row
        row += 1
        for j in topo.junctions:
            parent = pos[j["inlet_vessel"]]
            a[row, parent] = 1.0
            for vid in j["outlet_vessels"]:
                a[row, pos[vid]] = -1.0
            row += 1
            for vid, c in zip(j["outlet_vessels"], j["coefficients"]):
                o = pos[vid]
                a[row, n + parent] = 1.0
                a[row, n + o] = -1.0
                self.outlet_rows.append(row)
                self.outlet_cols.append(o)
                self.r_lin.append(float(c["r_lin"]))
                self.r_quad.append(float(c["r_quad"] or 0.0))
                self.ind.append(float(c["l"]))
                row += 1
        for vid, (r_bc, pd) in topo.leaves.items():
            a[row, n + pos[vid]] = 1.0
            a[row, pos[vid]] = -r_bc
            self.base_b[row] = pd
            row += 1
        self.a = a
        self.outlet_rows = np.array(self.outlet_rows)
        self.outlet_cols = np.array(self.outlet_cols)
        self.r_lin = np.array(self.r_lin)
        self.r_quad = np.array(self.r_quad)
        self.ind = np.array(self.ind)

    def solve(self, inflow: float, q_prev=None, dt=None) -> np.ndarray:
        rows, cols = self.outlet_rows, self.outlet_cols
        lin = self.r_lin + (0.0 if dt is None else self.ind / dt)
        a = self.a.copy()
        a[rows, cols] = -lin
        b = self.base_b.copy()
        b[self.inflow_row] = inflow
        if dt is not None:
            b[rows] = -self.ind / dt * q_prev[cols]
        x = np.linalg.solve(a, b)
        for _ in range(100):
            q = x[cols]
            f = a @ x - b
            f[rows] -= self.r_quad * q * np.abs(q)
            jac = a.copy()
            jac[rows, cols] -= 2.0 * self.r_quad * np.abs(q)
            dx = np.linalg.solve(jac, f)
            x = x - dx
            if np.max(np.abs(dx)) <= 1e-14 * max(1.0, float(np.max(np.abs(x)))):
                return x
        raise ArithmeticError("reference Newton solve did not converge")


def rri_errors(topo: Topo, st: States, inflows, dt=None) -> list[float]:
    """Worst relative node error per time step of a steady (dt None) or
    backward-Euler transient solution against the ``Q|Q|`` root."""
    root = RriRoot(topo)
    n = root.n
    errors, x = [], None
    for k, inflow in enumerate(inflows):
        step_dt = None if dt is None or k == 0 else dt
        x = root.solve(inflow, None if step_dt is None else x[:n], step_dt)
        q = {vid: x[i] for i, vid in enumerate(topo.ids)}
        p = {vid: (x[n + i], x[n + i]) for i, vid in enumerate(topo.ids)}
        errors.append(_node_error(st, k, q, p))
    return errors


def impedance_error(spectrum, q: np.ndarray, dp: np.ndarray) -> float:
    """Relative error of the zero-frequency impedance against mean(dP)/mean(Q);
    inf when the spectrum has non-finite entries or lacks the mean bin."""
    z = np.asarray(spectrum.z)
    if not np.all(np.isfinite(z)) or spectrum.omega[0] != 0.0:
        return math.inf
    ref = float(np.sum(dp) / np.sum(q))
    return abs(z[0].real - ref) / abs(ref) + abs(z[0].imag) / abs(ref)
