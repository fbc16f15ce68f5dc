"""Post-processing: impedance spectra, pressure errors, depth statistics,
and in-tree coefficient fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datagen import UnderdeterminedFitError, fit_junction_law
from .flowsplit import ensure_flow_splits
from .formats import write_csv
from .network import MMHG_TO_BA, VascularNetwork
from .nondim import CoefficientSet
from .solver import P_IN, P_OUT, Q_IN, Solution, SolverConfig, solve_opt


class AnalysisError(Exception):
    pass


@dataclass
class ImpedanceSpectrum:
    omega: np.ndarray  # rad/s, harmonics of 2*pi/period
    z: np.ndarray  # complex impedance

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.z)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.z)


def impedance(q: np.ndarray, dp: np.ndarray, period: float, dt: float) -> ImpedanceSpectrum:
    """Z(w_k) = F(dP)_k / F(Q)_k at harmonics of 2*pi/period.

    Harmonics where |F(Q)| falls below 1e-10*max|F(Q)| are dropped to avoid
    noise amplification.
    """
    if not (math.isfinite(period) and period > 0):
        raise AnalysisError(f"period must be finite and > 0, got {period}")
    q = np.asarray(q, float)
    dp = np.asarray(dp, float)
    if q.size != dp.size or q.size < 2:
        raise AnalysisError("Q and dP must have equal length >= 2")
    duration = q.size * dt
    n_periods = duration / period
    if abs(n_periods - round(n_periods)) > 1e-6:
        raise AnalysisError(
            f"series duration {duration:.6g} is not an integer number of periods"
        )
    n_periods = int(round(n_periods))
    qh = np.fft.rfft(q)
    ph = np.fft.rfft(dp)
    if np.max(np.abs(qh)) == 0:
        raise AnalysisError("all-zero flow signal")
    # harmonics of the fundamental are every n_periods-th rfft bin
    bins = np.arange(0, qh.size, n_periods)
    keep = np.abs(qh[bins]) > 1e-10 * np.max(np.abs(qh))
    bins = bins[keep]
    if bins.size == 0:
        raise AnalysisError("no harmonics above the magnitude floor")
    omega = 2.0 * math.pi / period * (bins // n_periods)
    return ImpedanceSpectrum(omega=omega, z=ph[bins] / qh[bins])


def write_impedance_csv(spectrum: ImpedanceSpectrum, path) -> None:
    z = spectrum.z  # |z| by np.hypot, rounded as abs() of one element; np.abs of all is not
    write_csv(path, ["omega", "re", "im", "mag", "phase"], np.column_stack(
        [spectrum.omega, z.real, z.imag, np.hypot(z.real, z.imag), np.angle(z)]), None)


def pressure_error(solution: Solution, reference: Solution, zero_reference: bool = False) -> dict:
    """Max-over-time inlet pressure error vs a reference solution, as
    ``series_pressure_error`` of the two inlet-pressure series."""
    if solution.times.size != reference.times.size or not np.allclose(
        solution.times, reference.times
    ):
        raise AnalysisError("solution and reference time grids do not match")
    return series_pressure_error(solution.inlet_pressure, reference.inlet_pressure,
                                 zero_reference)


def series_pressure_error(p: np.ndarray, p_ref: np.ndarray, zero_reference: bool = False) -> dict:
    """Max-over-time error of a pressure series against a reference series
    on the same time grid.

    absolute is in mmHg; relative divides by the largest reference pressure
    above the zero datum.  Mean-over-time values are also reported.  A
    reference that is zero throughout (a sweep point at Re 0) has no
    relative error: it raises, or with zero_reference gives None for both
    relative values.
    """
    denom = float(np.max(np.abs(p_ref)))
    if denom == 0 and not zero_reference:
        raise AnalysisError("reference pressure range is zero; relative error undefined")
    diff = np.abs(p - p_ref)
    error = {
        "absolute_mmhg": float(np.max(diff)) / MMHG_TO_BA,
        "relative": float(np.max(diff)) / denom if denom else None,
        "mean_absolute_mmhg": float(np.mean(diff)) / MMHG_TO_BA,
        "mean_relative": float(np.mean(diff)) / denom if denom else None,
    }
    if not all(v is None or math.isfinite(v) for v in error.values()):
        raise AnalysisError(f"pressure error overflows: largest difference {np.max(diff):.6g}, "
                            f"reference pressure range {denom:.6g}")
    return error


def depth_statistics(
    network: VascularNetwork,
    solution: Solution,
    reference: Optional[Solution] = None,
) -> list[dict]:
    """Per-junction flow/Reynolds statistics (normalized by tree-inlet values)
    at the last time, grouped by depth = number of upstream bifurcations."""
    fluid = network.fluid
    x = solution.states[-1]
    idx = solution.index
    root = network.inflow_bc.vessel_id
    q0 = x[idx(root, "q_in")]
    r0 = network.vessels[root].radius
    re0 = fluid.rho * (q0 / network.vessels[root].area) * 2 * r0 / fluid.mu
    records = []
    for j, depth in zip(network.junctions, network.topology.depth.tolist()):
        v_in = network.vessels[j.inlet_vessel]
        q = x[idx(j.inlet_vessel, "q_in")]
        re = fluid.rho * (q / v_in.area) * 2 * v_in.radius / fluid.mu
        rec = {
            "junction": j.id,
            "depth": depth,
            "normalized_flow": q / q0 if q0 else float("nan"),
            "normalized_re": re / re0 if re0 else float("nan"),
            "outlet_resistances": {},
        }
        p_in = x[idx(j.inlet_vessel, "p_out")]
        for o in j.outlets:
            dp = p_in - x[idx(o.vessel_id, "p_in")]
            q_out = x[idx(o.vessel_id, "q_in")]
            rec["outlet_resistances"][o.vessel_id] = dp / q_out if q_out else float("nan")
        if reference is not None:
            xr = reference.states[-1]
            ir = reference.index
            rec["pressure_error_mmhg"] = (
                abs(x[idx(j.inlet_vessel, "p_in")] - xr[ir(j.inlet_vessel, "p_in")])
                / MMHG_TO_BA
            )
            p_in_r = xr[ir(j.inlet_vessel, "p_out")]
            rec["resistance_error"] = {}
            for o in j.outlets:
                dp_r = p_in_r - xr[ir(o.vessel_id, "p_in")]
                q_r = xr[ir(o.vessel_id, "q_in")]
                r_ref = dp_r / q_r if q_r else float("nan")
                rec["resistance_error"][o.vessel_id] = (
                    rec["outlet_resistances"][o.vessel_id] - r_ref
                )
        records.append(rec)
    return records


def fit_tree_coefficients(
    network: VascularNetwork,
    solutions: list[Solution],
    mode: str = "RRI",
) -> dict[tuple[str, str], CoefficientSet]:
    """Fit steady junction resistances from a sweep of steady solutions.

    RRI: dP = R_lin*Q + R_quad*Q|Q| (needs >= 2 solutions);
    RI: dP = R_lin*Q (needs >= 1).  Inductance is neglected (steady data).
    Returns {(junction id, outlet vessel id): CoefficientSet}.  A network
    without junctions has nothing to fit and raises.
    """
    if not network.junctions:
        raise AnalysisError("the network has no junction outlets to fit")
    if mode not in ("RRI", "RI"):
        raise AnalysisError(f"unknown fit mode {mode!r}")
    need = 2 if mode == "RRI" else 1
    if len(solutions) < need:
        raise AnalysisError(f"{mode} fit needs at least {need} steady solutions")
    # q and dP of every outlet (junction order, then outlet order) over the sweep
    x = np.array([sol.states[-1] for sol in solutions])
    inlet, outlet = 4 * np.repeat(network.topology.inlet, 2), 4 * network.topology.outlets.ravel()
    q = x[:, outlet + Q_IN].T
    dp = (x[:, inlet + P_OUT] - x[:, outlet + P_IN]).T
    columns = ("Q", "Q|Q|") if mode == "RRI" else ("Q",)
    try:
        coef = fit_junction_law({"Q": q, "Q|Q|": q * np.abs(q)}, columns, dp)
    except UnderdeterminedFitError as e:
        j = network.junctions[e.index // 2]
        what = "rank-deficient" if mode == "RRI" else "zero-flow"
        raise AnalysisError(f"{what} sweep for junction {j.id} "
                            f"outlet {j.outlets[e.index % 2].vessel_id}") from e
    keys = [(j.id, o.vessel_id) for j in network.junctions for o in j.outlets]
    return {key: CoefficientSet(kind=mode, r_lin=c[0], r_quad=c[1] if mode == "RRI" else None,
                                l=0.0)
            for key, c in zip(keys, coef.tolist())}


def resolve_with_fits(
    network: VascularNetwork,
    fits: dict[tuple[str, str], CoefficientSet],
    inflows: list[float],
    references: Optional[list[Solution]] = None,
) -> list[dict]:
    """Re-solve the tree with fitted coefficients at each sweep inflow and
    report inlet-pressure errors vs the reference solutions (if given).  A
    network without junctions has no fits to use and raises."""
    if not network.junctions:
        raise AnalysisError("the network has no junction outlets to fit")
    engine = "rri" if next(iter(fits.values())).kind == "RRI" else "ri"
    ensure_flow_splits(network)
    for j in network.junctions:
        for o in j.outlets:
            o.coefficients = fits[(j.id, o.vessel_id)]
    rows = []
    for i, q_in in enumerate(inflows):
        with network.steady_inflow(q_in):
            sol = solve_opt(network, SolverConfig(mode="steady"), engine=engine)
        row = {"inflow": q_in, "objective": sol.diagnostics[0]["objective"]}
        if references is not None:
            row.update(pressure_error(sol, references[i], zero_reference=True))
        rows.append(row)
    return rows
