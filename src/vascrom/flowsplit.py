"""A-priori flow-split estimation from downstream effective resistance.

Only vessel Poiseuille resistances and BC resistances enter the reduction;
stenosis and quadratic elements are ignored (a documented approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import write_json
from .network import VascularNetwork


class FlowSplitError(Exception):
    pass


class UnsupportedConfigurationError(FlowSplitError):
    pass


@dataclass
class SplitEstimate:
    # junction id -> (phi_1, phi_2)
    splits: dict[str, tuple[float, float]]
    # vessel id -> effective downstream resistance including the vessel itself
    resistances: dict[str, float]


def _reduce(network: VascularNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Series-parallel effective resistance of every vessel, including the
    vessel itself, by state position, reduced level by level from the leaves,
    and the flow splits phi_1 = R_2/(R_1 + R_2), phi_2 = 1 - phi_1 of every
    junction, as (junctions, 2)."""
    topo, r_vessel = network.topology, network.topology.elements[:, 0]
    leaf_r = np.full(r_vessel.size, np.nan)  # NaN: no resistance BC
    for b in network.boundary_conditions:
        if b.kind == "RESISTANCE":
            leaf_r[topo.position[b.vessel_id]] = b.r
    # reduced in units of a power of two near the largest resistance, which
    # scale exactly, so sums past the float range still give the splits
    unit = np.ldexp(1.0, np.frexp(np.nanmax(np.append(r_vessel, leaf_r)))[1] - 1)
    r_vessel, leaf_r = r_vessel / unit, leaf_r / unit
    r_eff = r_vessel + leaf_r  # a junction inlet's entry is set by its level
    for js in reversed(topo.levels):
        r1, r2 = r_eff[topo.outlets[js]].T
        r_eff[topo.inlet[js]] = r_vessel[topo.inlet[js]] + 1.0 / (1.0 / r1 + 1.0 / r2)
    if np.isnan(r_eff).any():
        # name the last such leaf in tree order: follow second outlets first
        fed = dict(zip(topo.inlet.tolist(), topo.outlets.tolist()))
        v = topo.position[network.inflow_bc.vessel_id]
        while v in fed:
            v = fed[v][1] if np.isnan(r_eff[fed[v][1]]) else fed[v][0]
        raise UnsupportedConfigurationError(
            f"vessel {topo.vessel_ids[v]} does not end in a resistance BC")
    r1, r2 = r_eff[topo.outlets].T
    phi1 = r2 / (r1 + r2)
    with np.errstate(over="ignore"):  # an effective resistance past the float range
        return r_eff * unit, np.stack([phi1, 1.0 - phi1], axis=1)


def estimate_flow_splits(network: VascularNetwork) -> SplitEstimate:
    """phi_1 = R_2/(R_1 + R_2) at each junction; requires zero distal pressures.

    Flow splits are written back onto the junction outlets.
    """
    for bc in network.boundary_conditions:
        if bc.kind == "RESISTANCE" and bc.pd != 0.0:
            raise UnsupportedConfigurationError(
                f"nonzero distal pressure on {bc.vessel_id}; the split estimate "
                "assumes equal (zero) distal pressures"
            )
    r_eff, phi = _reduce(network)
    splits: dict[str, tuple[float, float]] = {}
    resistances: dict[str, float] = {}
    for junction, r, p in zip(network.junctions, r_eff[network.topology.outlets].tolist(),
                              phi.tolist()):
        splits[junction.id] = tuple(p)
        for o, r_o, p_o in zip(junction.outlets, r, p):
            resistances[o.vessel_id] = r_o
            o.flow_split = p_o
    return SplitEstimate(splits=splits, resistances=resistances)


def ensure_flow_splits(network: VascularNetwork) -> None:
    """Estimate the flow splits unless every junction outlet already has one."""
    if any(o.flow_split is None for j in network.junctions for o in j.outlets):
        estimate_flow_splits(network)


def write_split_report(estimate: SplitEstimate, path) -> None:
    """Write the splits and effective resistances as JSON; an effective
    resistance past the float range (the splits can still be finite) has no
    JSON form, so it raises, naming the first such vessel."""
    for vid, r in estimate.resistances.items():
        if not math.isfinite(r):
            raise FlowSplitError(f"vessel {vid}: effective resistance {r} is past the float range")
    out = {
        "junctions": [
            {"id": jid, "phi_1": phi[0], "phi_2": phi[1]}
            for jid, phi in estimate.splits.items()
        ],
        "effective_resistances": estimate.resistances,
    }
    write_json(out, path)
