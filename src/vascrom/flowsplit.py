"""A-priori flow-split estimation from downstream effective resistance.

Only vessel Poiseuille resistances and BC resistances enter the reduction;
stenosis and quadratic elements are ignored (a documented approximation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def _reduce(network: VascularNetwork) -> dict[str, float]:
    """Series-parallel effective resistance of every vessel, including the
    vessel itself, reduced children first."""
    leaf_r = {b.vessel_id: b.r for b in network.boundary_conditions if b.kind == "RESISTANCE"}
    feeds = network.topology.feeds
    r_eff: dict[str, float] = {}
    for vid in reversed(network.topology.preorder):
        r_vessel, _ = network.vessels[vid].elements(network.fluid)
        junction = feeds.get(vid)
        if junction is not None:
            r1, r2 = (r_eff[o.vessel_id] for o in junction.outlets)
            r_eff[vid] = r_vessel + 1.0 / (1.0 / r1 + 1.0 / r2)
        elif vid in leaf_r:
            r_eff[vid] = r_vessel + leaf_r[vid]
        else:
            raise UnsupportedConfigurationError(f"vessel {vid} does not end in a resistance BC")
    return r_eff


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
    r_eff = _reduce(network)
    splits: dict[str, tuple[float, float]] = {}
    resistances: dict[str, float] = {}
    for junction in network.junctions:
        r1, r2 = (r_eff[o.vessel_id] for o in junction.outlets)
        phi1 = r2 / (r1 + r2)
        splits[junction.id] = (phi1, 1.0 - phi1)
        resistances[junction.outlets[0].vessel_id] = r1
        resistances[junction.outlets[1].vessel_id] = r2
        junction.outlets[0].flow_split = phi1
        junction.outlets[1].flow_split = 1.0 - phi1
    return SplitEstimate(splits=splits, resistances=resistances)


def ensure_flow_splits(network: VascularNetwork) -> None:
    """Estimate the flow splits unless every junction outlet already has one."""
    if any(o.flow_split is None for j in network.junctions for o in j.outlets):
        estimate_flow_splits(network)


def write_split_report(estimate: SplitEstimate, path) -> None:
    out = {
        "junctions": [
            {"id": jid, "phi_1": phi[0], "phi_2": phi[1]}
            for jid, phi in estimate.splits.items()
        ],
        "effective_resistances": estimate.resistances,
    }
    with open(path, "w") as f:
        f.write(json.dumps(out, indent=1))
