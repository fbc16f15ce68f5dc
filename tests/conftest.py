"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np
import pytest
import scipy.optimize

from vascrom.network import (
    BoundaryCondition,
    Fluid,
    Junction,
    JunctionOutlet,
    VascularNetwork,
    Vessel,
    apply_bifurcation_definition,
)
from vascrom.nondim import CoefficientSet


def make_single_vessel(bc_r=100.0, inflow=10.0, length=1.0, area=1.0,
                       stenosis_area=None, kt=None, pd=0.0):
    vessels = {
        "v0": Vessel(id="v0", length=length, area=area,
                     stenosis_area=stenosis_area, kt=kt)
    }
    bcs = [
        BoundaryCondition(vessel_id="v0", kind="FLOW", value=inflow),
        BoundaryCondition(vessel_id="v0", kind="RESISTANCE", r=bc_r, pd=pd),
    ]
    return VascularNetwork(fluid=Fluid(), vessels=vessels, junctions=[],
                           boundary_conditions=bcs)


def make_single_junction(coeffs1, coeffs2=None, phi=0.5, bc_r1=100.0,
                         bc_r2=100.0, inflow=10.0, outlet_area=0.5):
    """One junction, two leaf outlets with resistance BCs."""
    if coeffs2 is None:
        coeffs2 = coeffs1
    vessels = {
        "v0": Vessel(id="v0", length=1.0, area=1.0),
        "v1": Vessel(id="v1", length=1.0, area=outlet_area),
        "v2": Vessel(id="v2", length=1.0, area=outlet_area),
    }
    outlets = [
        JunctionOutlet(vessel_id="v1", angle=0.6, attributed_length=0.9,
                       residual_length=0.1, coefficients=coeffs1,
                       flow_split=phi),
        JunctionOutlet(vessel_id="v2", angle=0.6, attributed_length=0.9,
                       residual_length=0.1, coefficients=coeffs2,
                       flow_split=1.0 - phi),
    ]
    bcs = [
        BoundaryCondition(vessel_id="v0", kind="FLOW", value=inflow),
        BoundaryCondition(vessel_id="v1", kind="RESISTANCE", r=bc_r1),
        BoundaryCondition(vessel_id="v2", kind="RESISTANCE", r=bc_r2),
    ]
    return VascularNetwork(fluid=Fluid(), vessels=vessels,
                           junctions=[Junction(id="j0", inlet_vessel="v0",
                                               outlets=outlets)],
                           boundary_conditions=bcs)


def leaf_bcs(network):
    """The resistance BC of every leaf vessel (one that feeds no junction),
    by vessel id, in the network's vessel order."""
    bcs = {b.vessel_id: b for b in network.boundary_conditions if b.kind == "RESISTANCE"}
    fed = {j.inlet_vessel for j in network.junctions}
    return {vid: bcs[vid] for vid in network.vessels if vid not in fed}


def rri_coeffs(r_lin, r_quad, l):
    return CoefficientSet(kind="RRI", r_lin=r_lin, r_quad=r_quad, l=l)


def random_shape_tree(seed, inflow=100.0, max_depth=4, n_junctions=None):
    """Unbalanced bifurcating tree grown by splitting random leaves.

    Leaves sit at mixed depths, at most max_depth junctions below the root.
    It has n_junctions junctions, by default a random number from 4 to 8.
    Vessel ids are shuffled, so their sorted order is not the tree order,
    and vessels and junctions are listed in random order.  Vessel geometry
    and leaf resistances are random.  seed is an int or a numpy Generator.
    """
    rng = np.random.default_rng(seed)
    depth = [0]  # per node; node 0 is the root
    children = {}  # node -> its two outlet nodes
    leaves = [0]
    n_random = int(rng.integers(4, 9))
    n_junctions = n_random if n_junctions is None else n_junctions
    while len(children) < n_junctions or len({depth[v] for v in leaves}) == 1:
        v = int(rng.choice([v for v in leaves if depth[v] < max_depth]))
        children[v] = (len(depth), len(depth) + 1)
        depth += [depth[v] + 1] * 2
        leaves.remove(v)
        leaves += children[v]
    ids = [f"v{k:02d}" for k in rng.permutation(len(depth))]
    vessels = {
        ids[k]: Vessel(id=ids[k], length=rng.uniform(0.5, 3.0), area=rng.uniform(0.05, 0.8))
        for k in rng.permutation(len(ids))
    }
    junctions = [
        Junction(
            id="j" + ids[v],
            inlet_vessel=ids[v],
            outlets=[
                JunctionOutlet(vessel_id=ids[c], angle=rng.uniform(0.0, math.pi / 2))
                for c in pair
            ],
        )
        for v, pair in children.items()
    ]
    rng.shuffle(junctions)
    bcs = [BoundaryCondition(vessel_id=ids[0], kind="FLOW", value=inflow)] + [
        BoundaryCondition(vessel_id=ids[v], kind="RESISTANCE", r=rng.uniform(2e3, 2e4))
        for v in leaves
    ]
    return apply_bifurcation_definition(
        VascularNetwork(fluid=Fluid(), vessels=vessels, junctions=junctions,
                        boundary_conditions=bcs)
    )


def newton_rri_reference(network, inflow=None, flows_prev=None, dt=None):
    """Independent RRI solve via scipy root-finding.

    One flow and one pressure unknown per vessel (vessels are wires); the
    equations are junction mass balance, the junction pressure-drop law, the
    inflow condition, and the leaf resistance BCs.  Steady by default; given
    dt and each vessel's previous flow (``flows_prev``), every outlet's
    pressure drop gains the backward-Euler inertance term
    ``l * (q - q_prev) / dt``.  Used as a cross-check oracle for the
    constrained-optimization engine.
    """
    vids = sorted(network.vessels)
    nv = len(vids)
    iq = {vid: i for i, vid in enumerate(vids)}
    ip = {vid: nv + i for i, vid in enumerate(vids)}
    root = network.inflow_bc.vessel_id
    if inflow is None:
        inflow = network.inflow_bc.steady_flow()
    leaf_bcs = {bc.vessel_id: bc for bc in network.boundary_conditions
                if bc.kind == "RESISTANCE"}

    def equations(x):
        res = []
        res.append(x[iq[root]] - inflow)
        for j in network.junctions:
            qj = x[iq[j.inlet_vessel]]
            res.append(qj - sum(x[iq[o.vessel_id]] for o in j.outlets))
            for o in j.outlets:
                c = o.coefficients
                q = x[iq[o.vessel_id]]
                drop = c.r_lin * q + c.quad() * q * abs(q)
                if dt is not None:
                    drop += c.l * (q - flows_prev[o.vessel_id]) / dt
                res.append(x[ip[j.inlet_vessel]] - x[ip[o.vessel_id]] - drop)
        for vid, bc in leaf_bcs.items():
            res.append(x[ip[vid]] - bc.r * x[iq[vid]] - bc.pd)
        return res

    x0 = np.zeros(2 * nv)
    x0[:nv] = inflow
    sol = scipy.optimize.root(equations, x0, method="hybr", tol=1e-14)
    # hybr can report "not making progress" once it hits roundoff on stiff
    # (large-resistance) systems; accept any root with a tiny scaled residual
    res = np.abs(equations(sol.x))
    scale = max(1.0, float(np.max(np.abs(sol.x))))
    assert sol.success or float(np.max(res)) / scale < 1e-10, sol.message
    flows = {vid: sol.x[iq[vid]] for vid in vids}
    pressures = {vid: sol.x[ip[vid]] for vid in vids}
    return flows, pressures


@pytest.fixture(scope="session")
def small_cohort():
    """60-junction oracle cohort shared by training-dependent tests."""
    from vascrom.datagen import build_cohort

    dataset, manifest = build_cohort(n=60, seed=7)
    return dataset, manifest


@pytest.fixture(scope="session")
def trained_bundle(small_cohort):
    """Models trained on the small cohort with a legitimate early stop."""
    from vascrom.mlp import ModelBundle, TrainingConfig, train_models

    dataset, _ = small_cohort
    models, report = train_models(
        dataset, config=TrainingConfig(seed=3, stop_val_mse=0.02)
    )
    return ModelBundle.from_training(dataset, models), report
