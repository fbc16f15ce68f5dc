import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vascrom.flowsplit import (
    FlowSplitError,
    UnsupportedConfigurationError,
    ensure_flow_splits,
    estimate_flow_splits,
    write_split_report,
)
from vascrom.network import (
    BoundaryCondition,
    Fluid,
    Junction,
    JunctionOutlet,
    VascularNetwork,
    Vessel,
    generate_symmetric_tree,
    network_from_dict,
    network_to_dict,
)
from vascrom.solver import solve_steady_standard
from tests.conftest import leaf_bcs, random_shape_tree

FLUID = Fluid()
# l such that a unit-area vessel has Poiseuille resistance exactly R
_L_PER_R = 1.0 / (8.0 * math.pi * FLUID.mu)


def _vessel(vid, r_target, area=1.0):
    """Vessel whose Poiseuille resistance is exactly r_target."""
    return Vessel(id=vid, length=_L_PER_R * r_target * area**2, area=area)


def _junction_net(r_v0, r_v1, r_v2, bc_r1, bc_r2, inflow=100.0, pd=0.0):
    vessels = {
        "v0": _vessel("v0", r_v0),
        "v1": _vessel("v1", r_v1),
        "v2": _vessel("v2", r_v2),
    }
    outlets = [
        JunctionOutlet(vessel_id="v1", angle=0.5),
        JunctionOutlet(vessel_id="v2", angle=0.5),
    ]
    bcs = [
        BoundaryCondition(vessel_id="v0", kind="FLOW", value=inflow),
        BoundaryCondition(vessel_id="v1", kind="RESISTANCE", r=bc_r1, pd=pd),
        BoundaryCondition(vessel_id="v2", kind="RESISTANCE", r=bc_r2, pd=pd),
    ]
    return VascularNetwork(fluid=FLUID, vessels=vessels,
                           junctions=[Junction(id="j0", inlet_vessel="v0",
                                               outlets=outlets)],
                           boundary_conditions=bcs)


# -- effective resistance --------------------------------------------------


def test_leaf_series_sum():
    # an outlet vessel of 10 ending in a BC of 90
    net = _junction_net(5.0, 10.0, 50.0, 90.0, 150.0)
    assert estimate_flow_splits(net).resistances["v1"] == pytest.approx(100.0, rel=1e-12)


def test_parallel_of_identical_subtrees():
    # outlet v0 of 10 feeds two child subtrees of 200 each (child vessel 50 +
    # BC 150): 10 + (1/200 + 1/200)^-1 = 110
    vessels = {vid: _vessel(vid, r) for vid, r in
               (("v", 1.0), ("w", 1.0), ("v0", 10.0), ("v1", 50.0), ("v2", 50.0))}
    junctions = [
        Junction(id="jv", inlet_vessel="v", outlets=[
            JunctionOutlet(vessel_id="v0", angle=0.5), JunctionOutlet(vessel_id="w", angle=0.5)]),
        Junction(id="j0", inlet_vessel="v0", outlets=[
            JunctionOutlet(vessel_id="v1", angle=0.5), JunctionOutlet(vessel_id="v2", angle=0.5)]),
    ]
    bcs = [BoundaryCondition(vessel_id="v", kind="FLOW", value=1.0)] + [
        BoundaryCondition(vessel_id=vid, kind="RESISTANCE", r=r)
        for vid, r in (("w", 1.0), ("v1", 150.0), ("v2", 150.0))
    ]
    net = VascularNetwork(fluid=FLUID, vessels=vessels, junctions=junctions,
                          boundary_conditions=bcs)
    assert estimate_flow_splits(net).resistances["v0"] == pytest.approx(110.0, rel=1e-12)


def test_depth_two_matches_hand_ladder_reduction():
    net = generate_symmetric_tree(depth=2)
    feeds = {j.inlet_vessel: j for j in net.junctions}

    def hand(vid):
        r_v, _ = net.vessels[vid].elements(net.fluid)
        j = feeds.get(vid)
        if j is None:
            return r_v + leaf_bcs(net)[vid].r
        r1 = hand(j.outlets[0].vessel_id)
        r2 = hand(j.outlets[1].vessel_id)
        return r_v + r1 * r2 / (r1 + r2)

    resistances = estimate_flow_splits(net).resistances
    # every vessel but the root is a junction outlet
    assert set(resistances) == set(net.vessels) - {"v"}
    for vid, r in resistances.items():
        assert r == pytest.approx(hand(vid), rel=1e-12)


def test_effective_resistance_requires_resistance_leaves():
    # temporarily strip the leaf BC after construction to exercise the guard
    net = _junction_net(10.0, 50.0, 50.0, 150.0, 150.0)
    net.boundary_conditions = [
        bc for bc in net.boundary_conditions if bc.vessel_id != "v2"
    ]
    with pytest.raises(UnsupportedConfigurationError, match="v2"):
        estimate_flow_splits(net)


def test_effective_resistance_monotone_in_leaf_bc():
    base = generate_symmetric_tree(depth=3)
    r0 = estimate_flow_splits(base).resistances
    for leaf in leaf_bcs(base):
        data = network_to_dict(base)
        for bc in data["boundary_conditions"]:
            if bc["kind"] == "RESISTANCE" and bc["vessel_id"] == leaf:
                bc["value"]["R"] *= 3.0
        bumped = estimate_flow_splits(network_from_dict(data)).resistances
        assert all(bumped[vid] >= r for vid, r in r0.items())
        assert bumped[leaf] > r0[leaf]


# -- split estimation ------------------------------------------------------


def test_symmetric_junction_is_half():
    net = _junction_net(10.0, 50.0, 50.0, 150.0, 150.0)
    est = estimate_flow_splits(net)
    assert est.splits["j0"] == (0.5, 0.5)
    assert net.junctions[0].outlets[0].flow_split == 0.5


def test_three_to_one_resistance_ratio():
    # subtree resistances 3e5 and 1e5 -> phi_1 = 1e5/(4e5) = 0.25
    net = _junction_net(10.0, 1e4, 2e4, 3e5 - 1e4, 1e5 - 2e4)
    est = estimate_flow_splits(net)
    assert est.splits["j0"][0] == pytest.approx(0.25, rel=1e-12)
    assert est.splits["j0"][1] == pytest.approx(0.75, rel=1e-12)
    assert est.resistances["v1"] == pytest.approx(3e5, rel=1e-12)
    assert est.resistances["v2"] == pytest.approx(1e5, rel=1e-12)


def _random_asymmetric_tree(depth, seed):
    rng = np.random.default_rng(seed)
    data = network_to_dict(generate_symmetric_tree(depth=depth))
    for v in data["vessels"]:
        v["length"] *= rng.uniform(0.5, 2.0)
        v["area"] *= rng.uniform(0.7, 1.4)
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "RESISTANCE":
            bc["value"]["R"] *= rng.uniform(0.3, 3.0)
    return network_from_dict(data)


@pytest.mark.parametrize(
    "make_net",
    [pytest.param(partial(_random_asymmetric_tree, d, seed=d), id=str(d)) for d in range(1, 7)]
    + [pytest.param(partial(random_shape_tree, s), id=f"random-{s}") for s in range(1, 6)],
)
def test_estimate_matches_linear_solver_splits(make_net):
    """On resistor-only trees the resistance-ratio estimate is exact."""
    net = make_net()
    est = estimate_flow_splits(net)
    sol = solve_steady_standard(net)
    for j in net.junctions:
        q_parent = sol.q(j.inlet_vessel, "out")[0]
        phi_solved = sol.q(j.outlets[0].vessel_id, "in")[0] / q_parent
        assert est.splits[j.id][0] == pytest.approx(phi_solved, abs=1e-10)


def test_estimate_independent_of_inflow():
    data = network_to_dict(_random_asymmetric_tree(3, seed=42))
    splits = []
    for q_in in (1.0, 100.0, -7.5):
        for bc in data["boundary_conditions"]:
            if bc["kind"] == "FLOW":
                bc["value"] = q_in
        est = estimate_flow_splits(network_from_dict(data))
        splits.append(est.splits)
    assert splits[0] == splits[1] == splits[2]


def test_nonzero_distal_pressure_rejected():
    net = _junction_net(10.0, 50.0, 50.0, 150.0, 150.0, pd=500.0)
    with pytest.raises(UnsupportedConfigurationError, match="distal"):
        estimate_flow_splits(net)


@given(bump=st.floats(1.0, 50.0))
@settings(max_examples=25, deadline=None)
def test_raising_one_branch_resistance_shifts_flow_away(bump):
    net = _junction_net(10.0, 50.0, 50.0, 150.0 * bump, 150.0)
    est = estimate_flow_splits(net)
    phi1, phi2 = est.splits["j0"]
    assert phi1 <= 0.5 + 1e-12
    assert phi1 + phi2 == pytest.approx(1.0, abs=1e-15)


def test_ensure_flow_splits_estimates_only_when_one_is_missing():
    net = generate_symmetric_tree(depth=2)
    for j in net.junctions:
        for o in j.outlets:
            o.flow_split = 0.25
    ensure_flow_splits(net)
    assert all(o.flow_split == 0.25 for j in net.junctions for o in j.outlets)
    net.junctions[-1].outlets[1].flow_split = None
    ensure_flow_splits(net)
    assert all(o.flow_split == 0.5 for j in net.junctions for o in j.outlets)


def test_split_report_file(tmp_path):
    net = _random_asymmetric_tree(2, seed=0)
    est = estimate_flow_splits(net)
    path = tmp_path / "splits.json"
    write_split_report(est, path)
    import json

    data = json.loads(path.read_text())
    ids = {row["id"] for row in data["junctions"]}
    assert ids == {j.id for j in net.junctions}
    for row in data["junctions"]:
        assert row["phi_1"] + row["phi_2"] == pytest.approx(1.0, abs=1e-12)
