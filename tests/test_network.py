import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import leaf_bcs, make_single_vessel, random_shape_tree
from vascrom.network import (
    BoundaryCondition,
    ConnectivityError,
    Fluid,
    InvalidGeometryError,
    Junction,
    JunctionOutlet,
    NO_BRANCH_FRACTION,
    SchemaError,
    VascularNetwork,
    Vessel,
    apply_bifurcation_definition,
    generate_symmetric_tree,
    load_network,
    network_from_dict,
    network_to_dict,
    poiseuille_elements,
    save_network,
    stenosis_resistance,
)

FLUID = Fluid()


# -- element formulas ------------------------------------------------------


def test_poiseuille_reference_values():
    r, l = poiseuille_elements(1.0, 1.0, FLUID)
    assert r == pytest.approx(1.0053096491487339, rel=1e-12)
    assert l == pytest.approx(1.06, rel=1e-12)


def test_poiseuille_area_scaling():
    r, l = poiseuille_elements(1.0, 2.0, FLUID)
    assert r == pytest.approx(0.25132741228718347, rel=1e-12)
    assert l == pytest.approx(0.53, rel=1e-12)


def test_poiseuille_rejects_nonpositive():
    with pytest.raises(InvalidGeometryError):
        poiseuille_elements(0.0, 1.0, FLUID)
    with pytest.raises(InvalidGeometryError):
        poiseuille_elements(1.0, -1.0, FLUID)


@given(
    l=st.floats(0.01, 100.0),
    a=st.floats(0.01, 100.0),
    k=st.floats(0.1, 10.0),
)
def test_poiseuille_exact_scaling_property(l, a, k):
    r1, l1 = poiseuille_elements(l, a, FLUID)
    r2, l2 = poiseuille_elements(k * l, a, FLUID)
    assert r2 == pytest.approx(k * r1, rel=1e-12)
    assert l2 == pytest.approx(k * l1, rel=1e-12)
    r3, l3 = poiseuille_elements(l, k * a, FLUID)
    assert r3 == pytest.approx(r1 / k**2, rel=1e-12)
    assert l3 == pytest.approx(l1 / k, rel=1e-12)


def test_stenosis_no_constriction_is_zero():
    assert stenosis_resistance(1.0, 1.0, 1.52, 1.06) == 0.0


def test_stenosis_reference_values():
    assert stenosis_resistance(2.0, 1.0, 1.0, 1.06) == pytest.approx(0.1325, rel=1e-12)
    assert stenosis_resistance(1.0, 0.5, 1.52, 1.06) == pytest.approx(0.8056, rel=1e-12)


def test_stenosis_rejects_bad_areas():
    with pytest.raises(InvalidGeometryError):
        stenosis_resistance(1.0, 2.0, 1.52, 1.06)
    with pytest.raises(InvalidGeometryError):
        stenosis_resistance(1.0, 0.0, 1.52, 1.06)


# -- length correction -----------------------------------------------------


def _length_correction(trained_bundle, lam, l_c):
    """predict_network's length-correction report for an outlet of unit area
    and attributed length lam * l_c behind an inlet of radius l_c, with the
    trained lambda range set to [15, 41]."""
    from vascrom.flowsplit import estimate_flow_splits
    from vascrom.mlp import predict_network

    bundle = copy.deepcopy(trained_bundle[0])
    bundle.feature_ranges["lam_self"] = (15.0, 41.0)
    vessels = {
        "v0": Vessel(id="v0", length=1.0, area=math.pi * l_c**2),
        "v1": Vessel(id="v1", length=lam * l_c, area=1.0),
        "v2": Vessel(id="v2", length=lam * l_c, area=1.0),
    }
    junction = Junction(id="j0", inlet_vessel="v0", outlets=[
        JunctionOutlet(vessel_id="v1", angle=0.5), JunctionOutlet(vessel_id="v2", angle=0.5),
    ])
    bcs = [
        BoundaryCondition(vessel_id="v0", kind="FLOW", value=1.0),
        BoundaryCondition(vessel_id="v1", kind="RESISTANCE", r=100.0),
        BoundaryCondition(vessel_id="v2", kind="RESISTANCE", r=100.0),
    ]
    # full_branch: the whole outlet is attributed, so no residual segment
    net = apply_bifurcation_definition(VascularNetwork(
        fluid=FLUID, vessels=vessels, junctions=[junction], boundary_conditions=bcs,
        bifurcation_definition="full_branch",
    ))
    estimate_flow_splits(net)
    report = predict_network(bundle, net)[0]
    assert report["lambda"] == lam
    return report["length_correction"]


def test_length_correction_in_range_is_zero(trained_bundle):
    assert _length_correction(trained_bundle, 20.0, 1.0) == {"delta_r": 0.0, "delta_l": 0.0}


def test_length_correction_above_max(trained_bundle):
    c = _length_correction(trained_bundle, 42.0, 1.0)
    assert c["delta_r"] == pytest.approx(1.0053096491487339, rel=1e-12)
    assert c["delta_l"] == pytest.approx(1.06, rel=1e-12)


def test_length_correction_below_min_is_negative(trained_bundle):
    c = _length_correction(trained_bundle, 14.5, 2.0)
    # l_add = -0.5 * 2 = -1
    assert c["delta_r"] == pytest.approx(-1.0053096491487339, rel=1e-12)
    assert c["delta_l"] == pytest.approx(-1.06, rel=1e-12)


# -- symmetric tree generator ----------------------------------------------


def test_tree_depth_zero_single_vessel():
    net = generate_symmetric_tree(depth=0)
    assert len(net.vessels) == 1
    assert len(net.junctions) == 0


def test_tree_depth_one_murray_radius():
    net = generate_symmetric_tree(depth=1, inlet_radius=1.0)
    children = [v for vid, v in net.vessels.items() if vid != "v"]
    assert len(children) == 2
    for v in children:
        assert v.radius == pytest.approx(0.7937005259840998, rel=1e-12)


def test_tree_depth_five_counts():
    net = generate_symmetric_tree(depth=5)
    assert len(net.junctions) == 31
    assert len(leaf_bcs(net)) == 32
    assert len(net.vessels) == 63


def test_tree_murray_outlet_area_exceeds_inlet():
    net = generate_symmetric_tree(depth=3, murray_exponent=3.0)
    for j in net.junctions:
        a_in = net.vessels[j.inlet_vessel].area
        a_out = sum(net.vessels[o.vessel_id].area for o in j.outlets)
        assert a_out > a_in


def test_tree_rejects_bad_args():
    with pytest.raises(InvalidGeometryError):
        generate_symmetric_tree(depth=-1)
    with pytest.raises(InvalidGeometryError):
        generate_symmetric_tree(depth=1, inlet_radius=0.0)


# -- bifurcation definitions -----------------------------------------------


@pytest.mark.parametrize(
    "definition,frac",
    [("no_branch", NO_BRANCH_FRACTION), ("partial_branch", 0.9), ("full_branch", 1.0)],
)
def test_bifurcation_definition_partition(definition, frac):
    net = generate_symmetric_tree(depth=2, bifurcation_definition=definition)
    for j in net.junctions:
        for o in j.outlets:
            total = net.vessels[o.vessel_id].length
            assert o.attributed_length == pytest.approx(frac * total, rel=1e-12)
            assert o.attributed_length + o.residual_length == pytest.approx(
                total, rel=1e-12
            )


def test_full_branch_residual_zero():
    net = generate_symmetric_tree(depth=1, bifurcation_definition="full_branch")
    for j in net.junctions:
        for o in j.outlets:
            assert o.residual_length == 0.0


# -- validation ------------------------------------------------------------


def _net_dict_single():
    return {
        "fluid": {"mu": 0.04, "rho": 1.06},
        "vessels": [{"id": "v0", "length": 1.0, "area": 1.0}],
        "junctions": [],
        "boundary_conditions": [
            {"vessel_id": "v0", "kind": "FLOW", "value": 10.0},
            {"vessel_id": "v0", "kind": "RESISTANCE", "value": {"R": 100.0}},
        ],
    }


def test_load_minimal_single_vessel(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_net_dict_single()))
    net = load_network(path)
    assert len(net.vessels) == 1
    assert len(net.junctions) == 0
    assert net.inflow_bc.steady_flow() == 10.0


def test_unknown_vessel_reference_is_connectivity_error():
    data = _net_dict_single()
    data["vessels"] += [
        {"id": "v1", "length": 1.0, "area": 0.5},
        {"id": "v2", "length": 1.0, "area": 0.5},
    ]
    data["junctions"] = [
        {
            "id": "j0",
            "inlet_vessel": "v0",
            "outlet_vessels": ["v1", "missing"],
            "angles": [0.5, 0.5],
        }
    ]
    with pytest.raises(ConnectivityError, match="missing"):
        network_from_dict(data)


def test_missing_inflow_bc_rejected():
    data = _net_dict_single()
    data["boundary_conditions"] = [
        {"vessel_id": "v0", "kind": "RESISTANCE", "value": {"R": 100.0}}
    ]
    with pytest.raises(ConnectivityError, match="inflow"):
        network_from_dict(data)


def test_duplicate_vessel_ids_rejected():
    data = _net_dict_single()
    data["vessels"].append({"id": "v0", "length": 2.0, "area": 1.0})
    with pytest.raises(SchemaError, match="duplicate"):
        network_from_dict(data)


def test_vessel_stored_under_another_id_rejected():
    """network_to_dict writes each Vessel.id, so a key that differs from it
    would save a file that network_from_dict rejects."""
    with pytest.raises(SchemaError, match="vessel 'b' is stored under the key 'a'"):
        VascularNetwork(
            fluid=FLUID,
            vessels={"a": Vessel(id="b", length=1.0, area=1.0)},
            junctions=[],
            boundary_conditions=[
                BoundaryCondition(vessel_id="a", kind="FLOW", value=1.0),
                BoundaryCondition(vessel_id="a", kind="RESISTANCE", r=100.0),
            ],
        )


def test_dangling_vessel_rejected():
    data = _net_dict_single()
    data["vessels"].append({"id": "v9", "length": 1.0, "area": 1.0})
    with pytest.raises(ConnectivityError):
        network_from_dict(data)


def test_vessel_feeding_two_junctions_rejected():
    data = _net_dict_single()
    data["vessels"] += [{"id": f"v{k}", "length": 1.0, "area": 0.5} for k in range(1, 5)]
    data["junctions"] = [
        {"id": "j0", "inlet_vessel": "v0", "outlet_vessels": ["v1", "v2"],
         "angles": [0.5, 0.5]},
        {"id": "j1", "inlet_vessel": "v0", "outlet_vessels": ["v3", "v4"],
         "angles": [0.5, 0.5]},
    ]
    data["boundary_conditions"] = [data["boundary_conditions"][0]] + [
        {"vessel_id": f"v{k}", "kind": "RESISTANCE", "value": {"R": 100.0}}
        for k in range(1, 5)
    ]
    with pytest.raises(ConnectivityError, match="vessel v0 feeds two junctions: j0 and j1"):
        network_from_dict(data)


def test_invalid_json_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vessels": [')
    with pytest.raises(SchemaError, match="byte"):
        load_network(path)


def test_junction_requires_two_outlets():
    with pytest.raises(ConnectivityError, match="two outlets"):
        Junction(
            id="j0",
            inlet_vessel="v0",
            outlets=[JunctionOutlet(vessel_id="v1", angle=0.5)],
        )


def test_flow_splits_must_sum_to_one():
    with pytest.raises(InvalidGeometryError, match="sum to 1"):
        Junction(
            id="j0",
            inlet_vessel="v0",
            outlets=[
                JunctionOutlet(vessel_id="v1", angle=0.5, flow_split=0.6),
                JunctionOutlet(vessel_id="v2", angle=0.5, flow_split=0.6),
            ],
        )


def test_two_junction_fixture_roundtrip(tmp_path):
    net = generate_symmetric_tree(depth=2)
    path = tmp_path / "tree.json"
    save_network(net, path)
    back = load_network(path)
    assert set(back.vessels) == set(net.vessels)
    assert len(back.junctions) == len(net.junctions)
    for v1, v2 in zip(
        sorted(net.vessels.values(), key=lambda v: v.id),
        sorted(back.vessels.values(), key=lambda v: v.id),
    ):
        assert v2.length == pytest.approx(v1.length, rel=1e-15)
        assert v2.area == pytest.approx(v1.area, rel=1e-15)


def test_roundtrip_preserves_splits_and_coefficients(tmp_path):
    from tests.conftest import make_single_junction, rri_coeffs

    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    o = back.junctions[0].outlets[0]
    assert o.flow_split == 0.5
    assert o.coefficients.r_lin == 1.0
    assert o.coefficients.r_quad == 0.01
    assert o.coefficients.l == 0.5


def test_junction_depth():
    net = generate_symmetric_tree(depth=3)
    depths = sorted(net.topology.depth.tolist())
    assert depths == [0, 1, 1, 2, 2, 2, 2]


TOPOLOGY_TREES = {  # test id -> a function that makes the tree
    **{str(seed): lambda seed=seed: random_shape_tree(seed) for seed in range(11)},
    **{f"sym{depth}": lambda depth=depth: generate_symmetric_tree(depth=depth)
       for depth in range(7)},
    "unbalanced_v127": lambda: load_network(Path(__file__).parent / "data" / "unbalanced_v127.json"),
    "stenosis": lambda: make_single_vessel(stenosis_area=0.3, kt=1.2),
}


@pytest.mark.parametrize("tree", TOPOLOGY_TREES)
def test_topology_of_random_shape_trees(tree):
    """The topology's arrays against a walk of ``network.junctions`` and the
    vessels' own element methods, bit for bit; none of them takes a write."""
    net = TOPOLOGY_TREES[tree]()
    topo = net.topology
    ids = list(topo.vessel_ids)
    assert ids == sorted(net.vessels)
    # ancestors are counted from the junction list alone
    parent_of = {o.vessel_id: j for j in net.junctions for o in j.outlets}

    def ancestors(vid):
        n = 0
        while vid in parent_of:
            n, vid = n + 1, parent_of[vid].inlet_vessel
        return n

    for k, j in enumerate(net.junctions):
        assert ids[topo.inlet[k]] == j.inlet_vessel
        assert [ids[i] for i in topo.outlets[k]] == [o.vessel_id for o in j.outlets]
        assert topo.depth[k] == ancestors(j.inlet_vessel)
    # the stored depth levels: every junction at each depth, ascending
    assert isinstance(topo.levels, tuple)
    assert len(topo.levels) == topo.depth.max(initial=-1) + 1
    for d, js in enumerate(topo.levels):
        assert js.tolist() == np.flatnonzero(topo.depth == d).tolist()
    if tree.isdigit():  # leaves at mixed depths, junctions not in state order
        assert len({ancestors(v) for v in leaf_bcs(net)}) > 1
        assert topo.inlet.tolist() != sorted(topo.inlet.tolist())

    elements = [(*v.elements(net.fluid), v.stenosis_r(net.fluid), v.capacitance)
                for v in map(net.vessels.get, ids)]
    assert topo.elements.tobytes() == np.array(elements, dtype=float).tobytes()
    for array in (topo.inlet, topo.outlets, topo.depth, topo.elements, *topo.levels):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@given(depth=st.integers(0, 4), exponent=st.floats(2.0, 4.0))
@settings(max_examples=20, deadline=None)
def test_generated_trees_always_validate(depth, exponent):
    net = generate_symmetric_tree(depth=depth, murray_exponent=exponent)
    net.validate()  # would raise on any inconsistency
    assert len(leaf_bcs(net)) == 2**depth


def test_steady_inflow_restores_boundary_conditions_on_error():
    net = generate_symmetric_tree(depth=1, inflow=100.0)
    original = net.boundary_conditions
    with pytest.raises(RuntimeError):
        with net.steady_inflow(7.0):
            assert net.inflow_bc.steady_flow() == 7.0
            raise RuntimeError("solve failed")
    assert net.boundary_conditions is original
    assert net.inflow_bc.steady_flow() == 100.0
