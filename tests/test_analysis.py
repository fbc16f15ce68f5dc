import json
import math

import numpy as np
import pytest

from tests.conftest import make_single_junction, make_single_vessel, random_shape_tree, rri_coeffs
from vascrom.analysis import (
    AnalysisError,
    depth_statistics,
    fit_tree_coefficients,
    impedance,
    pressure_error,
    resolve_with_fits,
    write_impedance_csv,
)
from vascrom.flowsplit import estimate_flow_splits
from vascrom.network import (
    MMHG_TO_BA,
    BoundaryCondition,
    Fluid,
    Vessel,
    VascularNetwork,
    generate_symmetric_tree,
)
from vascrom.nondim import CoefficientSet
from vascrom.solver import SolverConfig, solve_opt, solve_steady_standard, solve_transient_standard


def _grid(period=1.0, n=256, n_periods=1):
    dt = period / n
    t = dt * np.arange(n * n_periods)
    return t, dt


# -- impedance -------------------------------------------------------------


def test_pure_resistor_impedance():
    t, dt = _grid()
    q = 10.0 + 3.0 * np.sin(2 * np.pi * t) + 1.5 * np.cos(6 * np.pi * t)
    dp = 100.0 * q
    spec = impedance(q, dp, period=1.0, dt=dt)
    assert np.allclose(spec.magnitude, 100.0, rtol=1e-9)
    assert np.max(np.abs(spec.phase)) < 1e-6


def test_series_rl_closed_form():
    t, dt = _grid(n=1024)
    q = 5.0 + 2.0 * np.sin(2 * np.pi * t) + 1.0 * np.sin(4 * np.pi * t)
    qdot = (
        2.0 * 2 * np.pi * np.cos(2 * np.pi * t)
        + 1.0 * 4 * np.pi * np.cos(4 * np.pi * t)
    )
    dp = 2.0 * q + 0.5 * qdot
    spec = impedance(q, dp, period=1.0, dt=dt)
    for om, z in zip(spec.omega, spec.z):
        # tiny mismatch from the discrete (sampled) Fourier transform
        assert z == pytest.approx(2.0 + 0.5j * om, rel=1e-3)
    assert np.all(np.diff(spec.phase) > 0)
    assert np.all(spec.phase[spec.omega > 0] > 0)


def test_unit_transfer_at_driven_harmonic():
    t, dt = _grid()
    q = np.sin(2 * np.pi * t)  # zero-mean: only the fundamental is retained
    spec = impedance(q, q, period=1.0, dt=dt)
    assert spec.omega.tolist() == [2 * np.pi]
    assert spec.z[0] == pytest.approx(1.0, rel=1e-12)


def test_impedance_rejects_partial_period():
    t, dt = _grid()
    q = 1.0 + np.sin(2 * np.pi * t)
    with pytest.raises(AnalysisError, match="period"):
        impedance(q[:200], q[:200], period=1.0, dt=dt)


def test_impedance_rejects_zero_flow():
    t, dt = _grid()
    with pytest.raises(AnalysisError, match="zero"):
        impedance(np.zeros(t.size), np.ones(t.size), period=1.0, dt=dt)


@pytest.mark.parametrize("period", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_impedance_rejects_bad_period(period):
    t, dt = _grid()
    q = 4.0 + np.sin(2 * np.pi * t)
    with pytest.raises(AnalysisError, match="period must be finite and > 0"):
        impedance(q, 3.0 * q, period=period, dt=dt)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_impedance_rejects_bad_time_step(dt):
    q = 4.0 + np.sin(np.linspace(0.0, 6.0, 20))
    with pytest.raises(AnalysisError, match=f"^dt must be finite and > 0, got {dt}$"):
        impedance(q, 3.0 * q, period=1.0, dt=dt)


@pytest.mark.parametrize("period", [1e8, 1e300])
def test_impedance_rejects_a_series_shorter_than_one_period(period):
    # 20 samples 0.01 apart are within 1e-6 of 0 periods, not of 1
    q = 4.0 + np.sin(np.linspace(0.0, 6.0, 20))
    with pytest.raises(AnalysisError, match=r"^series duration 0\.2 holds no whole period of "):
        impedance(q, 3.0 * q, period=period, dt=0.01)


def test_impedance_multi_period_series():
    t, dt = _grid(n=128, n_periods=3)
    q = 4.0 + np.sin(2 * np.pi * t)
    spec = impedance(q, 7.0 * q, period=1.0, dt=dt)
    assert np.allclose(spec.magnitude, 7.0, rtol=1e-9)
    assert 2 * np.pi in [pytest.approx(om) for om in spec.omega]


def test_impedance_linearity_across_excitations():
    """A linear time-invariant discrete system shows the same Z regardless
    of which (multi-)harmonic excitation probes it."""
    period = 0.08
    m = 80
    dt = period / m

    def solve(q_fn):
        ts = dt * np.arange(2 * m + 1)
        vessels = {"v0": Vessel(id="v0", length=2.0, area=0.8, capacitance=0.0)}
        bcs = [
            BoundaryCondition(vessel_id="v0", kind="FLOW", value=(ts, q_fn(ts))),
            BoundaryCondition(vessel_id="v0", kind="RESISTANCE", r=200.0),
        ]
        net = VascularNetwork(fluid=Fluid(), vessels=vessels, junctions=[],
                              boundary_conditions=bcs)
        sol = solve_transient_standard(
            net, SolverConfig(mode="transient", dt=dt, n_steps=2 * m)
        )
        # drop the (differently initialized) t=0 sample: 2 exact periods remain
        return sol.q("v0")[1:], sol.inlet_pressure[1:]

    w = 2 * np.pi / period
    qa, pa = solve(lambda t: 30.0 * (1 - np.cos(w * t)))
    qb, pb = solve(lambda t: 10.0 * (1 - np.cos(w * t)) + 5.0 * (1 - np.cos(2 * w * t)))
    za = impedance(qa, pa, period=period, dt=dt)
    zb = impedance(qb, pb, period=period, dt=dt)
    common = set(np.round(za.omega, 9)) & set(np.round(zb.omega, 9))
    assert len(common) >= 2
    for om in common:
        ia = int(np.argmin(np.abs(za.omega - om)))
        ib = int(np.argmin(np.abs(zb.omega - om)))
        assert abs(za.z[ia] - zb.z[ib]) / abs(za.z[ia]) < 1e-6


def test_impedance_csv(tmp_path):
    t, dt = _grid()
    q = 1.0 + np.sin(2 * np.pi * t)
    spec = impedance(q, 5.0 * q, period=1.0, dt=dt)
    path = tmp_path / "z.csv"
    write_impedance_csv(spec, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "omega,re,im,mag,phase"
    assert len(rows) == 1 + spec.omega.size


# -- pressure error --------------------------------------------------------


def test_pressure_error_identical_is_zero():
    sol = solve_steady_standard(make_single_vessel())
    err = pressure_error(sol, sol)
    assert err["absolute_mmhg"] == 0.0
    assert err["relative"] == 0.0


def test_pressure_error_unit_conversion():
    sol = solve_steady_standard(make_single_vessel())
    shifted = solve_steady_standard(make_single_vessel())
    shifted.states = shifted.states.copy()
    shifted.states[:, shifted.index("v0", "p_in")] += MMHG_TO_BA
    err = pressure_error(shifted, sol)
    assert err["absolute_mmhg"] == pytest.approx(1.0, rel=1e-12)


def test_pressure_error_zero_reference_range():
    sol = solve_steady_standard(make_single_vessel(inflow=0.0))
    with pytest.raises(AnalysisError, match="zero"):
        pressure_error(sol, sol)


def test_pressure_error_grid_mismatch():
    net = make_single_vessel()
    steady = solve_steady_standard(net)
    trans = solve_transient_standard(
        net, SolverConfig(mode="transient", dt=1e-3, n_steps=4)
    )
    with pytest.raises(AnalysisError, match="grid"):
        pressure_error(trans, steady)


# -- depth statistics ------------------------------------------------------


def test_depth_statistics_symmetric_closed_forms():
    net = generate_symmetric_tree(depth=3, murray_exponent=3.0)
    sol = solve_steady_standard(net)
    stats = depth_statistics(net, sol)
    assert min(rec["depth"] for rec in stats) == 0
    for rec in stats:
        d = rec["depth"]
        assert rec["normalized_flow"] == pytest.approx(2.0 ** (-d), rel=1e-9)
        assert rec["normalized_re"] == pytest.approx(
            2.0 ** (-2.0 * d / 3.0), rel=1e-9
        )


def test_depth_statistics_against_self_reference():
    net = generate_symmetric_tree(depth=2)
    sol = solve_steady_standard(net)
    stats = depth_statistics(net, sol, reference=sol)
    for rec in stats:
        assert rec["pressure_error_mmhg"] == 0.0
        for v in rec["resistance_error"].values():
            assert v == 0.0


def _depth_statistics_reference(net, x, xr):
    """depth_statistics of the last states x and xr (the reference), one
    junction and one scalar at a time, each value read by vessel id."""
    ids, fluid, nan = sorted(net.vessels), net.fluid, float("nan")
    parent = {o.vessel_id: j.inlet_vessel for j in net.junctions for o in j.outlets}

    def at(state, vid, quantity):
        return float(state[4 * ids.index(vid) + ("p_in", "p_out", "q_in").index(quantity)])

    def ratio(a, b):
        return a / b if b != 0 else nan

    def re(vid):
        v = net.vessels[vid]
        return fluid.rho * (at(x, vid, "q_in") / v.area) * 2 * v.radius / fluid.mu

    def resistance(state, j, vid):
        return ratio(at(state, j.inlet_vessel, "p_out") - at(state, vid, "p_in"),
                     at(state, vid, "q_in"))

    root, records = net.inflow_bc.vessel_id, []
    for j in net.junctions:
        depth, vid = 0, j.inlet_vessel
        while vid in parent:
            depth, vid = depth + 1, parent[vid]
        outlets = [o.vessel_id for o in j.outlets]
        records.append({
            "junction": j.id,
            "depth": depth,
            "normalized_flow": ratio(at(x, j.inlet_vessel, "q_in"), at(x, root, "q_in")),
            "normalized_re": ratio(re(j.inlet_vessel), re(root)),
            "outlet_resistances": {v: resistance(x, j, v) for v in outlets},
            "pressure_error_mmhg": abs(at(x, j.inlet_vessel, "p_in")
                                       - at(xr, j.inlet_vessel, "p_in")) / MMHG_TO_BA,
            "resistance_error": {v: resistance(x, j, v) - resistance(xr, j, v)
                                 for v in outlets},
        })
    return records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_depth_statistics_of_asymmetric_trees_match_scalar_reference(seed):
    """Unbalanced trees with shuffled ids, an rri solution against a standard
    reference, one zero outlet flow in each (its resistance is NaN), and then
    a zero inflow (every normalized value is NaN)."""
    net = random_shape_tree(seed)
    estimate_flow_splits(net)
    rng = np.random.default_rng(seed)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = rri_coeffs(rng.uniform(50.0, 500.0), rng.uniform(0.0, 1.0), 0.0)
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    ref = solve_steady_standard(net)
    outlets = [o.vessel_id for j in net.junctions for o in j.outlets]
    pos = net.topology.position
    sol.states[-1, 4 * pos[outlets[0]] + 2] = 0.0
    ref.states[-1, 4 * pos[outlets[-1]] + 2] = 0.0
    for zero_root in (False, True):
        if zero_root:
            sol.states[-1, 4 * pos[net.inflow_bc.vessel_id] + 2] = 0.0
        got = depth_statistics(net, sol, reference=ref)
        want = _depth_statistics_reference(net, sol.states[-1], ref.states[-1])
        assert json.dumps(got) == json.dumps(want)
        nans = [math.isnan(rec[key]) for rec in got
                for key in ("normalized_flow", "normalized_re")]
        assert all(nans) if zero_root else not any(nans)
        resistances = [r for rec in got for r in rec["outlet_resistances"].values()]
        errors = [r for rec in got for r in rec["resistance_error"].values()]
        assert [math.isnan(r) for r in resistances] == [v == outlets[0] for v in outlets]
        assert [math.isnan(r) for r in errors] == [v in (outlets[0], outlets[-1])
                                                   for v in outlets]


# -- in-tree coefficient fitting -------------------------------------------


def _symmetric_coefficient_tree(depth=2, seed=0, quad_scale=0.02):
    """Symmetric tree with depth-uniform RRI junction coefficients.

    Coefficients must be equal across junctions at the same depth: sibling
    subtrees then present identical outlet pressures and the model admits an
    exact (zero-residual) solution with phi = 0.5 at every inflow."""
    rng = np.random.default_rng(seed)
    net = generate_symmetric_tree(depth=depth)
    by_depth = {
        d: CoefficientSet(
            kind="RRI",
            r_lin=rng.uniform(100.0, 400.0),
            r_quad=rng.uniform(0.5, 1.0) * quad_scale * 400.0,
            l=rng.uniform(0.1, 1.0),
        )
        for d in range(depth)
    }
    for j, d in zip(net.junctions, net.topology.depth):
        c = by_depth[d]
        for o in j.outlets:
            o.coefficients = c
            o.flow_split = 0.5
    return net


def _steady_sweep(net, inflows):
    from dataclasses import replace

    sols = []
    original = net.boundary_conditions
    for q in inflows:
        net.boundary_conditions = [
            BoundaryCondition(vessel_id=b.vessel_id, kind="FLOW", value=q)
            if b.kind == "FLOW"
            else b
            for b in original
        ]
        sols.append(solve_opt(net, SolverConfig(mode="steady"), engine="rri"))
    net.boundary_conditions = original
    return sols


def test_fit_recovers_rri_coefficients():
    net = _symmetric_coefficient_tree()
    inflows = [40.0, 80.0, 120.0, 160.0]
    sols = _steady_sweep(net, inflows)
    fits = fit_tree_coefficients(net, sols, mode="RRI")
    for j in net.junctions:
        for o in j.outlets:
            got = fits[(j.id, o.vessel_id)]
            assert got.r_lin == pytest.approx(o.coefficients.r_lin, rel=1e-8)
            assert got.r_quad == pytest.approx(o.coefficients.r_quad, rel=1e-8)


def test_two_point_sweep_hand_algebra():
    # dP = R1 Q + R2 Q^2 through (Q, dP) and (2Q, dP2):
    # R2 = (dP2 - 2 dP)/(2 Q^2), R1 = (dP - R2 Q^2)/Q
    net = make_single_junction(rri_coeffs(3.0, 0.05, 0.0), inflow=10.0)
    sols = _steady_sweep(net, [10.0, 20.0])
    fits = fit_tree_coefficients(net, sols, mode="RRI")
    q1 = 5.0
    dp1 = 3.0 * q1 + 0.05 * q1**2
    dp2 = 3.0 * 2 * q1 + 0.05 * (2 * q1) ** 2
    r2 = (dp2 - 2 * dp1) / (2 * q1**2)
    r1 = (dp1 - r2 * q1**2) / q1
    got = fits[("j0", "v1")]
    assert got.r_lin == pytest.approx(r1, rel=1e-8)
    assert got.r_quad == pytest.approx(r2, rel=1e-8)


def test_ri_fit_exact_on_linear_data():
    net = _symmetric_coefficient_tree(quad_scale=0.0)
    sols = _steady_sweep(net, [50.0, 100.0])
    fits = fit_tree_coefficients(net, sols, mode="RI")
    for j in net.junctions:
        for o in j.outlets:
            assert fits[(j.id, o.vessel_id)].r_lin == pytest.approx(
                o.coefficients.r_lin, rel=1e-7
            )


def test_fit_mode_and_count_validation():
    net = _symmetric_coefficient_tree()
    sols = _steady_sweep(net, [100.0])
    with pytest.raises(AnalysisError, match="mode"):
        fit_tree_coefficients(net, sols, mode="RLC")
    with pytest.raises(AnalysisError, match="at least 2"):
        fit_tree_coefficients(net, sols, mode="RRI")


def test_fit_rank_deficient_sweep():
    net = _symmetric_coefficient_tree()
    sols = _steady_sweep(net, [100.0, 100.0])  # identical flows: rank 1
    with pytest.raises(AnalysisError, match="rank"):
        fit_tree_coefficients(net, sols, mode="RRI")


def test_refit_resolve_error_ordering():
    """Fitted RRI coefficients re-solve the sweep essentially exactly, and at
    least as accurately as an RI fit of the same quadratic-bearing data."""
    inflows = [40.0, 80.0, 120.0, 160.0]
    net = _symmetric_coefficient_tree(seed=5)
    refs = _steady_sweep(net, inflows)
    rri_fits = fit_tree_coefficients(net, refs, mode="RRI")
    ri_fits = fit_tree_coefficients(net, refs, mode="RI")
    rri_rows = resolve_with_fits(
        _symmetric_coefficient_tree(seed=5), rri_fits, inflows, refs
    )
    ri_rows = resolve_with_fits(
        _symmetric_coefficient_tree(seed=5), ri_fits, inflows, refs
    )
    for rri_row, ri_row in zip(rri_rows, ri_rows):
        assert rri_row["relative"] <= 1e-6
        assert rri_row["relative"] <= ri_row["relative"] + 1e-12
    assert max(r["relative"] for r in ri_rows) > 1e-4  # RI misses the quadratic


def _random_tree_sweep(seed, inflows):
    """A random-shape tree with random RRI coefficients and estimated flow
    splits, and its steady rri solutions at each inflow."""
    from tests.conftest import random_shape_tree
    from vascrom.flowsplit import estimate_flow_splits

    rng = np.random.default_rng(seed)
    net = random_shape_tree(seed)
    estimate_flow_splits(net)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = rri_coeffs(rng.uniform(100.0, 400.0), rng.uniform(0.5, 8.0), 0.1)
    return net, _steady_sweep(net, inflows)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_fit_agrees_with_a_per_outlet_lstsq(seed):
    net, sols = _random_tree_sweep(seed, [20.0, 60.0, 110.0, 170.0])
    rri = fit_tree_coefficients(net, sols, mode="RRI")
    ri = fit_tree_coefficients(net, sols, mode="RI")
    for j in net.junctions:
        for o in j.outlets:
            q = np.array([s.q(o.vessel_id)[-1] for s in sols])
            dp = np.array([s.p(j.inlet_vessel, "out")[-1] - s.p(o.vessel_id)[-1] for s in sols])
            ref = np.linalg.lstsq(np.column_stack([q, q * np.abs(q)]), dp, rcond=None)[0]
            got = rri[(j.id, o.vessel_id)]
            assert [got.r_lin, got.r_quad] == pytest.approx(ref.tolist(), rel=1e-10)
            ref_ri = np.linalg.lstsq(q[:, None], dp, rcond=None)[0]
            assert ri[(j.id, o.vessel_id)].r_lin == pytest.approx(ref_ri[0], rel=1e-10)


@pytest.mark.parametrize("mode, flows, message", [
    ("RRI", 5.0, "rank-deficient sweep"),
    ("RI", 0.0, "zero-flow sweep"),
])
def test_tree_fit_names_the_junction_and_outlet_it_cannot_fit(mode, flows, message):
    """One outlet deep in the tree sees the same flow at every sweep point (a
    rank-deficient RRI fit) or no flow at all (no RI fit): the error names it."""
    net, sols = _random_tree_sweep(4, [20.0, 60.0, 110.0])
    j = net.junctions[-1]
    o = j.outlets[1]
    for s in sols:
        s.states = s.states.copy()
        s.states[:, s.index(o.vessel_id, "q_in")] = flows
    with pytest.raises(AnalysisError, match=f"^{message} for junction {j.id} outlet {o.vessel_id}$"):
        fit_tree_coefficients(net, sols, mode=mode)


def test_tree_fit_and_resolve_reject_a_network_without_junctions():
    net = make_single_vessel()
    sols = [solve_opt(net, SolverConfig(mode="steady"), engine="rri") for _ in range(2)]
    with pytest.raises(AnalysisError, match="^the network has no junction outlets to fit$"):
        fit_tree_coefficients(net, sols)
    with pytest.raises(AnalysisError, match="^the network has no junction outlets to fit$"):
        resolve_with_fits(net, {}, [10.0])


@pytest.mark.parametrize("kept,missing", [((), "v0"), (("v0",), "v1")],
                         ids=["empty", "without-v1"])
def test_resolve_names_the_first_outlet_without_a_fit(kept, missing):
    net = generate_symmetric_tree(depth=1)  # junction jv, outlets v0 and v1
    fits = {("jv", vid): rri_coeffs(1.0, 0.01, 0.0) for vid in kept}
    with pytest.raises(AnalysisError,
                       match=f"^junction jv: outlet {missing} has no fitted coefficients$"):
        resolve_with_fits(net, fits, [1.0])
