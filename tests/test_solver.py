import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from tests.conftest import (
    make_single_junction,
    make_single_vessel,
    newton_rri_reference,
    random_shape_tree,
    rri_coeffs,
)
from vascrom.network import (
    BoundaryCondition,
    Fluid,
    Junction,
    JunctionOutlet,
    VascularNetwork,
    Vessel,
    generate_symmetric_tree,
    load_network,
    network_from_dict,
    network_to_dict,
    poiseuille_elements,
)
from vascrom.nondim import CoefficientSet
from vascrom.solver import (
    P_IN,
    P_OUT,
    Q_IN,
    Q_OUT,
    ConvergenceError,
    Solution,
    SolverConfig,
    SolverError,
    VarIndex,
    assemble_standard_residual,
    export_solution,
    kkt_report,
    mass_conservation_error,
    solve_opt,
    solve_steady_standard,
    solve_transient_standard,
    _OptProblem,
    _StandardSystem,
)

FLUID = Fluid()
DATA = Path(__file__).parent / "data"


# -- config validation -----------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(SolverError, match="mode"):
        SolverConfig(mode="banana")


def test_config_rejects_bad_transient_grid():
    with pytest.raises(SolverError):
        SolverConfig(mode="transient", dt=0.0)
    with pytest.raises(SolverError):
        SolverConfig(mode="transient", n_steps=0)


def test_config_rejects_nonpositive_tolerances():
    with pytest.raises(SolverError):
        SolverConfig(newton_tol=0.0)


# -- standard engine residual and Jacobian ---------------------------------


def test_residual_vanishes_on_hand_solution():
    net = make_single_vessel(bc_r=100.0, inflow=10.0)
    idx = VarIndex(net)
    r_v, _ = net.vessels["v0"].elements(net.fluid)
    x = np.zeros(idx.n)
    x[idx("v0", "q_in")] = 10.0
    x[idx("v0", "q_out")] = 10.0
    x[idx("v0", "p_out")] = 1000.0
    x[idx("v0", "p_in")] = 1000.0 + r_v * 10.0
    res = assemble_standard_residual(net, x)
    assert np.max(np.abs(res)) < 1e-12


def test_jacobian_matches_finite_differences():
    net = generate_symmetric_tree(depth=2)
    # stenosis on one vessel exercises the quadratic terms too
    data = network_to_dict(net)
    data["vessels"][1]["stenosis_area"] = 0.5 * data["vessels"][1]["area"]
    net = network_from_dict(data)
    idx = VarIndex(net)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.5, 2.0, idx.n) * 100.0
    x_prev = x + rng.normal(scale=5.0, size=idx.n)
    system = _StandardSystem(net)
    res = system.residual(x, x_prev, 1e-3, 100.0)
    jac = system.jacobian(x, x_prev, 1e-3).toarray()
    eps = 1e-4
    for col in range(idx.n):
        xp = x.copy()
        xp[col] += eps
        rp = assemble_standard_residual(net, xp, x_prev, 1e-3, 100.0)
        xm = x.copy()
        xm[col] -= eps
        rm = assemble_standard_residual(net, xm, x_prev, 1e-3, 100.0)
        fd = (rp - rm) / (2 * eps)
        # relative to the row's own magnitude: cancellation in the central
        # difference is amplified by |res| on the stiff pressure rows
        scale = np.maximum(1.0, np.maximum(np.abs(jac[:, col]), np.abs(res) * eps))
        assert np.max(np.abs(jac[:, col] - fd) / scale) < 1e-6


def _cached_arrays(obj):
    """Every array an object holds in its attributes, inside tuples and
    sparse matrices too."""
    stack, out = list(vars(obj).values()), []
    while stack:
        a = stack.pop()
        if isinstance(a, np.ndarray):
            out.append(a)
        elif scipy.sparse.issparse(a):
            stack += [getattr(a, k) for k in ("data", "indices", "indptr") if hasattr(a, k)]
        elif isinstance(a, (tuple, list)):
            stack += list(a)
    return out


def _assert_fresh(first, second, owner):
    """Two successive Jacobians of one owner: writing into the first leaves
    the second as it was, and neither shares memory with the owner."""
    def arrays(jac):
        return [jac.data, jac.indices, jac.indptr] if scipy.sparse.issparse(jac) else [jac]

    def dense(jac):
        return jac.toarray() if scipy.sparse.issparse(jac) else jac.copy()

    before = dense(second)
    for a in arrays(first):
        a[...] = 7
    assert np.array_equal(dense(second), before)
    for a in arrays(first) + arrays(second):
        assert not any(np.shares_memory(a, c) for c in _cached_arrays(owner))


def _stenosed_random_tree(seed):
    data = network_to_dict(random_shape_tree(seed))
    data["vessels"][0]["stenosis_area"] = 0.4 * data["vessels"][0]["area"]
    return network_from_dict(data)


def _bsr_vstack_jacobian(system, x, x_prev, dt):
    """The standard Jacobian assembled independently: per-vessel 2x4 BSR
    blocks stacked on the linear rows with ``scipy.sparse.vstack``."""
    q = x.reshape(-1, 4)[:, Q_IN]
    ddx = 0.0 if dt is None else 1.0 / dt
    qdot = np.zeros(q.size) if dt is None else (q - x_prev.reshape(-1, 4)[:, Q_IN]) / dt
    C, R, Rs = system.C, system.R, system.Rs
    block = np.zeros((q.size, 2, 4))
    block[:, 0, P_IN] = -C * ddx
    block[:, 0, Q_IN] = 1.0 - C * (R * ddx + 2 * Rs * (np.sign(q) * qdot + np.abs(q) * ddx))
    block[:, 0, Q_OUT] = -1.0
    block[:, 1, P_IN], block[:, 1, P_OUT] = 1.0, -1.0
    block[:, 1, Q_IN] = -R - 2 * Rs * np.abs(q)
    block[:, 1, Q_OUT] = -system.L * ddx
    c = system.constraints
    linear = (c.junction_mass, system.junction_pressure, c.inflow, c.leaf_bc)
    vessel = scipy.sparse.bsr_matrix((block, np.arange(q.size), np.arange(q.size + 1)))
    return scipy.sparse.vstack([vessel] + [r.matrix(x.size) for r in linear], format="csc")


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_standard_jacobian_pattern_matches_bsr_vstack_assembly(dt):
    net = _stenosed_random_tree(5)
    system = _StandardSystem(net)
    rng = np.random.default_rng(6)
    n = 4 * len(net.vessels)
    zero_flows = rng.uniform(10.0, 100.0, n)
    zero_flows[Q_IN::8] = 0.0  # every other vessel carries no flow
    mixed = rng.uniform(10.0, 100.0, n) * rng.choice([-1.0, 1.0], n)
    for x in (zero_flows, mixed):
        x_prev = x + rng.normal(scale=5.0, size=n)
        jac = system.jacobian(x, x_prev, dt)
        assert jac.format == "csc"
        assert np.array_equal(jac.toarray(), _bsr_vstack_jacobian(system, x, x_prev, dt).toarray())


def test_standard_jacobians_share_no_memory():
    net = _stenosed_random_tree(7)
    system = _StandardSystem(net)
    rng = np.random.default_rng(8)
    x1, x2 = rng.normal(scale=50.0, size=(2, 4 * len(net.vessels)))
    first = system.jacobian(x1, x2, 1e-3)
    second = system.jacobian(x2, x1, 1e-3)
    _assert_fresh(first, second, system)


# -- standard engine solves ------------------------------------------------


def test_steady_single_vessel_inlet_pressure():
    net = make_single_vessel(bc_r=100.0, inflow=10.0)
    sol = solve_steady_standard(net)
    assert sol.inlet_pressure[0] == pytest.approx(1010.0530964914873, rel=1e-10)
    assert sol.q("v0")[0] == pytest.approx(10.0, rel=1e-12)


def test_steady_single_vessel_with_stenosis():
    net = make_single_vessel(bc_r=100.0, inflow=10.0, stenosis_area=0.5)
    r_v, _ = net.vessels["v0"].elements(net.fluid)
    r_s = net.vessels["v0"].stenosis_r(net.fluid)
    assert r_s > 0
    expected = 100.0 * 10.0 + r_v * 10.0 + r_s * 100.0
    sol = solve_steady_standard(net)
    assert sol.inlet_pressure[0] == pytest.approx(expected, rel=1e-10)


def test_steady_symmetric_tree_splits_evenly():
    net = generate_symmetric_tree(depth=3, inflow=80.0)
    sol = solve_steady_standard(net)
    for leaf in net.leaf_vessels():
        assert sol.q(leaf)[0] == pytest.approx(10.0, rel=1e-9)
    assert mass_conservation_error(sol) < 1e-10


def test_steady_nonzero_distal_pressure_offsets_inlet():
    p_d = 2000.0
    base = solve_steady_standard(make_single_vessel(bc_r=100.0, inflow=10.0))
    shifted = solve_steady_standard(
        make_single_vessel(bc_r=100.0, inflow=10.0, pd=p_d)
    )
    assert shifted.inlet_pressure[0] - base.inlet_pressure[0] == pytest.approx(
        p_d, rel=1e-10
    )


def test_steady_standard_memory_is_linear_in_vessels():
    # 1023 vessels: a dense Jacobian alone would take 134 MB
    net = generate_symmetric_tree(depth=9, leaf_resistance=8e5)
    tracemalloc.start()
    try:
        sol = solve_steady_standard(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert mass_conservation_error(sol) <= 1e-10


def test_transient_constant_inflow_matches_steady():
    net = generate_symmetric_tree(depth=2, inflow=50.0)
    steady = solve_steady_standard(net)
    cfg = SolverConfig(mode="transient", dt=1e-3, n_steps=20)
    trans = solve_transient_standard(net, cfg)
    assert np.allclose(trans.states[-1], steady.states[0], rtol=1e-9, atol=1e-9)


def test_transient_requires_transient_mode():
    net = make_single_vessel()
    with pytest.raises(SolverError, match="transient"):
        solve_transient_standard(net, SolverConfig(mode="steady"))


def test_steady_requires_steady_mode():
    net = make_single_vessel()
    with pytest.raises(SolverError, match="steady"):
        solve_steady_standard(net, SolverConfig(mode="transient"))


@pytest.mark.parametrize("engine", ["standard", "rri"])
@pytest.mark.parametrize("failing", [0, 1, 3])
def test_march_names_the_failing_step(monkeypatch, engine, failing):
    """Both engines walk one step loop: an error in a later step is raised
    again naming the step and its time, chained to the original; the error
    of the steady step 0 passes unchanged."""
    import vascrom.solver as solver

    target, name = (solver, "_newton") if engine == "standard" else (_OptProblem, "solve_step")
    original, calls = getattr(target, name), []

    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == failing:
            raise ConvergenceError("boom")
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, step)
    cfg = SolverConfig(mode="transient", dt=2e-3, n_steps=3)
    with pytest.raises(ConvergenceError) as info:
        if engine == "standard":
            solve_transient_standard(make_single_vessel(), cfg)
        else:
            solve_opt(make_single_junction(rri_coeffs(1.0, 0.01, 0.5)), cfg, engine=engine)
    if failing == 0:
        assert str(info.value) == "boom"
        assert info.value.__cause__ is None
    else:
        assert str(info.value) == f"step {failing} (t={failing * 2e-3:.6g}): boom"
        assert str(info.value.__cause__) == "boom"
    assert len(calls) == failing + 1


def test_zero_inflow_gives_zero_state():
    net = make_single_vessel(inflow=0.0)
    sol = solve_steady_standard(net)
    assert np.max(np.abs(sol.states)) < 1e-12


def _rl_vessel_network(inflow_series, capacitance=0.0):
    vessels = {
        "v0": Vessel(id="v0", length=2.0, area=0.8, capacitance=capacitance)
    }
    bcs = [
        BoundaryCondition(vessel_id="v0", kind="FLOW", value=inflow_series),
        BoundaryCondition(vessel_id="v0", kind="RESISTANCE", r=200.0),
    ]
    return VascularNetwork(fluid=FLUID, vessels=vessels, junctions=[],
                           boundary_conditions=bcs)


def test_backward_euler_first_order_in_time():
    """Inlet pressure error on an R-L vessel under a smooth ramped inflow
    halves (to within 20%) when the step size halves."""
    period = 0.08
    t_end = 0.04

    def q_of(t):
        return 50.0 * (1.0 - np.cos(2 * np.pi * t / period))

    def qdot_of(t):
        return 50.0 * (2 * np.pi / period) * np.sin(2 * np.pi * t / period)

    errors = []
    dts = [4e-3, 2e-3, 1e-3]
    for dt in dts:
        n_steps = int(round(t_end / dt))
        ts = dt * np.arange(n_steps + 1)
        net = _rl_vessel_network((ts, q_of(ts)))
        r_v, l_v = net.vessels["v0"].elements(net.fluid)
        sol = solve_transient_standard(
            net, SolverConfig(mode="transient", dt=dt, n_steps=n_steps)
        )
        exact = 200.0 * q_of(t_end) + r_v * q_of(t_end) + l_v * qdot_of(t_end)
        errors.append(abs(sol.inlet_pressure[-1] - exact))
    orders = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    for p in orders:
        assert 0.8 <= p <= 1.2


# -- optimization engine ---------------------------------------------------


def test_opt_single_junction_hand_value():
    # each outlet carries q=5 into a 100 Ba*s/cm^3 BC: P_out = 500;
    # junction drop = 1*5 + 0.01*5*|5| = 5.25
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    assert sol.inlet_pressure[0] == pytest.approx(505.25, abs=1e-8)
    assert sol.diagnostics[0]["objective"] < 1e-16
    assert mass_conservation_error(sol) < 1e-10


def test_opt_ri_engine_ignores_quadratic_term():
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="ri")
    # without the quadratic term the drop is 1*5 = 5
    assert sol.inlet_pressure[0] == pytest.approx(505.0, abs=1e-8)


def test_opt_matches_ri_when_quadratic_zero():
    net = make_single_junction(rri_coeffs(2.0, 0.0, 0.3), phi=0.5)
    rri = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    ri = solve_opt(net, SolverConfig(mode="steady"), engine="ri")
    assert np.allclose(rri.states, ri.states, rtol=1e-9, atol=1e-9)


def _coefficient_tree(depth, seed, r_quad=0.0, inflow=100.0):
    """Random asymmetric tree with random junction coefficients whose flow
    splits are set from the independent root-finder solution.  depth=None
    gives an unbalanced tree with shuffled ids (random_shape_tree), otherwise
    the full tree of that depth with random leaf resistances."""
    rng = np.random.default_rng(seed)
    if depth is None:
        net = random_shape_tree(rng, inflow=inflow)
    else:
        data = network_to_dict(generate_symmetric_tree(depth=depth, inflow=inflow))
        for bc in data["boundary_conditions"]:
            if bc["kind"] == "RESISTANCE":
                bc["value"]["R"] *= rng.uniform(0.5, 2.0)
        net = network_from_dict(data)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = CoefficientSet(
                kind="RRI",
                r_lin=rng.uniform(50.0, 500.0),
                r_quad=r_quad,
                l=rng.uniform(0.1, 1.0),
            )
    flows, _ = newton_rri_reference(net)
    for j in net.junctions:
        q_parent = flows[j.inlet_vessel]
        j.outlets[0].flow_split = flows[j.outlets[0].vessel_id] / q_parent
        j.outlets[1].flow_split = 1.0 - j.outlets[0].flow_split
    return net


@pytest.mark.parametrize(
    "depth,seed,r_quad,inflow",
    [
        pytest.param(1, 1, 0.0, 100.0, id="1-1"),
        pytest.param(2, 2, 0.0, 100.0, id="2-2"),
        pytest.param(3, 3, 0.0, 100.0, id="3-3"),
        # the Q|Q| junction law under forward and reversed flow
        pytest.param(2, 4, 5.0, 100.0, id="2-4-quad"),
        pytest.param(1, 5, 5.0, -100.0, id="1-5-quad-reversed"),
        pytest.param(2, 6, 5.0, -100.0, id="2-6-quad-reversed"),
        pytest.param(3, 7, 2.0, -60.0, id="3-7-quad-reversed"),
        # unbalanced trees, ids not in tree order
        pytest.param(None, 21, 0.0, 100.0, id="random-21"),
        pytest.param(None, 22, 0.0, -100.0, id="random-22-reversed"),
        pytest.param(None, 23, 4.0, 80.0, id="random-23-quad"),
        pytest.param(None, 24, 4.0, -80.0, id="random-24-quad-reversed"),
        pytest.param(None, 25, 2.0, -120.0, id="random-25-quad-reversed"),
    ],
)
def test_opt_linear_matches_independent_root_finder(depth, seed, r_quad, inflow):
    net = _coefficient_tree(depth, seed, r_quad=r_quad, inflow=inflow)
    flows, pressures = newton_rri_reference(net, inflow=inflow)
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    for vid in net.vessels:
        assert sol.q(vid)[0] == pytest.approx(flows[vid], rel=1e-6)
        assert sol.p(vid)[0] == pytest.approx(pressures[vid], rel=1e-6)
    assert mass_conservation_error(sol) < 1e-10


def _random_opt_problem(seed, engine, inflow):
    """An _OptProblem on an unbalanced tree with random coefficients and
    flow splits, scaled as solve_opt would scale it."""
    rng = np.random.default_rng(seed)
    net = random_shape_tree(rng, inflow=inflow)
    for j in net.junctions:
        phi = rng.uniform(0.2, 0.8)
        for o, split in zip(j.outlets, (phi, 1.0 - phi)):
            o.coefficients = rri_coeffs(
                rng.uniform(50.0, 500.0), rng.uniform(1.0, 5.0), rng.uniform(0.1, 1.0)
            )
            o.flow_split = split
    problem = _OptProblem(net, engine)
    problem.set_variable_scales(abs(inflow), 1e4)
    return problem, rng


@pytest.mark.parametrize("engine", ["rri", "ri"])
@pytest.mark.parametrize("dt", [None, 1e-3])
@pytest.mark.parametrize("inflow", [100.0, -100.0])
def test_opt_jacobian_matches_finite_differences(engine, dt, inflow):
    problem, rng = _random_opt_problem(31, engine, inflow)
    z = rng.normal(size=problem.free.size)
    x = problem.state(inflow, z)
    x_prev = None if dt is None else x + rng.normal(scale=5.0, size=x.size)

    def residuals(z):
        return problem.residuals(problem.state(inflow, z), x_prev, dt)

    res, jac = residuals(z), problem.jacobian(x, dt)
    eps = 1e-6
    for col in range(z.size):
        step = eps * np.eye(z.size)[col]
        fd = (residuals(z + step) - residuals(z - step)) / (2 * eps)
        # the same row-relative scale as the standard engine's check
        scale = np.maximum(1.0, np.maximum(np.abs(jac[:, col]), np.abs(res) * eps))
        assert np.max(np.abs(jac[:, col] - fd) / scale) < 1e-6


def test_opt_jacobians_share_no_memory():
    problem, rng = _random_opt_problem(32, "rri", 100.0)
    x1, x2 = (problem.state(100.0, rng.normal(size=problem.free.size)) for _ in range(2))
    _assert_fresh(problem.jacobian(x1, 1e-3), problem.jacobian(x2, 1e-3), problem)


@pytest.mark.parametrize("depth,seed", [(1, 41), (2, 42), (3, 43)])
def test_opt_transient_matches_backward_euler_root_finder(depth, seed):
    """A transient rri solve, step by step, against the root-finder with the
    inertance term, under a sinusoidal inflow that turns negative.  All
    junctions of one level carry the same coefficients on both outlets, so
    the two subtrees of every junction mirror each other and the 0.5 split
    is exact."""
    rng = np.random.default_rng(seed)
    dt, n_steps = 2e-3, 12
    ts = dt * np.arange(n_steps + 1)
    inflows = 60.0 * (0.3 + np.sin(2 * np.pi * ts / ts[-1]))
    assert inflows.min() < 0 < inflows.max()
    data = network_to_dict(generate_symmetric_tree(depth=depth))
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "FLOW":
            bc["value"] = {"t": list(ts), "q": list(inflows)}
    net = network_from_dict(data)
    levels = [
        rri_coeffs(rng.uniform(50.0, 500.0), rng.uniform(1.0, 5.0), rng.uniform(0.1, 1.0))
        for _ in range(depth)
    ]
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients, o.flow_split = levels[net.junction_depth(j)], 0.5
    cfg = SolverConfig(mode="transient", dt=dt, n_steps=n_steps)
    sol = solve_opt(net, cfg, engine="rri")
    for k, inflow in enumerate(inflows):
        prev = None if k == 0 else {vid: sol.q(vid)[k - 1] for vid in net.vessels}
        flows, pressures = newton_rri_reference(
            net, inflow=inflow, flows_prev=prev, dt=None if k == 0 else dt
        )
        for vid in net.vessels:
            assert sol.q(vid)[k] == pytest.approx(flows[vid], rel=1e-6)
            assert sol.p(vid)[k] == pytest.approx(pressures[vid], rel=1e-6)


def test_opt_ill_posed_quadratic_pair_stays_feasible():
    # equal and opposite quadratic coefficients admit no exact solution; the
    # solver must still return a feasible point with a positive objective
    net = make_single_junction(
        rri_coeffs(0.0, 1.0, 0.0), rri_coeffs(0.0, -1.0, 0.0), phi=0.5
    )
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    diag = sol.diagnostics[0]
    assert diag["constraint_violation"] <= 1e-8
    assert diag["objective"] > 1e-6
    assert math.isfinite(diag["objective"])


def test_opt_deep_unbalanced_tree_meets_stationarity_gate():
    """A 127-vessel unbalanced tree with estimated splits and predicted
    coefficients.  Its deep junctions carry a small share of the inflow:
    with their flow unknowns scaled by the root inflow alone, LM stops on
    xtol at stationarity 1.6e-6 and the solve raises."""
    net = load_network(DATA / "unbalanced_v127.json")
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    diag = sol.diagnostics[0]
    assert diag["stationarity"] <= 1e-6
    assert diag["constraint_violation"] <= 1e-8
    assert kkt_report(sol)[0]["stationarity"] == pytest.approx(diag["stationarity"], abs=1e-12)


def test_opt_zero_flow_split_leaves_outlet_flow_free():
    # the first outlet's share of the inflow is 0: its flow unknown must
    # still move, the pressure laws pull it toward half the inflow
    net = make_single_junction(rri_coeffs(1.0, 0.0, 0.0), phi=0.0)
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    assert 0.0 < sol.q("v1")[0] < 5.0
    assert sol.diagnostics[0]["stationarity"] <= 1e-6


def test_stationarity_error_reports_least_squares_counters():
    net = make_single_junction(
        rri_coeffs(0.0, 1.0, 0.0), rri_coeffs(0.0, -1.0, 0.0), phi=0.5
    )
    cfg = SolverConfig(mode="steady", stationarity_tol=1e-30)
    with pytest.raises(ConvergenceError, match=r"stationarity .* \d+ evaluations: "):
        solve_opt(net, cfg, engine="rri")


def test_opt_transient_constant_inflow_matches_steady():
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    steady = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    trans = solve_opt(
        net, SolverConfig(mode="transient", dt=1e-3, n_steps=10), engine="rri"
    )
    assert np.allclose(trans.states[-1], steady.states[0], rtol=1e-8, atol=1e-8)


def test_opt_objective_invariant_under_inflow_rescaling():
    """The residuals are flow-normalized, so a linear network solved at 10x
    the inflow reports a comparable (still tiny) objective."""
    for scale in (1.0, 10.0):
        net = make_single_junction(rri_coeffs(2.0, 0.0, 0.0), inflow=10.0 * scale)
        sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
        assert sol.diagnostics[0]["objective"] < 1e-14


def test_opt_requires_coefficients():
    net = generate_symmetric_tree(depth=1)
    with pytest.raises(SolverError, match="coefficients"):
        solve_opt(net, SolverConfig(mode="steady"), engine="rri")


def test_opt_requires_flow_splits():
    net = make_single_junction(rri_coeffs(1.0, 0.0, 0.0))
    for j in net.junctions:
        for o in j.outlets:
            o.flow_split = None
    with pytest.raises(SolverError, match="flow split"):
        solve_opt(net, SolverConfig(mode="steady"), engine="rri")


def test_opt_unknown_engine_rejected():
    net = make_single_junction(rri_coeffs(1.0, 0.0, 0.0))
    with pytest.raises(SolverError, match="engine"):
        solve_opt(net, SolverConfig(mode="steady"), engine="spectral")


def test_kkt_report_recomputes_solution_diagnostics():
    net = _coefficient_tree(2, seed=9)
    cfg = SolverConfig(mode="transient", dt=2e-3, n_steps=5)
    # a steady solve of an inflow series that starts before t = 0 runs at
    # the series' first value; interpolated at t = 0 it would be 125
    series = _coefficient_tree(2, seed=9)
    series.boundary_conditions = [
        replace(b, value=([-0.1, 0.1, 0.3], [100.0, 150.0, 50.0])) if b.kind == "FLOW" else b
        for b in series.boundary_conditions
    ]
    steady = SolverConfig(mode="steady")
    for sol in (solve_opt(net, cfg, engine="rri"), solve_opt(series, steady, engine="rri")):
        assert sol.q(net.inflow_bc.vessel_id)[0] == pytest.approx(100.0)
        report = kkt_report(sol)
        assert len(report) == len(sol.times)
        for rec, diag in zip(report, sol.diagnostics):
            assert rec["objective"] == pytest.approx(diag["objective"], abs=1e-12)
            assert rec["constraint_violation"] == pytest.approx(
                diag["constraint_violation"], abs=1e-12
            )
            assert rec["stationarity"] <= 10 * max(
                diag["stationarity"], cfg.stationarity_tol
            )


def test_kkt_report_rejects_standard_solutions():
    sol = solve_steady_standard(make_single_vessel())
    with pytest.raises(SolverError):
        kkt_report(sol)


# -- mass conservation across engines --------------------------------------


def test_mass_conservation_both_engines():
    net = _coefficient_tree(3, seed=11)
    opt = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    assert mass_conservation_error(opt) <= 1e-10
    std = solve_steady_standard(generate_symmetric_tree(depth=3))
    assert mass_conservation_error(std) <= 1e-10


def _perturbed(sol, seed=0):
    """The solution with every state entry moved, so that all constraints are
    violated by different amounts."""
    rng = np.random.default_rng(seed)
    sol.states = sol.states + rng.normal(size=sol.states.shape)
    return sol


def test_mass_conservation_error_matches_loop_reference():
    net = random_shape_tree(3)
    sol = _perturbed(solve_steady_standard(net))
    idx, worst = sol.index, 0.0
    for x in sol.states:
        for vid in net.vessels:
            worst = max(worst, abs(x[idx(vid, "q_in")] - x[idx(vid, "q_out")]))
        for j in net.junctions:
            q = x[idx(j.inlet_vessel, "q_out")]
            for o in j.outlets:
                q -= x[idx(o.vessel_id, "q_in")]
            worst = max(worst, abs(q))
    assert mass_conservation_error(sol) == worst


def test_kkt_constraint_violation_matches_loop_reference():
    net = _coefficient_tree(None, seed=26)
    cfg = SolverConfig(mode="transient", dt=2e-3, n_steps=3)
    sol = _perturbed(solve_opt(net, cfg, engine="rri"), seed=1)
    idx, inflow = sol.index, net.inflow_bc.steady_flow()
    for x, rec in zip(sol.states, kkt_report(sol)):
        res = [x[idx(net.inflow_bc.vessel_id, "q_in")] - inflow]
        for vid in net.vessels:
            res += [x[idx(vid, "q_in")] - x[idx(vid, "q_out")],
                    x[idx(vid, "p_in")] - x[idx(vid, "p_out")]]
        for j in net.junctions:
            res.append(x[idx(j.inlet_vessel, "q_out")]
                       - sum(x[idx(o.vessel_id, "q_in")] for o in j.outlets))
        for leaf in net.leaf_vessels():
            bc = net.bc_of(leaf, "RESISTANCE")
            res.append(x[idx(leaf, "p_out")] - bc.r * x[idx(leaf, "q_out")] - bc.pd)
        assert rec["constraint_violation"] == pytest.approx(max(map(abs, res)), rel=1e-12)


# -- export ----------------------------------------------------------------


def test_export_solution_files(tmp_path):
    import csv
    import json

    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    export_solution(sol, tmp_path)
    with open(tmp_path / "solution.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "t"
    assert "P_v0_in" in rows[0]
    p_in = float(rows[1][rows[0].index("P_v0_in")])
    assert p_in == pytest.approx(sol.inlet_pressure[0], rel=1e-15)
    for name, value in zip(rows[0][1:], rows[1][1:]):
        _, vid, end = name.split("_")
        quantity = f"{name[0].lower()}_{end}"
        assert float(value) == sol.states[0, sol.index(vid, quantity)]
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["engine"] == "rri"
    assert len(diag["steps"]) == 1
    # the least-squares counters, so that hitting max_nfev shows
    step = diag["steps"][0]
    assert {"nfev", "njev", "status", "message"} <= step.keys()
    assert 1 <= step["nfev"] < 2000 and step["status"] > 0
