import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from tests.conftest import (
    leaf_bcs,
    make_single_junction,
    make_single_vessel,
    newton_rri_reference,
    random_shape_tree,
    rri_coeffs,
)
from vascrom.flowsplit import estimate_flow_splits
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
    save_network,
)
from vascrom.nondim import CoefficientSet
from vascrom.solver import (
    P_IN,
    P_OUT,
    Q_IN,
    Q_OUT,
    CONSTRAINT_TOL,
    STATIONARITY_TOL,
    ConvergenceError,
    Solution,
    SolverConfig,
    SolverError,
    VarIndex,
    export_solution,
    kkt_report,
    mass_conservation_error,
    solve_opt,
    solve_steady_standard,
    solve_transient_standard,
    _LinearConstraints,
    _OptProblem,
    _StandardSystem,
    _fixed_pattern,
)

FLUID = Fluid()
DATA = Path(__file__).parent / "data"


# -- config validation -----------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(SolverError, match="mode"):
        SolverConfig(mode="banana")


def test_config_rejects_bad_transient_grid():
    for dt in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(SolverError, match="finite dt > 0"):
            SolverConfig(mode="transient", dt=dt)
    with pytest.raises(SolverError):
        SolverConfig(mode="transient", n_steps=0)


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
    res = _StandardSystem(net, SolverConfig()).residual(x, None, None, net.inflow_bc.steady_flow())
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
    system = _StandardSystem(net, SolverConfig())
    res = system.residual(x, x_prev, 1e-3, 100.0)
    jac = system.jacobian(x, x_prev, 1e-3).toarray()
    eps = 1e-4
    for col in range(idx.n):
        xp = x.copy()
        xp[col] += eps
        rp = system.residual(xp, x_prev, 1e-3, 100.0)
        xm = x.copy()
        xm[col] -= eps
        rm = system.residual(xm, x_prev, 1e-3, 100.0)
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


def _standard_linear_terms(net):
    """The standard engine's linear rows read off the network, one list of
    (columns, coefficient) terms per block: junction mass balance, equal
    pressure across each junction, the inflow and the leaf BCs."""
    idx = VarIndex(net)

    def cols(vessel_ids, quantity):
        return np.array([idx(vid, quantity) for vid in vessel_ids], dtype=int)

    inlets = [j.inlet_vessel for j in net.junctions]
    first, second = ([j.outlets[k].vessel_id for j in net.junctions] for k in (0, 1))
    leaves = [b for b in net.boundary_conditions if b.kind == "RESISTANCE"]
    leaf_ids, leaf_r = [b.vessel_id for b in leaves], np.array([b.r for b in leaves])
    return [
        [(cols(inlets, "q_out"), 1.0), (cols(first, "q_in"), -1.0), (cols(second, "q_in"), -1.0)],
        [(cols([v for v in inlets for _ in range(2)], "p_out"), 1.0),
         (cols([v for pair in zip(first, second) for v in pair], "p_in"), -1.0)],
        [(cols([net.inflow_bc.vessel_id], "q_in"), 1.0)],
        [(cols(leaf_ids, "p_out"), 1.0), (cols(leaf_ids, "q_out"), -leaf_r)],
    ]


def _rows_matrix(terms, n):
    """Linear rows ``sum_k coef_k * x[cols_k]``, one per entry of the column
    arrays, as a sparse (rows, n) CSR matrix."""
    m = len(terms[0][0])
    cols = np.concatenate([c for c, _ in terms])
    vals = np.concatenate([np.broadcast_to(v, np.shape(c)) for c, v in terms])
    return scipy.sparse.csr_matrix((vals, (np.tile(np.arange(m), len(terms)), cols)), shape=(m, n))


def _bsr_vstack_jacobian(system, net, x, x_prev, dt):
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
    linear = [_rows_matrix(t, x.size) for t in _standard_linear_terms(net)]
    vessel = scipy.sparse.bsr_matrix((block, np.arange(q.size), np.arange(q.size + 1)))
    return scipy.sparse.vstack([vessel] + linear, format="csc")


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_standard_jacobian_pattern_matches_bsr_vstack_assembly(dt):
    net = _stenosed_random_tree(5)
    system = _StandardSystem(net, SolverConfig())
    rng = np.random.default_rng(6)
    n = 4 * len(net.vessels)
    zero_flows = rng.uniform(10.0, 100.0, n)
    zero_flows[Q_IN::8] = 0.0  # every other vessel carries no flow
    mixed = rng.uniform(10.0, 100.0, n) * rng.choice([-1.0, 1.0], n)
    for x in (zero_flows, mixed):
        x_prev = x + rng.normal(scale=5.0, size=n)
        jac = system.jacobian(x, x_prev, dt)
        assert jac.format == "csc"
        assert np.array_equal(
            jac.toarray(), _bsr_vstack_jacobian(system, net, x, x_prev, dt).toarray()
        )


def _vstack_jac_pattern(net):
    """The standard Jacobian's CSC template and data slots, built from one
    CSR matrix per linear block stacked with ``scipy.sparse.vstack``."""
    n_v = len(net.vessels)
    n = 4 * n_v
    linear = scipy.sparse.vstack([_rows_matrix(t, n) for t in _standard_linear_terms(net)]).tocoo()
    v, eq, k = np.indices((n_v, 2, 4)).reshape(3, -1)
    rows = np.concatenate([2 * v + eq, 2 * n_v + linear.row])
    cols = np.concatenate([4 * v + k, linear.col])
    vals = np.concatenate([np.zeros(v.size), linear.data])
    order = np.lexsort((rows, cols))
    indptr = np.searchsorted(cols[order], np.arange(n + 1))
    template = scipy.sparse.csc_matrix((vals[order], rows[order], indptr), shape=(n, n))
    return template, np.argsort(order)[: v.size]


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [5, 13, 14, 15])
def test_standard_jac_pattern_matches_vstack_reference(seed):
    net = _stenosed_random_tree(seed)
    template, slots = _StandardSystem(net, SolverConfig())._jac_pattern
    ref, ref_slots = _vstack_jac_pattern(net)
    assert _same_bytes(slots, ref_slots)
    for key in ("data", "indices", "indptr"):
        assert _same_bytes(getattr(template, key), getattr(ref, key))


def test_standard_jacobians_share_no_memory():
    net = _stenosed_random_tree(7)
    system = _StandardSystem(net, SolverConfig())
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
    for leaf in leaf_bcs(net):
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


# L and U entries per vessel of the standard Jacobian's SuperLU factor:
# measured 21.24-21.49 on symmetric trees of depth 6-12 and 21.27-21.32 on
# 1000-junction random trees; the bound leaves 4.7 % above the largest
FACTOR_FILL_PER_VESSEL = 22.5


def _stenosed(net, vessel_ids=None):
    """The network with the given vessels (all by default) stenosed to 60 %."""
    data = network_to_dict(net)
    for v in data["vessels"]:
        if vessel_ids is None or v["id"] in vessel_ids:
            v["stenosis_area"] = 0.6 * v["area"]
    return network_from_dict(data)


def test_standard_factor_fill_and_newton_iterations_stay_flat_with_depth():
    """The work counters of a steady standard solve from the tree start: the
    factor fill per vessel stays bounded from 127 to 8191 vessels, and the
    Newton iteration count does not grow with depth.  Symmetric trees get a
    stenosis on the first outlet of every junction, so Q|Q| terms make the
    system nonlinear and the split differs from the series-parallel one; the
    random trees are about 20 levels deep, linear ones solve at the start."""
    iterations = []
    for depth in range(6, 13):
        net = generate_symmetric_tree(depth, leaf_resistance=1e5 * 2.0 ** (depth - 6))
        net = _stenosed(net, {j.outlets[0].vessel_id for j in net.junctions})
        diag = solve_steady_standard(net).diagnostics[0]
        assert diag["nnz_jacobian"] / len(net.vessels) <= 12.5
        assert diag["nnz_factor"] / len(net.vessels) < FACTOR_FILL_PER_VESSEL
        iterations.append(diag["iterations"])
    assert iterations == [iterations[0]] * len(iterations)
    for seed in (1, 2, 3):
        net = random_shape_tree(seed, max_depth=30, n_junctions=1000)
        assert net.topology.depth.max() >= 16
        diag = solve_steady_standard(net).diagnostics[0]
        assert diag["iterations"] == 0
        assert diag["nnz_factor"] is None
        diag = solve_steady_standard(_stenosed(net)).diagnostics[0]
        assert diag["nnz_factor"] / len(net.vessels) < FACTOR_FILL_PER_VESSEL
        # the flat start took 9 iterations on these trees
        assert diag["iterations"] <= 5


def test_tree_start_solves_a_tree_whose_series_resistance_overflows():
    """Vessel and leaf resistances near 1e308 at a tiny inflow: every
    pressure is finite, but the series sums of the split estimate pass the
    float range.  The start still splits the flow and solves the tree."""
    data = network_to_dict(generate_symmetric_tree(depth=2, inflow=1e-10))
    for v in data["vessels"]:
        v["length"], v["area"] = 9e307, 1.0
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "RESISTANCE":
            bc["value"]["R"] = 1e308
    net = network_from_dict(data)
    sol = solve_steady_standard(net)
    assert sol.diagnostics[0]["iterations"] == 0
    leaves = [b.vessel_id for b in net.boundary_conditions if b.kind == "RESISTANCE"]
    assert [sol.q(vid)[0] for vid in leaves] == [2.5e-11] * 4
    # the inflow through the root, half of it through each daughter, a
    # quarter through each leaf and its resistance
    r = float(net.topology.elements[0, 0])
    assert sol.inlet_pressure[0] == pytest.approx(1.75e-10 * r + 2.5e-11 * 1e308, rel=1e-14)


def test_transient_constant_inflow_matches_steady():
    net = generate_symmetric_tree(depth=2, inflow=50.0)
    steady = solve_steady_standard(net)
    cfg = SolverConfig(mode="transient", dt=1e-3, n_steps=20)
    trans = solve_transient_standard(net, cfg)
    assert np.allclose(trans.states[-1], steady.states[0], rtol=1e-9, atol=1e-9)
    # every later step starts on the steady state and factors nothing
    assert [d["nnz_factor"] for d in trans.diagnostics[1:]] == [None] * 20


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

    target, name = (solver, "_newton") if engine == "standard" else (_OptProblem, "step")
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
    flow splits, scaled as a steady solve of it is."""
    rng = np.random.default_rng(seed)
    net = random_shape_tree(rng, inflow=inflow)
    for j in net.junctions:
        phi = rng.uniform(0.2, 0.8)
        for o, split in zip(j.outlets, (phi, 1.0 - phi)):
            o.coefficients = rri_coeffs(
                rng.uniform(50.0, 500.0), rng.uniform(1.0, 5.0), rng.uniform(0.1, 1.0)
            )
            o.flow_split = split
    problem = _OptProblem(net, engine, SolverConfig())
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

    res, jac = residuals(z), problem.jacobian(x, dt).toarray()
    eps = 1e-6
    for col in range(z.size):
        step = eps * np.eye(z.size)[col]
        fd = (residuals(z + step) - residuals(z - step)) / (2 * eps)
        # the same row-relative scale as the standard engine's check
        scale = np.maximum(1.0, np.maximum(np.abs(jac[:, col]), np.abs(res) * eps))
        assert np.max(np.abs(jac[:, col] - fd) / scale) < 1e-6


def _loop_tree_basis(problem):
    """basis, free and x_unit of an _OptProblem, built by walking each unit
    flow down the tree one vessel at a time."""
    net, con = problem.network, problem.constraints
    idx = VarIndex(net)
    feeds = {j.inlet_vessel: j for j in net.junctions}
    leaf_r = np.zeros(len(idx.vessel_ids))
    leaf_r[con.leaf] = con.leaf_r

    def unit_flow(vid, sign=1.0):
        while vid in feeds:
            yield from ((idx(vid, "q_in"), sign), (idx(vid, "q_out"), sign))
            vid = feeds[vid].outlets[1].vessel_id
        r = sign * leaf_r[idx.position[vid]]
        yield from (
            (idx(vid, "q_in"), sign), (idx(vid, "q_out"), sign),
            (idx(vid, "p_in"), r), (idx(vid, "p_out"), r),
        )

    n_j = len(net.junctions)
    entries = []
    for k, j in enumerate(net.junctions):
        first, second = (o.vessel_id for o in j.outlets)
        entries += [(i, k, c) for i, c in unit_flow(first)]
        entries += [(i, k, c) for i, c in unit_flow(second, -1.0)]
        entries += [(idx(j.inlet_vessel, q), n_j + k, 1.0) for q in ("p_in", "p_out")]
    rows, cols, vals = zip(*entries)
    basis = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(idx.n, 2 * n_j))
    free = np.array([idx(j.outlets[0].vessel_id, "q_in") for j in net.junctions]
                    + [idx(j.inlet_vessel, "p_out") for j in net.junctions], dtype=int)
    x_unit = np.zeros(idx.n)
    for i, c in unit_flow(net.inflow_bc.vessel_id):
        x_unit[i] = c
    return basis, free, x_unit


@pytest.mark.parametrize("engine", ["rri", "ri"])
@pytest.mark.parametrize("seed", [33, 34, 35, 36])
def test_tree_basis_matches_loop_reference(engine, seed):
    problem, rng = _random_opt_problem(seed, engine, 100.0)
    basis, free, x_unit = _loop_tree_basis(problem)
    for key in ("data", "indices", "indptr"):
        assert _same_bytes(getattr(problem.basis, key), getattr(basis, key))
    assert _same_bytes(problem.free, free)
    assert _same_bytes(problem.x_unit, x_unit)


def _dense_jacobian(problem, x, dt):
    """The rri/ri Jacobian from densified basis rows: the pressure rows
    ``(b_pj - b_po - dq * b_q) / q_scale^2 * scale`` over the flow rows
    ``(phi * b_qj - b_q) / q_scale * scale``."""
    b_pj, b_po, b_q, b_qj = (
        problem.basis[i].toarray() for i in (problem.i_pj, problem.i_po, problem.i_q, problem.i_qj)
    )
    dqdot = 0.0 if dt is None else 1.0 / dt
    dq = problem.r_lin + 2 * problem.r_quad * np.abs(x[problem.i_q]) + problem.l * dqdot
    pressure = (b_pj - b_po - dq[:, None] * b_q) / problem.q_scale**2 * problem.scale
    flow = (problem.phi[:, None] * b_qj - b_q) / problem.q_scale * problem.scale
    return np.vstack([pressure, flow])


@pytest.mark.parametrize("engine", ["rri", "ri"])
@pytest.mark.parametrize("dt", [None, 1e-3])
@pytest.mark.parametrize("inflow", [100.0, -100.0])
def test_opt_sparse_jacobian_matches_dense_formula(engine, dt, inflow):
    problem, rng = _random_opt_problem(37, engine, inflow)
    for _ in range(3):
        x = problem.state(inflow, rng.normal(size=problem.free.size))
        jac = problem.jacobian(x, dt)
        assert jac.format == "csr"
        assert _same_bytes(jac.toarray(), _dense_jacobian(problem, x, dt))


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
    for j, d in zip(net.junctions, net.topology.depth):
        for o in j.outlets:
            o.coefficients, o.flow_split = levels[d], 0.5
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


def _pulsatile_njev(net, engine, sign):
    """Mean least-squares Jacobians per backward-Euler step after step 0 of
    one solve under a sinusoidal inflow that turns negative (times sign),
    after checking every step's constraint and stationarity gates."""
    dt, n_steps = 0.05, 14
    ts = dt * np.arange(n_steps + 1)
    inflows = sign * 100.0 * (0.3 + np.sin(2 * np.pi * ts / ts[-1]))
    assert inflows.min() < 0 < inflows.max()
    net.boundary_conditions = [
        replace(b, value=(ts, inflows)) if b.kind == "FLOW" else b for b in net.boundary_conditions
    ]
    cfg = SolverConfig(mode="transient", dt=dt, n_steps=n_steps)
    sol = solve_opt(net, cfg, engine=engine)
    for diag in sol.diagnostics:
        assert diag["constraint_violation"] <= CONSTRAINT_TOL
        assert (diag["stationarity"] <= STATIONARITY_TOL
                or diag["objective"] <= STATIONARITY_TOL**2)
    return sum(diag["njev"] for diag in sol.diagnostics[1:]) / n_steps


@pytest.mark.parametrize("engine,random_bound,symmetric_bound", [
    ("rri", 4.0, 1.1), ("ri", 2.1, 1.1),
])
def test_opt_transient_steps_start_from_the_predicted_state(engine, random_bound, symmetric_bound):
    """Each step after step 0 starts from the previous flows plus the inflow
    change split by the given splits, with the junction law's pressures.
    On a symmetric tree with the same coefficients at every outlet that
    start is the solution, so a step takes one Jacobian (rri and ri), and
    the random trees take 3.8 (rri) and 2.0 (ri).  Starting from the
    previous state took 3.9 and 2.8 per step on the symmetric trees, and 4.7
    and 2.2 on the random ones.  The bounds hold for the mean over many
    trees, since one solve's count can flip with the last bits of its input."""
    random_trees, symmetric_trees = [], []
    for seed in range(1, 11):
        for sign in (1.0, -1.0):
            random_trees.append(_pulsatile_njev(_coefficient_tree(None, seed, 3.0), engine, sign))
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        coeffs = rri_coeffs(rng.uniform(50.0, 500.0), rng.uniform(1.0, 5.0), rng.uniform(0.1, 1.0))
        for sign in (1.0, -1.0):
            net = generate_symmetric_tree(depth=4)
            estimate_flow_splits(net)
            for j in net.junctions:
                for o in j.outlets:
                    o.coefficients = coeffs
            symmetric_trees.append(_pulsatile_njev(net, engine, sign))
    assert np.mean(random_trees) <= random_bound
    assert np.mean(symmetric_trees) <= symmetric_bound


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


def test_stationarity_error_reports_least_squares_counters(monkeypatch):
    import vascrom.solver as solver

    net = make_single_junction(
        rri_coeffs(0.0, 1.0, 0.0), rri_coeffs(0.0, -1.0, 0.0), phi=0.5
    )
    monkeypatch.setattr(solver, "STATIONARITY_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match=r"stationarity .* \d+ evaluations: "):
        solve_opt(net, SolverConfig(mode="steady"), engine="rri")


def test_nan_step_fails_both_gates(monkeypatch, tmp_path, capsys):
    """NaN compares false with every bound, so a NaN state passed both step
    gates and then broke ``export_solution``.  Each gate now fails on NaN:
    the solve raises ConvergenceError and ``vascrom solve`` exits 2."""
    import types

    import vascrom.solver as solver
    from vascrom.cli import main

    def nan_least_squares(fun, z0, **kwargs):
        return types.SimpleNamespace(x=np.full_like(z0, np.nan), nfev=1, njev=1, status=1,
                                     message="stub")

    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    save_network(net, tmp_path / "net.json")
    argv = ["solve", "--network", str(tmp_path / "net.json"), "--engine", "rri", "--out"]
    with monkeypatch.context() as m:
        m.setattr(solver.scipy.optimize, "least_squares", nan_least_squares)
        with pytest.raises(ConvergenceError, match="constraint violation nan"):
            solve_opt(net, SolverConfig(mode="steady"), engine="rri")
        assert main([*argv, str(tmp_path / "a")]) == 2
        assert "numerical failure: constraint violation nan" in capsys.readouterr().err
    # the stationarity gate alone: a finite state whose diagnostics read NaN
    diagnostics = _OptProblem.diagnostics

    def nan_diagnostics(self, *args):
        return {**diagnostics(self, *args), "objective": math.nan, "stationarity": math.nan}

    monkeypatch.setattr(_OptProblem, "diagnostics", nan_diagnostics)
    with pytest.raises(ConvergenceError, match="stationarity nan"):
        solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    assert main([*argv, str(tmp_path / "b")]) == 2
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_opt_transient_constant_inflow_matches_steady():
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    steady = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    trans = solve_opt(
        net, SolverConfig(mode="transient", dt=1e-3, n_steps=10), engine="rri"
    )
    assert np.allclose(trans.states[-1], steady.states[0], rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("engine", ["rri", "ri"])
def test_opt_never_runs_the_standard_engine(monkeypatch, engine):
    """solve_opt starts from the tree start: steady and transient solves
    reach no standard Newton solve and give the same states without one."""
    import vascrom.solver as solver

    net = _coefficient_tree(2, 8, r_quad=3.0)
    configs = (SolverConfig(mode="steady"), SolverConfig(mode="transient", dt=1e-3, n_steps=4))
    expected = [solve_opt(net, cfg, engine=engine).states for cfg in configs]

    def newton(*args, **kwargs):
        raise AssertionError("the standard engine ran")

    monkeypatch.setattr(solver, "_newton", newton)
    for cfg, states in zip(configs, expected):
        assert np.array_equal(solve_opt(net, cfg, engine=engine).states, states)


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


def test_rri_engine_rejects_ri_coefficients():
    """RI coefficients have no r_quad, so an rri solve of them would run the
    RI model under the rri label.  The ri engine drops r_quad by definition
    and takes either kind."""
    ri = CoefficientSet(kind="RI", r_lin=1.0, l=0.0)
    net = make_single_junction(rri_coeffs(1.0, 0.5, 0.0), ri)
    with pytest.raises(SolverError, match="^junction j0: outlet v2 has RI coefficients"):
        solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    assert solve_opt(net, SolverConfig(mode="steady"), engine="ri").engine == "ri"


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
        # the rebuilt problem has the solve's scales, so every field has its bits
        for rec, diag in zip(report, sol.diagnostics):
            for key in ("objective", "constraint_violation", "stationarity"):
                assert rec[key] == diag[key]


def test_kkt_report_memory_is_linear_in_vessels():
    # 1023 vessels: one dense (2J)x(2J) basis block alone would take 8.4 MB
    net = generate_symmetric_tree(depth=9, leaf_resistance=8e5)
    estimate_flow_splits(net)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = rri_coeffs(50.0, 2.0, 0.5)
    # the standard solution stands in for a stored rri state: kkt_report
    # reads only the state, and the rri solve of this tree takes seconds
    sol = replace(solve_steady_standard(net), engine="rri")
    tracemalloc.start()
    try:
        (report,) = kkt_report(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert all(math.isfinite(report[k]) for k in ("objective", "stationarity"))


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


def _loop_linear_residual(net, x, inflow):
    """Every linear-constraint row of one state, one row at a time, each
    row's terms summed left to right: pressure and flow continuity per
    vessel, junction mass balance, equal pressure across each junction
    outlet, the inflow and the leaf BCs.  Returns the rows by block."""
    idx, x = VarIndex(net), x.tolist()

    def row(*terms, b=0.0):
        return sum(k * x[idx(vid, q)] for vid, q, k in terms) - b

    leaves = [bc for bc in net.boundary_conditions if bc.kind == "RESISTANCE"]
    return [
        [row((v, "p_in", 1.0), (v, "p_out", -1.0)) for v in idx.vessel_ids],
        [row((v, "q_in", 1.0), (v, "q_out", -1.0)) for v in idx.vessel_ids],
        [row((j.inlet_vessel, "q_out", 1.0), *((o.vessel_id, "q_in", -1.0) for o in j.outlets))
         for j in net.junctions],
        [row((j.inlet_vessel, "p_out", 1.0), (o.vessel_id, "p_in", -1.0))
         for j in net.junctions for o in j.outlets],
        [row((net.inflow_bc.vessel_id, "q_in", 1.0), b=inflow)],
        [row((bc.vessel_id, "p_out", 1.0), (bc.vessel_id, "q_out", -bc.r), b=bc.pd)
         for bc in leaves],
    ]


@pytest.mark.parametrize("inflow", [80.0, -80.0])
def test_linear_constraint_rows_match_loop_reference(inflow):
    data = network_to_dict(_stenosed_random_tree(9))
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "RESISTANCE":
            bc["value"]["Pd"] = 1333.0
        else:
            bc["value"] = inflow
    net = network_from_dict(data)
    con = _LinearConstraints(net)
    rng = np.random.default_rng(10)
    n_v = len(net.vessels)
    states = rng.normal(size=(3, 4 * n_v)) * np.tile([1e4, 1e4, inflow, inflow], n_v)
    for x in states:
        blocks = _loop_linear_residual(net, x, inflow)
        assert _same_bytes(con.residual(x, inflow), np.concatenate(blocks))
    mass = [np.concatenate(_loop_linear_residual(net, x, 0.0)[1:3]) for x in states]
    assert _same_bytes(con.mass(states), np.array(mass))
    assert _same_bytes(con.mass(states[1]), mass[1])


def test_fixed_pattern_keeps_the_given_order_within_a_row_or_column():
    rows, cols = np.array([1, 0, 1, 0, 1]), np.array([3, 2, 0, 1, 2])
    csr, slots = _fixed_pattern(rows, cols, (2, 4))
    assert csr.format == "csr" and not csr.data.any()
    assert csr.indptr.tolist() == [0, 2, 5]
    assert csr.indices.tolist() == [2, 1, 3, 0, 2]
    assert slots.tolist() == [2, 0, 3, 1, 4]
    csc, slots = _fixed_pattern(rows, cols, (2, 4), "csc")
    assert csc.format == "csc" and not csc.data.any()
    assert csc.indptr.tolist() == [0, 1, 2, 4, 5]
    assert csc.indices.tolist() == [1, 0, 0, 1, 1]
    assert slots.tolist() == [4, 2, 0, 1, 3]


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
        for leaf, bc in leaf_bcs(net).items():
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
