"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with -s or in captured output on failure).  Tolerances are pinned;
do not loosen them without recording the reason in the project notes.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import vascrom
from tests.conftest import make_single_junction, newton_rri_reference, rri_coeffs
from vascrom.analysis import fit_tree_coefficients, impedance, resolve_with_fits
from vascrom.datagen import (
    build_cohort,
    fit_ri,
    fit_rri,
    oracle_coeffs,
    r_squared,
    sample_geometries,
    synthesize_timeseries,
    systolic_waveform,
)
from vascrom.flowsplit import estimate_flow_splits
from vascrom.mlp import ModelBundle, TrainingConfig, save_models, train_models
from vascrom.network import (
    BoundaryCondition,
    Fluid,
    Vessel,
    VascularNetwork,
    generate_symmetric_tree,
    network_from_dict,
    network_to_dict,
)
from vascrom.nondim import (
    CoefficientSet,
    characteristic_scales,
    nondimensionalize_coeffs,
    redimensionalize_coeffs,
)
from vascrom.solver import (
    SolverConfig,
    mass_conservation_error,
    solve_opt,
    solve_steady_standard,
    solve_transient_standard,
)

FLUID = Fluid()


def _verdict(num: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: coefficient fit round-trip -----------------------------------------


def test_criterion_01_fit_roundtrip():
    rng = np.random.default_rng(101)
    t, q = systolic_waveform(re_max=5500.0, l_c=0.5, fluid=FLUID, n_steps=1000)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        truth = CoefficientSet(
            kind="RRI",
            r_lin=rng.uniform(0.5, 500.0),
            r_quad=rng.uniform(-5.0, 5.0),
            l=rng.uniform(0.01, 5.0),
        )
        fit = fit_rri(synthesize_timeseries(truth, t, q))
        for a, b in (
            (fit.r_lin, truth.r_lin),
            (fit.r_quad, truth.r_quad),
            (fit.l, truth.l),
        ):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "100 random fits round-trip to 1e-8 in < 5 s",
        worst < 1e-8 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


# -- 2: nested-model ordering ----------------------------------------------


def test_criterion_02_nested_model_ordering():
    t, q_in = systolic_waveform(re_max=5500.0, l_c=0.5, fluid=FLUID)
    junctions = sample_geometries(40, seed=7)
    scales = characteristic_scales(0.5, FLUID)
    ok = True
    n_strict = 0
    for junc in junctions:
        for outlet in (0, 1):
            g = junc.geometry(outlet)
            dim = redimensionalize_coeffs(oracle_coeffs(g), scales)
            q = (junc.phi1, junc.phi2)[outlet] * q_in
            series = synthesize_timeseries(dim, t, q)
            r2_rri = r_squared(series, fit_rri(series))
            r2_ri = r_squared(series, fit_ri(series))
            ok &= r2_rri >= r2_ri - 1e-14
            if abs(dim.r_quad * np.max(np.abs(q))) >= 0.1 * abs(dim.r_lin):
                ok &= r2_rri > r2_ri
                n_strict += 1
    _verdict(
        2,
        "R^2(RRI) >= R^2(RI) on all cohort series, strict on quadratic-heavy ones",
        ok and n_strict > 0,
        f"{n_strict} strict cases",
    )


# -- 3: scale invariance ---------------------------------------------------


def test_criterion_03_scale_invariance():
    from vascrom.nondim import nondimensionalize_geometry

    base = dict(
        outlet_area_fracs=(0.55, 0.75),
        lengths_over_lc=(18.0, 22.0),
        angles=(0.4, 0.9),
        phi=(0.35, 0.65),
    )
    l_c0 = 0.5
    ok = True
    worst_g = 0.0
    worst_c = 0.0
    ref_g = None
    ref_star = None
    for s in (1.0, 0.5, 2.0, 10.0):
        l_c = s * l_c0
        a_c = math.pi * l_c**2
        g = nondimensionalize_geometry(
            inlet_area=a_c,
            outlet_areas=tuple(f * a_c for f in base["outlet_area_fracs"]),
            outlet_lengths=tuple(r * l_c for r in base["lengths_over_lc"]),
            outlet_angles=base["angles"],
            phi=base["phi"],
            outlet=0,
        )
        scales = characteristic_scales(l_c, FLUID)
        dim = redimensionalize_coeffs(oracle_coeffs(g), scales)
        t, q_in = systolic_waveform(re_max=5500.0, l_c=l_c, fluid=FLUID)
        series = synthesize_timeseries(dim, t, base["phi"][0] * q_in)
        star = nondimensionalize_coeffs(fit_rri(series), scales)
        if ref_g is None:
            ref_g, ref_star = g.vector(), star
            continue
        worst_g = max(worst_g, float(np.max(np.abs(g.vector() - ref_g))))
        for a, b in (
            (star.r_lin, ref_star.r_lin),
            (star.r_quad, ref_star.r_quad),
            (star.l, ref_star.l),
        ):
            worst_c = max(worst_c, abs(a - b) / max(abs(b), 1e-30))
    ok = worst_g < 1e-12 and worst_c < 1e-10
    _verdict(
        3,
        "scaled junctions give identical G* (1e-12) and fitted "
        "dimensionless coefficients (1e-10)",
        ok,
        f"G* spread {worst_g:.2e}, coeff spread {worst_c:.2e}",
    )


# -- 4: nondimensionalization round-trip and Re_c arbitrariness ------------


def test_criterion_04_nondim_roundtrip_and_rec():
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_rec = 0.0
    for _ in range(200):
        c = CoefficientSet(
            kind="RRI",
            r_lin=rng.uniform(-1e3, 1e3),
            r_quad=rng.uniform(-10, 10),
            l=rng.uniform(-10, 10),
        )
        l_c = rng.uniform(0.1, 2.0)
        per_rec = []
        for re_c in (1000.0, 4500.0):
            s = characteristic_scales(l_c, FLUID, re_c)
            back = redimensionalize_coeffs(nondimensionalize_coeffs(c, s), s)
            for a, b in ((back.r_lin, c.r_lin), (back.r_quad, c.r_quad), (back.l, c.l)):
                worst_rt = max(worst_rt, abs(a - b) / max(abs(b), 1.0))
            per_rec.append((back.r_lin, back.r_quad, back.l))
        for a, b in zip(*per_rec):
            worst_rec = max(worst_rec, abs(a - b) / max(abs(b), 1.0))
    _verdict(
        4,
        "redim(nondim(x)) = x to 1e-14; dimensional results identical "
        "across Re_c in {1000, 4500} to 1e-10",
        worst_rt < 1e-14 and worst_rec < 1e-10,
        f"roundtrip {worst_rt:.2e}, Re_c spread {worst_rec:.2e}",
    )


# -- 5: training pipeline on the full cohort -------------------------------


@pytest.mark.slow
def test_criterion_05_training_pipeline():
    t0 = time.monotonic()
    dataset, manifest = build_cohort(n=800, seed=0)
    assert manifest["n_rows"] == 11200
    assert dataset.train_idx.size == 10080 and dataset.val_idx.size == 1120
    cfg = TrainingConfig(seed=0)  # default epoch budget
    models_a, report_a = train_models(dataset, config=cfg)
    models_b, report_b = train_models(dataset, config=cfg)
    elapsed = time.monotonic() - t0

    worst_mse = max(rep["final_val_mse"] for rep in report_a.values())
    bitwise = all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for tag in models_a
        for wa, wb in zip(models_a[tag].weights, models_b[tag].weights)
        for ba, bb in zip(models_a[tag].biases, models_b[tag].biases)
    ) and report_a == report_b
    _verdict(
        5,
        "800-junction cohort: all val MSE <= 0.05 in default epochs, "
        "bitwise-reproducible, < 10 min",
        worst_mse <= 0.05 and bitwise and elapsed < 600.0,
        f"worst val MSE {worst_mse:.3g}, bitwise={bitwise}, {elapsed:.0f} s",
    )


# -- 6: flow-split exactness -----------------------------------------------


def _random_resistor_tree(depth, seed):
    rng = np.random.default_rng(seed)
    data = network_to_dict(generate_symmetric_tree(depth=depth))
    for v in data["vessels"]:
        v["length"] *= rng.uniform(0.5, 2.0)
        v["area"] *= rng.uniform(0.7, 1.4)
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "RESISTANCE":
            bc["value"]["R"] *= rng.uniform(0.3, 3.0)
    return network_from_dict(data)


def test_criterion_06_flow_split_exactness():
    worst = 0.0
    invariant = True
    for depth in range(1, 7):
        net = _random_resistor_tree(depth, seed=depth)
        est = estimate_flow_splits(net)
        sol = solve_steady_standard(net)
        for j in net.junctions:
            phi_solved = (
                sol.q(j.outlets[0].vessel_id)[0] / sol.q(j.inlet_vessel)[0]
            )
            worst = max(worst, abs(est.splits[j.id][0] - phi_solved))
        # inflow invariance: rescale the inflow BC and re-estimate
        data = network_to_dict(net)
        for bc in data["boundary_conditions"]:
            if bc["kind"] == "FLOW":
                bc["value"] = 13.7
        est2 = estimate_flow_splits(network_from_dict(data))
        invariant &= est2.splits == est.splits
    _verdict(
        6,
        "split estimates match solved splits to 1e-10 up to depth 6, "
        "independent of inflow",
        worst < 1e-10 and invariant,
        f"worst split error {worst:.2e}",
    )


# -- 7: solver cross-validation --------------------------------------------


def _linear_coefficient_tree(depth, seed):
    rng = np.random.default_rng(seed)
    data = network_to_dict(generate_symmetric_tree(depth=depth))
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "RESISTANCE":
            bc["value"]["R"] *= rng.uniform(0.5, 2.0)
    net = network_from_dict(data)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = CoefficientSet(
                kind="RRI",
                r_lin=rng.uniform(50.0, 500.0),
                r_quad=0.0,
                l=rng.uniform(0.1, 1.0),
            )
    flows, _ = newton_rri_reference(net)
    for j in net.junctions:
        q = flows[j.inlet_vessel]
        j.outlets[0].flow_split = flows[j.outlets[0].vessel_id] / q
        j.outlets[1].flow_split = 1.0 - j.outlets[0].flow_split
    return net


def test_criterion_07_solver_cross_validation():
    worst_node = 0.0
    worst_mass = 0.0
    for depth, seed in ((1, 21), (2, 22), (3, 23)):
        net = _linear_coefficient_tree(depth, seed)
        flows, pressures = newton_rri_reference(net)
        sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
        for vid in net.vessels:
            worst_node = max(
                worst_node,
                abs(sol.q(vid)[0] - flows[vid]) / max(abs(flows[vid]), 1.0),
                abs(sol.p(vid)[0] - pressures[vid]) / max(abs(pressures[vid]), 1.0),
            )
        worst_mass = max(worst_mass, mass_conservation_error(sol))
        std = solve_steady_standard(generate_symmetric_tree(depth=depth))
        worst_mass = max(worst_mass, mass_conservation_error(std))
    _verdict(
        7,
        "linear-coefficient solve_opt matches root-finder at every node to "
        "1e-6; mass conservation <= 1e-10 in both engines",
        worst_node < 1e-6 and worst_mass <= 1e-10,
        f"worst node err {worst_node:.2e}, worst mass err {worst_mass:.2e}",
    )


# -- 8: ill-posed robustness -----------------------------------------------


def test_criterion_08_ill_posed_quadratic_pair():
    net = make_single_junction(
        rri_coeffs(0.0, 1.0, 0.0), rri_coeffs(0.0, -1.0, 0.0), phi=0.5, inflow=10.0
    )
    sol = solve_opt(net, SolverConfig(mode="steady"), engine="rri")
    diag = sol.diagnostics[0]
    ok = (
        diag["constraint_violation"] <= 1e-8
        and math.isfinite(diag["objective"])
        and diag["objective"] > 0
    )
    _verdict(
        8,
        "opposed-quadratic junction converges to a feasible point with "
        "finite positive objective",
        ok,
        f"Z={diag['objective']:.3e}, violation {diag['constraint_violation']:.1e}",
    )


# -- 9: transient convergence order ----------------------------------------


def test_criterion_09_backward_euler_order():
    period, t_end = 0.08, 0.04

    def q_of(t):
        return 50.0 * (1.0 - np.cos(2 * np.pi * t / period))

    def qdot_of(t):
        return 50.0 * (2 * np.pi / period) * np.sin(2 * np.pi * t / period)

    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        n_steps = int(round(t_end / dt))
        ts = dt * np.arange(n_steps + 1)
        vessels = {"v0": Vessel(id="v0", length=2.0, area=0.8, capacitance=0.0)}
        net = VascularNetwork(
            fluid=FLUID,
            vessels=vessels,
            junctions=[],
            boundary_conditions=[
                BoundaryCondition(vessel_id="v0", kind="FLOW", value=(ts, q_of(ts))),
                BoundaryCondition(vessel_id="v0", kind="RESISTANCE", r=200.0),
            ],
        )
        r_v, l_v = net.vessels["v0"].elements(net.fluid)
        sol = solve_transient_standard(
            net, SolverConfig(mode="transient", dt=dt, n_steps=n_steps)
        )
        exact = (200.0 + r_v) * q_of(t_end) + l_v * qdot_of(t_end)
        errors.append(abs(sol.inlet_pressure[-1] - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = all(0.8 <= p <= 1.2 for p in orders)
    _verdict(
        9,
        "backward-Euler error halves with the step over dt in {4,2,1}e-3 s",
        ok,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f}",
    )


# -- 10: impedance sanity --------------------------------------------------


def _transient_impedance(net, period, m, n_harmonics):
    dt = period / m
    w = 2 * np.pi / period
    ts = dt * np.arange(2 * m + 1)

    def q_of(t):
        return sum(
            (30.0 / k) * (1 - np.cos(k * w * t)) for k in range(1, n_harmonics + 1)
        )

    data = network_to_dict(net)
    for bc in data["boundary_conditions"]:
        if bc["kind"] == "FLOW":
            bc["value"] = {"t": list(ts), "q": list(q_of(ts))}
    net = network_from_dict(data)
    sol = solve_transient_standard(
        net, SolverConfig(mode="transient", dt=dt, n_steps=2 * m)
    )
    # drop the differently-initialized t=0 sample: exactly 2 periods remain
    root = net.inflow_bc.vessel_id
    return impedance(sol.q(root)[1:], sol.inlet_pressure[1:], period, dt)


def test_criterion_10_impedance_sanity():
    # near-pure resistor tree: negligible inductance (short vessels), zero
    # capacitance, large leaf resistances
    resistor_tree = generate_symmetric_tree(
        depth=2, inlet_radius=1.0, length_over_radius=0.01,
        leaf_resistance=1e7, capacitance=0.0,
    )
    spec_r = _transient_impedance(resistor_tree, period=1.0, m=128, n_harmonics=4)
    mag = spec_r.magnitude
    flat = float(np.max(np.abs(mag - mag.mean())) / mag.mean())
    phase_ok = float(np.max(np.abs(spec_r.phase)))

    # inductive branch: a single long narrow vessel
    vessels = {"v0": Vessel(id="v0", length=10.0, area=0.5, capacitance=0.0)}
    inductive = VascularNetwork(
        fluid=FLUID,
        vessels=vessels,
        junctions=[],
        boundary_conditions=[
            BoundaryCondition(vessel_id="v0", kind="FLOW", value=1.0),
            BoundaryCondition(vessel_id="v0", kind="RESISTANCE", r=10.0),
        ],
    )
    spec_l = _transient_impedance(inductive, period=0.05, m=128, n_harmonics=4)
    rising = bool(np.all(np.diff(spec_l.magnitude) > 0))
    lead = bool(np.all(spec_l.phase[spec_l.omega > 0] > 0))
    ok = flat < 1e-6 and phase_ok < 1e-6 and rising and lead
    _verdict(
        10,
        "resistor tree: |Z| flat to 1e-6 and |phase| < 1e-6; inductive "
        "branch: rising |Z| with phase lead",
        ok,
        f"flatness {flat:.1e}, max |phase| {phase_ok:.1e}, "
        f"rising={rising}, lead={lead}",
    )


# -- 11: in-tree fit self-consistency --------------------------------------


def test_criterion_11_tree_fit_self_consistency():
    # depth-uniform coefficients keep the RRI model exactly solvable
    rng = np.random.default_rng(31)
    depth = 2
    net = generate_symmetric_tree(depth=depth)
    by_depth = {
        d: CoefficientSet(
            kind="RRI",
            r_lin=rng.uniform(100.0, 400.0),
            r_quad=rng.uniform(4.0, 8.0),
            l=rng.uniform(0.1, 1.0),
        )
        for d in range(depth)
    }
    for j, d in zip(net.junctions, net.topology.depth):
        for o in j.outlets:
            o.coefficients = by_depth[d]
            o.flow_split = 0.5

    inflows = [40.0, 80.0, 120.0, 160.0]
    refs = []
    original = net.boundary_conditions
    for q in inflows:
        net.boundary_conditions = [
            BoundaryCondition(vessel_id=b.vessel_id, kind="FLOW", value=q)
            if b.kind == "FLOW"
            else b
            for b in original
        ]
        refs.append(solve_opt(net, SolverConfig(mode="steady"), engine="rri"))
    net.boundary_conditions = original

    rri_fits = fit_tree_coefficients(net, refs, mode="RRI")
    ri_fits = fit_tree_coefficients(net, refs, mode="RI")
    worst_rec = 0.0
    for j in net.junctions:
        for o in j.outlets:
            got = rri_fits[(j.id, o.vessel_id)]
            worst_rec = max(
                worst_rec,
                abs(got.r_lin - o.coefficients.r_lin) / abs(o.coefficients.r_lin),
                abs(got.r_quad - o.coefficients.r_quad) / abs(o.coefficients.r_quad),
            )
    rri_rows = resolve_with_fits(net, rri_fits, inflows, refs)
    ri_rows = resolve_with_fits(net, ri_fits, inflows, refs)
    rri_err = max(r["relative"] for r in rri_rows)
    ri_err = max(r["relative"] for r in ri_rows)
    ok = worst_rec < 1e-8 and rri_err <= 1e-6 and rri_err <= ri_err
    _verdict(
        11,
        "tree fits recover RRI coefficients to 1e-8; re-solve error <= 1e-6 "
        "and <= the RI fit's error",
        ok,
        f"recovery {worst_rec:.2e}, RRI err {rri_err:.2e}, RI err {ri_err:.2e}",
    )


# -- 12: end-to-end CLI pipeline -------------------------------------------


@pytest.mark.slow
def test_criterion_12_cli_pipeline(tmp_path, trained_bundle):
    bundle, _ = trained_bundle
    models = tmp_path / "models.json"
    save_models(bundle, models)

    # the subprocess runs in tmp_path, so a relative PYTHONPATH entry would
    # not resolve there; put the imported package's own source root first
    src = str(Path(vascrom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "vascrom.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )

    tree = tmp_path / "tree.json"
    splits = tmp_path / "splits.json"
    predicted = tmp_path / "tree_rri.json"
    outdir = tmp_path / "sol"
    t0 = time.monotonic()
    steps = [
        run("make-tree", "--depth", "5", "--out", str(tree)),
        run("estimate-splits", "--network", str(tree), "--out", str(splits),
            "--network-out", str(tree)),
        run("predict", "--network", str(tree), "--models", str(models),
            "--out", str(predicted)),
        run("solve", "--network", str(predicted), "--engine", "rri",
            "--mode", "steady", "--out", str(outdir)),
    ]
    elapsed = time.monotonic() - t0
    exit_ok = all(p.returncode == 0 for p in steps)
    assert exit_ok, "\n".join(p.stderr for p in steps if p.returncode != 0)

    # criterion-6 gate: reported splits match the solved flow ratios
    import csv

    with open(outdir / "solution.csv", newline="") as f:
        rows = list(csv.reader(f))
    header, values = rows[0], [float(v) for v in rows[1]]
    state = dict(zip(header, values))
    net = network_from_dict(json.loads(predicted.read_text()))
    split_report = {
        row["id"]: row["phi_1"]
        for row in json.loads(splits.read_text())["junctions"]
    }
    worst_split = 0.0
    worst_mass = 0.0
    for j in net.junctions:
        q_parent = state[f"Q_{j.inlet_vessel}_out"]
        q_children = [state[f"Q_{o.vessel_id}_in"] for o in j.outlets]
        worst_split = max(
            worst_split, abs(q_children[0] / q_parent - split_report[j.id])
        )
        worst_mass = max(worst_mass, abs(q_parent - sum(q_children)))
    for vid in net.vessels:
        worst_mass = max(
            worst_mass, abs(state[f"Q_{vid}_in"] - state[f"Q_{vid}_out"])
        )
    ok = exit_ok and elapsed < 30.0 and worst_split < 1e-10 and worst_mass <= 1e-10
    _verdict(
        12,
        "depth-5 make-tree -> estimate-splits -> predict -> rri solve, "
        "exit 0 in < 30 s with split/mass gates",
        ok,
        f"{elapsed:.1f} s, split err {worst_split:.2e}, mass err {worst_mass:.2e}",
    )
