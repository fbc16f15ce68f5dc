"""Command-line front end wiring the pipeline stages together.

Exit codes: 0 success, 1 validation/input error, 2 numerical failure.
Every command writes a run manifest (manifest.json) beside its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .network import (
    MMHG_TO_BA,
    Fluid,
    NetworkError,
    generate_symmetric_tree,
    load_network,
    save_network,
)
from .nondim import NondimError
from .datagen import (
    DatagenError,
    SamplingRanges,
    WaveformConfig,
    build_cohort,
    fit_ri,
    fit_rri,
    ingest_timeseries_csv,
    r_squared,
)
from .mlp import (
    ModelBundle,
    ModelError,
    TrainingConfig,
    load_dataset,
    load_models,
    predict_network,
    save_dataset,
    save_models,
    train_models,
)
from .flowsplit import FlowSplitError, estimate_flow_splits, write_split_report
from .analysis import (
    AnalysisError,
    depth_statistics,
    fit_tree_coefficients,
    impedance,
    pressure_error,
    resolve_with_fits,
    write_impedance_csv,
)
from .solver import (
    ConvergenceError,
    SolverConfig,
    SolverError,
    export_solution,
    kkt_report,
    solve_opt,
    solve_steady_standard,
    solve_transient_standard,
)

VALIDATION_ERRORS = (
    NetworkError,
    NondimError,
    DatagenError,
    ModelError,
    FlowSplitError,
    AnalysisError,
    FileNotFoundError,
    KeyError,
    ValueError,
)


def _write_manifest(outdir: Path, command: str, args: dict, seed, inputs, outputs, t0):
    outdir.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(args, sort_keys=True, default=str).encode()
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)


def _re_to_flow(re_value: float, radius: float, fluid: Fluid) -> float:
    # plug flow: Re = rho*(Q/A)*2r/mu  ->  Q = Re*mu*pi*r/(2*rho)
    return re_value * fluid.mu * math.pi * radius / (2.0 * fluid.rho)


def cmd_make_tree(args) -> int:
    t0 = time.monotonic()
    net = generate_symmetric_tree(
        depth=args.depth,
        inlet_radius=args.inlet_radius,
        length_over_radius=args.length_over_radius,
        murray_exponent=args.murray_exponent,
        inflow=args.inflow,
        leaf_resistance=args.leaf_resistance,
        bifurcation_definition=args.bif_def,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_network(net, out)
    _write_manifest(out.parent, "make-tree", vars(args), None, [], [out], t0)
    print(f"wrote {out}: {len(net.vessels)} vessels, {len(net.junctions)} junctions")
    return 0


def cmd_generate_data(args) -> int:
    t0 = time.monotonic()
    outdir = Path(args.out)
    dataset, manifest = build_cohort(
        n=args.n,
        ranges=SamplingRanges(),
        waveform=WaveformConfig(n_steps=args.waveform_steps, period=args.period),
        seed=args.seed,
        noise_sigma=args.noise_sigma,
    )
    save_dataset(dataset, outdir)
    with open(outdir / "cohort_manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)
    _write_manifest(
        outdir, "generate-data", vars(args), args.seed, [], [outdir], t0
    )
    print(f"wrote {manifest['n_rows']} rows for {args.n} junctions to {outdir}")
    return 0


def cmd_train(args) -> int:
    t0 = time.monotonic()
    dataset = load_dataset(args.data)
    config = TrainingConfig(
        epochs=args.epochs, seed=args.seed, stop_val_mse=args.stop_val_mse
    )
    models, report = train_models(dataset, config=config)
    bundle = ModelBundle.from_training(dataset, models)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_models(bundle, out)
    with open(out.with_suffix(".report.json"), "w") as f:
        json.dump(report, f, indent=1)
    _write_manifest(out.parent, "train", vars(args), args.seed, [args.data], [out], t0)
    for tag, rep in report.items():
        print(f"{tag}: val MSE {rep['final_val_mse']:.4g} after {rep['epochs_run']} epochs")
    return 0


def cmd_estimate_splits(args) -> int:
    t0 = time.monotonic()
    net = load_network(args.network)
    estimate = estimate_flow_splits(net)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_split_report(estimate, out)
    if args.network_out:
        save_network(net, args.network_out)
    _write_manifest(
        out.parent, "estimate-splits", vars(args), None, [args.network], [out], t0
    )
    print(f"estimated splits for {len(estimate.splits)} junctions")
    return 0


def cmd_predict(args) -> int:
    t0 = time.monotonic()
    net = load_network(args.network)
    bundle = load_models(args.models)
    if any(o.flow_split is None for j in net.junctions for o in j.outlets):
        estimate_flow_splits(net)
    reports = predict_network(bundle, net, kind=args.kind)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_network(net, out)
    with open(out.with_suffix(".report.json"), "w") as f:
        json.dump(reports, f, indent=1)
    _write_manifest(
        out.parent, "predict", vars(args), None, [args.network, args.models], [out], t0
    )
    print(f"predicted {args.kind} coefficients for {len(net.junctions)} junctions")
    return 0


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    net = load_network(args.network)
    config = SolverConfig(mode=args.mode, dt=args.dt, n_steps=args.steps)
    if args.engine == "standard":
        if args.mode == "steady":
            sol = solve_steady_standard(net, config)
        else:
            sol = solve_transient_standard(net, config)
    else:
        if any(o.flow_split is None for j in net.junctions for o in j.outlets):
            estimate_flow_splits(net)
        sol = solve_opt(net, config, engine=args.engine)
    outdir = Path(args.out)
    export_solution(sol, outdir)
    if args.engine != "standard":
        with open(outdir / "kkt.json", "w") as f:
            json.dump(kkt_report(sol), f, indent=1)
    _write_manifest(outdir, "solve", vars(args), None, [args.network], [outdir], t0)
    print(
        f"{args.engine}/{args.mode} solve done: "
        f"inlet pressure {sol.inlet_pressure[-1]:.4f} Ba"
    )
    return 0


def cmd_fit_coeffs(args) -> int:
    t0 = time.monotonic()
    series = ingest_timeseries_csv(args.series)
    coeffs = fit_rri(series) if args.kind == "RRI" else fit_ri(series)
    result = {
        "kind": coeffs.kind,
        "r_lin": coeffs.r_lin,
        "r_quad": coeffs.r_quad,
        "l": coeffs.l,
        "r_squared": r_squared(series, coeffs),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    _write_manifest(out.parent, "fit-coeffs", vars(args), None, [args.series], [out], t0)
    print(f"{coeffs.kind} fit: R^2 = {result['r_squared']:.6f}")
    return 0


def cmd_fit_tree(args) -> int:
    t0 = time.monotonic()
    net = load_network(args.network)
    if any(o.flow_split is None for j in net.junctions for o in j.outlets):
        estimate_flow_splits(net)
    inlet_radius = net.inlet_vessel.radius
    re_values = [float(v) for v in args.re.split(",")]
    inflows = [_re_to_flow(r, inlet_radius, net.fluid) for r in re_values]
    solutions = []
    for q in inflows:
        with net.steady_inflow(q):
            solutions.append(solve_opt(net, SolverConfig(mode="steady"), engine="rri"))
    fits = fit_tree_coefficients(net, solutions, mode=args.kind)
    errors = resolve_with_fits(net, fits, inflows, references=solutions)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(
            {
                "mode": args.kind,
                "re_sweep": re_values,
                "fits": [
                    {
                        "junction": jid,
                        "outlet": vid,
                        "r_lin": c.r_lin,
                        "r_quad": c.r_quad,
                        "l": c.l,
                    }
                    for (jid, vid), c in fits.items()
                ],
                "resolve_errors": errors,
            },
            f,
            indent=1,
        )
    _write_manifest(out.parent, "fit-tree", vars(args), None, [args.network], [out], t0)
    print(f"fitted {len(fits)} junction outlets over Re sweep {re_values}")
    return 0


def cmd_impedance(args) -> int:
    t0 = time.monotonic()
    series = ingest_timeseries_csv(args.series)
    spectrum = impedance(series.q, series.dp, period=args.period, dt=series.dt)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_impedance_csv(spectrum, out)
    _write_manifest(out.parent, "impedance", vars(args), None, [args.series], [out], t0)
    print(f"wrote {spectrum.omega.size} harmonics to {out}")
    return 0


def cmd_compare(args) -> int:
    t0 = time.monotonic()
    import csv as _csv

    def read_solution_csv(path):
        with open(path, newline="") as f:
            reader = _csv.reader(f)
            header = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        return header, rows

    h1, sol = read_solution_csv(Path(args.solution) / "solution.csv")
    h2, ref = read_solution_csv(Path(args.reference) / "solution.csv")
    if h1 != h2 or sol.shape != ref.shape:
        raise AnalysisError("solution and reference layouts do not match")
    net = load_network(args.network)
    root = net.inflow_bc.vessel_id
    col = h1.index(f"P_{root}_in")
    diff = np.abs(sol[:, col] - ref[:, col])
    denom = float(np.max(np.abs(ref[:, col])))
    if denom == 0:
        raise AnalysisError("reference pressure range is zero")
    result = {
        "absolute_mmhg": float(np.max(diff)) / MMHG_TO_BA,
        "relative": float(np.max(diff)) / denom,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    _write_manifest(
        out.parent,
        "compare",
        vars(args),
        None,
        [args.solution, args.reference],
        [out],
        t0,
    )
    print(
        f"inlet pressure error: {result['absolute_mmhg']:.4f} mmHg "
        f"({100 * result['relative']:.2f}%)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vascrom",
        description="0D vascular networks with ML-predicted junction coefficients "
        "(CGS units: cm, s, g, Ba).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-tree", help="generate a symmetric Murray-law tree")
    p.add_argument("--depth", type=int, required=True, help="bifurcation levels (>= 0)")
    p.add_argument("--inlet-radius", type=float, default=0.5, help="root radius [cm]")
    p.add_argument("--length-over-radius", type=float, default=20.0)
    p.add_argument("--murray-exponent", type=float, default=3.0)
    p.add_argument("--inflow", type=float, default=100.0, help="steady inflow [cm^3/s]")
    p.add_argument("--leaf-resistance", type=float, default=1e5, help="[Ba s/cm^3]")
    p.add_argument(
        "--bif-def",
        default="partial_branch",
        choices=["no_branch", "partial_branch", "full_branch"],
    )
    p.add_argument("--out", required=True, help="output network JSON path")
    p.set_defaults(func=cmd_make_tree)

    p = sub.add_parser("generate-data", help="build a synthetic training cohort")
    p.add_argument("--n", type=int, required=True, help="number of junctions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--waveform-steps", type=int, default=200)
    p.add_argument("--period", type=float, default=0.4, help="waveform period [s]")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="dP noise [Ba]")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train per-coefficient models")
    p.add_argument("--data", required=True, help="dataset directory from generate-data")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop-val-mse", type=float, default=None)
    p.add_argument("--out", required=True, help="output model bundle JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate-splits", help="a-priori flow splits from circuitry")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True, help="split report JSON")
    p.add_argument("--network-out", default=None, help="optionally rewrite network with splits")
    p.set_defaults(func=cmd_estimate_splits)

    p = sub.add_parser("predict", help="predict junction coefficients for a network")
    p.add_argument("--network", required=True)
    p.add_argument("--models", required=True, help="model bundle JSON")
    p.add_argument("--kind", default="RRI", choices=["RRI", "RI"])
    p.add_argument("--out", required=True, help="augmented network JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("solve", help="solve a network")
    p.add_argument("--network", required=True)
    p.add_argument("--engine", default="standard", choices=["standard", "rri", "ri"])
    p.add_argument("--mode", default="steady", choices=["steady", "transient"])
    p.add_argument("--dt", type=float, default=1e-3, help="time step [s]")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fit-coeffs", help="fit RRI/RI coefficients to a time series")
    p.add_argument("--series", required=True, help="CSV with header t,Q,dP")
    p.add_argument("--kind", default="RRI", choices=["RRI", "RI"])
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_fit_coeffs)

    p = sub.add_parser("fit-tree", help="fit in-tree junction coefficients over a Re sweep")
    p.add_argument("--network", required=True, help="network with junction coefficients")
    p.add_argument("--re", default="600,1300,2700,5500", help="comma-separated Re sweep")
    p.add_argument("--kind", default="RRI", choices=["RRI", "RI"])
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(func=cmd_fit_tree)

    p = sub.add_parser("impedance", help="impedance spectrum of a periodic series")
    p.add_argument("--series", required=True, help="CSV with header t,Q,dP")
    p.add_argument("--period", type=float, required=True, help="[s]")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_impedance)

    p = sub.add_parser("compare", help="pressure error between two solve outputs")
    p.add_argument("--solution", required=True, help="solve output directory")
    p.add_argument("--reference", required=True, help="reference solve output directory")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError,) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (SolverError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
