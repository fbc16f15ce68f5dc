"""Command-line front end wiring the pipeline stages together.

Each ``cmd_*`` handler holds only its pipeline calls.  ``main`` runs every
command the same way: it times the handler, maps its exceptions to the exit
code (0 success, 1 usage or validation/input error, 2 numerical failure)
and, only once the handler has returned, writes the run manifest: command,
config hash, seed, input and output paths, tool version and wall time.  A command
writing a directory gets ``<dir>/manifest.json``; one writing a file
``<name>.<ext>`` gets ``<name>.manifest.json`` beside it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .formats import canonical_json, read_csv, write_json
from .network import (BIFURCATION_DEFINITIONS, NetworkError, generate_symmetric_tree,
                      load_network, save_network)
from .nondim import NondimError
from .datagen import (
    DatagenError,
    WaveformConfig,
    build_cohort,
    fit_ri,
    fit_rri,
    ingest_timeseries_csv,
    plug_flow,
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
from .flowsplit import (
    FlowSplitError,
    ensure_flow_splits,
    estimate_flow_splits,
    write_split_report,
)
from .analysis import (
    AnalysisError,
    fit_tree_coefficients,
    impedance,
    resolve_with_fits,
    series_pressure_error,
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

# exit code 1; ConvergenceError, a SolverError, is caught first and exits 2
VALIDATION_ERRORS = (
    NetworkError,
    NondimError,
    DatagenError,
    ModelError,
    FlowSplitError,
    AnalysisError,
    SolverError,
    OSError,
)


def cmd_make_tree(args) -> None:
    net = generate_symmetric_tree(
        depth=args.depth,
        inlet_radius=args.inlet_radius,
        length_over_radius=args.length_over_radius,
        murray_exponent=args.murray_exponent,
        inflow=args.inflow,
        leaf_resistance=args.leaf_resistance,
        bifurcation_definition=args.bif_def,
    )
    save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.vessels)} vessels, {len(net.junctions)} junctions")


def cmd_generate_data(args) -> None:
    outdir = Path(args.out)
    dataset, manifest = build_cohort(
        n=args.n,
        waveform=WaveformConfig(n_steps=args.waveform_steps, period=args.period),
        seed=args.seed,
        noise_sigma=args.noise_sigma,
    )
    save_dataset(dataset, outdir)
    write_json(manifest, outdir / "cohort_manifest.json")
    print(f"wrote {manifest['n_rows']} rows for {args.n} junctions to {outdir}")


def cmd_train(args) -> None:
    config = TrainingConfig(
        epochs=args.epochs, seed=args.seed, stop_val_mse=args.stop_val_mse
    )
    dataset = load_dataset(args.data)
    models, report = train_models(dataset, config=config)
    out = Path(args.out)
    save_models(ModelBundle.from_training(dataset, models), out)
    write_json(report, out.with_suffix(".report.json"))
    for tag, rep in report.items():
        print(f"{tag}: val MSE {rep['final_val_mse']:.4g} after {rep['epochs_run']} epochs")


def cmd_estimate_splits(args) -> None:
    net = load_network(args.network)
    estimate = estimate_flow_splits(net)
    write_split_report(estimate, args.out)
    if args.network_out:
        save_network(net, args.network_out)
    print(f"estimated splits for {len(estimate.splits)} junctions")


def cmd_predict(args) -> None:
    net = load_network(args.network)
    bundle = load_models(args.models)
    ensure_flow_splits(net)
    reports = predict_network(bundle, net, kind=args.kind)
    out = Path(args.out)
    save_network(net, out)
    write_json(reports, out.with_suffix(".report.json"))
    print(f"predicted {args.kind} coefficients for {len(net.junctions)} junctions")


def cmd_solve(args) -> None:
    net = load_network(args.network)
    config = SolverConfig(mode=args.mode, dt=args.dt, n_steps=args.steps)
    if args.engine == "standard":
        if args.mode == "steady":
            sol = solve_steady_standard(net, config)
        else:
            sol = solve_transient_standard(net, config)
    else:
        ensure_flow_splits(net)
        sol = solve_opt(net, config, engine=args.engine)
    export_solution(sol, args.out)
    if args.engine != "standard":
        write_json(kkt_report(sol), Path(args.out) / "kkt.json")
    print(
        f"{args.engine}/{args.mode} solve done: "
        f"inlet pressure {sol.inlet_pressure[-1]:.4f} Ba"
    )


def cmd_fit_coeffs(args) -> None:
    series = ingest_timeseries_csv(args.series)
    coeffs = fit_rri(series) if args.kind == "RRI" else fit_ri(series)
    r2 = r_squared(series, coeffs)
    write_json(
        {"kind": coeffs.kind, "r_lin": coeffs.r_lin, "r_quad": coeffs.r_quad,
         "l": coeffs.l, "r_squared": r2},
        args.out,
    )
    print(f"{coeffs.kind} fit: R^2 = {r2:.6f}")


def cmd_fit_tree(args) -> None:
    net = load_network(args.network)
    ensure_flow_splits(net)
    inflows = [plug_flow(r, net.inlet_vessel.radius, net.fluid) for r in args.re]
    solutions = []
    for q in inflows:
        with net.steady_inflow(q):
            solutions.append(solve_opt(net, SolverConfig(mode="steady"), engine="rri"))
    try:
        fits = fit_tree_coefficients(net, solutions, mode=args.kind)
    except AnalysisError as e:
        raise AnalysisError(f"{args.network}: {e}") from e
    errors = resolve_with_fits(net, fits, inflows, references=solutions)
    rows = [
        {"junction": jid, "outlet": vid, "r_lin": c.r_lin, "r_quad": c.r_quad, "l": c.l}
        for (jid, vid), c in fits.items()
    ]
    write_json(
        {"mode": args.kind, "re_sweep": args.re, "fits": rows, "resolve_errors": errors},
        args.out,
    )
    print(f"fitted {len(fits)} junction outlets over Re sweep {args.re}")


def cmd_impedance(args) -> None:
    series = ingest_timeseries_csv(args.series)
    spectrum = impedance(series.q, series.dp, period=args.period, dt=series.dt)
    write_impedance_csv(spectrum, args.out)
    print(f"wrote {spectrum.omega.size} harmonics to {args.out}")


def cmd_compare(args) -> None:
    path, ref_path = Path(args.solution) / "solution.csv", Path(args.reference) / "solution.csv"
    h1, sol, _ = read_csv(path, None, None, AnalysisError)
    h2, ref, _ = read_csv(ref_path, None, None, AnalysisError)
    if h1 != h2 or sol.shape != ref.shape:
        raise AnalysisError(f"{ref_path}: columns or rows differ from those of {path}")
    net = load_network(args.network)
    outlets = [b.vessel_id for b in net.boundary_conditions if b.kind == "RESISTANCE"]
    columns = {f"P_{net.inflow_bc.vessel_id}_in": "the inlet pressure",
               **{f"Q_{vid}_out": f"the flow out of outlet {vid}" for vid in outlets}}
    for name, what in columns.items():
        if name not in h1:
            raise AnalysisError(f"{path}: no column {name}, {what} of {args.network}")
    p, *q = (h1.index(name) for name in columns)
    error = series_pressure_error(sol[:, p], ref[:, p])
    # each outlet's largest flow difference over its largest reference flow
    scale = np.max(np.abs(ref[:, q]), axis=0)
    with np.errstate(all="ignore"):
        flow = np.max(np.abs(sol[:, q] - ref[:, q]), axis=0) / scale
    if not np.isfinite(flow).all():
        k = int(np.argmin(np.isfinite(flow)))
        raise AnalysisError(f"{ref_path}: the relative flow error of outlet {outlets[k]} is "
                            f"not finite: its largest reference flow is {scale[k]:.6g}")
    worst = int(np.argmax(flow))
    write_json({"absolute_mmhg": error["absolute_mmhg"], "relative": error["relative"],
                "outlet_flow_relative": float(flow[worst]), "outlet_flow_vessel": outlets[worst]},
               args.out)
    print(
        f"inlet pressure error: {error['absolute_mmhg']:.4f} mmHg "
        f"({100 * error['relative']:.2f}%); outlet flow error: "
        f"{100 * flow[worst]:.2f}% at {outlets[worst]}"
    )


def _numbers_option(text: str) -> list[float]:
    """A comma-separated list of finite numbers, as an argparse type."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"need comma-separated finite numbers, got {text!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
    p.add_argument("--bif-def", default="partial_branch", choices=BIFURCATION_DEFINITIONS)
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
    p.add_argument("--re", type=_numbers_option, default="600,1300,2700,5500",
                   help="comma-separated Re sweep")
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


# the path options a command reads and writes, as named in the parsed arguments
INPUT_OPTIONS = frozenset({"data", "network", "models", "series", "solution", "reference"})
OUTPUT_OPTIONS = frozenset({"out", "network_out"})


def _write_manifest(args, wall_time_s: float) -> None:
    """The run record of a command that succeeded.  It goes to
    ``<out>/manifest.json`` when the command wrote a directory, else beside
    the output file as ``<name>.manifest.json``."""
    # the handler ("func") prints with its address, which changes per process
    settings = {k: v for k, v in vars(args).items() if k != "func"}
    out = Path(args.out)
    write_json(
        {
            "command": args.command,
            "config_hash": hashlib.sha256(canonical_json(settings)).hexdigest(),
            "seed": settings.get("seed"),
            "inputs": [str(v) for k, v in settings.items() if k in INPUT_OPTIONS],
            "outputs": [str(v) for k, v in settings.items() if k in OUTPUT_OPTIONS and v],
            "tool_version": __version__,
            "wall_time_s": wall_time_s,
        },
        out / "manifest.json" if out.is_dir() else out.with_suffix(".manifest.json"),
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if e.code else 0
    t0 = time.monotonic()
    try:
        args.func(args)
    except ConvergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _write_manifest(args, time.monotonic() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
