"""The three benchmark workloads.

Each workload builds a fixed input set from the seed (``setup``), runs one
operation at a time (``run_op``) and checks each operation's outputs after
the timed section (``check``).  The program is driven only through public
functions of ``vascrom.*`` and, for ``cli-pipeline``, ``vascrom.cli.main``.

Known program defects.  Each failure (a raised error or one failed check)
carries its own tag; a tagged failure is still counted in ``failed`` but does
not make the run incorrect, because it is the baseline the benchmark measures
against.  Only these failures get a tag:

* ``qq-law`` -- the rri/ri engines apply ``R_quad*Q^2`` where the junction law
  is ``R_quad*Q|Q|``.  Tagged: the rri-vs-``Q|Q|``-root check of a symmetric
  tree with reversed steady inflow, and of a pulsatile symmetric tree from
  the first time step with reversed inflow on (earlier steps are checked
  untagged).
* ``rri-stationarity`` -- on asymmetric trees (``bal``, ``unbal``) the rri
  least-squares solve can stop above the stationarity gate and raise.
  Tagged: that raised error, and only when the rri solve raised it.

Any other failure, including every check of the steps that ran before a
tagged error, marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import trees
from checks import CONSTRAINT_TOL, MASS_TOL, NODE_TOL, SPLIT_TOL, States, Topo

from vascrom import cli as vcli
from vascrom.analysis import depth_statistics, impedance
from vascrom.datagen import build_cohort
from vascrom.flowsplit import estimate_flow_splits
from vascrom.mlp import ModelBundle, TrainingConfig, predict_network, train_models
from vascrom.network import generate_symmetric_tree, network_from_dict, network_to_dict
from vascrom.nondim import CoefficientSet
from vascrom.solver import (
    SolverConfig,
    kkt_report,
    solve_opt,
    solve_steady_standard,
    solve_transient_standard,
)

# The shared model bundle is a fixed fixture of the program, not a seeded
# input: its cohort and training seeds never change, so its validation MSE
# is bitwise repeatable and any change to training numerics shows in val_mse.
COHORT_N = 60
COHORT_SEED = 7
TRAIN_EPOCHS = 60
TRAIN_SEED = 3


@dataclass
class Op:
    id: str
    size: str
    shape: str
    reversed_flow: bool
    data: dict = field(repr=False)
    net: object = field(default=None, repr=False)
    tree: str | None = None  # the input tree this operation works on

    def __post_init__(self):
        if self.tree is None and "cmd" not in self.data:
            self.tree = self.id


@dataclass
class Outcome:
    op: Op
    seconds: float
    result: dict
    error: str | None = None
    pass_no: int = 1
    error_known: str | None = None  # known-defect tag of the raised error
    # (message, known-defect tag or None), one per failed check
    failures: list[tuple[str, str | None]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)

    def reasons(self) -> list[tuple[str, str | None]]:
        """Every failure of this operation with its known-defect tag."""
        raised = [(self.error, self.error_known)] if self.error else []
        return raised + self.failures

    @property
    def unexpected(self) -> bool:
        """True when some failure is not a known defect."""
        return any(known is None for _, known in self.reasons())


def train_bundle(tracer):
    dataset, _ = tracer.call(
        "datagen.cohort", build_cohort, n=COHORT_N, seed=COHORT_SEED
    )
    config = TrainingConfig(epochs=TRAIN_EPOCHS, seed=TRAIN_SEED)
    models, report = tracer.call("mlp.train", train_models, dataset, config=config)
    val_mse = max(r["final_val_mse"] for r in report.values())
    return ModelBundle.from_training(dataset, models), val_mse


def warm_up() -> None:
    """One steady chain on a 31-vessel tree with constant coefficients: pays
    the first-call costs (lazy imports, BLAS thread start, the first rri
    solve) before timing.  A larger tree adds BLAS work and its timing noise
    to ``setup_s`` without paying more first-call cost."""
    net = generate_symmetric_tree(depth=4)
    estimate_flow_splits(net)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = CoefficientSet(kind="RRI", r_lin=50.0, r_quad=0.5, l=0.0)
    solve_steady_standard(net)
    kkt_report(solve_opt(net, SolverConfig(mode="steady"), engine="rri"))


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _fail(out: Outcome, what: str, value: float, tol: float, known: str | None = None):
    if not value <= tol:  # also catches NaN
        out.failures.append((f"{what} {value:.3e} > {tol:.0e}", known))


def _flow_bc(data: dict) -> dict:
    return next(b for b in data["boundary_conditions"] if b["kind"] == "FLOW")


def _check_splits(out: Outcome, topo: Topo, net) -> None:
    ref = checks.split_estimates(topo)
    worst = max(
        abs(j.outlets[0].flow_split - ref[j.id]) + abs(j.outlets[1].flow_split - (1 - ref[j.id]))
        for j in net.junctions
    )
    _fail(out, "flow-split error", worst, SPLIT_TOL)


def _check_error(out: Outcome) -> None:
    """Tag the raised error when it is the rri stationarity gate on an
    asymmetric tree; ``result['stage']`` names the step that raised."""
    if (
        out.error
        and out.result.get("stage") == "rri"
        and out.error.startswith("ConvergenceError: ")
        and "stationarity" in out.error
        and out.op.shape != "sym"
    ):
        out.error_known = "rri-stationarity"


class _InProcess:
    """Shared parts of the two workloads that call the library directly."""

    train_epochs = TRAIN_EPOCHS
    cohort_n = COHORT_N

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer

    def pass_ops(self, n: int) -> list[Op]:
        return self.ops

    def _stage(self, res: dict, key: str, span: str, fn, *args, **kwargs):
        """One step of an operation; its result goes to ``res[key]`` and
        ``res['stage']`` keeps the key of the step that raised."""
        res["stage"] = key
        res[key] = self.tr.call(span, fn, *args, **kwargs)
        return res[key]

    def newton_iterations(self, outcomes) -> int:
        return sum(
            d["iterations"]
            for o in outcomes if "std" in o.result
            for d in o.result["std"].diagnostics
        )


class SteadyTrees(_InProcess):
    """Per-tree chain from a network dict to depth statistics."""

    name = "steady-trees"
    # (size, shape, reversed inflow); the fixed input set of one pass.  One
    # 511-vessel chain takes about 10 s, so the class holds only the symmetric
    # tree, whose chain runs to the end; two passes then fit in run_seconds.
    PLAN = (
        ("v127", "sym", False), ("v127", "sym", True),
        ("v127", "bal", False), ("v127", "unbal", False),
        ("v127", "bal", False), ("v127", "unbal", False),
        ("v127", "bal", False), ("v127", "unbal", False),
        ("v511", "sym", False),
    )

    def setup(self) -> None:
        self.ops = []
        for k, (size, shape, rev) in enumerate(self.PLAN):
            rng = _rng(self.seed, k)
            inflow = rng.uniform(80.0, 120.0) * (-1.0 if rev else 1.0)
            data = trees.make_tree(shape, size, inflow, rng)
            self.ops.append(Op(f"{k}:{size}/{shape}{'-' if rev else '+'}", size, shape, rev, data))
        self.bundle, self.val_mse = train_bundle(self.tr)
        warm_up()

    def run_op(self, op: Op, res: dict) -> None:
        stage, tag = self._stage, op.size
        net = stage(res, "net", "network.from_dict", network_from_dict, op.data, tag=tag)
        stage(res, "splits", "flowsplit.estimate", estimate_flow_splits, net, tag=tag)
        stage(res, "predict", "mlp.predict", predict_network, self.bundle, net, tag=tag)
        stage(res, "std", "solver.standard", solve_steady_standard, net, tag=tag)
        rri = stage(res, "rri", "solver.rri", solve_opt, net, SolverConfig(mode="steady"),
                    engine="rri", tag=tag)
        stage(res, "kkt", "solver.kkt", kkt_report, rri, tag=tag)
        stage(res, "depth", "analysis.depth_stats", depth_statistics, net, rri, tag=tag)

    def check(self, out: Outcome) -> None:
        res, op = out.result, out.op
        _check_error(out)
        inflow = _flow_bc(op.data)["value"]
        topo = Topo(op.data)
        if "std" in res:
            _check_splits(out, topo, res["net"])
            std = States.from_solution(res["std"])
            _fail(out, "standard vs series-parallel", checks.standard_error(topo, std, inflow), NODE_TOL)
            _fail(out, "standard mass balance", checks.mass_balance(topo, std), MASS_TOL)
        if "rri" in res:
            rri = States.from_solution(res["rri"])
            _fail(out, "rri mass balance", checks.mass_balance(topo, rri), MASS_TOL)
            if op.shape == "sym":
                coeffs = Topo(network_to_dict(res["net"]))
                _fail(
                    out, "rri vs Q|Q| root", max(checks.rri_errors(coeffs, rri, [inflow])), NODE_TOL,
                    known="qq-law" if op.reversed_flow else None,
                )
        if "kkt" in res:
            viol = max(r["constraint_violation"] for r in res["kkt"])
            _fail(out, "kkt constraint violation", viol, CONSTRAINT_TOL)
        if "depth" in res:
            recs = res["depth"]
            ok = len(recs) == len(topo.junctions) and any(
                r["depth"] == 0 and abs(r["normalized_flow"] - 1.0) < 1e-12 for r in recs
            )
            _fail(out, "depth-statistics mismatch", 0.0 if ok else 1.0, 0.0)


# -- pulsatile --------------------------------------------------------------

PERIOD = 0.7  # s, one cardiac cycle
N_STEPS = 14
DT = PERIOD / N_STEPS


def waveform(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """One cycle sampled on the solver's own time grid: positive at t=0,
    systolic peak, and a diastolic phase that dips below zero."""
    t = DT * np.arange(N_STEPS + 1)
    mean = rng.uniform(80.0, 120.0)
    a1 = rng.uniform(0.9, 1.1)
    a2 = rng.uniform(0.25, 0.35)
    w = 2 * math.pi * t / PERIOD
    q = mean * (0.5 + a1 * np.sin(w) + a2 * np.sin(2 * w))
    return t.tolist(), q.tolist()


class Pulsatile(_InProcess):
    """One cardiac cycle, backward Euler, both engines, then the inlet
    impedance.  Splits and coefficients are attached in set-up."""

    name = "pulsatile"
    PLAN = (("v127", "sym"), ("v127", "bal")) * 3

    config = SolverConfig(mode="transient", dt=DT, n_steps=N_STEPS)

    def setup(self) -> None:
        self.bundle, self.val_mse = train_bundle(self.tr)
        self.ops = []
        for k, (size, shape) in enumerate(self.PLAN):
            rng = _rng(self.seed, 100 + k)
            t, q = waveform(rng)
            data = trees.make_tree(shape, size, 1.0, rng)
            _flow_bc(data)["value"] = {"t": t, "q": q}
            net = self.tr.call("network.from_dict", network_from_dict, data, tag=size)
            self.tr.call("flowsplit.estimate", estimate_flow_splits, net, tag=size)
            self.tr.call("mlp.predict", predict_network, self.bundle, net, tag=size)
            op = Op(f"{k}:{size}/{shape}~", size, shape, min(q) < 0, data, net)
            self.ops.append(op)
        warm_up()

    def run_op(self, op: Op, res: dict) -> None:
        net, cfg = op.net, self.config
        root = net.inflow_bc.vessel_id
        solvers = (
            ("std", "solver.transient_standard", solve_transient_standard, {}),
            ("rri", "solver.transient_rri", solve_opt, {"engine": "rri"}),
        )
        for key, span, solve, kwargs in solvers:
            t0 = time.perf_counter()
            sol = self._stage(res, key, span, solve, net, cfg, **kwargs)
            res[key + "_s"] = time.perf_counter() - t0
            self._stage(
                res, "z_" + key, "analysis.impedance", impedance,
                sol.q(root)[:-1], sol.p(root)[:-1], period=PERIOD, dt=DT,
            )

    def check(self, out: Outcome) -> None:
        res, op = out.result, out.op
        _check_error(out)
        topo = Topo(network_to_dict(op.net))
        root = topo.root
        for key in ("std", "rri"):
            if key not in res:
                continue
            st = States.from_solution(res[key])
            dt = DT if key == "std" else None
            _fail(out, f"{key} mass balance", checks.mass_balance(topo, st, dt), MASS_TOL)
            zkey = "z_" + key
            if zkey in res:
                q, p = st.get(root, "q_in")[:-1], st.get(root, "p_in")[:-1]
                _fail(out, f"{key} impedance Z(0)", checks.impedance_error(res[zkey], q, p), 1e-9)
        if "rri" in res:
            viol = max(r["constraint_violation"] for r in kkt_report(res["rri"]))
            _fail(out, "kkt constraint violation", viol, CONSTRAINT_TOL)
            if op.shape == "sym":
                inflows = _flow_bc(op.data)["value"]["q"]
                errs = checks.rri_errors(topo, States.from_solution(res["rri"]), inflows, DT)
                # Q^2 and Q|Q| agree until the inflow first turns negative
                k = next((k for k, q in enumerate(inflows) if q < 0), len(inflows))
                what = "transient rri vs backward-Euler Q|Q| root"
                _fail(out, f"{what}, steps 0-{k - 1}", max(errs[:k]), NODE_TOL)
                if k < len(errs):
                    _fail(out, f"{what}, steps {k}-{len(errs) - 1} (reversed inflow from step {k})",
                          max(errs[k:]), NODE_TOL, known="qq-law")


# -- cli-pipeline -------------------------------------------------------------

CLI_COHORT_N = 200
CLI_EPOCHS = 20
CLI_DEPTH = 6
CLI_TREES = 3  # trees per pass; each runs make-tree through compare

# names vascrom.cli imported, rebound to traced wrappers in traced runs only
CLI_BINDINGS = {
    "build_cohort": ("datagen.cohort", None),
    "save_dataset": ("mlp.dataset_save", None),
    "load_dataset": ("mlp.dataset_load", None),
    "train_models": ("mlp.train", None),
    "save_models": ("mlp.models_save", None),
    "load_models": ("mlp.models_load", None),
    "load_network": ("network.load", None),
    "save_network": ("network.save", None),
    "estimate_flow_splits": ("flowsplit.estimate", "v127"),
    "predict_network": ("mlp.predict", "v127"),
    "solve_steady_standard": ("solver.standard", "v127"),
    "solve_opt": ("solver.rri", "v127"),
    "kkt_report": ("solver.kkt", "v127"),
    "export_solution": ("solver.export", None),
}


class CliPipeline:
    """The user-facing command chain, run in-process through vascrom.cli.main."""

    name = "cli-pipeline"
    train_epochs = CLI_EPOCHS
    cohort_n = CLI_COHORT_N
    COMMANDS = (
        "generate-data", "train", "make-tree", "estimate-splits", "predict",
        "solve-rri", "solve-standard", "compare",
    )

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tr = tracer
        self.workdir = workdir
        self.val_mse = math.nan

    def setup(self) -> None:
        rng = _rng(self.seed, 200)
        self.trees = [
            (float(rng.uniform(80.0, 120.0)), float(rng.uniform(0.8e5, 1.2e5)))
            for _ in range(CLI_TREES)
        ]
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        warm_up()

    def pass_ops(self, n: int) -> list[Op]:
        """The command chain of pass n, writing into its own directory."""
        d = self.workdir / f"pass{n}"
        data, models = d / "data", d / "models.json"
        chain = [
            ("generate-data", None, d,
             ["generate-data", "--n", CLI_COHORT_N, "--seed", 0, "--out", data]),
            ("train", None, d,
             ["train", "--data", data, "--epochs", CLI_EPOCHS, "--seed", 0, "--out", models]),
        ]
        for i, (inflow, leaf_r) in enumerate(self.trees):
            t = d / f"tree{i}"
            tree, rri_net = t / "tree.json", t / "tree_rri.json"
            chain += [
                ("make-tree", i, t,
                 ["make-tree", "--depth", CLI_DEPTH, "--inflow", repr(inflow),
                  "--leaf-resistance", repr(leaf_r), "--out", tree]),
                ("estimate-splits", i, t,
                 ["estimate-splits", "--network", tree, "--out", t / "splits.json",
                  "--network-out", tree]),
                ("predict", i, t,
                 ["predict", "--network", tree, "--models", models, "--out", rri_net]),
                ("solve-rri", i, t,
                 ["solve", "--network", rri_net, "--engine", "rri", "--out", t / "sol_rri"]),
                ("solve-standard", i, t,
                 ["solve", "--network", rri_net, "--engine", "standard", "--out", t / "sol_std"]),
                ("compare", i, t,
                 ["compare", "--solution", t / "sol_rri", "--reference", t / "sol_std",
                  "--network", rri_net, "--out", t / "compare.json"]),
            ]
        return [
            Op(cmd if i is None else f"t{i}/{cmd}", "v127", "sym", False,
               {"cmd": cmd, "dir": where, "argv": [str(a) for a in argv]},
               tree=None if i is None else f"t{i}")
            for cmd, i, where, argv in chain
        ]

    @contextlib.contextmanager
    def bound(self):
        """Rebind vascrom.cli's imported names to traced wrappers."""
        if not self.tr.enabled:
            yield
            return
        saved = {name: getattr(vcli, name) for name in CLI_BINDINGS}
        try:
            for name, (span, tag) in CLI_BINDINGS.items():
                setattr(vcli, name, self.tr.wrap(span, saved[name], tag=tag))
            yield
        finally:
            for name, fn in saved.items():
                setattr(vcli, name, fn)

    def run_op(self, op: Op, res: dict) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.tr.call("cli." + op.data["cmd"], vcli.main, op.data["argv"])
        res["exit"] = code
        if code != 0:
            raise RuntimeError(f"exit code {code}: {sink.getvalue().strip()[-200:]}")

    def check(self, out: Outcome) -> None:
        if out.error:
            return
        cmd, d = out.op.data["cmd"], out.op.data["dir"]
        if cmd == "train":
            with open(d / "models.report.json") as f:
                report = json.load(f)
            worst = max(r["final_val_mse"] for r in report.values())
            if math.isnan(self.val_mse):
                self.val_mse = worst
            elif worst != self.val_mse:
                out.failures.append(
                    (f"training not repeatable: val MSE {worst!r} != {self.val_mse!r}", None)
                )
            # targets are z-normalised: above 1 is worse than predicting the mean
            _fail(out, "val MSE", worst, 1.0)
        elif cmd == "estimate-splits":
            with open(d / "tree.json") as f:
                data = json.load(f)
            ref = checks.split_estimates(Topo(data))
            worst = max(abs(j["flow_splits"][0] - ref[j["id"]]) for j in data["junctions"])
            _fail(out, "flow-split error", worst, SPLIT_TOL)
        elif cmd in ("solve-rri", "solve-standard"):
            with open(d / "tree_rri.json") as f:
                topo = Topo(json.load(f))
            sub = d / ("sol_rri" if cmd == "solve-rri" else "sol_std")
            st = States.from_csv(sub / "solution.csv")
            _fail(out, f"{cmd} mass balance", checks.mass_balance(topo, st), MASS_TOL)
            if cmd == "solve-rri":
                with open(sub / "kkt.json") as f:
                    viol = max(r["constraint_violation"] for r in json.load(f))
                _fail(out, "kkt constraint violation", viol, CONSTRAINT_TOL)
                _fail(out, "rri vs Q|Q| root", max(checks.rri_errors(topo, st, [topo.inflow])), NODE_TOL)
            else:
                _fail(out, "standard vs series-parallel", checks.standard_error(topo, st, topo.inflow), NODE_TOL)
        elif cmd == "compare":
            with open(d / "compare.json") as f:
                got = json.load(f)["relative"]
            with open(d / "tree_rri.json") as f:
                root = Topo(json.load(f)).root
            rri = States.from_csv(d / "sol_rri" / "solution.csv").get(root, "p_in")
            std = States.from_csv(d / "sol_std" / "solution.csv").get(root, "p_in")
            ref = float(np.max(np.abs(rri - std)) / np.max(np.abs(std)))
            _fail(out, "compare relative error", abs(got - ref), 1e-12 * max(ref, 1.0))

    def newton_iterations(self, outcomes) -> int:
        newton = 0
        for o in outcomes:
            if o.op.data["cmd"] == "solve-standard" and not o.error:
                with open(o.op.data["dir"] / "sol_std" / "diagnostics.json") as f:
                    newton += sum(s["iterations"] for s in json.load(f)["steps"])
        return newton
