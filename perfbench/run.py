"""vascrom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload steady-trees --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports ``vascrom`` from
``src/`` and nowhere else.  It prints a human-readable report (run
environment, every metric with its unit and sample count, every failed
operation and why) and, as the last line of standard output, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The full record, and the spans of a
traced run, go to ``.perfbench_out/`` in the checkout.

The timed section runs whole passes over the workload's fixed input set
until ``--seconds`` would be exceeded, and always at least one pass.  Set-up
(imports, input generation, training the shared model bundle, warm-up) is
timed cold: once in this process, and then, after the timed section and the
checks, in two fresh processes started with ``--setup-only``; ``setup_s`` is
the median of the three, so every sample pays the first-call costs.  Traced
runs skip the fresh processes, as they do not report ``setup_s``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("steady-trees", "pulsatile", "cli-pipeline")
SETUP_SAMPLES = 3  # cold set-ups per run: this process and two fresh ones


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it as JSON and exit")
    return p.parse_args(argv)


def import_program():
    """Import vascrom from this checkout's src/; fail if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vascrom

    if Path(vascrom.__file__).resolve().parent != src / "vascrom":
        raise ImportError(f"vascrom imported from {vascrom.__file__}, not from {src}")
    return vascrom


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, read through its
    own getter; None when it cannot be found."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(vascrom) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vascrom").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vascrom": vascrom.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def cold_setup(args) -> float:
    """Set-up time of a fresh process (``--setup-only``) on the same workload
    and seed, so the sample pays imports and first-call costs again."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"cold set-up exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def make_workload(name, seed, tracer, workdir):
    import workloads as w

    if name == "steady-trees":
        return w.SteadyTrees(seed, tracer)
    if name == "pulsatile":
        return w.Pulsatile(seed, tracer)
    return w.CliPipeline(seed, tracer, workdir)


def run_timed(wl, tracer, seconds):
    from workloads import Outcome

    outcomes, pass_times = [], []
    bound = getattr(wl, "bound", contextlib.nullcontext)
    t_start = time.perf_counter()
    with bound():
        while True:
            n = len(pass_times) + 1
            ops = wl.pass_ops(n)
            tp = time.perf_counter()
            for op in ops:
                tracer.op_id = f"p{n}/{op.id}"
                res: dict = {}
                t0 = time.perf_counter()
                try:
                    wl.run_op(op, res)
                    error = None
                except Exception as e:  # the operation failed; record and go on
                    error = f"{type(e).__name__}: {e}"
                outcomes.append(Outcome(op, time.perf_counter() - t0, res, error, pass_no=n))
            pass_times.append(time.perf_counter() - tp)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(pass_times) > seconds:
                break
    tracer.op_id = None
    return outcomes, pass_times


def run_checks(wl, outcomes):
    for out in outcomes:
        try:
            wl.check(out)
        except Exception:  # a check that cannot run is a failed check
            out.failures.append(
                ("check raised " + traceback.format_exc().strip().splitlines()[-1], None)
            )


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(wl, outcomes, pass_times, setup_times) -> dict:
    """name -> (value, sample count, unit): the bounded metrics of
    BENCHMARK.json first, then the ones the report prints for this workload."""
    def op_median(pred):
        vals = [o.seconds for o in outcomes if pred(o)]
        return _median(vals), len(vals), "s"

    def per_tree(size):
        """Mean over the distinct trees of a size class of each tree's median
        chain time over passes; the mean averages out which seeded trees
        happen to fail early."""
        chains: dict = defaultdict(lambda: defaultdict(float))
        for o in outcomes:
            if o.op.tree is not None and o.op.size == size:
                chains[o.op.tree][o.pass_no] += o.seconds
        medians = [statistics.median(c.values()) for c in chains.values()]
        return (statistics.fmean(medians) if medians else None), len(medians), "s"

    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times), "s"),
        "wall_s": (_median(pass_times), len(pass_times), "s"),
        "tree_s.v127": per_tree("v127"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "MB"),
        "val_mse": (wl.val_mse, 1, "1"),
        "fail_ratio": (failed / len(outcomes), len(outcomes), "1"),
    }
    if wl.name == "cli-pipeline":
        for cmd in wl.COMMANDS:
            metrics[f"cmd_s.{cmd}"] = op_median(lambda o, c=cmd: o.op.data["cmd"] == c)
    if wl.name == "steady-trees":
        metrics["tree_s.v511"] = per_tree("v511")
    if wl.name == "pulsatile":
        for key, label in (("std", "standard"), ("rri", "rri")):
            steps = [1000 * o.result[key + "_s"] / (wl.config.n_steps + 1)
                     for o in outcomes if key + "_s" in o.result]
            metrics[f"step_ms.{label}"] = (_median(steps), len(steps), "ms")
    return metrics


def per_layer(wl, tracer, newton_iters, spec_names) -> tuple[dict, dict]:
    """Per-layer values by metric name, and the span count behind each."""
    from tracing import summarize

    summary = summarize(tracer.spans)
    med = summary["median_s"]
    values = {name: med.get(name, 0.0) for name in spec_names}
    for layer, st in summary["layers"].items():
        values[f"{layer}.calls"] = st["calls"]
        values[f"{layer}.failed"] = st["failed"]
        values[f"{layer}.self_s"] = st["self_s"]
    steps = getattr(getattr(wl, "config", None), "n_steps", 0) + 1
    for span, label in (("solver.transient_standard_s", "standard"), ("solver.transient_rri_s", "rri")):
        values[f"solver.step_ms.{label}"] = 1000.0 * med.get(span, 0.0) / steps
    values["solver.newton_iters"] = newton_iters
    values["solver.rri_failed"] = sum(
        1 for s in tracer.spans
        if s["failed"] and s["name"] in ("solver.rri", "solver.transient_rri")
        and (s["op"] or "").startswith("p1/")
    )
    values["mlp.train_epoch_ms"] = 1000.0 * med.get("mlp.train_s", 0.0) / (wl.train_epochs * 5)
    cohort = med.get("datagen.cohort_s")
    values["datagen.fits_per_s"] = 2 * 14 * wl.cohort_n / cohort if cohort else 0.0
    return values, summary["count"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        vascrom = import_program()
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401  (part of the import cost booked into setup_s)
    import scipy.optimize  # noqa: F401
    from tracing import Tracer
    import workloads  # noqa: F401

    import_s = time.perf_counter() - T_START
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(bool(args.trace) and not args.setup_only)
    try:
        tracer.op_id = "setup"
        t0 = time.perf_counter()
        wl = make_workload(args.workload, args.seed, tracer, workdir)
        wl.setup()
        setup_times = [import_s + time.perf_counter() - t0]
        tracer.op_id = None
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0

        outcomes, pass_times = run_timed(wl, tracer, args.seconds)
        run_checks(wl, outcomes)
        newton_iters = wl.newton_iterations([o for o in outcomes if o.pass_no == 1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if not args.trace:
        setup_times += [cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    env = environment(vascrom)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    metrics = end_to_end(wl, outcomes, pass_times, setup_times)
    failed = [o for o in outcomes if o.failed]
    unexpected = [o for o in failed if o.unexpected]
    signature = "".join("F" if o.failed else "P" for o in outcomes if o.pass_no == 1)

    lines = [f"vascrom benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    lines += [f"  env {k}: {v}" for k, v in env.items()]
    lines.append(f"  passes: {len(pass_times)}, operations: {len(outcomes)}, "
                 f"failed: {len(failed)} ({len(unexpected)} with a failure that is not a known defect)")
    lines.append(f"  pass/fail of pass 1: {signature}")
    for name, (value, n, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name}: {shown} {unit} (n={n})")
    for o in failed:
        lines.append(f"  FAILED {o.op.id} (pass {o.pass_no}):")
        for why, known in o.reasons():
            lines.append(f"    [{'known: ' + known if known else 'NOT a known defect'}] {why}")

    if args.trace:
        layer, counts = per_layer(wl, tracer, newton_iters, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(layer):
            lines.append(f"  {name}: {layer[name]:.6g} {units[name]} (n={counts.get(name, '-')})")
        values = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
        chosen = spec["per_layer"]
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {m["name"]: metrics[m["name"]][0] for m in spec["end_to_end"]}
        chosen = spec["end_to_end"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "pass_times": pass_times,
        "setup_times": setup_times, "signature": signature,
        "operations": [
            {"id": o.op.id, "pass": o.pass_no, "seconds": o.seconds, "failures": o.reasons()}
            for o in outcomes
        ],
        "metrics": {k: v for k, (v, _, _) in metrics.items()},
    }
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("\n".join(lines))
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
