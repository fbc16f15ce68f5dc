"""Drive run.py over workloads and seeds, one run at a time, and summarise.

    python3 perfbench/report.py show   [--seed 1] [--seconds 36]
        every workload untraced, then traced: every metric with its unit and
        sample count, the failed operations and why, per-layer self times,
        and the tracing overhead (traced wall_s minus untraced wall_s).

    python3 perfbench/report.py spread --workloads steady-trees --seeds 1-10
        one untraced run per seed; per end-to-end metric the median and the
        quartile spread (Q3-Q1)/median next to its bound; with --repeat the
        first seed runs twice more and the per-operation pass/fail lists of
        its three runs must be identical.

Run from the checkout root, alone on the machine.  Summaries are written
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, str]:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(
        (ROOT / ".perfbench_out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return json.loads(lines[-1]), record, "\n".join(lines[:-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_show(args) -> int:
    for wl in [w["name"] for w in spec()["workloads"]]:
        plain, _, text = run_once(wl, args.seed, args.seconds, 0)
        print(text)
        print(f"  correct: {plain['correct']}, attempted: {plain['attempted']}, failed: {plain['failed']}")
        traced, _, ttext = run_once(wl, args.seed, args.seconds, 1)
        print("\n".join(line for line in ttext.splitlines() if "self_s" in line))
        overhead = traced_wall(ttext) - plain["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead (traced wall_s - untraced wall_s): {overhead:+.4f} s\n")
    return 0


def traced_wall(text: str) -> float:
    line = next(line for line in text.splitlines() if line.strip().startswith("wall_s:"))
    return float(line.split()[1])


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def cmd_spread(args) -> int:
    bench = spec()
    seeds = seeds_of(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record, _ = run_once(wl, seed, args.seconds, 0)
            runs.append({"seed": seed, "result": result, "signature": record["signature"]})
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{wl} seed {seed}: {record['signature']} correct={result['correct']} {vals}", flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, spr = spread(values)
            steady = spr <= m["bound"] / 3
            ok &= steady
            rows[m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": values}
            print(f"  {wl} {m['name']}: median {med:.6g} {m['unit']}, spread {spr:.4f} "
                  f"(bound {m['bound']}, {'ok' if steady else 'TOO WIDE'})")
        entry = {"metrics": rows, "runs": runs}
        if args.repeat:
            again = [run_once(wl, seeds[0], args.seconds, 0)[1]["signature"] for _ in range(2)]
            same = all(s == runs[0]["signature"] for s in again)
            ok &= same
            entry["repeat"] = {"seed": seeds[0], "signatures": [runs[0]["signature"]] + again}
            print(f"  {wl} seed {seeds[0]} pass/fail repeated 3 times: {'identical' if same else 'DIFFERENT'}")
        summary["workloads"][wl] = entry
    out = ROOT / ".perfbench_out" / f"spread-{args.label}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Summaries over benchmark runs.")
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("show")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    s.set_defaults(func=cmd_show)
    s = sub.add_parser("spread")
    s.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    s.add_argument("--repeat", action="store_true")
    s.add_argument("--label", default="latest")
    s.set_defaults(func=cmd_spread)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
