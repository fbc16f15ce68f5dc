#!/usr/bin/env python3
"""End-to-end pipeline: synthesize a junction cohort, train the coefficient
models, build a symmetric tree, estimate its flow splits, predict its
junction coefficients, solve it with the standard and the rri engines and
compare their inlet pressures.  Each step is one ``vascrom`` CLI command.

Writes all artifacts under --out (default: runs/pipeline).

Usage:
    python scripts/run_pipeline.py --n 200 --depth 4 --seed 0
"""

import argparse
import sys
import time
from pathlib import Path

from vascrom import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="cohort size (junctions)")
    ap.add_argument("--depth", type=int, default=4, help="tree depth")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=500, help="training epoch budget")
    ap.add_argument("--out", type=Path, default=Path("runs/pipeline"))
    args = ap.parse_args()
    out = args.out
    tree, net = out / "tree.json", out / "tree_rri.json"
    steps = [
        ["generate-data", "--n", args.n, "--seed", args.seed, "--out", out / "cohort"],
        ["train", "--data", out / "cohort", "--epochs", args.epochs, "--seed", args.seed,
         "--out", out / "models.json"],
        ["make-tree", "--depth", args.depth, "--out", tree],
        ["estimate-splits", "--network", tree, "--out", out / "splits.json",
         "--network-out", tree],
        ["predict", "--network", tree, "--models", out / "models.json", "--out", net],
        ["solve", "--network", net, "--engine", "standard", "--out", out / "solution_standard"],
        ["solve", "--network", net, "--engine", "rri", "--out", out / "solution_rri"],
        ["compare", "--solution", out / "solution_rri", "--reference",
         out / "solution_standard", "--network", net, "--out", out / "compare.json"],
    ]
    t0 = time.monotonic()
    for argv in steps:
        code = cli.main([str(a) for a in argv])
        if code != 0:
            return code
    print(f"done in {time.monotonic() - t0:.1f} s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
