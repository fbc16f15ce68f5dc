#!/usr/bin/env python3
"""Steady solver cost against tree depth: one JSON line per depth.

Each line holds the vessel count, the seconds of a steady standard solve, of
a steady rri solve and of its kkt_report (best of --repeat calls each), the
standard solve's work counters (the Jacobian's stored entries and the L and U
entries of its factor), the rri solve's least-squares evaluation and Jacobian
counts, the tracemalloc peak of one kkt_report call, and the peak RSS of the
process so far.  The trees are symmetric, with leaf resistance
1e5 * 2^(depth - 6), estimated flow splits and the same RRI coefficients at
every outlet (r_lin 50, r_quad 2, l 0.5).

Usage (from the root of a checkout; it imports vascrom from src/):
    python scripts/solver_scaling.py --depths 6 7 8 9 10 --repeat 3
"""

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vascrom.flowsplit import estimate_flow_splits  # noqa: E402
from vascrom.network import generate_symmetric_tree  # noqa: E402
from vascrom.nondim import CoefficientSet  # noqa: E402
from vascrom.solver import SolverConfig, kkt_report, solve_opt, solve_steady_standard  # noqa: E402


def scaling_tree(depth):
    net = generate_symmetric_tree(depth=depth, leaf_resistance=1e5 * 2.0 ** (depth - 6))
    estimate_flow_splits(net)
    coeffs = CoefficientSet(kind="RRI", r_lin=50.0, r_quad=2.0, l=0.5)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = coeffs
    return net


def best_of(repeat, fn, *args, **kwargs):
    """The smallest wall time of repeat calls, and the last call's result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return min(times), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="+", default=[6, 7, 8])
    ap.add_argument("--repeat", type=int, default=3, help="calls per timing (best is kept)")
    args = ap.parse_args()
    for depth in args.depths:
        net = scaling_tree(depth)
        standard_s, standard = best_of(args.repeat, solve_steady_standard, net)
        rri_s, rri = best_of(args.repeat, solve_opt, net, SolverConfig(mode="steady"), "rri")
        kkt_s, _ = best_of(args.repeat, kkt_report, rri)
        tracemalloc.start()
        try:
            kkt_report(rri)
            kkt_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(json.dumps({
            "depth": depth,
            "vessels": len(net.vessels),
            "standard_s": round(standard_s, 6),
            "nnz_jacobian": standard.diagnostics[0]["nnz_jacobian"],
            "nnz_factor": standard.diagnostics[0]["nnz_factor"],
            "rri_s": round(rri_s, 6),
            "rri_nfev": rri.diagnostics[0]["nfev"],
            "rri_njev": rri.diagnostics[0]["njev"],
            "kkt_s": round(kkt_s, 6),
            "kkt_traced_peak_mb": round(kkt_peak / 1e6, 3),
            "process_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3, 1),
        }), flush=True)


if __name__ == "__main__":
    main()
