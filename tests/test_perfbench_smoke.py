"""One pass of each solver workload of the benchmark, with every check.

``perfbench/run.py`` checks each operation of a pass against independent
oracles: the ``Q|Q|`` root of each rri solve, mass balance, the kkt
constraint violation and the impedance at zero frequency.  With
``--seconds 0`` it runs one pass, and with ``--trace 1`` it starts no cold
set-up processes.  Its last line of standard output is one JSON object.  The
run writes only under the gitignored ``.perfbench_out/`` of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["steady-trees", "pulsatile"])
def test_one_benchmark_pass_passes_every_check(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), result.stdout
    assert last["attempted"] > 0
