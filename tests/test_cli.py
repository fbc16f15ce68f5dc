import contextlib
import copy
import csv
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_single_junction, make_single_vessel, random_shape_tree, rri_coeffs
import vascrom
from vascrom.cli import VALIDATION_ERRORS, build_parser, main
from vascrom.mlp import ModelError, load_dataset
from vascrom.network import generate_symmetric_tree, load_network, network_to_dict, save_network


def _write_single_vessel(path, **kwargs):
    save_network(make_single_vessel(**kwargs), path)
    return str(path)


def _read_solution(outdir):
    with open(outdir / "solution.csv", newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    values = [[float(v) for v in row] for row in rows[1:]]
    return header, values


# -- parser ----------------------------------------------------------------


COMMANDS = (
    "make-tree",
    "generate-data",
    "train",
    "estimate-splits",
    "predict",
    "solve",
    "fit-coeffs",
    "fit-tree",
    "impedance",
    "compare",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["make-tree", "--depth", "abc", "--out", "t.json"],
                                  ["solve", "--out", "sol"], []])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv):
    """A usage error is an input error (exit 1), not a numerical failure
    (exit 2), and it writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_through_main_exits_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--network" in capsys.readouterr().out


def test_only_the_package_errors_and_oserror_exit_1():
    """Every reader raises the package's own errors, so a KeyError, ValueError
    or TypeError is a fault of the program: it must end in a traceback that a
    test sees, not in exit 1."""
    roots = set()
    for info in pkgutil.iter_modules(vascrom.__path__):
        module = __import__(f"vascrom.{info.name}", fromlist=["_"])
        roots |= {cls for name, cls in vars(module).items()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and cls.__bases__ == (Exception,) and not name.startswith("_")}
    assert {"NetworkError", "SolverError", "ModelError"} <= {cls.__name__ for cls in roots}
    assert set(VALIDATION_ERRORS) == roots | {OSError}
    assert len(VALIDATION_ERRORS) == len(roots) + 1


# -- solve -----------------------------------------------------------------


def test_solve_single_vessel_steady(tmp_path, capsys):
    net_path = _write_single_vessel(tmp_path / "net.json")
    outdir = tmp_path / "sol"
    rc = main(["solve", "--network", net_path, "--out", str(outdir)])
    assert rc == 0
    assert "1010.0531" in capsys.readouterr().out
    header, values = _read_solution(outdir)
    p_in = values[0][header.index("P_v0_in")]
    assert p_in == pytest.approx(1010.0530964914873, rel=1e-10)
    assert (outdir / "manifest.json").exists()


def test_solve_missing_network_reports_path(tmp_path, capsys):
    rc = main(
        ["solve", "--network", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [("solve", "--network"), ("fit-coeffs", "--series")])
def test_a_directory_given_as_input_exits_1_naming_it(tmp_path, capsys, command, option):
    """A directory in place of an input file ended in an IsADirectoryError
    traceback."""
    out = tmp_path / "out" / "result"
    assert main([command, option, str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(tmp_path)) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command, option, content, where", [
    ("solve", "--network", b'{"vessels": "\xff"}',
     ": invalid JSON: 'utf-8' codec can't decode byte 0xff in position 13"),
    ("solve", "--network", b"[" * 100_000 + b"]" * 100_000,
     ": invalid JSON: maximum recursion depth exceeded"),
    ("solve", "--network", '{"fluid": {"note": "\u00e9\u00e9\u00e9"}, x}'.encode(),
     ": invalid JSON at byte 30: Expecting property name"),
    ("fit-coeffs", "--series", b"t,Q,dP\r\n0,1,2\r\n0.1,\xff,3\r\n", ":3: need 3 finite numbers"),
], ids=["json-not-utf8", "json-nested-too-deep", "json-error-after-non-ascii", "csv-not-utf8"])
def test_an_undecodable_file_exits_1_naming_it(tmp_path, capsys, command, option, content, where):
    """Python's decoding error named no file, a RecursionError ended in a
    traceback, and the byte of a JSON error after non-ASCII text was the
    character index."""
    path = tmp_path / "input"
    path.write_bytes(content)
    out = tmp_path / "out" / "result"
    assert main([command, option, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}{where}")
    assert not out.parent.exists()


def test_solve_rri_without_coefficients_names_junction(tmp_path, capsys):
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    for o in net.junctions[0].outlets:
        o.coefficients = None
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    rc = main(
        ["solve", "--network", str(net_path), "--engine", "rri", "--out",
         str(tmp_path / "o")]
    )
    assert rc == 1
    assert "j0" in capsys.readouterr().err


def _solve_with_bad_value(tmp_path, edit):
    net = make_single_junction(rri_coeffs(1.0, 0.01, 0.5))
    data = network_to_dict(net)
    edit(data)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(data))  # writes NaN/Infinity literals
    return main(["solve", "--network", str(net_path), "--engine", "rri",
                 "--out", str(tmp_path / "o")])


def test_solve_rejects_nan_vessel_length(tmp_path, capsys):
    def edit(data):
        data["vessels"][0]["length"] = float("nan")

    assert _solve_with_bad_value(tmp_path, edit) == 1
    assert "finite" in capsys.readouterr().err


def test_solve_rejects_infinite_inflow(tmp_path, capsys):
    def edit(data):
        next(b for b in data["boundary_conditions"] if b["kind"] == "FLOW")[
            "value"] = float("inf")

    assert _solve_with_bad_value(tmp_path, edit) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "estimate-splits"])
@pytest.mark.parametrize("field, value", [("area", 1e-320), ("area", 1e200), ("length", 1e308)])
def test_vessel_with_non_finite_poiseuille_elements_exits_1(tmp_path, capsys, command,
                                                             field, value):
    """Finite, positive geometry whose Poiseuille R or L is not: A**2
    underflows to zero or overflows, or R overflows.  These ended in a
    traceback, or for the long vessel in a singular Jacobian (exit 2)."""
    data = network_to_dict(generate_symmetric_tree(depth=2))
    data["vessels"][1][field] = value
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(data))
    out = {"solve": ["--out", str(tmp_path / "o")],
           "estimate-splits": ["--out", str(tmp_path / "splits.json")]}[command]
    assert main([command, "--network", str(net_path), *out]) == 1
    err = capsys.readouterr().err
    assert "vessel v0: Poiseuille resistance and inductance must be finite" in err


@pytest.mark.parametrize("stenosis_area", [1e-200, 1e-320])
def test_vessel_with_non_finite_stenosis_resistance_exits_1(tmp_path, capsys, stenosis_area):
    """A stenosis far narrower than its vessel overflows (A/A_s - 1)**2: this
    ended in an OverflowError traceback (1e-200) or a singular Jacobian, exit
    2 (1e-320)."""
    data = network_to_dict(generate_symmetric_tree(depth=2))
    data["vessels"][1]["stenosis_area"] = stenosis_area
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(data))
    assert main(["solve", "--network", str(net_path), "--out", str(tmp_path / "o")]) == 1
    assert "vessel v0: stenosis resistance must be finite" in capsys.readouterr().err


def test_solve_rri_writes_kkt_report(tmp_path):
    net_path = tmp_path / "net.json"
    save_network(make_single_junction(rri_coeffs(1.0, 0.01, 0.5)), net_path)
    outdir = tmp_path / "sol"
    rc = main(["solve", "--network", str(net_path), "--engine", "rri",
               "--out", str(outdir)])
    assert rc == 0
    kkt = json.loads((outdir / "kkt.json").read_text())
    assert kkt[0]["constraint_violation"] <= 1e-8


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_solve_rejects_non_finite_time_step(tmp_path, capsys, dt):
    net_path = _write_single_vessel(tmp_path / "net.json")
    outdir = tmp_path / "sol"
    rc = main(["solve", "--network", net_path, "--mode", "transient",
               "--dt", dt, "--out", str(outdir)])
    assert rc == 1
    assert "transient mode needs a finite dt > 0" in capsys.readouterr().err
    assert not outdir.exists()


def test_solve_transient_row_count(tmp_path):
    net_path = _write_single_vessel(tmp_path / "net.json")
    outdir = tmp_path / "sol"
    rc = main(["solve", "--network", net_path, "--mode", "transient",
               "--dt", "1e-3", "--steps", "7", "--out", str(outdir)])
    assert rc == 0
    _, values = _read_solution(outdir)
    assert len(values) == 8


# -- tree / splits ---------------------------------------------------------


def test_make_tree_and_estimate_splits(tmp_path):
    tree = tmp_path / "tree.json"
    rc = main(["make-tree", "--depth", "3", "--out", str(tree)])
    assert rc == 0
    manifest = json.loads((tmp_path / "tree.manifest.json").read_text())
    assert manifest["command"] == "make-tree"
    assert manifest["config_hash"]

    splits = tmp_path / "splits.json"
    tree2 = tmp_path / "tree_splits.json"
    rc = main(["estimate-splits", "--network", str(tree), "--out", str(splits),
               "--network-out", str(tree2)])
    assert rc == 0
    report = json.loads(splits.read_text())
    assert len(report["junctions"]) == 7
    for row in report["junctions"]:
        assert row["phi_1"] == pytest.approx(0.5, abs=1e-12)
    reloaded = load_network(tree2)
    assert all(
        o.flow_split is not None for j in reloaded.junctions for o in j.outlets
    )


@pytest.mark.parametrize("option", ["--murray-exponent", "--inlet-radius",
                                    "--length-over-radius"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_make_tree_rejects_bad_shape_option(tmp_path, capsys, option, value):
    tree = tmp_path / "tree.json"
    assert main(["make-tree", "--depth", "2", option, value, "--out", str(tree)]) == 1
    name = option[2:].replace("-", "_")
    assert f"error: {name} must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exponent, depth", [("0.001", 1), ("0.005", 2)])
def test_make_tree_rejects_a_murray_exponent_that_shrinks_vessels_to_nothing(
        tmp_path, capsys, exponent, depth):
    """A finite exponent > 0 so small that a daughter's area underflows to 0
    (0.001), or its square does (0.005), was blamed on vessel v0 or v00."""
    tree = tmp_path / "tree.json"
    assert main(["make-tree", "--depth", "2", "--murray-exponent", exponent,
                 "--out", str(tree)]) == 1
    assert re.fullmatch(rf"error: the depth-{depth} vessels are too narrow: inlet_radius 0\.5 "
                        rf"and murray_exponent {exponent} give radius \S+, area \S+\n",
                        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


MAKE_TREE_DEPTH_2_HASH = "eeefd25b566628c8eadca7f1100a7ad48eae0e450516463dfd2b2987464ea49c"


def test_config_hash_is_the_same_in_every_process(tmp_path):
    """The hash covers the parsed arguments, not the handler function, whose
    printed form holds its address in one process.  Its value for this argv
    is pinned: the hash of a given command line does not change."""
    src = str(Path(vascrom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    hashes = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-m", "vascrom.cli",
             "make-tree", "--depth", "2", "--out", "tree.json"],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        manifest = json.loads((tmp_path / "tree.manifest.json").read_text())
        hashes.append(manifest["config_hash"])
    assert hashes == [MAKE_TREE_DEPTH_2_HASH] * 2


# -- series commands -------------------------------------------------------


def _write_series(path, r_lin=2.0, r_quad=3.0, l=0.5, n=400, period=1.0):
    t = period / n * np.arange(n)
    q = 10.0 + 4.0 * np.sin(2 * np.pi * t / period)
    qdot = 4.0 * (2 * np.pi / period) * np.cos(2 * np.pi * t / period)
    dp = r_lin * q + r_quad * q * np.abs(q) + l * qdot
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "Q", "dP"])
        for row in zip(t, q, dp):
            w.writerow([repr(float(v)) for v in row])
    return str(path)


def test_fit_coeffs_roundtrip(tmp_path, capsys):
    series = _write_series(tmp_path / "series.csv")
    out = tmp_path / "fit.json"
    rc = main(["fit-coeffs", "--series", series, "--out", str(out)])
    assert rc == 0
    fit = json.loads(out.read_text())
    assert fit["kind"] == "RRI"
    assert fit["r_lin"] == pytest.approx(2.0, rel=1e-3)
    assert fit["r_quad"] == pytest.approx(3.0, rel=1e-3)
    assert fit["r_squared"] > 0.9999


def test_impedance_command(tmp_path):
    n, period = 256, 1.0
    t = period / n * np.arange(n)
    q = 5.0 + np.sin(2 * np.pi * t)
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "Q", "dP"])
        for row in zip(t, q, 42.0 * q):
            w.writerow([repr(float(v)) for v in row])
    out = tmp_path / "z.csv"
    rc = main(["impedance", "--series", str(path), "--period", "1.0",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    for row in rows[1:]:
        assert float(row.split(",")[3]) == pytest.approx(42.0, rel=1e-9)


@pytest.mark.parametrize(
    "command, column, cell",
    [("impedance", 2, "inf"), ("fit-coeffs", 1, "nan"), ("fit-coeffs", 0, "-inf")],
)
def test_series_commands_reject_non_finite_cells(tmp_path, capsys, command, column, cell):
    path = tmp_path / "series.csv"
    lines = Path(_write_series(path)).read_text().splitlines(keepends=True)
    cells = lines[4].rstrip().split(",")
    cells[column] = cell
    lines[4] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    out = tmp_path / "out" / "result"
    extra = ["--period", "1.0"] if command == "impedance" else []
    rc = main([command, "--series", str(path), *extra, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}:5: need 3 finite numbers, got {lines[4].rstrip()!r}\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["impedance", "fit-coeffs"])
@pytest.mark.parametrize("column", [1, 2])
def test_series_commands_reject_numbers_whose_squares_overflow(tmp_path, capsys, command,
                                                               column):
    """A Q or dP of 1e308 ended in an SVD LinAlgError traceback in the fit,
    or in a ValueError traceback when a NaN R^2 or spectrum was written."""
    path = tmp_path / "series.csv"
    lines = Path(_write_series(path)).read_text().splitlines(keepends=True)
    cells = lines[4].rstrip().split(",")
    cells[column] = "1e308"
    lines[4] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    out = tmp_path / "out" / "result"
    extra = ["--period", "1.0"] if command == "impedance" else []
    assert main([command, "--series", str(path), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: the squares of Q and dP overflow\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("period", ["0", "inf", "nan", "-1"])
def test_impedance_rejects_bad_period(tmp_path, capsys, period):
    series = _write_series(tmp_path / "series.csv")
    out = tmp_path / "out" / "z.csv"
    rc = main(["impedance", "--series", series, "--period", period, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: period must be finite and > 0, got {float(period)}\n"
    assert not out.parent.exists()


def test_fit_coeffs_bad_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,flow,drop\n0,1,2\n")
    rc = main(["fit-coeffs", "--series", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "t,Q,dP" in capsys.readouterr().err


# -- data generation -------------------------------------------------------


def test_generate_data_reproducible(tmp_path):
    dirs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        rc = main(["generate-data", "--n", "4", "--seed", "11", "--out", str(outdir)])
        assert rc == 0
        dirs.append(outdir)
    assert sorted(p.name for p in dirs[0].iterdir()) == [
        "cohort_manifest.json", "dataset.csv", "manifest.json", "stats.json"]
    for fname in ("dataset.csv", "stats.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
    manifest = json.loads((dirs[0] / "cohort_manifest.json").read_text())
    assert manifest["n_rows"] == 4 * 14
    assert manifest["waveform"] == {"re_max": 5500.0, "period": 0.4, "n_steps": 200}


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_generate_data_rejects_bad_noise_sigma(tmp_path, capsys, sigma):
    outdir = tmp_path / "cohort"
    assert main(["generate-data", "--n", "2", "--noise-sigma", sigma, "--out", str(outdir)]) == 1
    assert "error: noise_sigma must be finite and >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- fit-tree and compare --------------------------------------------------


def test_fit_tree_command(tmp_path):
    from vascrom.network import generate_symmetric_tree
    from vascrom.nondim import CoefficientSet

    net = generate_symmetric_tree(depth=2)
    coeffs = CoefficientSet(kind="RRI", r_lin=200.0, r_quad=4.0, l=0.2)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = coeffs
            o.flow_split = 0.5
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    out = tmp_path / "fits.json"
    rc = main(["fit-tree", "--network", str(net_path), "--re", "600,1300,2700",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["fits"]) == 4 * len(net.junctions) / 2
    for fit in report["fits"]:
        assert fit["r_lin"] == pytest.approx(200.0, rel=1e-6)
        assert fit["r_quad"] == pytest.approx(4.0, rel=1e-6)
    for row in report["resolve_errors"]:
        assert row["relative"] <= 1e-6


@pytest.mark.parametrize("kind", ["RRI", "RI"])
def test_fit_tree_sweep_from_re_0_has_null_relative_errors(tmp_path, capsys, cli_inputs, kind):
    """The paper's Re range starts at 0.  The Re-0 reference pressure is zero
    throughout, so that resolve row reports its absolute errors and null
    relative ones; it used to exit 1 after the fit had succeeded."""
    net = tmp_path / "tree_rri.json"
    assert main(["estimate-splits", "--network", str(cli_inputs / "tree.json"),
                 "--out", str(tmp_path / "splits.json"), "--network-out", str(net)]) == 0
    assert main(["predict", "--network", str(net), "--models", str(cli_inputs / "models.json"),
                 "--out", str(net)]) == 0
    out = tmp_path / "fits.json"
    assert main(["fit-tree", "--network", str(net), "--kind", kind, "--re", "0,600,1300",
                 "--out", str(out)]) == 0
    zero, *rows = json.loads(out.read_text())["resolve_errors"]
    assert zero["inflow"] == 0.0
    assert (zero["relative"], zero["mean_relative"]) == (None, None)
    assert zero["absolute_mmhg"] == zero["mean_absolute_mmhg"] == 0.0
    for row in rows:
        assert row["inflow"] > 0 and 0 <= row["relative"] < math.inf
    # compare still refuses a relative error against an all-zero reference
    still = _write_single_vessel(tmp_path / "still.json", inflow=0.0)
    for name in ("s1", "s2"):
        assert main(["solve", "--network", still, "--out", str(tmp_path / name)]) == 0
    assert main(["compare", "--solution", str(tmp_path / "s1"), "--reference",
                 str(tmp_path / "s2"), "--network", still, "--out",
                 str(tmp_path / "cmp.json")]) == 1
    assert capsys.readouterr().err == ("error: reference pressure range is zero; "
                                       "relative error undefined\n")


@pytest.mark.parametrize("re_sweep", ["abc", "600,nan", "600,,1300"])
def test_fit_tree_rejects_bad_re_sweep(tmp_path, capsys, re_sweep):
    net_path = tmp_path / "net.json"
    save_network(generate_symmetric_tree(depth=1), net_path)
    out = tmp_path / "fits.json"
    assert main(["fit-tree", "--network", str(net_path), "--re", re_sweep,
                 "--out", str(out)]) == 1
    assert "argument --re: need comma-separated finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_fit_tree_rejects_a_network_without_junctions(tmp_path, capsys):
    net_path = _write_single_vessel(tmp_path / "net.json")
    out = tmp_path / "fits.json"
    assert main(["fit-tree", "--network", net_path, "--re", "600,1300", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {net_path}: the network has no junction outlets to fit\n")
    assert not out.exists()


def test_compare_identical_solutions(tmp_path, capsys):
    net_path = _write_single_vessel(tmp_path / "net.json")
    for name in ("s1", "s2"):
        assert main(["solve", "--network", net_path, "--out",
                     str(tmp_path / name)]) == 0
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--solution", str(tmp_path / "s1"),
               "--reference", str(tmp_path / "s2"),
               "--network", net_path, "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["absolute_mmhg"] == 0.0
    assert result["relative"] == 0.0


def test_compare_names_the_outlet_with_the_worst_flow_error(tmp_path):
    """A depth-2 tree whose rri and standard solutions differ, because one
    leaf resistance and the junction coefficients make it asymmetric; the
    outlet-flow error is checked against a hand computation from the two
    solution.csv files."""
    from vascrom.flowsplit import estimate_flow_splits
    from vascrom.nondim import CoefficientSet

    net = generate_symmetric_tree(depth=2)
    net.boundary_conditions = [replace(b, r=3 * b.r) if b.vessel_id == "v10" else b
                               for b in net.boundary_conditions]
    estimate_flow_splits(net)
    for k, o in enumerate(o for j in net.junctions for o in j.outlets):
        o.coefficients = CoefficientSet(kind="RRI", r_lin=100.0 * (k + 1), r_quad=4.0, l=0.2)
    save_network(net, tmp_path / "net.json")
    for engine in ("rri", "standard"):
        assert main(["solve", "--network", str(tmp_path / "net.json"), "--engine", engine,
                     "--out", str(tmp_path / engine)]) == 0
    out = tmp_path / "cmp.json"
    assert main(["compare", "--solution", str(tmp_path / "rri"), "--reference",
                 str(tmp_path / "standard"), "--network", str(tmp_path / "net.json"),
                 "--out", str(out)]) == 0
    columns = {}
    for engine in ("rri", "standard"):
        with open(tmp_path / engine / "solution.csv", newline="") as f:
            header, *rows = csv.reader(f)
        columns[engine] = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    errors = {}
    for vid in ("v00", "v01", "v10", "v11"):
        q, q_ref = columns["rri"][f"Q_{vid}_out"], columns["standard"][f"Q_{vid}_out"]
        errors[vid] = max(abs(a - b) for a, b in zip(q, q_ref)) / max(map(abs, q_ref))
    worst = max(errors, key=errors.get)
    result = json.loads(out.read_text())
    assert list(result) == ["absolute_mmhg", "relative", "outlet_flow_relative",
                            "outlet_flow_vessel"]
    assert result["outlet_flow_vessel"] == worst
    assert result["outlet_flow_relative"] == errors[worst] > 1e-3


def test_compare_rejects_empty_solution_file(tmp_path, capsys):
    net_path = _write_single_vessel(tmp_path / "net.json")
    for name in ("s1", "s2"):
        assert main(["solve", "--network", net_path, "--out", str(tmp_path / name)]) == 0
    empty = tmp_path / "s2" / "solution.csv"
    empty.write_text("")
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--solution", str(tmp_path / "s1"), "--reference",
               str(tmp_path / "s2"), "--network", net_path, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {empty}: empty file\n"
    assert not out.exists()


# -- train/predict smoke path ----------------------------------------------


def test_train_predict_solve_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate-data", "--n", "12", "--seed", "2",
                 "--out", str(data)]) == 0
    models = tmp_path / "models.json"
    assert main(["train", "--data", str(data), "--epochs", "120",
                 "--stop-val-mse", "0.05", "--out", str(models)]) == 0
    tree = tmp_path / "tree.json"
    assert main(["make-tree", "--depth", "2", "--out", str(tree)]) == 0
    predicted = tmp_path / "tree_rri.json"
    assert main(["predict", "--network", str(tree), "--models", str(models),
                 "--out", str(predicted)]) == 0
    net = load_network(predicted)
    assert all(
        o.coefficients is not None for j in net.junctions for o in j.outlets
    )
    outdir = tmp_path / "sol"
    assert main(["solve", "--network", str(predicted), "--engine", "rri",
                 "--out", str(outdir)]) == 0
    header, values = _read_solution(outdir)
    assert values[0][header.index("P_v_in")] > 0


@pytest.mark.parametrize(
    "option, message",
    [
        (["--epochs", "0"], "need epochs >= 1 and batch_size >= 1, got 0, 50"),
        (["--epochs", "-3"], "need epochs >= 1 and batch_size >= 1, got -3, 50"),
        (["--stop-val-mse", "nan"], "stop_val_mse must be finite and >= 0, got nan"),
    ],
)
def test_train_rejects_invalid_options(tmp_path, capsys, option, message):
    data = tmp_path / "data"
    assert main(["generate-data", "--n", "4", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    models = tmp_path / "models.json"
    rc = main(["train", "--data", str(data), *option, "--out", str(models)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not models.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_rejects_a_validation_target_that_overflows_the_error(tmp_path, capsys):
    """A finite but huge validation target makes the validation MSE inf; the
    report was written with an Infinity that is not JSON, and then the strict
    writer ended in a ValueError traceback."""
    data = tmp_path / "data"
    assert main(["generate-data", "--n", "4", "--seed", "1", "--out", str(data)]) == 0
    path = data / "dataset.csv"
    lines = path.read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.endswith(",val\n"))
    cells = lines[k].rstrip("\n").split(",")
    cells[11] = "1e200"  # rri_rquad
    lines[k] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines), newline="")
    capsys.readouterr()
    models = tmp_path / "out" / "models.json"
    assert main(["train", "--data", str(data), "--epochs", "2", "--out", str(models)]) == 1
    assert capsys.readouterr().err == "error: model rri_rquad: validation MSE inf at epoch 0\n"
    assert not models.parent.exists()


@pytest.mark.parametrize(
    "line, damage, message",
    [
        (1, "bad header",
         "header 'f0,.*,rri_lin,ri_rlin,ri_l,split', need 'f0,.*,rri_l,ri_rlin,ri_l,split'"),
        (5, "short row", "need 15 finite numbers and a split of train or val"),
        (5, "non-numeric cell", "need 15 finite numbers and a split of train or val"),
        (5, "inf cell", "need 15 finite numbers and a split of train or val"),
        (5, "split test", "need 15 finite numbers and a split of train or val, got '.*,test'"),
    ],
    ids=["bad-header", "short-row", "non-numeric-cell", "inf-cell", "split-test"],
)
def test_train_rejects_malformed_dataset(tmp_path, capsys, line, damage, message):
    data = tmp_path / "data"
    assert main(["generate-data", "--n", "4", "--seed", "1", "--out", str(data)]) == 0
    path = data / "dataset.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line - 1].rstrip("\r\n").split(",")
    if damage == "bad header":
        cells[12] = "rri_lin"
    elif damage == "short row":
        cells = cells[:-2] + cells[-1:]
    elif damage == "non-numeric cell":
        cells[3] = "1.0e"
    elif damage == "inf cell":
        cells[11] = "inf"
    else:
        cells[-1] = "test"
    lines[line - 1] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines), newline="")
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--out", str(tmp_path / "models.json")])
    assert rc == 1
    assert re.fullmatch(rf"error: {re.escape(str(path))}:{line}: {message}.*\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "models.json").exists()
    # the reader's own error, not a KeyError or ValueError the CLI maps to exit 1
    with pytest.raises(ModelError, match=rf"dataset\.csv:{line}: "):
        load_dataset(data)


# -- run manifests ---------------------------------------------------------


MANIFEST_KEYS = {
    "command", "config_hash", "seed", "inputs", "outputs", "tool_version", "wall_time_s",
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One input of every kind a command reads, made by the CLI itself, and a
    random-shape tree with junction coefficients and flow splits."""
    from vascrom.flowsplit import estimate_flow_splits
    from vascrom.network import generate_symmetric_tree
    from vascrom.nondim import CoefficientSet

    d = tmp_path_factory.mktemp("inputs")
    _write_series(d / "series.csv")
    assert main(["make-tree", "--depth", "2", "--out", str(d / "tree.json")]) == 0
    assert main(["generate-data", "--n", "4", "--seed", "1", "--out", str(d / "data")]) == 0
    assert main(["train", "--data", str(d / "data"), "--epochs", "2",
                 "--out", str(d / "models.json")]) == 0
    net = generate_symmetric_tree(depth=2)
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = CoefficientSet(kind="RRI", r_lin=200.0, r_quad=4.0, l=0.2)
    save_network(net, d / "net.json")
    rtree = random_shape_tree(1)
    estimate_flow_splits(rtree)
    for j in rtree.junctions:
        for o in j.outlets:
            o.coefficients = CoefficientSet(kind="RRI", r_lin=200.0, r_quad=4.0, l=0.2)
    save_network(rtree, d / "random_tree.json")
    for name in ("s1", "s2"):
        assert main(["solve", "--network", str(d / "net.json"), "--out", str(d / name)]) == 0
    return d


def _manifest_cases(d, r):
    """command -> (options, input paths, output paths, manifest path, seed)"""
    return {
        "make-tree": (["--depth", "2", "--out", r / "tree.json"],
                      [], [r / "tree.json"], r / "tree.manifest.json", None),
        "generate-data": (["--n", "2", "--seed", "3", "--out", r / "data"],
                          [], [r / "data"], r / "data" / "manifest.json", 3),
        "train": (["--data", d / "data", "--epochs", "1", "--out", r / "models.json"],
                  [d / "data"], [r / "models.json"], r / "models.manifest.json", 0),
        "estimate-splits": (["--network", d / "tree.json", "--out", r / "splits.json",
                             "--network-out", r / "tree.json"],
                            [d / "tree.json"], [r / "splits.json", r / "tree.json"],
                            r / "splits.manifest.json", None),
        "predict": (["--network", d / "tree.json", "--models", d / "models.json",
                     "--out", r / "tree_rri.json"],
                    [d / "tree.json", d / "models.json"], [r / "tree_rri.json"],
                    r / "tree_rri.manifest.json", None),
        "solve": (["--network", d / "net.json", "--engine", "rri", "--out", r / "sol"],
                  [d / "net.json"], [r / "sol"], r / "sol" / "manifest.json", None),
        "fit-coeffs": (["--series", d / "series.csv", "--out", r / "fit.json"],
                       [d / "series.csv"], [r / "fit.json"], r / "fit.manifest.json", None),
        "fit-tree": (["--network", d / "net.json", "--re", "600,1300", "--out",
                      r / "fits.json"],
                     [d / "net.json"], [r / "fits.json"], r / "fits.manifest.json", None),
        "impedance": (["--series", d / "series.csv", "--period", "1.0", "--out",
                       r / "z.csv"],
                      [d / "series.csv"], [r / "z.csv"], r / "z.manifest.json", None),
        "compare": (["--solution", d / "s1", "--reference", d / "s2",
                     "--network", d / "net.json", "--out", r / "cmp.json"],
                    [d / "s1", d / "s2", d / "net.json"], [r / "cmp.json"],
                    r / "cmp.manifest.json", None),
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_writes_one_manifest(tmp_path, cli_inputs, command):
    run = tmp_path / "run"
    options, inputs, outputs, where, seed = _manifest_cases(cli_inputs, run)[command]
    assert main([command, *map(str, options)]) == 0
    manifests = [
        p for p in run.rglob("*")
        if p.name == "manifest.json" or p.name.endswith(".manifest.json")
    ]
    assert manifests == [where]
    manifest = json.loads(where.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert re.fullmatch("[0-9a-f]{64}", manifest["config_hash"])
    assert manifest["seed"] == seed
    assert manifest["inputs"] == [str(p) for p in inputs]
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert manifest["tool_version"] == vascrom.__version__
    assert manifest["wall_time_s"] > 0


def test_failing_command_writes_no_manifest(tmp_path, cli_inputs, capsys):
    run = tmp_path / "run"
    rc = main(["train", "--data", str(cli_inputs / "data"), "--epochs", "0",
               "--out", str(run / "models.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: need epochs >= 1")
    assert not run.exists()


# -- JSON files --------------------------------------------------------------


def _json_dump_of(path, **kwargs) -> bytes:
    """The file's content written again by ``json.dump`` with these arguments."""
    buf = io.StringIO()
    with open(path) as f:
        json.dump(json.load(f), buf, **kwargs)
    return buf.getvalue().encode()


def test_json_files_equal_json_dump_output(tmp_path, small_cohort, trained_bundle):
    from vascrom.flowsplit import estimate_flow_splits, write_split_report
    from vascrom.mlp import predict_network, save_dataset, save_models
    from vascrom.formats import write_json
    from vascrom.solver import SolverConfig, export_solution, solve_opt

    (dataset, _), (bundle, _) = small_cohort, trained_bundle
    net = random_shape_tree(4)
    estimate = estimate_flow_splits(net)
    predict_network(bundle, net)
    save_network(net, tmp_path / "net.json")
    write_split_report(estimate, tmp_path / "splits.json")
    save_dataset(dataset, tmp_path / "data")
    save_models(bundle, tmp_path / "models.json")
    export_solution(solve_opt(net, SolverConfig(), engine="rri"), tmp_path / "sol")
    write_json({"x": [0.1, -2.5e-300], "n": 3, "s": "\u00e9"}, tmp_path / "out" / "obj.json")
    indent = {"indent": 1}
    for name, kwargs in {
        "net.json": indent, "splits.json": indent, "data/stats.json": indent,
        "models.json": {}, "sol/diagnostics.json": indent, "out/obj.json": indent,
    }.items():
        assert (tmp_path / name).read_bytes() == _json_dump_of(tmp_path / name, **kwargs), name
    # the writer is strict JSON: it writes no NaN or infinity, and no file at all
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json({"x": [0.1, bad]}, tmp_path / "bad" / "obj.json")
    assert not (tmp_path / "bad" / "obj.json").exists()


# -- malformed input files ---------------------------------------------------


def _flow_bc(data):
    return next(b for b in data["boundary_conditions"] if b["kind"] == "FLOW")


def _resistance_bc(data):
    return next(b for b in data["boundary_conditions"] if b["kind"] == "RESISTANCE")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["vessels"][1].update(area=None),
         "vessel v0: area must be a number, got None"),
        (lambda d: d["vessels"][1].update(area=[1.0]),
         r"vessel v0: area must be a number, got \[1\.0\]"),
        (lambda d: d["vessels"].__setitem__(1, ["v0", 1.0, 1.0]),
         r"vessels\[1\] must be an object"),
        (lambda d: d["junctions"][0].update(outlet_vessels=3),
         "junction jv: outlet_vessels must be a list of 2 strings, got 3"),
        (lambda d: _resistance_bc(d).update(value=5.0),
         "boundary condition on v00: value must be an object, got 5.0"),
        (lambda d: d.update(fluid="water"), "fluid must be an object, got 'water'"),
        (lambda d: _flow_bc(d).update(value={"q": [1.0, 2.0]}),
         r"boundary condition on v: value\.t must be a list of one or more numbers"),
        (lambda d: d["junctions"][0].update(angles=["a", 0.6]),
         r"junction jv: angles must be a list of 2 numbers in \(-inf, inf\), got \['a', 0\.6\]"),
        (lambda d: d["vessels"][1].update(length=True),
         "vessel v0: length must be a number, got True"),
        (lambda d: d["vessels"][1].update(length="2.0"),
         "vessel v0: length must be a number, got '2.0'"),
        (lambda d: d.update(vessels={}), "vessels must be a list, got {}"),
        (lambda d: _resistance_bc(d).update(kind=5),
         "boundary condition on v00: kind must be FLOW or RESISTANCE, got 5"),
        (lambda d: d["junctions"][0].update(
            coefficients=[{"kind": "XYZ", "r_lin": 1.0, "r_quad": 0.0, "l": 0.0}] * 2),
         "junction jv: coefficients\\[0\\]: unknown coefficient kind 'XYZ'"),
        (lambda d: d["junctions"][0].update(coefficients=[{"kind": "RI", "l": 0.0}] * 2),
         "junction jv: coefficients\\[0\\]: r_lin must be a number, got None"),
        (lambda d: d["vessels"][0].update(length=1e308), "pressures overflow: peak inflow 100"),
        (lambda d: _resistance_bc(d)["value"].update(R=1e308), "pressures overflow"),
        (lambda d: _flow_bc(d).update(value=-1e308), "pressures overflow: peak inflow 1e"),
        (lambda d: _flow_bc(d).update(value=5e-324),
         r"peak inflow 4\.94066e-324: its square underflows"),
        (lambda d: d["junctions"][0].update(
            coefficients=[{"kind": "RI", "r_lin": 1e308, "l": 0.0}] * 2),
         "pressures overflow: .* largest resistance 1e"),
    ],
    ids=["area-null", "area-list", "vessel-list", "outlet-vessels-number",
         "resistance-value-number", "fluid-string", "flow-series-without-t", "angle-string",
         "length-bool", "length-string", "vessels-object", "kind-number",
         "coefficient-kind-unknown", "coefficient-r_lin-missing", "length-1e308",
         "leaf-resistance-1e308", "inflow-1e308", "inflow-subnormal", "coefficient-1e308"],
)
def test_malformed_network_json_exits_1_naming_file_entry_and_field(tmp_path, capsys, edit,
                                                                    message):
    """Each of these ended in a traceback, exited 1 with a bare KeyError or
    Python's float message, or (a bool or numeric-string length) was accepted.
    The last five, numbers whose pressures overflow a float or an inflow whose
    square underflows, exited 2 or ended in a least_squares or OverflowError
    traceback."""
    assert main(["make-tree", "--depth", "2", "--out", str(tmp_path / "tree.json")]) == 0
    data = json.loads((tmp_path / "tree.json").read_text())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["solve", "--network", str(path), "--out", str(tmp_path / "o")]) == 1
    assert re.fullmatch(rf"error: {re.escape(str(path))}: {message}.*\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["models"][0].pop("weights"), r"models\[0\]: missing field weights"),
        (lambda d: d["models"][0]["weights"][0][2].pop(),
         r"models\[0\]: weights\[0\]\[2\] must be a list of \d+ numbers"),
        (lambda d: d["ranges"].pop("lam_self"), r"missing field ranges\.lam_self"),
        (lambda d: d.update(znorm_out=5), "znorm_out must be an object, got 5"),
        (lambda d: d["znorm_out"].pop("rri_l"),
         r"models\[\d\]: tag 'rri_l' has no znorm_out entry"),
        (lambda d: d["znorm_in"].update(mean=[0.0] * 3, std=[1.0] * 3),
         r"znorm_in\.mean must be a list of 10 numbers"),
        (lambda d: [row.pop() for row in d["models"][0]["weights"][0]],
         r"models\[0\]: weights\[0\]\[0\] must be a list of 10 numbers"),
    ],
    ids=["weights-deleted", "ragged-weights", "lam_self-range-missing", "znorm_out-number",
         "znorm_out-tag-missing", "three-inputs", "nine-inputs"],
)
def test_predict_with_malformed_bundle_exits_1_naming_file_and_field(tmp_path, capsys,
                                                                    cli_inputs, edit, message):
    """A deleted key and a range that prediction needs exited 1 with a bare
    KeyError ("error: 'weights'"); ragged weights with numpy's message.  A
    znorm_out number ended in a TypeError traceback, a model without its
    znorm_out entry in a bare KeyError, and a bundle for other than 10 inputs
    in numpy's broadcasting message."""
    data = json.loads((cli_inputs / "models.json").read_text())
    edit(data)
    models = tmp_path / "models.json"
    models.write_text(json.dumps(data))
    rc = main(["predict", "--network", str(cli_inputs / "tree.json"), "--models", str(models),
               "--out", str(tmp_path / "tree_rri.json")])
    assert rc == 1
    assert re.fullmatch(rf"error: {re.escape(str(models))}: {message}.*\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "tree_rri.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["scales_policy"].update(re_c=1e308),
     "l_c 0.5 and Re_c 1e+308 give a characteristic scale that overflows or vanishes"),
    (lambda d: d["scales_policy"].update(re_c=5e-324),
     "l_c 0.5 and Re_c 5e-324 give a characteristic scale that overflows or vanishes"),
    (lambda d: d["ranges"].update(alpha_self=[0.5, 5e-324]),
     "the bundle's feature ranges clamp a feature to where its powers overflow"),
], ids=["re_c-1e308", "re_c-subnormal", "alpha-range-subnormal"])
def test_predict_rejects_a_bundle_whose_scales_or_features_overflow(tmp_path, capsys,
                                                                    cli_inputs, edit, message):
    """A bundle Re_c of 1e308 ended in an OverflowError traceback (U_c^2), one
    of 5e-324 in a ZeroDivisionError traceback (t_c = l_c/U_c), and a feature
    range clamping alpha to 5e-324 in an OverflowError traceback (alpha^-2)."""
    data = json.loads((cli_inputs / "models.json").read_text())
    edit(data)
    models = tmp_path / "models.json"
    models.write_text(json.dumps(data))
    rc = main(["predict", "--network", str(cli_inputs / "tree.json"), "--models", str(models),
               "--out", str(tmp_path / "tree_rri.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "tree_rri.json").exists()


@pytest.mark.parametrize("damage", ["nan", "x.0", "short", "long"])
def test_compare_rejects_malformed_solution_rows(tmp_path, capsys, cli_inputs, damage):
    """A nan cell was compared and exited 0; a non-numeric cell exited 1 with
    Python's float message, which names no file."""
    for name in ("s1", "s2"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "solution.csv").write_bytes(
            (cli_inputs / name / "solution.csv").read_bytes())
    path = tmp_path / "s2" / "solution.csv"
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    if damage in ("nan", "x.0"):
        cells[2] = damage
    elif damage == "short":
        cells.pop()
    else:
        cells.append("1.0")
    path.write_text(f"{header}\n{','.join(cells)}\n")
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--solution", str(tmp_path / "s1"), "--reference", str(tmp_path / "s2"),
               "--network", str(cli_inputs / "net.json"), "--out", str(out)])
    assert rc == 1
    n = len(header.split(","))
    assert capsys.readouterr().err == (
        f"error: {path}:2: need {n} finite numbers, got {','.join(cells)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("column, message", [
    ("P_v_in", "pressure error overflows: largest difference 2.5"),
    ("Q_v00_out", "{ref}: the relative flow error of outlet v00 is not finite: its largest "
                  "reference flow is 4.94066e-324"),
])
def test_compare_rejects_an_error_that_overflows(tmp_path, capsys, cli_inputs, column, message):
    """A reference inlet pressure of 5e-324 made the relative error inf, and
    writing it ended in the JSON writer's ValueError traceback."""
    shutil.copytree(cli_inputs / "s2", tmp_path / "s2")
    path = tmp_path / "s2" / "solution.csv"
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = "5e-324"
    path.write_text(f"{header}\n{','.join(cells)}\n")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--solution", str(cli_inputs / "s1"), "--reference",
                 str(tmp_path / "s2"), "--network", str(cli_inputs / "net.json"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.format(ref=path)}")
    assert not out.exists()


def test_compare_rejects_a_network_without_the_solution_inlet(tmp_path, capsys, cli_inputs):
    """The inlet pressure column was looked up with list.index, whose
    ValueError ("'P_v_in' is not in list") named no file."""
    other = tmp_path / "single.json"
    _write_single_vessel(other)
    other.write_text(other.read_text().replace('"v0"', '"w0"'))  # a vessel the tree lacks
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--solution", str(cli_inputs / "s1"), "--reference",
               str(cli_inputs / "s2"), "--network", str(other), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cli_inputs / 's1' / 'solution.csv'}: no column P_w0_in, "
        f"the inlet pressure of {other}\n")
    assert not out.exists()


# -- damaged input files, as properties ----------------------------------------


def _run(argv) -> tuple[int, str]:
    """The exit code and the standard error of one command run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# a value of each JSON type but null, which an optional field may hold
_WRONG_TYPES = ("x", 1.5, True, [1.0], {"k": 1.0})
# finite numbers at the ends of the float range: the smallest subnormal and +-1e308
_EXTREMES = (5e-324, 1e308, -1e308)


@st.composite
def _damaged_json(draw, doc, kind):
    """A copy of doc with one value replaced: by one of the wrong JSON type
    ("type"), or a number by NaN or +-inf ("non-finite") or by an extreme
    finite number ("extreme"); or with one key of an object deleted
    ("missing")."""
    doc = copy.deepcopy(doc)
    if kind == "missing":
        path = draw(st.sampled_from([p for p in _paths(doc) if p and isinstance(p[-1], str)]))
        del _at(doc, path[:-1])[path[-1]]
        return doc
    path = draw(st.sampled_from([p for p in _paths(doc)
                                 if kind == "type" or _json_type(_at(doc, p)) == "number"]))
    old = _at(doc, path)
    new = draw(st.sampled_from(
        {"non-finite": [math.nan, math.inf, -math.inf], "extreme": _EXTREMES}.get(kind)
        or [v for v in _WRONG_TYPES if _json_type(v) != _json_type(old)]))
    if not path:
        return new
    _at(doc, path[:-1])[path[-1]] = new
    return doc


def _assert_one_error_line(code, err, path=None):
    """Exit 0 with nothing on standard error, or exit 1 with one error line
    (naming path if given); never exit 2 and never a traceback."""
    assert (code, err) == (0, "") or (code, err.count("\n")) == (1, 1), err
    assert code == 0 or err.startswith(f"error: {path or ''}"), err


@st.composite
def _broken_network(draw, doc):
    """doc with one schema-breaking edit: a value of the wrong JSON type, NaN or
    +-inf, a non-positive length or area, a negative R, a missing required
    key, a duplicate id, a dangling reference or a cycle."""
    doc = copy.deepcopy(doc)
    vessels, junctions, bcs = doc["vessels"], doc["junctions"], doc["boundary_conditions"]
    resistance = [b["value"] for b in bcs if b["kind"] == "RESISTANCE"]
    kind = draw(st.sampled_from(["type", "non-finite", "non-positive", "negative R", "missing",
                                 "duplicate", "dangling", "cycle"]))
    if kind in ("type", "non-finite"):
        return draw(_damaged_json(doc, kind))
    elif kind == "non-positive":
        vessel = draw(st.sampled_from(vessels))
        vessel[draw(st.sampled_from(["length", "area"]))] = draw(
            st.sampled_from([0.0, -0.0, -1e-300, -1.0]))
    elif kind == "negative R":
        draw(st.sampled_from(resistance))["R"] = draw(st.sampled_from([-1e-300, -1.0]))
    elif kind == "missing":
        entry, keys = draw(st.sampled_from(
            [(doc, ["vessels", "boundary_conditions"])]
            + [(v, ["id", "length", "area"]) for v in vessels]
            + [(j, ["id", "inlet_vessel", "outlet_vessels", "angles"]) for j in junctions]
            + [(b, ["vessel_id", "kind", "value"]) for b in bcs]
            + [(r, ["R"]) for r in resistance]
            + [(c, ["kind", "r_lin", "r_quad", "l"])
               for j in junctions for c in j["coefficients"]]))
        del entry[draw(st.sampled_from(keys))]
    elif kind == "duplicate":
        entries = draw(st.sampled_from([vessels, junctions]))
        i, k = draw(st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2,
                             unique=True))
        entries[k]["id"] = entries[i]["id"]
    elif kind == "dangling":
        entry, key = draw(st.sampled_from([(j, "inlet_vessel") for j in junctions]
                                          + [(j["outlet_vessels"], k) for j in junctions
                                             for k in (0, 1)]
                                          + [(b, "vessel_id") for b in bcs]))
        entry[key] = "nowhere"
    else:  # an outlet that is its own junction's inlet, or the root
        junction = draw(st.sampled_from(junctions))
        root = next(b["vessel_id"] for b in bcs if b["kind"] == "FLOW")
        junction["outlet_vessels"][draw(st.sampled_from([0, 1]))] = draw(
            st.sampled_from([junction["inlet_vessel"], root]))
    return doc


def _network_commands(d, net, out):
    """Every command that reads a network, on net, writing under out."""
    return [
        ["estimate-splits", "--network", net, "--out", out / "splits.json"],
        ["predict", "--network", net, "--models", d / "models.json", "--out", out / "p.json"],
        ["solve", "--network", net, "--out", out / "standard"],
        ["solve", "--network", net, "--engine", "rri", "--out", out / "rri"],
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_broken_network_file_exits_1_in_every_command(cli_inputs, data):
    """A depth-2 tree with junction coefficients, or a random-shape tree with
    coefficients and flow splits, and one schema-breaking edit: each command
    that reads it exits 1 with one error line naming the file."""
    source = data.draw(st.sampled_from(["net.json", "random_tree.json"]))
    doc = data.draw(_broken_network(json.loads((cli_inputs / source).read_text())))
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "net.json"
        net.write_text(json.dumps(doc))  # NaN and +-inf as JSON's NaN and Infinity
        for argv in _network_commands(cli_inputs, net, Path(tmp) / "out"):
            code, err = _run(argv)
            assert (code, err.count("\n")) == (1, 1), (argv, err)
            assert err.startswith(f"error: {net}: "), err
        assert not (Path(tmp) / "out").exists()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_extreme_number_in_a_network_file_exits_0_or_1(cli_inputs, data):
    """A depth-2 tree with junction coefficients and one number replaced by
    5e-324 or +-1e308: each command that reads it either runs or exits 1 with
    one error line."""
    doc = data.draw(_damaged_json(json.loads((cli_inputs / "net.json").read_text()), "extreme"))
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "net.json"
        net.write_text(json.dumps(doc))
        for argv in _network_commands(cli_inputs, net, Path(tmp) / "out"):
            _assert_one_error_line(*_run(argv))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), target=st.sampled_from(["models.json", "stats.json"]),
       kind=st.sampled_from(["type", "non-finite", "extreme", "missing"]))
def test_a_damaged_model_or_stats_file_exits_0_or_1(cli_inputs, data, target, kind):
    """models.json through predict, stats.json through train, with one value
    of the wrong type, NaN or +-inf, 5e-324 or +-1e308, or one key deleted:
    each runs or exits 1 with one error line, and a non-finite number exits 1
    naming the file.  (A wrong type or a deleted key in a field no reader
    needs, such as scales_policy.l_c, is ignored.)"""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target == "models.json":
            path = tmp / "models.json"
            argv = ["predict", "--network", cli_inputs / "tree.json", "--models", path,
                    "--out", tmp / "out" / "p.json"]
            path.write_bytes((cli_inputs / "models.json").read_bytes())
        else:
            shutil.copytree(cli_inputs / "data", tmp / "in")
            path = tmp / "in" / "stats.json"
            argv = ["train", "--data", tmp / "in", "--epochs", "1", "--out", tmp / "out" / "m.json"]
        path.write_text(json.dumps(data.draw(_damaged_json(json.loads(path.read_text()), kind))))
        code, err = _run(argv)
        _assert_one_error_line(code, err, path if kind == "non-finite" else None)
        assert code == 1 or kind != "non-finite"
        assert code == 0 or not (tmp / "out").exists()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_an_unknown_key_in_a_network_file_is_ignored(cli_inputs, data):
    doc = json.loads((cli_inputs / "net.json").read_text())
    path = data.draw(st.sampled_from([p for p in _paths(doc) if isinstance(_at(doc, p), dict)]))
    _at(doc, path)["note"] = data.draw(st.sampled_from(_WRONG_TYPES + (None,)))
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "net.json"
        net.write_text(json.dumps(doc))
        for argv in _network_commands(cli_inputs, net, Path(tmp) / "out"):
            assert _run(argv) == (0, ""), argv


_BAD_CELLS = ("nan", "NaN", "inf", "-Infinity", "1e999", "x", "", "1.0.0", "0x10")


@st.composite
def _damaged_csv(draw, text, kind):
    """The CSV text with one damaged cell, row or header, or with one number
    replaced by an extreme finite one ("extreme")."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
    if kind == "extreme":
        column = draw(st.integers(0, len(header) - 1 - (header[-1] == "split")))
        rows[row][column] = repr(draw(st.sampled_from(_EXTREMES)))
    elif kind == "cell":
        rows[row][column] = draw(st.sampled_from(_BAD_CELLS))
    elif kind == "short row":
        del rows[row][column]
    elif kind == "long row":
        rows[row].insert(column, "1.0")
    elif kind == "blank row":
        rows.insert(row, [])
    elif kind == "no rows":
        rows = []
    elif kind == "header renamed":
        header[column] += "_x"
    elif kind == "short header":
        del header[column]
    elif kind == "long header":
        header.insert(column, "extra")
    else:
        return ""
    return "".join(",".join(cells) + "\r\n" for cells in [header, *rows])


# the commands that read each CSV file, as (input file, command) makers
_CSV_COMMANDS = {
    "solution.csv": ("s2", lambda d, tmp, out: [
        ["compare", "--solution", d / "s1", "--reference", tmp / "in", "--network",
         d / "net.json", "--out", out]]),
    "dataset.csv": ("data", lambda d, tmp, out: [
        ["train", "--data", tmp / "in", "--epochs", "1", "--out", out]]),
    "series.csv": ("series.csv", lambda d, tmp, out: [
        ["fit-coeffs", "--series", tmp / "in" / "series.csv", "--out", out],
        ["impedance", "--series", tmp / "in" / "series.csv", "--period", "1.0", "--out", out]]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), target=st.sampled_from(list(_CSV_COMMANDS)),
       kind=st.sampled_from(["cell", "short row", "long row", "blank row", "no rows",
                             "header renamed", "short header", "long header", "empty",
                             "extreme"]))
def test_a_damaged_csv_file_exits_1(cli_inputs, data, target, kind):
    """solution.csv through compare, dataset.csv through train, the t,Q,dP
    series through fit-coeffs and impedance: exit 1, one error line naming
    the file, and no output.  A number replaced by 5e-324 or +-1e308 may also
    run.  A reference whose header differed from the solution's was named by
    neither file."""
    source, commands = _CSV_COMMANDS[target]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if (cli_inputs / source).is_dir():
            shutil.copytree(cli_inputs / source, tmp / "in")
        else:
            (tmp / "in").mkdir()
            shutil.copy(cli_inputs / source, tmp / "in")
        path = tmp / "in" / target
        path.write_text(data.draw(_damaged_csv(path.read_text(), kind)), newline="")
        for k, argv in enumerate(commands(cli_inputs, tmp, tmp / "out")):
            argv[-1] = out = argv[-1] / str(k) / "result"
            code, err = _run(argv)
            _assert_one_error_line(code, err, None if kind == "extreme" else path)
            assert code == 1 or kind == "extreme"
            assert code == 0 or not out.parent.exists()
