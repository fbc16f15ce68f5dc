import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import make_single_junction, make_single_vessel, random_shape_tree, rri_coeffs
import vascrom
from vascrom.cli import build_parser, main
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
    assert capsys.readouterr().err == f"error: {path}:5: non-finite cell\n"
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


@pytest.mark.parametrize("re_sweep", ["abc", "600,nan", "600,,1300"])
def test_fit_tree_rejects_bad_re_sweep(tmp_path, capsys, re_sweep):
    net_path = tmp_path / "net.json"
    save_network(generate_symmetric_tree(depth=1), net_path)
    out = tmp_path / "fits.json"
    assert main(["fit-tree", "--network", str(net_path), "--re", re_sweep,
                 "--out", str(out)]) == 1
    assert "argument --re: need comma-separated finite numbers" in capsys.readouterr().err
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
    assert capsys.readouterr().err == f"error: {empty}: empty solution file\n"
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


@pytest.mark.parametrize(
    "line, damage, message",
    [
        (1, "bad header", "header 'f0,.*,ri_l,split', stats.json needs 'f0,.*,ri_l,split'"),
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
    """One input of every kind a command reads, made by the CLI itself."""
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
    from vascrom.cli import _write_json
    from vascrom.flowsplit import estimate_flow_splits, write_split_report
    from vascrom.mlp import predict_network, save_dataset, save_models
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
    _write_json({"x": [0.1, -2.5e-300, float("nan")], "n": 3, "s": "\u00e9"},
                tmp_path / "out" / "obj.json")
    indent = {"indent": 1}
    for name, kwargs in {
        "net.json": indent, "splits.json": indent, "data/stats.json": indent,
        "models.json": {}, "sol/diagnostics.json": indent, "out/obj.json": indent,
    }.items():
        assert (tmp_path / name).read_bytes() == _json_dump_of(tmp_path / name, **kwargs), name


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
    ],
    ids=["area-null", "area-list", "vessel-list", "outlet-vessels-number",
         "resistance-value-number", "fluid-string", "flow-series-without-t", "angle-string",
         "length-bool", "length-string", "vessels-object", "kind-number",
         "coefficient-kind-unknown", "coefficient-r_lin-missing"],
)
def test_malformed_network_json_exits_1_naming_file_entry_and_field(tmp_path, capsys, edit,
                                                                    message):
    """Each of these ended in a traceback, exited 1 with a bare KeyError or
    Python's float message, or (a bool or numeric-string length) was accepted."""
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
    ],
    ids=["weights-deleted", "ragged-weights", "lam_self-range-missing"],
)
def test_predict_with_malformed_bundle_exits_1_naming_file_and_field(tmp_path, capsys,
                                                                    cli_inputs, edit, message):
    """A deleted key and a range that prediction needs exited 1 with a bare
    KeyError ("error: 'weights'"); ragged weights with numpy's message."""
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
