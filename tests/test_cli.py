import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import make_single_junction, make_single_vessel, rri_coeffs
import vascrom
from vascrom.cli import build_parser, main
from vascrom.network import load_network, network_to_dict, save_network


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


@pytest.mark.parametrize(
    "command",
    [
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
    ],
)
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


def test_solve_rri_writes_kkt_report(tmp_path):
    net_path = tmp_path / "net.json"
    save_network(make_single_junction(rri_coeffs(1.0, 0.01, 0.5)), net_path)
    outdir = tmp_path / "sol"
    rc = main(["solve", "--network", str(net_path), "--engine", "rri",
               "--out", str(outdir)])
    assert rc == 0
    kkt = json.loads((outdir / "kkt.json").read_text())
    assert kkt[0]["constraint_violation"] <= 1e-8


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
    manifest = json.loads((tmp_path / "manifest.json").read_text())
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


def test_config_hash_is_the_same_in_every_process(tmp_path):
    """The hash covers the parsed arguments, not the handler function, whose
    printed form holds its address in one process."""
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
        hashes.append(json.loads((tmp_path / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


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
    for fname in ("rri_rlin.csv", "rri_rquad.csv", "rri_l.csv", "stats.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
    manifest = json.loads((dirs[0] / "cohort_manifest.json").read_text())
    assert manifest["n_rows"] == 4 * 14


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
    "damage, message",
    [
        ("truncate", r"ri_l\.csv: 53 data rows, rri_rlin\.csv has 56"),
        ("reorder", r"ri_l\.csv:2: inputs or split differ from rri_rlin\.csv"),
        ("blank line", r"ri_l\.csv:5: 0 cells, header has 12"),
    ],
)
def test_train_rejects_mismatched_tag_file(tmp_path, capsys, damage, message):
    data = tmp_path / "data"
    assert main(["generate-data", "--n", "4", "--seed", "1", "--out", str(data)]) == 0
    path = data / "ri_l.csv"
    lines = path.read_text().splitlines(keepends=True)
    if damage == "truncate":
        lines = lines[:-3]
    elif damage == "reorder":
        lines[1:] = lines[:0:-1]
    else:
        lines[4] = "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--out", str(tmp_path / "models.json")])
    assert rc == 1
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "models.json").exists()
