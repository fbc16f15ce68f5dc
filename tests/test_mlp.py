import copy
import json
import math

import numpy as np
import pytest

from vascrom.network import Fluid, generate_symmetric_tree, length_correction
from vascrom.nondim import ZNormStats, characteristic_scales
from vascrom.flowsplit import estimate_flow_splits
from vascrom.mlp import (
    DEFAULT_ARCHITECTURES,
    MlpModel,
    ModelBundle,
    ModelError,
    TrainingConfig,
    TrainingDataset,
    init_model,
    load_dataset,
    load_models,
    loss_and_grads,
    mlp_forward,
    predict_junction_coeffs,
    predict_network,
    save_dataset,
    save_models,
    train_models,
)


def _toy_model(weights, biases, tag="toy"):
    return MlpModel(
        tag=tag,
        weights=[np.asarray(w, float) for w in weights],
        biases=[np.asarray(b, float) for b in biases],
    )


# -- forward pass ----------------------------------------------------------


def test_forward_zero_weights_returns_bias():
    m = _toy_model([np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), [7.5]])
    assert mlp_forward(m, np.array([1.0, -2.0])) == 7.5


def test_forward_relu_gates_negative_signal():
    # single hidden unit, identity-ish weights: x = -1 is killed by ReLU
    m = _toy_model([[[1.0]], [[1.0]]], [[0.0], [0.25]])
    assert mlp_forward(m, np.array([-1.0])) == 0.25
    assert mlp_forward(m, np.array([2.0])) == 2.25


def test_forward_matches_independent_loop_oracle():
    rng = np.random.default_rng(11)
    m = init_model("t", 10, 2, 8, rng)
    x = rng.normal(size=10)

    # independent scalar-loop forward pass
    a = list(x)
    for layer, (w, b) in enumerate(zip(m.weights, m.biases)):
        nxt = []
        for i in range(w.shape[0]):
            s = b[i]
            for j in range(w.shape[1]):
                s += w[i, j] * a[j]
            if layer < len(m.weights) - 1:
                s = max(s, 0.0)
            nxt.append(s)
        a = nxt
    assert mlp_forward(m, x) == pytest.approx(a[0], rel=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(3)
    m = init_model("t", 4, 1, 6, rng)
    xs = rng.normal(size=(5, 4))
    batch = mlp_forward(m, xs)
    singles = [mlp_forward(m, x) for x in xs]
    assert np.allclose(batch, singles, rtol=1e-14)


def test_forward_shape_mismatch():
    m = init_model("t", 4, 1, 6, np.random.default_rng(0))
    with pytest.raises(ModelError):
        mlp_forward(m, np.zeros(3))


def test_model_shape_chain_validated():
    with pytest.raises(ModelError):
        _toy_model([np.zeros((3, 2)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)])
    with pytest.raises(ModelError, match="scalar"):
        _toy_model([np.zeros((2, 2))], [np.zeros(2)])


# -- gradients -------------------------------------------------------------


def test_gradient_check_against_central_differences():
    rng = np.random.default_rng(21)
    m = init_model("t", 3, 2, 5, rng)
    # keep pre-activations away from the ReLU kink: with zero biases a fully
    # gated hidden row makes the next layer's pre-activation exactly zero,
    # where central differences straddle the nondifferentiable point
    for b in m.biases:
        b += rng.normal(scale=0.3, size=b.shape)
    x = rng.normal(size=(7, 3))
    y = rng.normal(size=7)
    _, gw, gb = loss_and_grads(m, x, y)

    eps = 1e-5
    for li in range(len(m.weights)):
        for arr, grad in ((m.weights[li], gw[li]), (m.biases[li], gb[li])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _, _ = loss_and_grads(m, x, y)
                arr[ix] = orig - eps
                lm, _, _ = loss_and_grads(m, x, y)
                arr[ix] = orig
                fd = (lp - lm) / (2 * eps)
                assert grad[ix] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# -- training --------------------------------------------------------------


def _toy_dataset(n=200, seed=0, target_fn=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 10))
    if target_fn is None:
        y = np.zeros(n)
    else:
        y = target_fn(x)
    n_train = int(0.9 * n)
    return TrainingDataset(
        inputs=x,
        targets={"rri_rlin": y},
        input_stats=ZNormStats(np.zeros(10), np.ones(10)),
        target_stats={"rri_rlin": ZNormStats(np.zeros(1), np.ones(1))},
        train_idx=np.arange(n_train),
        val_idx=np.arange(n_train, n),
        feature_ranges={f"f{i}": (-3.0, 3.0) for i in range(10)},
        re_c=4500.0,
    )


def test_constant_target_trains_below_1e6():
    dataset = _toy_dataset()
    models, report = train_models(
        dataset, config=TrainingConfig(epochs=200, seed=0, lr=0.1),
        tags=["rri_rlin"],
    )
    assert report["rri_rlin"]["final_val_mse"] < 1e-6


def test_constant_target_loss_non_increasing():
    # full batch so the loss curve is free of minibatch resampling noise
    dataset = _toy_dataset()
    _, report = train_models(
        dataset,
        config=TrainingConfig(epochs=60, seed=0, lr=1e-2, batch_size=180),
        tags=["rri_rlin"],
    )
    curve = np.array(report["rri_rlin"]["train_loss"])
    assert np.all(np.diff(curve) <= 1e-12)


def test_training_deterministic_bitwise():
    dataset = _toy_dataset(target_fn=lambda x: np.sin(x[:, 0]))
    cfg = TrainingConfig(epochs=20, seed=5)
    m1, r1 = train_models(dataset, config=cfg, tags=["rri_rlin"])
    m2, r2 = train_models(dataset, config=cfg, tags=["rri_rlin"])
    assert r1["rri_rlin"]["train_loss"] == r2["rri_rlin"]["train_loss"]
    assert r1["rri_rlin"]["val_mse"] == r2["rri_rlin"]["val_mse"]
    for w1, w2 in zip(m1["rri_rlin"].weights, m2["rri_rlin"].weights):
        assert np.array_equal(w1, w2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_loss_aborts():
    dataset = _toy_dataset(target_fn=lambda x: x[:, 0])
    dataset.targets["rri_rlin"][3] = np.inf  # poisons the loss immediately
    with pytest.raises(ModelError, match="divergent"):
        train_models(
            dataset, config=TrainingConfig(epochs=50, seed=0), tags=["rri_rlin"]
        )


def test_missing_architecture_rejected():
    dataset = _toy_dataset()
    with pytest.raises(ModelError, match="architecture"):
        train_models(dataset, architectures={"other": (1, 5)}, tags=["rri_rlin"])


def test_empty_split_rejected():
    with pytest.raises(ModelError, match="empty"):
        _dataset = TrainingDataset(
            inputs=np.zeros((4, 10)),
            targets={"rri_rlin": np.zeros(4)},
            input_stats=ZNormStats(np.zeros(10), np.ones(10)),
            target_stats={"rri_rlin": ZNormStats(np.zeros(1), np.ones(1))},
            train_idx=np.arange(4),
            val_idx=np.array([], dtype=int),
            feature_ranges={},
            re_c=4500.0,
        )


# -- persistence -----------------------------------------------------------


def _bundle_from(models, dataset):
    return ModelBundle.from_training(dataset, models)


def test_save_load_models_roundtrip_exact(tmp_path, trained_bundle):
    bundle, _ = trained_bundle
    path = tmp_path / "models.json"
    save_models(bundle, path)
    back = load_models(path)
    rng = np.random.default_rng(0)
    for tag, model in bundle.models.items():
        x = rng.normal(size=model.n_inputs)
        # 0 ULP: JSON float round-trip is exact for binary64
        assert mlp_forward(back.models[tag], x) == mlp_forward(model, x)
    assert np.array_equal(back.input_stats.mean, bundle.input_stats.mean)
    assert back.re_c == bundle.re_c


def test_load_truncated_file_reports_offset(tmp_path, trained_bundle):
    bundle, _ = trained_bundle
    path = tmp_path / "models.json"
    save_models(bundle, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelError, match="byte"):
        load_models(path)


def test_load_mismatched_shapes_rejected(tmp_path, trained_bundle):
    bundle, _ = trained_bundle
    path = tmp_path / "models.json"
    save_models(bundle, path)
    data = json.loads(path.read_text())
    data["models"][0]["weights"][0] = data["models"][0]["weights"][0][:-1]
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError):
        load_models(path)


def test_load_wrong_version_rejected(tmp_path, trained_bundle):
    bundle, _ = trained_bundle
    path = tmp_path / "models.json"
    save_models(bundle, path)
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="version"):
        load_models(path)


def test_dataset_save_load_roundtrip(tmp_path, small_cohort):
    dataset, _ = small_cohort
    save_dataset(dataset, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert np.array_equal(back.inputs, dataset.inputs)
    for tag in dataset.targets:
        assert np.array_equal(back.targets[tag], dataset.targets[tag])
    assert np.array_equal(np.sort(back.val_idx), dataset.val_idx)
    assert back.re_c == dataset.re_c


# -- prediction pipeline ---------------------------------------------------


def test_memorization_of_training_row(small_cohort):
    """A model trained to convergence on 10 rows reproduces those rows."""
    dataset, _ = small_cohort
    idx = np.arange(10)
    tiny = TrainingDataset(
        inputs=dataset.inputs[:12],
        targets={"rri_rlin": dataset.targets["rri_rlin"][:12]},
        input_stats=dataset.input_stats,
        target_stats={"rri_rlin": dataset.target_stats["rri_rlin"]},
        train_idx=idx,
        val_idx=np.arange(10, 12),
        feature_ranges=dataset.feature_ranges,
        re_c=dataset.re_c,
    )
    models, report = train_models(
        tiny,
        architectures={"rri_rlin": (2, 20)},
        config=TrainingConfig(epochs=4000, seed=1, batch_size=10),
        tags=["rri_rlin"],
    )
    train_loss = report["rri_rlin"]["train_loss"][-1]
    preds = mlp_forward(models["rri_rlin"], tiny.inputs[idx])
    resid = np.abs(preds - tiny.targets["rri_rlin"][idx])
    assert np.max(resid) <= math.sqrt(max(train_loss, 1e-12)) * 10 + 1e-4


def test_predict_requires_flow_splits(trained_bundle):
    bundle, _ = trained_bundle
    net = generate_symmetric_tree(depth=1)
    with pytest.raises(ModelError, match="flow split"):
        predict_junction_coeffs(bundle, net, net.junctions[0])


def test_predict_populates_all_junctions(trained_bundle):
    bundle, _ = trained_bundle
    net = generate_symmetric_tree(depth=2)
    estimate_flow_splits(net)
    reports = predict_network(bundle, net)
    assert len(reports) == 2 * len(net.junctions)
    for j in net.junctions:
        for o in j.outlets:
            assert o.coefficients is not None
            assert o.coefficients.kind == "RRI"
            assert not o.coefficients.dimensionless


def test_predict_out_of_range_lambda_gets_length_correction(trained_bundle):
    """Out-of-range outlet length shifts R_lin/L by exactly the Poiseuille
    correction relative to a clamped-length twin."""
    bundle, _ = trained_bundle
    lam_lo, lam_hi = bundle.feature_ranges["lam_self"]

    def tree_with_ratio(ratio):
        net = generate_symmetric_tree(
            depth=1, length_over_radius=ratio,
            bifurcation_definition="full_branch",
        )
        estimate_flow_splits(net)
        return net

    # attributed lambda = ratio * (r_child / r_inlet); pick ratios so one tree
    # is beyond lam_hi and the other exactly at it
    child_over_inlet = 2.0 ** (-1.0 / 3.0)
    ratio_hi = lam_hi / child_over_inlet
    net_at_max = tree_with_ratio(ratio_hi)
    net_beyond = tree_with_ratio(ratio_hi + 10.0)

    c_at, _ = predict_junction_coeffs(bundle, net_at_max, net_at_max.junctions[0])
    c_beyond, rep = predict_junction_coeffs(
        bundle, net_beyond, net_beyond.junctions[0]
    )
    fluid = Fluid()
    inlet_r = net_beyond.vessels["v"].radius
    outlet = net_beyond.junctions[0].outlets[0]
    lam_actual = outlet.attributed_length / inlet_r
    dr, dl = length_correction(
        lam_actual, lam_lo, lam_hi, inlet_r,
        net_beyond.vessels[outlet.vessel_id].area, fluid,
    )
    assert dr > 0
    assert c_beyond[0].r_lin - c_at[0].r_lin == pytest.approx(dr, rel=1e-9)
    assert c_beyond[0].l - c_at[0].l == pytest.approx(dl, rel=1e-9)
    assert c_beyond[0].r_quad == pytest.approx(c_at[0].r_quad, rel=1e-12)


def test_predict_scale_invariance_before_redimensionalization(trained_bundle):
    """Uniformly scaled twin junctions give identical dimensionless outputs,
    i.e. dimensional predictions that differ only by the scale factors."""
    from vascrom.nondim import nondimensionalize_coeffs

    bundle, _ = trained_bundle
    nets = {}
    for s in (1.0, 2.0):
        net = generate_symmetric_tree(
            depth=1, inlet_radius=0.5 * s,
            bifurcation_definition="full_branch",
        )
        estimate_flow_splits(net)
        nets[s] = net
    stars = {}
    for s, net in nets.items():
        coeffs, _ = predict_junction_coeffs(bundle, net, net.junctions[0])
        scales = characteristic_scales(net.vessels["v"].radius, Fluid(),
                                       bundle.re_c)
        stars[s] = nondimensionalize_coeffs(coeffs[0], scales)
    assert stars[2.0].r_lin == pytest.approx(stars[1.0].r_lin, rel=1e-10)
    assert stars[2.0].r_quad == pytest.approx(stars[1.0].r_quad, rel=1e-10)
    assert stars[2.0].l == pytest.approx(stars[1.0].l, rel=1e-10)


def test_predict_flags_clamped_features(trained_bundle):
    bundle, _ = trained_bundle
    # a very asymmetric tree: huge alpha ratio falls outside the cohort range
    net = generate_symmetric_tree(depth=1, murray_exponent=0.5)
    estimate_flow_splits(net)
    _, reports = predict_junction_coeffs(bundle, net, net.junctions[0])
    clamped = [c for r in reports for c in r["clamped_features"]]
    assert clamped  # at least one feature was clamped and flagged


def test_default_architectures_documented():
    assert DEFAULT_ARCHITECTURES == {
        "rri_rlin": (2, 15),
        "rri_rquad": (2, 30),
        "rri_l": (1, 12),
        "ri_rlin": (1, 10),
        "ri_l": (1, 20),
    }


# -- flat-parameter training against the list-based reference --------------


def _reference_loss_and_grads(model, x, y):
    """Per-layer gradients in fresh arrays, one matmul and one sum per layer."""
    n_layers = len(model.weights)
    acts, pre, a = [x], [], x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(a)
    resid = acts[-1][:, 0] - y
    loss = float(np.mean(resid**2))
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    delta = (2.0 / y.size) * resid[:, None]
    for i in range(n_layers - 1, -1, -1):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (pre[i - 1] > 0)
    return loss, gw, gb


def _reference_train(dataset, config, tag):
    """Adam over a list of separate layer arrays, one update per array."""
    from vascrom.mlp import _tag_rng

    n_hidden, width = DEFAULT_ARCHITECTURES[tag]
    rng = _tag_rng(config.seed, tag)
    model = init_model(tag, dataset.inputs.shape[1], n_hidden, width, rng)
    params = model.weights + model.biases
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    b1, b2 = config.beta1, config.beta2
    x_train = dataset.inputs[dataset.train_idx]
    y_train = dataset.targets[tag][dataset.train_idx]
    x_val = dataset.inputs[dataset.val_idx]
    y_val = dataset.targets[tag][dataset.val_idx]
    train_curve, val_curve, t = [], [], 0
    n = x_train.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, gw, gb = _reference_loss_and_grads(model, x_train[idx], y_train[idx])
            t += 1
            for p, g, m, v in zip(params, gw + gb, ms, vs):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g**2
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                p -= config.lr * mhat / (np.sqrt(vhat) + config.eps)
            epoch_loss += loss
            n_batches += 1
        val_mse = float(np.mean((mlp_forward(model, x_val) - y_val) ** 2))
        train_curve.append(epoch_loss / n_batches)
        val_curve.append(val_mse)
    report = {
        "train_loss": train_curve,
        "val_mse": val_curve,
        "epochs_run": len(train_curve),
        "final_val_mse": val_curve[-1],
    }
    return model, report


def test_flat_training_equals_list_reference(tmp_path, small_cohort):
    dataset, _ = small_cohort
    config = TrainingConfig(epochs=3, seed=4)
    models, report = train_models(dataset, config=config)
    for tag in DEFAULT_ARCHITECTURES:
        ref_model, ref_report = _reference_train(dataset, config, tag)
        assert report[tag] == ref_report, tag
        for a, b in zip(models[tag].weights + models[tag].biases,
                        ref_model.weights + ref_model.biases):
            assert a.shape == b.shape and np.array_equal(a, b), tag

    arrays = [(tag, a) for tag, m in models.items() for a in m.weights + m.biases]
    for tag_a, a in arrays:
        for tag_b, b in arrays:
            if tag_a != tag_b:
                assert not np.shares_memory(a, b), (tag_a, tag_b)

    path = tmp_path / "models.json"
    save_models(_bundle_from(models, dataset), path)
    back = load_models(path)
    for tag, model in models.items():
        for a, b in zip(model.weights + model.biases,
                        back.models[tag].weights + back.models[tag].biases):
            assert np.array_equal(a, b)


def test_loss_and_grads_returns_fresh_arrays(small_cohort):
    dataset, _ = small_cohort
    models, _ = train_models(dataset, config=TrainingConfig(epochs=1, seed=0),
                             tags=["rri_rquad"])
    m = models["rri_rquad"]
    x, y = dataset.inputs[:20], dataset.targets["rri_rquad"][:20]
    loss, gw, gb = loss_and_grads(m, x, y)
    ref_loss, ref_gw, ref_gb = _reference_loss_and_grads(m, x, y)
    assert loss == ref_loss
    for g, ref in zip(gw + gb, ref_gw + ref_gb):
        assert np.array_equal(g, ref)
        for p in m.weights + m.biases:
            assert not np.shares_memory(g, p)
    _, gw2, gb2 = loss_and_grads(m, x, y)
    for g, g2 in zip(gw + gb, gw2 + gb2):
        assert not np.shares_memory(g, g2)


def test_save_dataset_bytes_match_row_writer(tmp_path, small_cohort):
    import csv

    dataset, _ = small_cohort
    save_dataset(dataset, tmp_path / "data")
    header = [f"f{i}" for i in range(dataset.inputs.shape[1])] + ["target", "split"]
    val = set(dataset.val_idx.tolist())
    for tag, y in dataset.targets.items():
        ref = tmp_path / f"ref_{tag}.csv"
        with open(ref, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for i, (row, t) in enumerate(zip(dataset.inputs, y)):
                split = "val" if i in val else "train"
                w.writerow([repr(float(v)) for v in row] + [repr(float(t)), split])
        assert (tmp_path / "data" / f"{tag}.csv").read_bytes() == ref.read_bytes(), tag


def test_load_dataset_rejects_mismatched_tag_files(tmp_path, small_cohort):
    dataset, _ = small_cohort
    data = tmp_path / "data"
    save_dataset(dataset, data)
    lines = (data / "rri_l.csv").read_text().splitlines(keepends=True)
    (data / "rri_l.csv").write_text("".join(lines[:-1]))
    with pytest.raises(ModelError, match=r"rri_l\.csv: .* data rows"):
        load_dataset(data)
    lines[3], lines[4] = lines[4], lines[3]
    (data / "rri_l.csv").write_text("".join(lines))
    with pytest.raises(ModelError, match=r"rri_l\.csv:4: inputs or split differ"):
        load_dataset(data)
    lines[3], lines[4] = lines[4], lines[3]
    row = 1 + int(dataset.train_idx[5])
    lines[row] = lines[row].replace(",train", ",val")
    (data / "rri_l.csv").write_text("".join(lines))
    with pytest.raises(ModelError, match=rf"rri_l\.csv:{row + 1}: inputs or split differ"):
        load_dataset(data)
