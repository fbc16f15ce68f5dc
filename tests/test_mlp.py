import copy
import json
import math
import re

import numpy as np
import pytest

from vascrom.network import Fluid, generate_symmetric_tree
from vascrom.nondim import ZNormStats, characteristic_scales
from vascrom.flowsplit import estimate_flow_splits
from vascrom import mlp
from vascrom.mlp import (
    BATCH_SIZE,
    DEFAULT_ARCHITECTURES,
    Adam,
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
    outlet_features,
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


def test_constant_target_trains_below_1e6(monkeypatch):
    dataset = _toy_dataset()
    monkeypatch.setattr(Adam, "lr", 0.1)
    models, report = train_models(dataset, config=TrainingConfig(epochs=200, seed=0))
    assert report["rri_rlin"]["final_val_mse"] < 1e-6


def test_constant_target_loss_non_increasing(monkeypatch):
    # full batch so the loss curve is free of minibatch resampling noise
    dataset = _toy_dataset()
    monkeypatch.setattr(Adam, "lr", 1e-2)
    monkeypatch.setattr(mlp, "BATCH_SIZE", dataset.train_idx.size)
    _, report = train_models(dataset, config=TrainingConfig(epochs=60, seed=0))
    curve = np.array(report["rri_rlin"]["train_loss"])
    assert np.all(np.diff(curve) <= 1e-12)


def test_training_deterministic_bitwise():
    dataset = _toy_dataset(target_fn=lambda x: np.sin(x[:, 0]))
    cfg = TrainingConfig(epochs=20, seed=5)
    m1, r1 = train_models(dataset, config=cfg)
    m2, r2 = train_models(dataset, config=cfg)
    assert r1["rri_rlin"]["train_loss"] == r2["rri_rlin"]["train_loss"]
    assert r1["rri_rlin"]["val_mse"] == r2["rri_rlin"]["val_mse"]
    for w1, w2 in zip(m1["rri_rlin"].weights, m2["rri_rlin"].weights):
        assert np.array_equal(w1, w2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_loss_aborts():
    dataset = _toy_dataset(target_fn=lambda x: x[:, 0])
    dataset.targets["rri_rlin"][3] = np.inf  # poisons the loss immediately
    with pytest.raises(ModelError, match="divergent"):
        train_models(dataset, config=TrainingConfig(epochs=50, seed=0))


def test_missing_architecture_rejected():
    dataset = _toy_dataset()
    dataset.targets = {"other": dataset.targets["rri_rlin"]}
    with pytest.raises(ModelError, match="architecture"):
        train_models(dataset)


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
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["dataset.csv", "stats.json"]
    back = load_dataset(tmp_path / "data")
    assert np.array_equal(back.inputs, dataset.inputs)
    assert list(back.targets) == list(dataset.targets)
    for tag in dataset.targets:
        assert np.array_equal(back.targets[tag], dataset.targets[tag])
        assert np.array_equal(back.target_stats[tag].mean, dataset.target_stats[tag].mean)
        assert np.array_equal(back.target_stats[tag].std, dataset.target_stats[tag].std)
    assert np.array_equal(back.train_idx, dataset.train_idx)
    assert np.array_equal(back.val_idx, dataset.val_idx)
    assert np.array_equal(back.input_stats.mean, dataset.input_stats.mean)
    assert np.array_equal(back.input_stats.std, dataset.input_stats.std)
    assert back.feature_ranges == dataset.feature_ranges
    assert back.re_c == dataset.re_c


@pytest.mark.parametrize("fname", ["models.json", "stats.json"])
@pytest.mark.parametrize("re_c", [-1, 0, math.nan])
def test_load_rejects_bad_re_c(tmp_path, trained_bundle, small_cohort, fname, re_c):
    """Both files carry re_c in their normalization block; a value that is
    not finite and > 0 is rejected by name, not later as a geometry error."""
    path = tmp_path / fname
    if fname == "models.json":
        save_models(trained_bundle[0], path)
    else:
        save_dataset(small_cohort[0], tmp_path)
    data = json.loads(path.read_text())
    data["scales_policy"]["re_c"] = re_c
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=rf"^{re.escape(str(path))}: scales_policy\.re_c must"):
        load_models(path) if fname == "models.json" else load_dataset(tmp_path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["znorm_in"].pop("std"), r"missing field znorm_in\.std"),
        (lambda d: d.pop("ranges"), r"missing field ranges"),
        (lambda d: d["znorm_out"]["ri_l"].update(std=[0.0]),
         r"znorm_out\.ri_l\.std must be a list of 1 numbers in \(0\.0, inf\)"),
        (lambda d: d["znorm_in"].update(mean=["0.5"] * 10), r"znorm_in\.mean must be a list"),
        (lambda d: d["ranges"].update(lam_self=[1.0]), r"ranges\.lam_self must be a list of 2"),
        (lambda d: d["scales_policy"].update(re_c=True), r"scales_policy\.re_c must be"),
    ],
    ids=["missing-std", "missing-ranges", "zero-std", "string-mean", "short-range", "bool-re_c"],
)
def test_load_models_rejects_malformed_norm_block(tmp_path, trained_bundle, edit, message):
    path = tmp_path / "models.json"
    save_models(trained_bundle[0], path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=rf"^{re.escape(str(path))}: {message}"):
        load_models(path)


# -- prediction pipeline ---------------------------------------------------


def test_memorization_of_training_row(monkeypatch, small_cohort):
    """A model trained to convergence on 10 rows, one batch, reproduces
    those rows."""
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
    monkeypatch.setitem(DEFAULT_ARCHITECTURES, "rri_rlin", (2, 20))
    models, report = train_models(tiny, config=TrainingConfig(epochs=4000, seed=1))
    train_loss = report["rri_rlin"]["train_loss"][-1]
    preds = mlp_forward(models["rri_rlin"], tiny.inputs[idx])
    resid = np.abs(preds - tiny.targets["rri_rlin"][idx])
    assert np.max(resid) <= math.sqrt(max(train_loss, 1e-12)) * 10 + 1e-4


def test_predict_requires_flow_splits(trained_bundle):
    bundle, _ = trained_bundle
    net = generate_symmetric_tree(depth=1)
    with pytest.raises(ModelError, match="flow split"):
        predict_network(bundle, net)


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

    predict_network(bundle, net_at_max)
    predict_network(bundle, net_beyond)
    c_at, c_beyond = ([o.coefficients for o in net.junctions[0].outlets]
                      for net in (net_at_max, net_beyond))
    fluid = Fluid()
    inlet_r = net_beyond.vessels["v"].radius
    outlet = net_beyond.junctions[0].outlets[0]
    lam_actual = outlet.attributed_length / inlet_r
    dr, dl = _length_correction(
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
        predict_network(bundle, net)
        coeffs = [o.coefficients for o in net.junctions[0].outlets]
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
    reports = predict_network(bundle, net)
    clamped = [c for r in reports for c in r["clamped_features"]]
    assert clamped  # at least one feature was clamped and flagged


# -- batched prediction against the outlet-by-outlet algorithm -------------


def _length_correction(lam, lam_min, lam_max, l_c, outlet_area, fluid):
    """Poiseuille correction (delta_R, delta_L) for an outlet length outside
    the trained range; both are negative when lam < lam_min."""
    l_add = min(0.0, lam - lam_min) * l_c + max(0.0, lam - lam_max) * l_c
    delta_r = l_add * 8.0 * math.pi * fluid.mu / outlet_area**2
    delta_l = l_add * fluid.rho / outlet_area
    return delta_r, delta_l


def _reference_predict_junction(bundle, network, junction, kind="RRI"):
    """The outlet-by-outlet prediction that the batched pass replaces: three
    one-row forwards per outlet, with scalar clamps and corrections."""
    from vascrom.nondim import (
        CoefficientSet,
        DimensionlessGeometry,
        apply_znorm,
        invert_znorm,
        redimensionalize_coeffs,
    )
    from vascrom.network import poiseuille_elements

    def clamp(value, lo, hi):
        return min(max(value, lo), hi)

    base_features = {"alpha_self": 0, "alpha_other": 1, "lam_self": 4,
                     "theta_self": 6, "theta_other": 7, "phi_self": 8}
    fluid = network.fluid
    inlet = network.vessels[junction.inlet_vessel]
    scales = characteristic_scales(inlet.radius, fluid, bundle.re_c)
    names = DimensionlessGeometry.FEATURE_NAMES
    tags = ("rri_rlin", "rri_rquad", "rri_l") if kind == "RRI" else ("ri_rlin", "ri_l")
    for tag in tags:
        if tag not in bundle.models:
            raise ModelError(f"bundle lacks model for {tag!r}")
    coeffs_out, reports = [], []
    phis = [o.flow_split for o in junction.outlets]
    if any(p is None for p in phis):
        raise ModelError(
            f"junction {junction.id}: flow splits not set; run split estimation first"
        )
    for i, outlet in enumerate(junction.outlets):
        vessel = network.vessels[outlet.vessel_id]
        other = junction.outlets[1 - i]
        other_vessel = network.vessels[other.vessel_id]
        if outlet.attributed_length is None:
            raise ModelError(f"junction {junction.id}: bifurcation definition not applied")
        lam = outlet.attributed_length / scales.l_c
        lam_lo, lam_hi = bundle.feature_ranges[names[4]]
        raw = {
            "alpha_self": vessel.area / scales.a_c,
            "alpha_other": other_vessel.area / scales.a_c,
            "lam_self": clamp(lam, lam_lo, lam_hi),
            "theta_self": outlet.angle,
            "theta_other": other.angle,
            "phi_self": phis[i],
        }
        clamped = []
        for feat, col in base_features.items():
            if feat == "lam_self":
                continue
            lo, hi = bundle.feature_ranges[names[col]]
            c = clamp(raw[feat], lo, hi)
            if c != raw[feat]:
                clamped.append({"feature": feat, "value": raw[feat], "range": [lo, hi]})
                raw[feat] = c
        g = DimensionlessGeometry(**raw)
        xz = apply_znorm(g.vector(), bundle.input_stats)
        preds = {}
        for tag in tags:
            z = mlp_forward(bundle.models[tag], xz)
            preds[tag] = float(invert_znorm(np.array([z]), bundle.target_stats[tag])[0])
        if kind == "RRI":
            star = CoefficientSet(kind="RRI", r_lin=preds["rri_rlin"], r_quad=preds["rri_rquad"],
                                  l=preds["rri_l"], dimensionless=True)
        else:
            star = CoefficientSet(kind="RI", r_lin=preds["ri_rlin"], l=preds["ri_l"],
                                  dimensionless=True)
        dim = redimensionalize_coeffs(star, scales)
        dr, dl = _length_correction(lam, lam_lo, lam_hi, scales.l_c, vessel.area, fluid)
        if outlet.residual_length and outlet.residual_length > 0:
            rr, rl = poiseuille_elements(outlet.residual_length, vessel.area, fluid)
            dr += rr
            dl += rl
        coeffs_out.append(CoefficientSet(kind=dim.kind, r_lin=dim.r_lin + dr,
                                         r_quad=dim.r_quad, l=dim.l + dl))
        reports.append({
            "junction": junction.id,
            "outlet": outlet.vessel_id,
            "lambda": lam,
            "length_correction": {"delta_r": dr, "delta_l": dl},
            "clamped_features": clamped,
        })
    return coeffs_out, reports


def _reference_predict_network(bundle, network, kind="RRI"):
    all_reports = []
    for junction in network.junctions:
        coeffs, reports = _reference_predict_junction(bundle, network, junction, kind)
        for outlet, c in zip(junction.outlets, coeffs):
            outlet.coefficients = c
        all_reports.extend(reports)
    return all_reports


def _row_by_row_forward(monkeypatch):
    """Make the batched pass run its forwards one row at a time, so that the
    matmul is the reference's and any other difference would show."""
    import vascrom.mlp as mlp_module

    def forward(model, x):
        x = np.asarray(x, float)
        if x.ndim == 1:
            return mlp_forward(model, x)
        return np.array([mlp_forward(model, row) for row in x])

    monkeypatch.setattr(mlp_module, "mlp_forward", forward)


def _prediction_cases():
    from tests.conftest import random_shape_tree

    def splits(net):
        estimate_flow_splits(net)
        return net

    cases = [pytest.param(lambda s=s: splits(random_shape_tree(s)), id=f"random-{s}")
             for s in range(6)]
    # attributed lambda = ratio * 2^(-1/3): below and above the trained range,
    # with (partial_branch) and without (full_branch) a residual segment
    for ratio in (4.0, 80.0):
        for definition in ("partial_branch", "full_branch"):
            cases.append(pytest.param(
                lambda r=ratio, d=definition: splits(generate_symmetric_tree(
                    depth=3, length_over_radius=r, bifurcation_definition=d)),
                id=f"ratio-{ratio:g}-{definition}"))
    cases.append(pytest.param(
        lambda: splits(generate_symmetric_tree(depth=3, murray_exponent=0.5)),
        id="murray-0.5"))

    def tiny_residuals():
        net = splits(random_shape_tree(6))
        for j in net.junctions:
            for o in j.outlets:
                o.residual_length = 1e-6
        return net

    cases.append(pytest.param(tiny_residuals, id="tiny-residual"))
    return cases


def _output_units(bundle, network, junction, kind):
    """Per coefficient, one unit of normalised model output in dimensional
    terms: the target std times the redimensionalisation factor."""
    s = characteristic_scales(network.vessels[junction.inlet_vessel].radius,
                              network.fluid, bundle.re_c)
    tags = ({"r_lin": "rri_rlin", "r_quad": "rri_rquad", "l": "rri_l"} if kind == "RRI"
            else {"r_lin": "ri_rlin", "l": "ri_l"})
    factor = {"r_lin": s.p_c / s.q_c, "r_quad": s.p_c / s.q_c**2, "l": s.t_c * s.p_c / s.q_c}
    return {f: factor[f] * float(bundle.target_stats[tag].std[0]) for f, tag in tags.items()}


@pytest.mark.parametrize("kind", ["RRI", "RI"])
@pytest.mark.parametrize("make", _prediction_cases())
def test_batched_prediction_matches_outlet_by_outlet_reference(trained_bundle, make, kind):
    """Tolerance argument: after the forward pass the batched code runs the
    reference's operations in the same order (the row-by-row test below
    checks that bit for bit), so only the batched matmul moves bits.  The
    model inputs are clamped into the trained box, so a model output is O(1)
    in normalised units and moves by a few units in the last place (at most
    4e-15 over 300 random trees).  invert_znorm, the redimensionalisation
    and the additive corrections scale that by a known factor, but can
    cancel, so the bound is rel 1e-12 of the coefficient or 1e-12 of one
    normalised output unit, whichever is larger."""
    bundle, _ = trained_bundle
    net = make()
    ref_net = copy.deepcopy(net)
    reports = predict_network(bundle, net, kind)
    ref_reports = _reference_predict_network(bundle, ref_net, kind)
    assert len(reports) == len(ref_reports) == 2 * len(net.junctions)
    for rep, ref in zip(reports, ref_reports):
        assert rep == ref
    for junction, ref_junction in zip(net.junctions, ref_net.junctions):
        units = _output_units(bundle, net, junction, kind)
        for o, ref_o in zip(junction.outlets, ref_junction.outlets):
            c, ref_c = o.coefficients, ref_o.coefficients
            assert (c.kind, c.dimensionless) == (ref_c.kind, ref_c.dimensionless)
            assert (c.r_quad is None) == (ref_c.r_quad is None) == (kind == "RI")
            for f, unit in units.items():
                a, b = getattr(c, f), getattr(ref_c, f)
                assert abs(a - b) <= 1e-12 * max(abs(b), unit), (junction.id, f, a, b)


@pytest.mark.parametrize("kind", ["RRI", "RI"])
@pytest.mark.parametrize("make", _prediction_cases()[:3] + _prediction_cases()[-3:])
def test_batched_prediction_row_by_row_is_bitwise_reference(monkeypatch, trained_bundle,
                                                            make, kind):
    bundle, _ = trained_bundle
    net = make()
    ref_net = copy.deepcopy(net)
    ref_reports = _reference_predict_network(bundle, ref_net, kind)
    _row_by_row_forward(monkeypatch)
    assert predict_network(bundle, net, kind) == ref_reports
    for junction, ref_junction in zip(net.junctions, ref_net.junctions):
        for o, ref_o in zip(junction.outlets, ref_junction.outlets):
            assert o.coefficients == ref_o.coefficients


@pytest.mark.parametrize("kind", ["RRI", "RI"])
def test_batched_prediction_row_by_row_on_many_trees(monkeypatch, trained_bundle, kind):
    """Bit-for-bit agreement over enough outlets that a square taken with
    numpy's pow in place of Python's (a last-bit difference on about 0.1 %
    of inputs) would show."""
    from tests.conftest import random_shape_tree

    bundle, _ = trained_bundle
    nets = []
    for seed in range(300):
        net = random_shape_tree(seed)
        estimate_flow_splits(net)
        nets.append(net)
    ref_nets = copy.deepcopy(nets)
    ref_reports = [_reference_predict_network(bundle, net, kind) for net in ref_nets]
    _row_by_row_forward(monkeypatch)
    for net, ref_net, ref in zip(nets, ref_nets, ref_reports):
        assert predict_network(bundle, net, kind) == ref
        coeffs = [o.coefficients for j in net.junctions for o in j.outlets]
        assert coeffs == [o.coefficients for j in ref_net.junctions for o in j.outlets]


def test_outlet_features_are_the_acceptance_descriptors_on_many_trees():
    """The scalar nondimensionalize_geometry of the acceptance criteria and
    the outlet_features that prediction reads agree bit for bit, on every
    outlet of the trees of the row-by-row test."""
    from tests.conftest import random_shape_tree
    from vascrom.nondim import nondimensionalize_geometry

    names = ("alpha_self", "alpha_other", "lam_self", "theta_self", "theta_other", "phi_self")
    n_outlets = 0
    for seed in range(300):
        net = random_shape_tree(seed)
        estimate_flow_splits(net)
        outlets, features = outlet_features(net)
        assert [o for _, o in outlets] == [o for j in net.junctions for o in j.outlets]
        for k, (junction, outlet) in enumerate(outlets):
            pair = junction.outlets
            inlet = net.vessels[junction.inlet_vessel]
            g = nondimensionalize_geometry(
                inlet_area=inlet.area,
                outlet_areas=tuple(net.vessels[o.vessel_id].area for o in pair),
                outlet_lengths=tuple(o.attributed_length for o in pair),
                outlet_angles=tuple(o.angle for o in pair),
                phi=tuple(o.flow_split for o in pair),
                outlet=pair.index(outlet),
            )
            assert [getattr(features, f)[k] for f in names] == [getattr(g, f) for f in names]
            assert features.l_c[k] == inlet.radius
            assert features.area[k] == net.vessels[outlet.vessel_id].area
            assert features.residual[k] == outlet.residual_length
        n_outlets += len(outlets)
    assert n_outlets > 3000


def test_predict_network_without_junctions(trained_bundle):
    bundle, _ = trained_bundle
    net = generate_symmetric_tree(depth=0)
    assert net.junctions == []
    assert predict_network(bundle, net) == []
    assert predict_network(bundle, net, "RI") == []


@pytest.mark.parametrize("kind", ["RRI", "RI"])
def test_one_forward_per_model_per_network(monkeypatch, trained_bundle, kind):
    import vascrom.mlp as mlp_module

    bundle, _ = trained_bundle
    calls = []

    def counting_forward(model, x):
        calls.append((model.tag, np.shape(x)))
        return mlp_forward(model, x)

    monkeypatch.setattr(mlp_module, "mlp_forward", counting_forward)
    net = generate_symmetric_tree(depth=5)
    estimate_flow_splits(net)
    predict_network(bundle, net, kind)
    tags = ["rri_rlin", "rri_rquad", "rri_l"] if kind == "RRI" else ["ri_rlin", "ri_l"]
    n_outlets = 2 * len(net.junctions)
    assert sorted(calls) == sorted((tag, (n_outlets, 10)) for tag in tags)


def _break_phi(bundle, net, junction):
    """A split of exactly 1 that the widened phi range leaves unclamped, so
    the DimensionlessGeometry check rejects it."""
    junction.outlets[0].flow_split, junction.outlets[1].flow_split = 1.0, 0.0
    bundle.feature_ranges["phi_self"] = (0.0, 1.0)


_BREAKS = {
    "split": lambda bundle, net, j: setattr(j.outlets[1], "flow_split", None),
    "definition": lambda bundle, net, j: setattr(j.outlets[1], "attributed_length", None),
    "geometry": _break_phi,
    "model": lambda bundle, net, j: bundle.models.pop("rri_l", None),
    # a residual segment so long that its Poiseuille resistance overflows
    "nonfinite": lambda bundle, net, j: setattr(j.outlets[1], "residual_length", 1e308),
}


# the stage of predict_network that meets each break
_STAGES = {"model": 0, "split": 1, "definition": 1, "geometry": 2, "nonfinite": 3}


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _stage_order_error(bundle, net, breaks):
    """The error of predict_network, which runs each stage over all outlets:
    the outlet-by-outlet code's error on the breaks of the earliest stage
    alone, each placed as (break, junction index)."""
    stage = min(_STAGES[name] for name, _ in breaks)
    bundle, net = copy.deepcopy(bundle), copy.deepcopy(net)
    for name, k in breaks:
        if _STAGES[name] == stage:
            _BREAKS[name](bundle, net, net.junctions[k])
    return _raised(_reference_predict_network, bundle, net)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("first", sorted(_BREAKS))
@pytest.mark.parametrize("second", [None] + sorted(_BREAKS))
def test_failed_prediction_leaves_network_unchanged(trained_bundle, first, second):
    """A bad junction in the middle of the tree (and maybe a second one
    further on): the error of the earliest stage that fails, which names its
    first bad junction, and no coefficient attached anywhere.  Where the two
    breaks meet the same stage, or the first one an earlier stage, that is
    the outlet-by-outlet code's error."""
    from tests.conftest import random_shape_tree

    bundle, _ = trained_bundle
    bundle = copy.deepcopy(bundle)
    net = random_shape_tree(3)
    estimate_flow_splits(net)
    marker = object()
    for j in net.junctions:
        for o in j.outlets:
            o.coefficients = marker
    middle = len(net.junctions) // 2
    breaks = [(first, middle)] + ([] if second is None else [(second, len(net.junctions) - 1)])
    expected = _stage_order_error(bundle, net, breaks)
    for name, k in breaks:
        _BREAKS[name](bundle, net, net.junctions[k])
    ref_error = _raised(_reference_predict_network, bundle, copy.deepcopy(net))
    if second is None or _STAGES[first] <= _STAGES[second]:
        assert expected == ref_error
    assert _raised(predict_network, bundle, net) == expected
    assert all(o.coefficients is marker for j in net.junctions for o in j.outlets)
    if first in ("split", "definition") and second != "model":
        assert net.junctions[middle].id in ref_error[1]


def test_default_architectures_documented():
    assert DEFAULT_ARCHITECTURES == {
        "rri_rlin": (2, 15),
        "rri_rquad": (2, 30),
        "rri_l": (1, 12),
        "ri_rlin": (1, 10),
        "ri_l": (1, 20),
    }


def test_optimizer_constants_documented():
    assert (Adam.lr, Adam.beta1, Adam.beta2, Adam.eps) == (1e-3, 0.9, 0.999, 1e-8)
    assert BATCH_SIZE == 50


def _only(dataset, tags):
    """The dataset with the targets of tags alone, in that order."""
    subset = copy.copy(dataset)
    subset.targets = {tag: dataset.targets[tag] for tag in tags}
    return subset


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
    """One tag on its own: Adam over a list of separate layer arrays, one
    update per array.  It reads the architecture, batch size and Adam
    constants when called, as train_models does."""
    from vascrom.mlp import _tag_rng

    n_hidden, width = mlp.DEFAULT_ARCHITECTURES[tag]
    rng = _tag_rng(config.seed, tag)
    model = init_model(tag, dataset.inputs.shape[1], n_hidden, width, rng)
    params = model.weights + model.biases
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    b1, b2, batch_size = Adam.beta1, Adam.beta2, mlp.BATCH_SIZE
    x_train = dataset.inputs[dataset.train_idx]
    y_train = dataset.targets[tag][dataset.train_idx]
    x_val = dataset.inputs[dataset.val_idx]
    y_val = dataset.targets[tag][dataset.val_idx]
    train_curve, val_curve, t = [], [], 0
    n = x_train.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            loss, gw, gb = _reference_loss_and_grads(model, x_train[idx], y_train[idx])
            if not math.isfinite(loss):
                raise ModelError(f"model {tag}: divergent loss at epoch {epoch}, batch {n_batches}")
            t += 1
            for p, g, m, v in zip(params, gw + gb, ms, vs):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g**2
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                p -= Adam.lr * mhat / (np.sqrt(vhat) + Adam.eps)
            epoch_loss += loss
            n_batches += 1
        val_mse = float(np.mean((mlp_forward(model, x_val) - y_val) ** 2))
        train_curve.append(epoch_loss / n_batches)
        val_curve.append(val_mse)
        if config.stop_val_mse is not None and val_mse <= config.stop_val_mse:
            break
    report = {
        "train_loss": train_curve,
        "val_mse": val_curve,
        "epochs_run": len(train_curve),
        "final_val_mse": val_curve[-1],
    }
    return model, report


def _reference_train_all(dataset, config):
    """The dataset's tags one after another, in order; the first error stops
    the run."""
    models, report = {}, {}
    for tag in dataset.targets:
        models[tag], report[tag] = _reference_train(dataset, config, tag)
    return models, report


def _assert_equals_reference(dataset, config):
    models, report = train_models(dataset, config)
    ref_models, ref_report = _reference_train_all(dataset, config)
    tags = list(dataset.targets)
    assert list(models) == list(report) == tags
    assert report == ref_report
    for tag in tags:
        got, ref = models[tag], ref_models[tag]
        for a, b in zip(got.weights + got.biases, ref.weights + ref.biases, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b), tag
    return report


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
    models, _ = train_models(_only(dataset, ["rri_rquad"]), config=TrainingConfig(epochs=1, seed=0))
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


# -- lockstep training against the per-tag reference ------------------------

ALL_TAGS = list(DEFAULT_ARCHITECTURES)


def test_lockstep_training_equals_per_tag_reference(small_cohort):
    dataset, _ = small_cohort
    assert dataset.train_idx.size % BATCH_SIZE != 0  # the last batch is a short one
    _assert_equals_reference(dataset, TrainingConfig(epochs=20, seed=6))


def test_lockstep_single_row_batches_and_validation_set(monkeypatch, small_cohort):
    # one-row products are matrix-vector ones, whose bits change with padding
    dataset, _ = small_cohort
    one_val = copy.copy(dataset)
    one_val.val_idx = dataset.val_idx[:1]
    assert dataset.train_idx.size % 151 == 1
    monkeypatch.setattr(mlp, "BATCH_SIZE", 151)
    _assert_equals_reference(one_val, TrainingConfig(epochs=4, seed=2))


def test_lockstep_early_stop_of_some_tags(small_cohort):
    dataset, _ = small_cohort
    config = TrainingConfig(epochs=30, seed=3, stop_val_mse=0.05)
    report = _assert_equals_reference(dataset, config)
    epochs_run = sorted(rep["epochs_run"] for rep in report.values())
    assert epochs_run[0] < epochs_run[1] < epochs_run[-1] == config.epochs


def _first_batch_rows(dataset, config, tag):
    """The training rows of the tag's first epoch, in batch order."""
    from vascrom.mlp import _tag_rng

    rng = _tag_rng(config.seed, tag)
    init_model(tag, dataset.inputs.shape[1], *DEFAULT_ARCHITECTURES[tag], rng)
    return dataset.train_idx[rng.permutation(dataset.train_idx.size)]


def _count_adam_steps(monkeypatch):
    """A list that gets one entry per Adam step from now on."""
    calls = []
    step = mlp.Adam.step

    def counting_step(self, params, grads):
        calls.append(params.size)
        step(self, params, grads)

    monkeypatch.setattr(mlp.Adam, "step", counting_step)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lockstep_divergence_raises_at_the_first_divergent_batch(monkeypatch, small_cohort):
    # ri_l diverges in the first batch, rri_l only in the last batch of the
    # epoch; the run stops at the first batch, before its Adam step
    dataset, _ = small_cohort
    config = TrainingConfig(epochs=3, seed=0)
    poisoned = copy.deepcopy(dataset)
    poisoned.targets["ri_l"][_first_batch_rows(dataset, config, "ri_l")[0]] = np.inf
    poisoned.targets["rri_l"][_first_batch_rows(dataset, config, "rri_l")[-1]] = np.nan
    steps = _count_adam_steps(monkeypatch)
    with pytest.raises(ModelError) as got:
        train_models(poisoned, config=config)
    assert str(got.value) == "model ri_l: divergent loss at epoch 0, batch 0"
    assert steps == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_stops_training_before_the_failing_step(monkeypatch, small_cohort):
    # rri_l diverges in the last batch of the first epoch: its error is the
    # per-tag one, after one Adam step per batch before it
    dataset, _ = small_cohort
    config = TrainingConfig(epochs=3, seed=0)
    poisoned = copy.deepcopy(dataset)
    poisoned.targets["rri_l"][_first_batch_rows(dataset, config, "rri_l")[-1]] = np.nan
    with pytest.raises(ModelError) as ref:
        _reference_train_all(poisoned, config)
    steps = _count_adam_steps(monkeypatch)
    with pytest.raises(ModelError) as got:
        train_models(poisoned, config=config)
    n_batches = math.ceil(dataset.train_idx.size / BATCH_SIZE)
    assert str(got.value) == str(ref.value) == (
        f"model rri_l: divergent loss at epoch 0, batch {n_batches - 1}")
    assert len(steps) == n_batches - 1


def test_unknown_tag_fails_before_any_model_is_built(monkeypatch, small_cohort):
    dataset = _only(small_cohort[0], ["rri_l"])
    dataset.targets["other"] = dataset.targets["rri_l"]
    built = []
    monkeypatch.setattr(mlp, "init_model", lambda *args: built.append(args))
    steps = _count_adam_steps(monkeypatch)
    with pytest.raises(ModelError, match="no architecture for coefficient tag 'other'"):
        train_models(dataset)
    assert built == steps == []


def test_nonfinite_validation_mse_stops_at_its_epoch(monkeypatch, small_cohort):
    # a finite target whose square overflows: the first epoch's validation fails
    dataset, _ = small_cohort
    huge = copy.deepcopy(dataset)
    huge.targets["rri_rquad"][dataset.val_idx[0]] = 1e200
    steps = _count_adam_steps(monkeypatch)
    with pytest.raises(ModelError, match="model rri_rquad: validation MSE inf at epoch 0"):
        train_models(huge, config=TrainingConfig(epochs=50, seed=0))
    assert len(steps) == math.ceil(dataset.train_idx.size / BATCH_SIZE)


def test_lockstep_tag_subset_in_given_order(small_cohort):
    dataset, _ = small_cohort
    _assert_equals_reference(_only(dataset, ["ri_l", "rri_rquad", "rri_l"]),
                             TrainingConfig(epochs=5, seed=1))


@pytest.mark.parametrize(
    "architectures",
    [
        {"rri_l": (2, 7)},
        {"rri_rlin": (1, 9), "rri_rquad": (3, 6), "rri_l": (2, 11)},
        {tag: (1 + i % 2, 12) for i, tag in enumerate(ALL_TAGS)},
    ],
    ids=["one tag", "three depths", "equal widths"],
)
def test_lockstep_custom_architectures(monkeypatch, small_cohort, architectures):
    dataset, _ = small_cohort
    monkeypatch.setattr(mlp, "DEFAULT_ARCHITECTURES", architectures)
    _assert_equals_reference(_only(dataset, list(architectures)), TrainingConfig(epochs=5, seed=8))


def test_one_adam_step_per_batch_for_all_tags(monkeypatch, small_cohort):
    dataset, _ = small_cohort
    calls = _count_adam_steps(monkeypatch)
    config = TrainingConfig(epochs=3, seed=0)
    models, _ = train_models(dataset, config=config)
    n_batches = math.ceil(dataset.train_idx.size / BATCH_SIZE)
    assert len(calls) == config.epochs * n_batches
    n_params = sum(a.size for m in models.values() for a in m.weights + m.biases)
    assert calls[0] >= n_params  # one vector holds every model


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epochs", 0, "epochs >= 1"),
        ("epochs", -3, "epochs >= 1"),
        ("stop_val_mse", math.nan, "stop_val_mse must be finite and >= 0"),
        ("stop_val_mse", math.inf, "stop_val_mse must be finite and >= 0"),
        ("stop_val_mse", -0.1, "stop_val_mse must be finite and >= 0"),
    ],
)
def test_training_config_rejects_invalid_values(field, value, message):
    with pytest.raises(ModelError, match=message):
        TrainingConfig(**{field: value})


def test_training_config_accepts_boundary_values():
    TrainingConfig(epochs=1, stop_val_mse=0.0)


def test_save_dataset_bytes_match_row_writer(tmp_path, small_cohort):
    import csv

    dataset, _ = small_cohort
    save_dataset(dataset, tmp_path / "data")
    tags = list(dataset.target_stats)
    header = [f"f{i}" for i in range(dataset.inputs.shape[1])] + tags + ["split"]
    val = set(dataset.val_idx.tolist())
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i, row in enumerate(dataset.inputs):
            targets = [repr(float(dataset.targets[tag][i])) for tag in tags]
            w.writerow([repr(float(v)) for v in row] + targets + ["val" if i in val else "train"])
    assert (tmp_path / "data" / "dataset.csv").read_bytes() == ref.read_bytes()
