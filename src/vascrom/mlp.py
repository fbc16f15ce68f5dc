"""Per-coefficient feed-forward networks: training, persistence, and the
geometry -> dimensional-coefficient prediction pipeline."""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .network import (
    Fluid,
    InvalidGeometryError,
    Junction,
    JunctionOutlet,
    VascularNetwork,
)
from .nondim import (
    CoefficientSet,
    ZNormStats,
    apply_znorm,
    feature_matrix,
    float_pow,
    invert_znorm,
    redimensionalize_values,
    scale_fields,
)

BUNDLE_VERSION = 1

# Hidden-layer count and width per coefficient (single outlet-construction
# type by default; alternate types can be registered under their own tags).
DEFAULT_ARCHITECTURES = {
    "rri_rlin": (2, 15),
    "rri_rquad": (2, 30),
    "rri_l": (1, 12),
    "ri_rlin": (1, 10),
    "ri_l": (1, 20),
}


class ModelError(Exception):
    pass


@dataclass
class MlpModel:
    """ReLU MLP with an affine output layer, scalar output."""

    tag: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ModelError(f"model {self.tag}: weight/bias layer mismatch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.size:
                raise ModelError(f"model {self.tag}: bad shapes at layer {i}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ModelError(f"model {self.tag}: shape chain broken at layer {i}")
        if self.weights[-1].shape[0] != 1:
            raise ModelError(f"model {self.tag}: output layer must be scalar")

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1]


def init_model(tag: str, n_inputs: int, n_hidden: int, width: int, rng) -> MlpModel:
    """He-style uniform initialization scaled by fan-in."""
    sizes = [n_inputs] + [width] * n_hidden + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(tag=tag, weights=weights, biases=biases)


def mlp_forward(model: MlpModel, x: np.ndarray):
    """Forward pass; accepts a single vector or an (n, d) batch."""
    x = np.asarray(x, float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.n_inputs:
        raise ModelError(
            f"model {model.tag}: input dimension {a.shape[1]} != {model.n_inputs}"
        )
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T + b
        if i < n_layers - 1:
            a = np.maximum(a, 0.0)
    out = a[:, 0]
    return float(out[0]) if single else out


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray, grads=None):
    """Mean-squared-error loss and its gradients w.r.t. all weights/biases.

    The gradients go into `grads`, a (weights, biases) pair of arrays shaped
    like the model's, when given; otherwise into fresh arrays.
    """
    x = np.atleast_2d(np.asarray(x, float))
    y = np.asarray(y, float).ravel()
    n_layers = len(model.weights)
    acts = [x]
    pre = []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(a)
    pred = acts[-1][:, 0]
    resid = pred - y
    n = y.size
    loss = float(np.mean(resid**2))

    if grads is None:
        grads = [np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases]
    gw, gb = grads
    delta = (2.0 / n) * resid[:, None]
    for i in range(n_layers - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=gw[i])
        delta.sum(axis=0, out=gb[i])
        if i > 0:
            delta = (delta @ model.weights[i]) * (pre[i - 1] > 0)
    return loss, gw, gb


class Adam:
    """Adam (Kingma & Ba 2015) on one flat parameter vector."""

    def __init__(self, params: np.ndarray, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self.m, self.v
        m *= b1
        m += (1 - b1) * grads
        v *= b2
        v += (1 - b2) * grads**2
        mhat = m / (1 - b1**self.t)
        vhat = v / (1 - b2**self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _layer_views(flat: np.ndarray, model: MlpModel):
    """Views into `flat` shaped like the model's weights, then its biases."""
    views, start = [], 0
    for a in model.weights + model.biases:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    n_layers = len(model.weights)
    return views[:n_layers], views[n_layers:]


# -- datasets -------------------------------------------------------------


@dataclass
class TrainingDataset:
    inputs: np.ndarray  # (n, 10), z-normalized
    targets: dict[str, np.ndarray]  # per coefficient tag, z-normalized
    input_stats: ZNormStats
    target_stats: dict[str, ZNormStats]
    train_idx: np.ndarray
    val_idx: np.ndarray
    feature_ranges: dict[str, tuple[float, float]]
    re_c: float

    def __post_init__(self):
        if self.train_idx.size == 0 or self.val_idx.size == 0:
            raise ModelError("empty train or validation split")


def save_dataset(dataset: TrainingDataset, outdir) -> None:
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    split = np.full(dataset.inputs.shape[0], "train", dtype=object)
    split[dataset.val_idx] = "val"
    header = [f"f{i}" for i in range(dataset.inputs.shape[1])] + ["target", "split"]
    # CSV lines as csv.writer makes them; no cell needs quoting (floats in
    # repr form, the split names), and the inputs are formatted once
    inputs = [",".join([repr(float(v)) for v in row]) for row in dataset.inputs]
    for tag, y in dataset.targets.items():
        with open(outdir / f"{tag}.csv", "w", newline="") as f:
            f.write(",".join(header) + "\r\n")
            f.writelines(f"{x},{float(t)!r},{s}\r\n" for x, t, s in zip(inputs, y, split))
    stats = {
        "re_c": dataset.re_c,
        "input_mean": list(dataset.input_stats.mean),
        "input_std": list(dataset.input_stats.std),
        "target_stats": {
            tag: {"mean": list(st.mean), "std": list(st.std)}
            for tag, st in dataset.target_stats.items()
        },
        "feature_ranges": {k: list(v) for k, v in dataset.feature_ranges.items()},
    }
    with open(outdir / "stats.json", "w") as f:
        json.dump(stats, f, indent=1)


def load_dataset(outdir) -> TrainingDataset:
    import csv
    from pathlib import Path

    outdir = Path(outdir)
    with open(outdir / "stats.json") as f:
        stats = json.load(f)
    targets = {}
    first = inputs = split = keys = None
    for tag in stats["target_stats"]:
        path = outdir / f"{tag}.csv"
        y, row_keys, x = [], [], []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            for r in reader:
                if len(r) != len(header):
                    raise ModelError(f"{path}:{reader.line_num}: {len(r)} cells, header has {len(header)}")
                y.append(float(r[-2]))
                row_keys.append((",".join(r[:-2]), r[-1]))
                if first is None:
                    x.append([float(v) for v in r[:-2]])
        targets[tag] = np.array(y)
        # every tag file must carry the first file's input and split cells
        if first is None:
            first, keys = path, row_keys
            inputs = np.array(x)
            split = np.array([s for _, s in row_keys])
        elif row_keys != keys:
            if len(row_keys) != len(keys):
                raise ModelError(f"{path}: {len(row_keys)} data rows, {first.name} has {len(keys)}")
            row = next(i for i, (a, b) in enumerate(zip(row_keys, keys)) if a != b)
            raise ModelError(f"{path}:{row + 2}: inputs or split differ from {first.name}")
    train_idx = np.flatnonzero(split == "train")
    val_idx = np.flatnonzero(split == "val")
    return TrainingDataset(
        inputs=inputs,
        targets=targets,
        input_stats=ZNormStats(np.array(stats["input_mean"]), np.array(stats["input_std"])),
        target_stats={
            tag: ZNormStats(np.array(s["mean"]), np.array(s["std"]))
            for tag, s in stats["target_stats"].items()
        },
        train_idx=train_idx,
        val_idx=val_idx,
        feature_ranges={k: tuple(v) for k, v in stats["feature_ranges"].items()},
        re_c=float(stats["re_c"]),
    )


# -- training -------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 500
    batch_size: int = 50
    seed: int = 0
    stop_val_mse: Optional[float] = None  # optional early stop once reached


def _tag_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def train_models(
    dataset: TrainingDataset,
    architectures: Optional[dict[str, tuple[int, int]]] = None,
    config: TrainingConfig = TrainingConfig(),
    tags: Optional[list[str]] = None,
):
    """Train one model per coefficient tag.  Deterministic for a fixed seed.

    Returns (models dict, report dict with per-epoch train/val loss curves).
    """
    architectures = architectures or DEFAULT_ARCHITECTURES
    tags = tags or list(dataset.targets)
    models: dict[str, MlpModel] = {}
    report: dict[str, dict] = {}
    for tag in tags:
        if tag not in architectures:
            raise ModelError(f"no architecture for coefficient tag {tag!r}")
        n_hidden, width = architectures[tag]
        rng = _tag_rng(config.seed, tag)
        model = init_model(tag, dataset.inputs.shape[1], n_hidden, width, rng)
        # one flat parameter vector, with the model's layers as views into it
        params = np.concatenate([a.ravel() for a in model.weights + model.biases])
        grads = np.empty_like(params)
        grad_views = _layer_views(grads, model)
        model.weights, model.biases = _layer_views(params, model)
        opt = Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)

        x_train = dataset.inputs[dataset.train_idx]
        y_train = dataset.targets[tag][dataset.train_idx]
        x_val = dataset.inputs[dataset.val_idx]
        y_val = dataset.targets[tag][dataset.val_idx]

        train_curve, val_curve = [], []
        n = x_train.shape[0]
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                loss, _, _ = loss_and_grads(model, x_train[idx], y_train[idx], grad_views)
                if not math.isfinite(loss):
                    raise ModelError(
                        f"model {tag}: divergent loss at epoch {epoch}, batch {n_batches}"
                    )
                opt.step(params, grads)
                epoch_loss += loss
                n_batches += 1
            val_pred = mlp_forward(model, x_val)
            val_mse = float(np.mean((val_pred - y_val) ** 2))
            train_curve.append(epoch_loss / n_batches)
            val_curve.append(val_mse)
            if config.stop_val_mse is not None and val_mse <= config.stop_val_mse:
                break
        models[tag] = model
        report[tag] = {
            "train_loss": train_curve,
            "val_mse": val_curve,
            "epochs_run": len(train_curve),
            "final_val_mse": val_curve[-1],
        }
    return models, report


# -- persistence ----------------------------------------------------------


@dataclass
class ModelBundle:
    version: int
    re_c: float
    input_stats: ZNormStats
    target_stats: dict[str, ZNormStats]
    feature_ranges: dict[str, tuple[float, float]]
    models: dict[str, MlpModel]

    @classmethod
    def from_training(cls, dataset: TrainingDataset, models: dict[str, MlpModel]):
        return cls(
            version=BUNDLE_VERSION,
            re_c=dataset.re_c,
            input_stats=dataset.input_stats,
            target_stats=dataset.target_stats,
            feature_ranges=dataset.feature_ranges,
            models=models,
        )


def save_models(bundle: ModelBundle, path) -> None:
    out = {
        "version": bundle.version,
        "scales_policy": {"re_c": bundle.re_c, "l_c": "junction inlet radius"},
        "znorm_in": {
            "mean": list(bundle.input_stats.mean),
            "std": list(bundle.input_stats.std),
        },
        "znorm_out": {
            tag: {"mean": list(st.mean), "std": list(st.std)}
            for tag, st in bundle.target_stats.items()
        },
        "ranges": {k: list(v) for k, v in bundle.feature_ranges.items()},
        "models": [
            {
                "tag": m.tag,
                "widths": [w.shape[0] for w in m.weights],
                "weights": [w.tolist() for w in m.weights],
                "biases": [b.tolist() for b in m.biases],
            }
            for m in bundle.models.values()
        ],
    }
    with open(path, "w") as f:
        json.dump(out, f)


def load_models(path) -> ModelBundle:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ModelError(f"{path}: invalid JSON at byte {e.pos}: {e.msg}") from e
    if data.get("version") != BUNDLE_VERSION:
        raise ModelError(
            f"{path}: bundle version {data.get('version')} != {BUNDLE_VERSION}"
        )
    models = {}
    for m in data["models"]:
        model = MlpModel(
            tag=m["tag"],
            weights=[np.array(w, float) for w in m["weights"]],
            biases=[np.array(b, float) for b in m["biases"]],
        )
        models[m["tag"]] = model
    return ModelBundle(
        version=data["version"],
        re_c=float(data["scales_policy"]["re_c"]),
        input_stats=ZNormStats(
            np.array(data["znorm_in"]["mean"]), np.array(data["znorm_in"]["std"])
        ),
        target_stats={
            tag: ZNormStats(np.array(s["mean"]), np.array(s["std"]))
            for tag, s in data["znorm_out"].items()
        },
        feature_ranges={k: tuple(v) for k, v in data["ranges"].items()},
        models=models,
    )


# -- prediction pipeline --------------------------------------------------

# features clamped into the trained range and flagged in the report; an
# out-of-range lam_self is clamped silently and gets the length correction
_CLAMPED_FEATURES = ("alpha_self", "alpha_other", "theta_self", "theta_other", "phi_self")


def _gather_outlets(bundle: ModelBundle, network: VascularNetwork, junctions, tags):
    """The (junction, outlet) pairs in junction order and their input rows
    (inlet radius, own and sibling area, attributed and residual length, own
    and sibling angle, flow split), read up to the first missing input; and
    the error that input raises, or None."""
    outlets, rows = [], []
    for junction in junctions:
        l_c = network.vessels[junction.inlet_vessel].radius
        if l_c <= 0 or bundle.re_c <= 0:
            return outlets, rows, InvalidGeometryError(
                f"need l_c > 0 and Re_c > 0, got {l_c}, {bundle.re_c}"
            )
        for tag in tags:
            if tag not in bundle.models:
                return outlets, rows, ModelError(f"bundle lacks model for {tag!r}")
        if any(o.flow_split is None for o in junction.outlets):
            return outlets, rows, ModelError(
                f"junction {junction.id}: flow splits not set; run split estimation first"
            )
        for i, outlet in enumerate(junction.outlets):
            if outlet.attributed_length is None:
                return outlets, rows, ModelError(
                    f"junction {junction.id}: bifurcation definition not applied"
                )
            other = junction.outlets[1 - i]
            outlets.append((junction, outlet))
            rows.append((
                l_c, network.vessels[outlet.vessel_id].area, network.vessels[other.vessel_id].area,
                outlet.attributed_length, outlet.residual_length or 0.0,
                outlet.angle, other.angle, outlet.flow_split,
            ))
    return outlets, rows, None


def _predict_outlets(
    bundle: ModelBundle, network: VascularNetwork, junctions, kind: str
) -> tuple[list[JunctionOutlet], list[CoefficientSet], list[dict]]:
    """Predict dimensional coefficients for every outlet of the junctions.

    Every outlet is checked before anything is returned, and an error is the
    one that predicting outlet by outlet, in junction order, meets first.
    """
    tags = ("rri_rlin", "rri_rquad", "rri_l") if kind == "RRI" else ("ri_rlin", "ri_l")
    outlets, rows, missing = _gather_outlets(bundle, network, junctions, tags)
    coeffs, reports = [], []
    if rows:
        coeffs, reports = _predict_rows(bundle, network.fluid, outlets, rows, tags)
    if missing is not None:
        raise missing
    return [o for _, o in outlets], coeffs, reports


def _predict_rows(bundle: ModelBundle, fluid: Fluid, outlets, rows, tags):
    """One batched pass over the outlet rows of _gather_outlets.

    Builds the features of all outlets, runs one forward per model, then
    redimensionalises and adds the Poiseuille corrections as array
    expressions, each the same operations in the same order as for a single
    outlet.
    """
    l_c, area, area_other, attributed, residual, theta, theta_other, phi = np.array(rows, float).T
    ranges = bundle.feature_ranges
    scales = SimpleNamespace(**scale_fields(l_c, fluid, bundle.re_c))

    lam = attributed / scales.l_c
    lam_lo, lam_hi = ranges["lam_self"]
    raw = {
        "alpha_self": area / scales.a_c,
        "alpha_other": area_other / scales.a_c,
        "theta_self": theta,
        "theta_other": theta_other,
        "phi_self": phi,
    }
    feats = {feat: np.clip(raw[feat], *ranges[feat]) for feat in _CLAMPED_FEATURES}
    feats["lam_self"] = np.clip(lam, lam_lo, lam_hi)
    clamped = {feat: feats[feat] != raw[feat] for feat in _CLAMPED_FEATURES}

    # the checks of DimensionlessGeometry, on the clamped features
    nonpositive = (
        (feats["alpha_self"] <= 0) | (feats["alpha_other"] <= 0) | (feats["lam_self"] <= 0)
    )
    bad = np.flatnonzero(nonpositive | ~((0.0 < feats["phi_self"]) & (feats["phi_self"] < 1.0)))
    if bad.size:
        k = int(bad[0])
        if k:  # the outlets before it may fail first
            _predict_rows(bundle, fluid, outlets[:k], rows[:k], tags)
        if nonpositive[k]:
            raise InvalidGeometryError("area and length ratios must be positive")
        raise InvalidGeometryError(
            f"flow split must lie in (0, 1), got {float(feats['phi_self'][k])}"
        )

    x = feature_matrix(
        feats["alpha_self"], feats["alpha_other"], feats["lam_self"],
        feats["theta_self"], feats["theta_other"], feats["phi_self"],
    )
    xz = apply_znorm(x, bundle.input_stats)
    star = {
        tag: invert_znorm(mlp_forward(bundle.models[tag], xz), bundle.target_stats[tag])
        for tag in tags
    }
    # tags are (r_lin, r_quad, l) for RRI and (r_lin, l) for RI
    r_lin, r_quad, l = redimensionalize_values(
        star[tags[0]], star.get("rri_rquad"), star[tags[-1]], scales
    )

    # length_correction: lengths outside the trained range, by Poiseuille
    area2 = float_pow(area, 2)
    below, above = lam - lam_lo, lam - lam_hi
    l_add = (
        np.where(below < 0.0, below, 0.0) * scales.l_c
        + np.where(above > 0.0, above, 0.0) * scales.l_c
    )
    delta_r = l_add * 8.0 * math.pi * fluid.mu / area2
    delta_l = l_add * fluid.rho / area
    # poiseuille_elements of the residual branch segment, where there is one
    has_residual = residual > 0
    rr = 8.0 * math.pi * fluid.mu * residual / area2
    delta_r = np.where(has_residual, delta_r + rr, delta_r)
    delta_l = np.where(has_residual, delta_l + fluid.rho * residual / area, delta_l)
    r_lin, l = r_lin + delta_r, l + delta_l

    # a non-finite value at any stage stays non-finite, so the CoefficientSet
    # checks below raise where the outlet-by-outlet stages would
    coeff_kind = "RI" if r_quad is None else "RRI"
    r_quads = [None] * len(rows) if r_quad is None else r_quad.tolist()
    any_clamped = np.logical_or.reduce(list(clamped.values())).tolist()
    values = zip(outlets, r_lin.tolist(), r_quads, l.tolist(), lam.tolist(), delta_r.tolist(),
                 delta_l.tolist())
    coeffs, reports = [], []
    for i, ((junction, outlet), c_lin, c_quad, c_l, lam_i, dr, dl) in enumerate(values):
        coeffs.append(CoefficientSet(kind=coeff_kind, r_lin=c_lin, r_quad=c_quad, l=c_l))
        flagged = [
            {"feature": feat, "value": float(raw[feat][i]), "range": list(ranges[feat])}
            for feat in _CLAMPED_FEATURES
            if clamped[feat][i]
        ] if any_clamped[i] else []
        reports.append(
            {
                "junction": junction.id,
                "outlet": outlet.vessel_id,
                "lambda": lam_i,
                "length_correction": {"delta_r": dr, "delta_l": dl},
                "clamped_features": flagged,
            }
        )
    return coeffs, reports


def predict_junction_coeffs(
    bundle: ModelBundle,
    network: VascularNetwork,
    junction: Junction,
    kind: str = "RRI",
) -> tuple[list[CoefficientSet], list[dict]]:
    """Predict dimensional coefficients for both outlets of one junction.

    Out-of-range outlet lengths receive the Poiseuille length correction on
    R_lin and L (the residual branch segment beyond the attributed length is
    folded in the same way, since vessels carry no elements in RRI/RI mode);
    other out-of-range features are clamped and flagged in the report.
    """
    _, coeffs, reports = _predict_outlets(bundle, network, [junction], kind)
    return coeffs, reports


def predict_network(
    bundle: ModelBundle, network: VascularNetwork, kind: str = "RRI"
) -> list[dict]:
    """Predict and attach coefficients at every junction; returns the report.

    Every outlet is predicted and checked before any coefficient is attached,
    so a failure leaves the network unchanged.
    """
    outlets, coeffs, reports = _predict_outlets(bundle, network, network.junctions, kind)
    for outlet, c in zip(outlets, coeffs):
        outlet.coefficients = c
    return reports
