"""Per-coefficient feed-forward networks: training, persistence, and the
geometry -> dimensional-coefficient prediction pipeline."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .formats import (_FieldError, _get, _number, _numbers, _typed, read_csv, read_json,
                      write_csv, write_json)
from .network import Fluid, VascularNetwork
from .nondim import (
    CoefficientSet,
    DimensionlessGeometry,
    ZNormStats,
    apply_znorm,
    base_descriptors,
    characteristic_scales,
    check_geometry,
    feature_matrix,
    float_pow,
    invert_znorm,
    redimensionalize_values,
    scale_fields,
)

BUNDLE_VERSION = 1

# Hidden-layer count and width per coefficient tag.  Every width is at least
# the 10 features, so a batch of two or more rows trains on `_Stack`'s
# stacked layers.
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


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean-squared-error loss and its gradients w.r.t. all weights/biases."""
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

    gw, gb = [None] * n_layers, [None] * n_layers
    delta = (2.0 / n) * resid[:, None]
    for i in range(n_layers - 1, -1, -1):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (pre[i - 1] > 0)
    return loss, gw, gb


class Adam:
    """Adam (Kingma & Ba 2015) on one flat parameter vector, with that paper's
    default step size and decay rates."""

    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    @np.errstate(over="ignore", invalid="ignore")  # the next loss or val_mse check rejects it
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


def _views(flat: np.ndarray, shapes):
    """Consecutive views into `flat` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class _Stack:
    """Models of any depth and width trained as one.

    The models are held deepest first.  Hidden layer l is one zero-padded
    (k_l, width, fan_in) weight array and one (k_l, width) bias over the k_l
    models deeper than l; the output layers are one zero-padded (k, width)
    array and a (k,) bias.  All of them are views into one flat parameter
    vector, and so is every model's own layer, so one Adam step updates every
    model.  The padded units stay exactly zero: their pre-activations are 0,
    ReLU keeps them 0, their gradients are 0, and so are their Adam updates.

    A product gives the bits a single model gets on its own when it is a
    matrix-matrix product for the model alone.  Each model's output layer is
    a matrix-vector product, whose rounding BLAS changes when the length is
    padded, so it runs at the model's own width.  A batch of one row turns
    the hidden-layer products into matrix-vector ones too, so it runs every
    model's products at its own widths.  No other batch does: every
    architecture is at least 10 units wide over the 10 features.
    """

    def __init__(self, models: list[MlpModel]):
        self.models = models
        self.tags = [m.tag for m in models]
        depths = [len(m.weights) - 1 for m in models]
        # k_l, the models deeper than l, and the padded width of layer l
        self.ks = [sum(d > l for d in depths) for l in range(max(depths, default=0))]
        self.pads = [max(m.weights[l].shape[0] for m in models[:k]) for l, k in enumerate(self.ks)]
        heads = [m.weights[-1].shape[1] for m in models]
        fan_in = [models[0].n_inputs if models else 0] + self.pads
        self.shapes = (
            [(k, p, f) for k, p, f in zip(self.ks, self.pads, fan_in)]
            + [(k, p) for k, p in zip(self.ks, self.pads)]
            + [(len(models), max(self.pads + heads, default=0)), (len(models),)]
        )
        self.params = np.zeros(sum(math.prod(s) for s in self.shapes))
        self.grads = np.zeros_like(self.params)
        n_layers = len(self.ks)
        stacks = _views(self.params, self.shapes)
        self.w, self.b = stacks[:n_layers], stacks[n_layers : 2 * n_layers]
        self.w_out, self.b_out = stacks[-2:]
        grad_stacks = _views(self.grads, self.shapes)
        self.gw, self.gb = grad_stacks[:n_layers], grad_stacks[n_layers : 2 * n_layers]
        self.gb_out = grad_stacks[-1]
        # the forward products take the transposed weights, the biases broadcast over the batch
        self.w_t = [w.transpose(0, 2, 1) for w in self.w]
        self.b_rows = [b[:, None, :] for b in self.b]
        self.b_out_col = self.b_out[:, None]
        # each model's output layer reads its last activation at its own width
        self.heads = list(zip(depths, heads))
        self.w_rows = [w[:h] for w, h in zip(self.w_out, heads)]
        self.gw_rows = [g[:h] for g, h in zip(grad_stacks[-2], heads)]
        # the models' layers become views into the stacks
        for i, m in enumerate(models):
            own = self._own(self.params, i)
            for dst, src in zip(own, m.weights + m.biases):
                dst[...] = src
            m.weights, m.biases = own[: len(m.weights)], own[len(m.weights) :]
        self.model_grads = [self._own(self.grads, i) for i in range(len(models))]
        self.opt = Adam(self.params)

    def _own(self, flat: np.ndarray, i: int) -> list[np.ndarray]:
        """Model i's weights, then its biases, as views into a flat vector of
        this stack's layout."""
        stacks = _views(flat, self.shapes)
        n_layers = len(self.ks)
        model = self.models[i]
        depth = len(model.weights) - 1
        weights = [stacks[l][i, :o, :f] for l, (o, f) in
                   enumerate(w.shape for w in model.weights[:depth])]
        biases = [stacks[n_layers + l][i, : b.size] for l, b in enumerate(model.biases[:depth])]
        weights.append(stacks[-2][i, None, : model.weights[-1].shape[1]])
        biases.append(stacks[-1][i : i + 1])
        return weights + biases

    def take(self, keep: list[int]) -> "_Stack":
        """A stack of the models at `keep`, with their parameters and Adam state."""
        new = _Stack([self.models[i] for i in keep])
        for j, i in enumerate(keep):
            for old, cur in ((self.opt.m, new.opt.m), (self.opt.v, new.opt.v)):
                for src, dst in zip(self._own(old, i), new._own(cur, j)):
                    dst[...] = src
        new.opt.t = self.opt.t
        return new

    def model(self, i: int) -> MlpModel:
        """A copy of model i."""
        m = self.models[i]
        return MlpModel(m.tag, [w.copy() for w in m.weights], [b.copy() for b in m.biases])

    def forward(self, x: np.ndarray):
        """Every model's predictions (k, n) for inputs x (k, n, n_inputs); also
        the inputs of the hidden layers and of each model's output layer,
        which a per-model batch leaves None.
        """
        pred = np.empty(x.shape[:2])
        if x.shape[1] == 1:
            for m, xi, out in zip(self.models, x, pred):
                out[:] = mlp_forward(m, xi)
            return pred, None, None
        acts = [x]
        for w_t, b, k in zip(self.w_t, self.b_rows, self.ks):
            a = np.matmul(acts[-1][:k], w_t)
            a += b
            acts.append(np.maximum(a, 0.0, out=a))
        heads = [acts[d][i, :, :h] for i, (d, h) in enumerate(self.heads)]
        for a, w, out in zip(heads, self.w_rows, pred):
            np.matmul(a, w, out=out)
        pred += self.b_out_col
        return pred, acts, heads

    @np.errstate(over="ignore", invalid="ignore")  # train_models checks every loss
    def gradients(self, x: np.ndarray, y: np.ndarray, loss: np.ndarray) -> None:
        """Each model's mean-squared-error loss on one batch, into `loss` (k,),
        and the gradients of all of them, into `self.grads`.

        x is (k, n, n_inputs) and y is (k, n): each model's own batch.
        """
        if y.shape[1] == 1:
            for i, (m, own) in enumerate(zip(self.models, self.model_grads)):
                loss[i], gw, gb = loss_and_grads(m, x[i], y[i])
                for dst, src in zip(own, gw + gb):
                    dst[...] = src
            return
        pred, acts, heads = self.forward(x)
        resid = pred - y
        np.mean(resid**2, axis=1, out=loss)
        delta = (2.0 / y.shape[1]) * resid
        np.sum(delta, axis=1, out=self.gb_out)
        for d, a, g in zip(delta, heads, self.gw_rows):
            np.matmul(d, a, out=g)
        # the models whose last hidden layer is l take their delta from the output layer
        ks = self.ks + [0]
        g_deeper = None
        for l in range(len(self.ks) - 1, -1, -1):
            deeper, k = ks[l + 1], ks[l]
            g = np.empty(acts[l + 1].shape)
            if deeper:
                np.matmul(g_deeper, self.w[l + 1], out=g[:deeper])
            if deeper < k:
                np.multiply(delta[deeper:k, :, None], self.w_out[deeper:k, None, : self.pads[l]],
                            out=g[deeper:])
            # a ReLU output is > 0 exactly where its pre-activation is
            g *= acts[l + 1] > 0.0
            np.matmul(g.transpose(0, 2, 1), acts[l][:k], out=self.gw[l])
            np.sum(g, axis=1, out=self.gb[l])
            g_deeper = g

    @np.errstate(over="ignore", invalid="ignore")  # train_models checks every val_mse
    def val_mse(self, x: np.ndarray, y: np.ndarray) -> list[float]:
        """Each model's mean squared error on the rows x (n, n_inputs) with
        targets y (k, n)."""
        pred, _, _ = self.forward(np.broadcast_to(x, (len(self.models),) + x.shape))
        return np.mean((pred - y) ** 2, axis=1).tolist()


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
    """Write `dataset.csv` (inputs, one target column per tag, split) and
    `stats.json` (the normalization block) into outdir."""
    outdir = Path(outdir)
    tags = list(dataset.target_stats)
    split = np.full(dataset.inputs.shape[0], "train", dtype=object)
    split[dataset.val_idx] = "val"
    values = np.column_stack([dataset.inputs] + [dataset.targets[tag] for tag in tags])
    write_csv(outdir / "dataset.csv", _dataset_header(dataset.inputs.shape[1], tags), values, split)
    write_json(_norm_block(dataset), outdir / "stats.json")


def load_dataset(outdir) -> TrainingDataset:
    """Read what save_dataset wrote; a header that does not match stats.json or
    a malformed row raises a ModelError naming file:line."""
    outdir = Path(outdir)
    _, norm = _read_norm_block(outdir / "stats.json")
    n_inputs, tags = norm["input_stats"].mean.size, list(norm["target_stats"])
    _, values, split = read_csv(outdir / "dataset.csv", _dataset_header(n_inputs, tags),
                                ("train", "val"), ModelError)
    return TrainingDataset(
        inputs=values[:, :n_inputs],
        targets={tag: values[:, n_inputs + k] for k, tag in enumerate(tags)},
        train_idx=np.flatnonzero(split == "train"),
        val_idx=np.flatnonzero(split == "val"),
        **norm,
    )


def _dataset_header(n_inputs: int, tags: list[str]) -> list[str]:
    return [f"f{i}" for i in range(n_inputs)] + tags + ["split"]


# -- training -------------------------------------------------------------


BATCH_SIZE = 50  # training rows per Adam step; an epoch's last batch may be shorter


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 500
    seed: int = 0
    stop_val_mse: Optional[float] = None  # optional early stop once reached

    def __post_init__(self):
        if self.epochs < 1:
            raise ModelError(f"need epochs >= 1, got {self.epochs}")
        stop = self.stop_val_mse
        if stop is not None and not (math.isfinite(stop) and stop >= 0):
            raise ModelError(f"stop_val_mse must be finite and >= 0, got {stop}")


def _tag_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def train_models(dataset: TrainingDataset, config: TrainingConfig = TrainingConfig()):
    """Train one model per target of the dataset, in its order, with the
    DEFAULT_ARCHITECTURES and BATCH_SIZE.  Deterministic for a fixed seed.

    All tags train in lockstep: one step loop in which each batch is one
    forward and backward pass over the stacked hidden layers of every model
    (see `_Stack`), one output-layer product per model at its own width, and
    one Adam step on the joint parameter vector.  Each tag keeps its own
    random stream for its initial weights and its batch order, its own early
    stop, and the models and reports equal those of training each tag on its
    own, bit for bit.

    The first failure stops the run: a tag without an architecture before
    any model is built, a non-finite loss before that batch's Adam step, a
    non-finite validation MSE at the end of its epoch.  Where several tags
    fail at once, the error names the first of them in the dataset's order.

    Returns (models dict, report dict with per-epoch train/val loss curves).
    """
    tags = list(dataset.targets)
    for tag in tags:
        if tag not in DEFAULT_ARCHITECTURES:
            raise ModelError(f"no architecture for coefficient tag {tag!r}")
    rngs = {tag: _tag_rng(config.seed, tag) for tag in tags}
    n_inputs = dataset.inputs.shape[1]
    init = [init_model(tag, n_inputs, *DEFAULT_ARCHITECTURES[tag], rngs[tag]) for tag in tags]
    # deepest first, so that each stacked layer covers a leading run of models
    stack = _Stack(sorted(init, key=lambda m: -len(m.weights)))

    def first_nonfinite(values):
        """The first tag of the stack, in the dataset's order, whose value is
        not finite, and that value; or None."""
        bad = [(tags.index(tag), tag, v) for tag, v in zip(stack.tags, values)
               if not math.isfinite(v)]
        return min(bad)[1:] if bad else None

    x_train = dataset.inputs[dataset.train_idx]
    x_val = dataset.inputs[dataset.val_idx]
    y_train = {tag: dataset.targets[tag][dataset.train_idx] for tag in tags}
    y_val = {tag: dataset.targets[tag][dataset.val_idx] for tag in tags}
    curves = {tag: ([], []) for tag in tags}
    models: dict[str, MlpModel] = {}
    n = x_train.shape[0]
    batches = [slice(start, start + BATCH_SIZE) for start in range(0, n, BATCH_SIZE)]
    for epoch in range(config.epochs):
        if not stack.tags:
            break
        order = np.array([rngs[tag].permutation(n) for tag in stack.tags])
        y = np.take_along_axis(np.array([y_train[tag] for tag in stack.tags]), order, axis=1)
        losses = np.empty((len(batches), len(stack.tags)))
        for i, batch in enumerate(batches):
            # every tag's batch in one gather; the epoch's inputs are never all copied
            stack.gradients(x_train[order[:, batch]], y[:, batch], losses[i])
            bad = first_nonfinite(losses[i].tolist())
            if bad:
                raise ModelError(f"model {bad[0]}: divergent loss at epoch {epoch}, batch {i}")
            stack.opt.step(stack.params, stack.grads)
        # the sums run in batch order, as a running Python sum would
        train_loss = (np.cumsum(losses, axis=0)[-1] / len(batches)).tolist()
        val_mse = stack.val_mse(x_val, np.array([y_val[tag] for tag in stack.tags]))
        bad = first_nonfinite(val_mse)
        if bad:  # a huge validation target; the report is strict JSON
            raise ModelError(f"model {bad[0]}: validation MSE {bad[1]} at epoch {epoch}")
        keep = []
        for k, tag in enumerate(stack.tags):
            curves[tag][0].append(train_loss[k])
            curves[tag][1].append(val_mse[k])
            if config.stop_val_mse is not None and val_mse[k] <= config.stop_val_mse:
                models[tag] = stack.model(k)
            else:
                keep.append(k)
        if len(keep) < len(stack.tags):
            stack = stack.take(keep)
    for k, tag in enumerate(stack.tags):
        models[tag] = stack.model(k)

    report = {
        tag: {
            "train_loss": train_curve,
            "val_mse": val_curve,
            "epochs_run": len(train_curve),
            "final_val_mse": val_curve[-1],
        }
        for tag, (train_curve, val_curve) in curves.items()
    }
    return {tag: models[tag] for tag in tags}, report


# -- persistence ----------------------------------------------------------


@dataclass
class ModelBundle:
    re_c: float
    input_stats: ZNormStats
    target_stats: dict[str, ZNormStats]
    feature_ranges: dict[str, tuple[float, float]]
    models: dict[str, MlpModel]

    @classmethod
    def from_training(cls, dataset: TrainingDataset, models: dict[str, MlpModel]):
        return cls(
            re_c=dataset.re_c,
            input_stats=dataset.input_stats,
            target_stats=dataset.target_stats,
            feature_ranges=dataset.feature_ranges,
            models=models,
        )


def save_models(bundle: ModelBundle, path) -> None:
    out = {
        "version": BUNDLE_VERSION,
        **_norm_block(bundle),
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
    write_json(out, path, indent=None)


def load_models(path) -> ModelBundle:
    """Read what save_models wrote; a missing or malformed field raises a
    ModelError naming the file, the model entry and the field."""
    data, norm = _read_norm_block(path)
    if data.get("version") != BUNDLE_VERSION:
        raise ModelError(f"{path}: bundle version {data.get('version')} != {BUNDLE_VERSION}")
    try:
        entries = _typed(_get(data, "models"), "models", list)
    except _FieldError as e:
        raise ModelError(f"{path}: {e}") from None
    models = {}
    for i, entry in enumerate(entries):
        try:
            model = _read_model(entry, norm["input_stats"].mean.size, norm["target_stats"])
        except _FieldError as e:
            raise ModelError(f"{path}: models[{i}]: {e}") from None
        models[model.tag] = model
    return ModelBundle(models=models, **norm)


def _read_model(entry, n_inputs: int, tags) -> MlpModel:
    """One entry of a bundle's models list: a tag, one of tags, and per layer
    its width, a width x fan-in weight matrix and width biases.  The first
    layer's fan-in is n_inputs, every later one the width before it, and the
    last width is 1."""
    entry = _typed(entry, "entry", dict)
    tag = _typed(_get(entry, "tag"), "tag", str)
    if tag not in tags:
        raise _FieldError(f"tag {tag!r} has no znorm_out entry")
    widths = _numbers(_get(entry, "widths"), "widths", low=0)
    weights = _typed(_get(entry, "weights"), "weights", list)
    biases = _typed(_get(entry, "biases"), "biases", list)
    if not (widths == [int(w) for w in widths] and widths[-1] == 1
            and len(weights) == len(biases) == len(widths)):
        raise _FieldError(f"widths must be whole numbers ending in 1, one per layer of weights "
                          f"and biases, got {widths!r} for {len(weights)} weight and "
                          f"{len(biases)} bias layers")
    fan_in, layers = n_inputs, []
    for k, (width, w, b) in enumerate(zip(widths, weights, biases)):
        if len(_typed(w, f"weights[{k}]", list)) != width:
            raise _FieldError(f"weights[{k}] must have {int(width)} rows, got {len(w)}")
        rows = []
        for r, row in enumerate(w):
            rows.append(_numbers(row, f"weights[{k}][{r}]", size=fan_in))
        bias = _numbers(b, f"biases[{k}]", size=int(width))
        layers.append((np.array(rows, float), np.array(bias, float)))
        fan_in = int(width)
    return MlpModel(tag, [w for w, _ in layers], [b for _, b in layers])


def _norm_block(src) -> dict:
    """The normalization block of stats.json and models.json."""

    def znorm(st):
        return {"mean": list(st.mean), "std": list(st.std)}

    return {
        "scales_policy": {"re_c": src.re_c, "l_c": "junction inlet radius"},
        "znorm_in": znorm(src.input_stats),
        "znorm_out": {tag: znorm(st) for tag, st in src.target_stats.items()},
        "ranges": {k: list(v) for k, v in src.feature_ranges.items()},
    }


def _read_norm_block(path) -> tuple[dict, dict]:
    """The JSON document in path, a stats.json or models.json, and the re_c,
    input_stats, target_stats and feature_ranges fields of a TrainingDataset
    or ModelBundle, read from its normalization block.  Invalid JSON or a
    missing or malformed field raises a ModelError naming the file and field."""
    data = read_json(path, ModelError)

    def numbers(*keys, size=None, low=-math.inf):
        return np.array(_numbers(_get(data, *keys), ".".join(keys), size, low), float)

    def znorm(*keys, size):
        return ZNormStats(numbers(*keys, "mean", size=size),
                          numbers(*keys, "std", size=size, low=0.0))

    try:
        norm = {
            "re_c": _number(_get(data, "scales_policy", "re_c"), "scales_policy.re_c", low=0),
            "input_stats": znorm("znorm_in", size=DimensionlessGeometry.N_FEATURES),
            "target_stats": {tag: znorm("znorm_out", tag, size=1)
                             for tag in _typed(_get(data, "znorm_out"), "znorm_out", dict)},
        }
        for feat in _RANGED_FEATURES:  # prediction clamps each of these
            _get(data, "ranges", feat)
        norm["feature_ranges"] = {
            k: tuple(numbers("ranges", k, size=2).tolist()) for k in _get(data, "ranges")
        }
    except _FieldError as e:
        raise ModelError(f"{path}: {e}") from None
    return data, norm


# -- prediction pipeline --------------------------------------------------

# features clamped into the trained range and flagged in the report; an
# out-of-range lam_self is clamped silently and gets the length correction
_CLAMPED_FEATURES = ("alpha_self", "alpha_other", "theta_self", "theta_other", "phi_self")
_RANGED_FEATURES = (*_CLAMPED_FEATURES, "lam_self")


def outlet_features(network: VascularNetwork):
    """The dimensionless geometry of every junction outlet of a network, read
    in junction order.

    Returns the (junction, outlet) pairs and a namespace of arrays over them:
    the inlet radius l_c, the six base descriptors of base_descriptors with
    lam_self unclamped, the outlet area and the residual segment length.  The
    first junction without flow splits or without a bifurcation definition
    raises.
    """
    outlets, rows = [], []
    for junction in network.junctions:
        if any(o.flow_split is None for o in junction.outlets):
            raise ModelError(
                f"junction {junction.id}: flow splits not set; run split estimation first"
            )
        if any(o.attributed_length is None for o in junction.outlets):
            raise ModelError(f"junction {junction.id}: bifurcation definition not applied")
        l_c = network.vessels[junction.inlet_vessel].radius
        for outlet, other in zip(junction.outlets, junction.outlets[::-1]):
            outlets.append((junction, outlet))
            rows.append((
                l_c, network.vessels[outlet.vessel_id].area, network.vessels[other.vessel_id].area,
                outlet.attributed_length, outlet.angle, other.angle, outlet.flow_split,
                outlet.residual_length or 0.0,
            ))
    l_c, area, area_other, length, theta, theta_other, phi, residual = (
        np.array(rows, float).reshape(-1, 8).T
    )
    features = SimpleNamespace(
        l_c=l_c,
        **base_descriptors(l_c, area, area_other, length, theta, theta_other, phi),
        area=area,
        residual=residual,
    )
    return outlets, features


@np.errstate(all="ignore")  # the CoefficientSet checks reject a value that overflowed
def _predict_rows(bundle: ModelBundle, fluid: Fluid, outlets, features, tags):
    """One batched pass over the outlets and features of outlet_features.

    Clamps the features of all outlets, runs one forward per model, then
    redimensionalises and adds the Poiseuille corrections as array
    expressions, each the same operations in the same order as for a single
    outlet.  Each check runs over all outlets, in the stage order of
    predict_network.
    """
    ranges = bundle.feature_ranges
    scales = scale_fields(features.l_c, fluid, bundle.re_c)
    raw = vars(features)
    lam = features.lam_self
    lam_lo, lam_hi = ranges["lam_self"]
    feats = {feat: np.clip(raw[feat], *ranges[feat]) for feat in _CLAMPED_FEATURES}
    feats["lam_self"] = np.clip(lam, lam_lo, lam_hi)
    clamped = {feat: feats[feat] != raw[feat] for feat in _CLAMPED_FEATURES}

    check_geometry(feats["alpha_self"], feats["alpha_other"], feats["lam_self"], feats["phi_self"])

    try:
        x = feature_matrix(
            feats["alpha_self"], feats["alpha_other"], feats["lam_self"],
            feats["theta_self"], feats["theta_other"], feats["phi_self"],
        )
    except (OverflowError, ZeroDivisionError):  # float pow of a feature clamped to 0 or 1e308
        x = np.array(math.inf)
    if not np.isfinite(x).all():
        raise ModelError("the bundle's feature ranges clamp a feature to where its powers "
                         "overflow")
    xz = apply_znorm(x, bundle.input_stats)
    star = {
        tag: invert_znorm(mlp_forward(bundle.models[tag], xz), bundle.target_stats[tag])
        for tag in tags
    }
    # tags are (r_lin, r_quad, l) for RRI and (r_lin, l) for RI
    r_lin, r_quad, l = redimensionalize_values(
        star[tags[0]], star.get("rri_rquad"), star[tags[-1]], scales
    )

    # the length correction: lengths outside the trained range, by Poiseuille
    area, residual = features.area, features.residual
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
    # checks raise at the first outlet where any stage overflowed
    kind = "RI" if r_quad is None else "RRI"
    quads = [None] * len(outlets) if r_quad is None else r_quad.tolist()
    coeffs = [CoefficientSet(kind=kind, r_lin=c_lin, l=c_l, r_quad=c_quad)
              for c_lin, c_l, c_quad in zip(r_lin.tolist(), l.tolist(), quads)]
    any_clamped = np.logical_or.reduce(list(clamped.values())).tolist()
    values = zip(outlets, lam.tolist(), delta_r.tolist(), delta_l.tolist())
    reports = []
    for i, ((junction, outlet), lam_i, dr, dl) in enumerate(values):
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


def predict_network(
    bundle: ModelBundle, network: VascularNetwork, kind: str = "RRI"
) -> list[dict]:
    """Predict and attach coefficients at every junction; returns the report.

    Out-of-range outlet lengths receive the Poiseuille length correction on
    R_lin and L (the residual branch segment beyond the attributed length is
    folded in the same way, since vessels carry no elements in RRI/RI mode);
    other out-of-range features are clamped and flagged in the report.

    Every outlet is predicted and checked before any coefficient is attached,
    so a failure leaves the network unchanged.  Each stage runs over all
    outlets and raises at its first failure, in this order: the bundle's own
    checks, a missing split or bifurcation definition (first junction),
    invalid geometry (first outlet), feature overflow, and a non-finite
    coefficient (first outlet).
    """
    tags = ("rri_rlin", "rri_rquad", "rri_l") if kind == "RRI" else ("ri_rlin", "ri_l")
    if not network.junctions:
        return []
    # the bundle's own checks, which the first junction meets first
    inlet = network.vessels[network.junctions[0].inlet_vessel]
    characteristic_scales(inlet.radius, network.fluid, bundle.re_c)
    for tag in tags:
        if tag not in bundle.models:
            raise ModelError(f"bundle lacks model for {tag!r}")
    outlets, features = outlet_features(network)
    coeffs, reports = _predict_rows(bundle, network.fluid, outlets, features, tags)
    for (_, outlet), c in zip(outlets, coeffs):
        outlet.coefficients = c
    return reports
