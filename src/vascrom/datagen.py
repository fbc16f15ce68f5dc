"""Synthetic junction cohorts: sampling, waveforms, analytic ground truth,
time-series synthesis, and RRI/RI coefficient extraction."""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from typing import Optional

import numpy as np

from .formats import read_csv
from .network import Fluid, circle_radius
from .nondim import (
    DEFAULT_RE_C,
    CoefficientSet,
    DimensionlessGeometry,
    NondimError,
    characteristic_scales,
    check_geometry,
    feature_matrix,
    fit_znorm,
    float_pow,
    apply_znorm,
    nondimensionalize_values,
    redimensionalize_values,
)

INLET_AREA_COHORT = 1.0  # cm^2, fixed for all synthetic junctions
LAMBDA_FRACTIONS = (0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)

COEFFICIENT_TAGS = ("rri_rlin", "rri_rquad", "rri_l", "ri_rlin", "ri_l")


class DatagenError(Exception):
    pass


class UnderdeterminedFitError(DatagenError):
    """A design matrix that a fit cannot use; ``index`` is its place in the stack."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# -- time series ----------------------------------------------------------


@dataclass
class TimeSeries:
    t: np.ndarray
    q: np.ndarray
    dp: np.ndarray
    qdot: Optional[np.ndarray] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, float)
        self.q = np.asarray(self.q, float)
        self.dp = np.asarray(self.dp, float)
        if not (self.t.size == self.q.size == self.dp.size):
            raise DatagenError("t, Q, dP must have equal lengths")
        dt = np.diff(self.t)
        if self.t.size >= 2 and (np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12)):
            raise DatagenError("time grid must be uniform and strictly increasing")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def central_difference(q: np.ndarray, dt: float) -> np.ndarray:
    """Interior central differences along the last axis, one-sided first
    order at the endpoints."""
    q = np.asarray(q, float)
    if q.ndim == 0 or q.shape[-1] < 3:
        raise DatagenError("need at least 3 samples for differentiation")
    if dt <= 0:
        raise DatagenError("dt must be positive")
    qdot = np.empty_like(q)
    qdot[..., 1:-1] = (q[..., 2:] - q[..., :-2]) / (2.0 * dt)
    qdot[..., 0] = (q[..., 1] - q[..., 0]) / dt
    qdot[..., -1] = (q[..., -1] - q[..., -2]) / dt
    return qdot


def systolic_waveform(
    re_max: float,
    l_c: float,
    fluid: Fluid,
    period: float = 0.4,
    n_steps: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Half-sine inlet flow over one systolic period.

    Q_max is the plug flow at Reynolds number re_max through a circular
    section of radius l_c.  A period past about 5.7e307 is rejected: pi * t
    would overflow.
    """
    if not (re_max >= 0 and l_c > 0 and period > 0 and math.isfinite(math.pi * period)):
        raise DatagenError(f"need re_max >= 0, l_c > 0 and a period > 0 with pi * period "
                           f"finite, got re_max={re_max}, l_c={l_c}, period={period}")
    t = np.linspace(0.0, period, n_steps)
    q_max = plug_flow(re_max, l_c, fluid)
    return t, q_max * np.sin(math.pi * t / period)


def plug_flow(re: float, radius: float, fluid: Fluid) -> float:
    """Flow rate of plug flow at Reynolds number re through a circular section:
    Re = rho*(Q/A)*2r/mu, so Q = Re*mu*pi*r/(2*rho)."""
    return re * fluid.mu * math.pi * radius / (2.0 * fluid.rho)


# -- sampling -------------------------------------------------------------


# min/max of the sampled base dimensionless descriptors, in SampledJunction
# field order (phi_2 = 1 - phi_1)
SAMPLING_RANGES = {
    "alpha1": (0.40, 1.2),
    "alpha2": (0.37, 1.2),
    "lam1": (15.0, 41.0),
    "lam2": (16.0, 42.0),
    "theta1": (0.05, 1.41),
    "theta2": (0.33, 1.51),
    "phi1": (0.15, 0.89),
}


@dataclass(frozen=True)
class SampledJunction:
    alpha1: float
    alpha2: float
    lam1: float
    lam2: float
    theta1: float
    theta2: float
    phi1: float

    @property
    def phi2(self) -> float:
        return 1.0 - self.phi1

    def geometry(self, outlet: int, lam_override: Optional[float] = None) -> DimensionlessGeometry:
        alphas = (self.alpha1, self.alpha2)
        lams = (self.lam1, self.lam2)
        thetas = (self.theta1, self.theta2)
        phis = (self.phi1, self.phi2)
        other = 1 - outlet
        return DimensionlessGeometry(
            alpha_self=alphas[outlet],
            alpha_other=alphas[other],
            lam_self=lam_override if lam_override is not None else lams[outlet],
            theta_self=thetas[outlet],
            theta_other=thetas[other],
            phi_self=phis[outlet],
        )


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) samples in [0, 1) with one sample per stratum in each dimension."""
    u = rng.random((n, d))
    out = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        out[:, j] = (perm + u[:, j]) / n
    return out


def sample_geometries(n: int, seed: int = 0) -> list[SampledJunction]:
    if n < 1:
        raise DatagenError("need n >= 1")
    unit = latin_hypercube(n, len(SAMPLING_RANGES), np.random.default_rng(seed))
    lo, hi = np.array(list(SAMPLING_RANGES.values())).T
    return [SampledJunction(*row) for row in (lo + (hi - lo) * unit).tolist()]


# -- analytic ground-truth oracle -----------------------------------------

# Constants of the analytic coefficient map standing in for high-fidelity
# ground truth.  Fixed and documented here; do not change without updating
# every frozen expected value in the test suite.
ORACLE_ID = "analytic-rri-v1"
ORACLE_RLIN_LAM = 0.05
ORACLE_RLIN_THETA = 0.2
ORACLE_RQUAD_ALPHA = 0.4
ORACLE_RQUAD_PHI = 0.1
ORACLE_L_LAM = 0.1

# Generous validity box covering all row-level features produced by the
# cohort builder (lambda fractions shrink sampled lambdas to 30%).
ORACLE_BOX = {
    "alpha": (0.30, 1.30),
    "lam": (4.0, 45.0),
    "theta": (0.0, 1.60),
    "phi": (0.05, 0.95),
}


def oracle_coeffs(g: DimensionlessGeometry) -> CoefficientSet:
    """Smooth analytic map from dimensionless geometry to dimensionless RRI
    coefficients; monotone increasing in alpha^-2 and lambda.

    R_lin* = 0.05*alpha^-2*lam + 0.2*theta_1
    R_quad* = 0.4*(alpha^-2 - 1) + 0.1*(phi^-1 - 2)
    L* = 0.1*lam*alpha^-1
    """
    r_lin, r_quad, l = _oracle_values(**asdict(g))
    return CoefficientSet(kind="RRI", r_lin=r_lin, r_quad=r_quad, l=l, dimensionless=True)


def _oracle_values(alpha_self, alpha_other, lam_self, theta_self, theta_other, phi_self):
    """oracle_coeffs as plain (r_lin, r_quad, l) values, from the fields of a
    DimensionlessGeometry: floats for one outlet, or arrays that broadcast
    together.  The box check names the first outlet outside the box."""
    names = ("alpha", "alpha", "lam", "theta", "theta", "phi")
    values = [np.ravel(v) for v in np.broadcast_arrays(
        alpha_self, alpha_other, lam_self, theta_self, theta_other, phi_self)]
    # per descriptor and outlet; the negation also rejects NaN
    outside = np.array([~((ORACLE_BOX[name][0] <= v) & (v <= ORACLE_BOX[name][1]))
                        for name, v in zip(names, values)])
    if outside.any():
        row = int(np.argmax(outside.any(axis=0)))  # the first outlet outside
        c = int(np.argmax(outside[:, row]))  # and its first descriptor outside
        lo, hi = ORACLE_BOX[names[c]]
        raise DatagenError(f"geometry outside oracle validity box: "
                           f"{names[c]}={values[c][row].tolist()} not in [{lo}, {hi}]")
    inv_a2 = float_pow(alpha_self, -2)
    return (
        ORACLE_RLIN_LAM * inv_a2 * lam_self + ORACLE_RLIN_THETA * theta_self,
        ORACLE_RQUAD_ALPHA * (inv_a2 - 1.0) + ORACLE_RQUAD_PHI * (1.0 / phi_self - 2.0),
        ORACLE_L_LAM * lam_self / alpha_self,
    )


# -- synthesis and fitting ------------------------------------------------


def _flow_columns(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q|Q| and the central-difference Qdot of q sampled on the grid t."""
    if t.size < 3:
        raise DatagenError("need at least 3 samples")
    return q * np.abs(q), central_difference(q, t[1] - t[0])


def _pressure_drop(r_lin, r_quad, l, q, qq, qdot) -> np.ndarray:
    """dP = R_lin*Q + R_quad*Q|Q| + L*Qdot from precomputed flow columns."""
    return r_lin * q + r_quad * qq + l * qdot


def synthesize_timeseries(
    coeffs: CoefficientSet, t: np.ndarray, q: np.ndarray
) -> TimeSeries:
    """Forward-evaluate dP = R_lin*Q + R_quad*Q|Q| + L*Qdot on a uniform grid."""
    t = np.asarray(t, float)
    q = np.asarray(q, float)
    qq, qdot = _flow_columns(t, q)
    dp = _pressure_drop(coeffs.r_lin, coeffs.quad(), coeffs.l, q, qq, qdot)
    return TimeSeries(t=t, q=q, dp=dp, qdot=qdot)


_RRI_COLUMNS = ("Q", "Q|Q|", "Qdot")
_RI_COLUMNS = ("Q", "Qdot")


def fit_junction_law(cols: dict[str, np.ndarray], columns: tuple[str, ...],
                     dp: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of dP on the named columns, for a stack of
    k design matrices (each cols[c] is (k, T)) and one right-hand side per
    matrix, dp (k, T), or f of them, dp (k, f, T): (k, c) or (k, f, c).
    Each matrix gets a column-scaled SVD after a zero-column and a rank
    check; the index of an UnderdeterminedFitError is the first that fails.
    The products are matrix-vector products, so each fit rounds exactly as a
    fit of its matrix alone.  A product that overflows gives inf or nan
    silently: every caller checks that the coefficients are finite."""
    a = np.stack([cols[c] for c in columns], axis=-1)
    zero = ~a.any(axis=1)
    if zero.any():
        k, c = np.argwhere(zero)[0].tolist()
        raise UnderdeterminedFitError(f"design matrix column {columns[c]!r} is identically zero", k)
    # Column scaling keeps the rank check meaningful across units.  The norm
    # of a column below about 1e-162 underflows to 0: only such a column is
    # scaled by its largest entry first, so every other fit keeps its bits.
    scale = np.linalg.norm(a, axis=1)
    tiny = scale == 0
    if tiny.any():
        peak = np.max(np.abs(a), axis=1, keepdims=True)
        scale[tiny] = (np.linalg.norm(a / peak, axis=1) * peak[:, 0])[tiny]
    u, s, vt = np.linalg.svd(a / scale[:, None], full_matrices=False)
    deficient = s[:, -1] < 1e-10 * s[:, 0]
    if deficient.any():
        k = int(np.argmax(deficient))
        direction = columns[int(np.argmax(np.abs(vt[k, -1])))]
        raise UnderdeterminedFitError(f"rank-deficient design matrix; deficient direction "
                                      f"dominated by {direction!r}", k)
    rhs = (dp if dp.ndim == 3 else dp[:, None])[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.matmul(u.transpose(0, 2, 1)[:, None], rhs) / s[:, None, :, None]
        coef = np.matmul(vt.transpose(0, 2, 1)[:, None], w)[..., 0] / scale[:, None]
    return coef if dp.ndim == 3 else coef[:, 0]


def _lstsq_fit(series: TimeSeries, columns: tuple[str, ...]) -> np.ndarray:
    qdot = series.qdot if series.qdot is not None else central_difference(series.q, series.dt)
    cols = {"Q": series.q, "Q|Q|": series.q * np.abs(series.q), "Qdot": qdot}
    return fit_junction_law({c: v[None] for c, v in cols.items()}, columns, series.dp[None])[0]


def fit_rri(series: TimeSeries) -> CoefficientSet:
    c = _lstsq_fit(series, _RRI_COLUMNS)
    return CoefficientSet(kind="RRI", r_lin=c[0], r_quad=c[1], l=c[2])


def fit_ri(series: TimeSeries) -> CoefficientSet:
    c = _lstsq_fit(series, _RI_COLUMNS)
    return CoefficientSet(kind="RI", r_lin=c[0], l=c[1])


def r_squared(series: TimeSeries, coeffs: CoefficientSet) -> float:
    qdot = series.qdot if series.qdot is not None else central_difference(series.q, series.dt)
    q = series.q
    pred = _pressure_drop(coeffs.r_lin, coeffs.quad(), coeffs.l, q, q * np.abs(q), qdot)
    ss_tot = float(np.sum((series.dp - series.dp.mean()) ** 2))
    if ss_tot == 0:
        raise DatagenError("zero-variance dP; R^2 undefined")
    ss_res = float(np.sum((series.dp - pred) ** 2))
    return 1.0 - ss_res / ss_tot


# -- CSV ingestion --------------------------------------------------------


def ingest_timeseries_csv(path) -> TimeSeries:
    _, values, _ = read_csv(path, ["t", "Q", "dP"], None, DatagenError)
    with np.errstate(over="ignore"):  # the fits and spectra sum squares of Q and dP
        if not np.isfinite(np.sum(values[:, 1:] ** 2)):
            raise DatagenError(f"{path}: the squares of Q and dP overflow")
    return TimeSeries(t=values[:, 0], q=values[:, 1], dp=values[:, 2])


# -- cohort building ------------------------------------------------------


RE_MAX = 5500.0  # peak Reynolds number of the systolic inlet waveform
COHORT_CHUNK = 256  # junctions per fit in build_cohort; bounds its memory, not its result


@dataclass(frozen=True)
class WaveformConfig:
    period: float = 0.4
    n_steps: int = 200


def build_cohort(
    n: int,
    waveform: WaveformConfig = WaveformConfig(),
    seed: int = 0,
    noise_sigma: float = 0.0,
):
    """Sample n junctions and extract 14 training rows each (2 outlets x 7
    outlet-length fractions), in blood (the default Fluid) at the reference
    Reynolds number DEFAULT_RE_C.  Returns (TrainingDataset, manifest dict).
    """
    from .mlp import TrainingDataset  # deferred, avoids import cycle

    if not 0.0 <= noise_sigma < math.inf:
        raise DatagenError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    fluid, re_c = Fluid(), DEFAULT_RE_C
    # (alpha1, alpha2, lam1, lam2, theta1, theta2, phi1, phi2) per junction
    junctions = np.array([astuple(junc) + (junc.phi2,) for junc in sample_geometries(n, seed)])
    l_c = circle_radius(INLET_AREA_COHORT)
    scales = characteristic_scales(l_c, fluid, re_c)
    t, q_inlet = systolic_waveform(RE_MAX, l_c, fluid, waveform.period, waveform.n_steps)
    TimeSeries(t=t, q=q_inlet, dp=q_inlet)  # checks the shared time grid once

    # the fields of DimensionlessGeometry per (junction, outlet, fraction):
    # the rows run over junctions, then outlets, then outlet-length fractions
    geometry = [junctions[:, pair, None]
                for pair in ([0, 1], [1, 0], [2, 3], [4, 5], [5, 4], [6, 7])]
    geometry[2] = geometry[2] * np.array(LAMBDA_FRACTIONS)
    rows = [np.broadcast_to(g, geometry[2].shape).ravel() for g in geometry]
    check_geometry(rows[0], rows[1], rows[2], rows[5])
    coeffs = redimensionalize_values(*_oracle_values(*geometry), scales)

    # the length fractions of an outlet share its flow, and so its design
    # matrices: per chunk of k junctions, one stack of matrices per column
    # set, (2k, T, c), and one right-hand side per row, (2k, 7, T)
    phi = junctions[:, 6:].reshape(-1, 1)
    coeffs = [c.reshape(2 * n, -1, 1) for c in coeffs]
    noise_seeds = np.random.SeedSequence(seed).spawn(n) if noise_sigma > 0 else None
    rri, ri = [], []
    for start in range(0, n, COHORT_CHUNK):
        chunk = slice(2 * start, 2 * (start + COHORT_CHUNK))
        q_out = phi[chunk] * q_inlet
        qq, qdot = _flow_columns(t, q_out)
        dp = _pressure_drop(*(c[chunk] for c in coeffs), q_out[:, None], qq[:, None], qdot[:, None])
        if noise_sigma > 0:  # one draw per junction, from its own stream
            for j, noise_seed in enumerate(noise_seeds[start:start + COHORT_CHUNK]):
                dp[2 * j:2 * j + 2] += np.random.default_rng(noise_seed).normal(
                    0.0, noise_sigma, (2,) + dp.shape[1:])
        cols = {"Q": q_out, "Q|Q|": qq, "Qdot": qdot}
        rri.append(fit_junction_law(cols, _RRI_COLUMNS, dp))
        ri.append(fit_junction_law(cols, _RI_COLUMNS, dp))
    rri, ri = np.concatenate(rri).reshape(-1, 3), np.concatenate(ri).reshape(-1, 2)

    x = feature_matrix(*rows)
    rri_rlin, rri_rquad, rri_l = nondimensionalize_values(rri[:, 0], rri[:, 1], rri[:, 2], scales)
    ri_rlin, _, ri_l = nondimensionalize_values(ri[:, 0], None, ri[:, 1], scales)
    y = dict(zip(COEFFICIENT_TAGS, (rri_rlin, rri_rquad, rri_l, ri_rlin, ri_l)))
    if not all(np.isfinite(v).all() for v in y.values()):
        raise NondimError("coefficients must be finite")

    n_rows = x.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F17]))
    perm = rng.permutation(n_rows)
    n_train = int(round(0.9 * n_rows))
    train_idx, val_idx = np.sort(perm[:n_train]), np.sort(perm[n_train:])

    input_stats = fit_znorm(x[train_idx], names=DimensionlessGeometry.FEATURE_NAMES)
    target_stats = {tag: fit_znorm(y[tag][train_idx], names=(tag,)) for tag in COEFFICIENT_TAGS}
    xz = apply_znorm(x, input_stats)
    yz = {tag: apply_znorm(y[tag], target_stats[tag]).ravel() for tag in COEFFICIENT_TAGS}

    ranges_obs = {
        name: (float(x[:, i].min()), float(x[:, i].max()))
        for i, name in enumerate(DimensionlessGeometry.FEATURE_NAMES)
    }
    dataset = TrainingDataset(
        inputs=xz,
        targets=yz,
        input_stats=input_stats,
        target_stats=target_stats,
        train_idx=train_idx,
        val_idx=val_idx,
        feature_ranges=ranges_obs,
        re_c=re_c,
    )
    manifest = {
        "n_junctions": n,
        "n_rows": n_rows,
        "seed": seed,
        "oracle": ORACLE_ID,
        "re_c": re_c,
        "ranges": {name: list(r) for name, r in SAMPLING_RANGES.items()},
        "waveform": {"re_max": RE_MAX, **asdict(waveform)},
        "noise_sigma": noise_sigma,
        "lambda_fractions": list(LAMBDA_FRACTIONS),
    }
    return dataset, manifest
