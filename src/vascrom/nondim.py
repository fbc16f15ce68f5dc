"""Physics-based scaling of junction geometry and coefficients, plus z-normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .network import Fluid, InvalidGeometryError, circle_radius

DEFAULT_RE_C = 4500.0  # reference Reynolds number; the choice is arbitrary


class NondimError(Exception):
    pass


class DegenerateFeatureError(NondimError):
    pass


def float_pow(x, p):
    """x**p with Python's float pow, for a float or elementwise for an array.

    Scalar code computes powers with libm's pow; numpy's own power (a SIMD
    kernel, or x*x for p = 2) differs from it in the last bit on a few
    percent of inputs, so array code that must match scalar code bit for bit
    takes its powers from here.
    """
    if isinstance(x, np.ndarray):
        return np.power(x.astype(object), p).astype(float)
    return x**p


def characteristic_area(l_c):
    """A_c = pi*l_c^2, for l_c a float or an array of them."""
    return math.pi * float_pow(l_c, 2)


def scale_fields(l_c, fluid: Fluid, re_c: float) -> SimpleNamespace:
    """Characteristic values derived from the inlet radius l_c, a float or an
    array of them, unchecked: A_c = pi*l_c^2, U_c = Re_c*mu/(2*rho*l_c),
    Q_c = A_c*U_c, t_c = l_c/U_c, P_c = rho*U_c^2."""
    u_c = re_c * fluid.mu / (fluid.rho * 2.0 * l_c)
    a_c = characteristic_area(l_c)
    return SimpleNamespace(
        l_c=l_c, a_c=a_c, u_c=u_c, q_c=a_c * u_c, t_c=l_c / u_c,
        p_c=fluid.rho * float_pow(u_c, 2), re_c=re_c,
    )


def characteristic_scales(
    l_c: float, fluid: Fluid, re_c: float = DEFAULT_RE_C
) -> SimpleNamespace:
    """scale_fields for one junction, after checking l_c and Re_c, and that
    every scale is a positive float."""
    if l_c <= 0 or re_c <= 0:
        raise InvalidGeometryError(f"need l_c > 0 and Re_c > 0, got {l_c}, {re_c}")
    try:
        scales = scale_fields(l_c, fluid, re_c)
    except (OverflowError, ZeroDivisionError):  # U_c^2 overflows, or U_c underflows to 0
        scales = None
    if scales is None or not all(0 < v < math.inf for v in vars(scales).values()):
        raise InvalidGeometryError(f"l_c {l_c} and Re_c {re_c} give a characteristic scale "
                                   f"that overflows or vanishes")
    return scales


@dataclass(frozen=True)
class DimensionlessGeometry:
    """Per-outlet dimensionless junction descriptor.

    The feature vector is
    [alpha_self, alpha_other, alpha_self^-2, alpha_other^-2,
     lam_self, lam_self^2, theta_self, theta_other, phi_self, phi_self^-1];
    derived powers are computed, never stored.
    """

    alpha_self: float
    alpha_other: float
    lam_self: float
    theta_self: float
    theta_other: float
    phi_self: float

    N_FEATURES = 10
    FEATURE_NAMES = (
        "alpha_self",
        "alpha_other",
        "alpha_self^-2",
        "alpha_other^-2",
        "lam_self",
        "lam_self^2",
        "theta_self",
        "theta_other",
        "phi_self",
        "phi_self^-1",
    )

    def __post_init__(self):
        check_geometry(self.alpha_self, self.alpha_other, self.lam_self, self.phi_self)

    def vector(self) -> np.ndarray:
        base = (self.alpha_self, self.alpha_other, self.lam_self,
                self.theta_self, self.theta_other, self.phi_self)
        return feature_matrix(*np.array([base], float).T)[0]


def feature_matrix(alpha_self, alpha_other, lam_self, theta_self, theta_other, phi_self):
    """(n, 10) feature rows, in DimensionlessGeometry.FEATURE_NAMES order,
    from n-vectors of the base descriptors; the one definition of the
    feature vector, which DimensionlessGeometry.vector() takes row by row."""
    return np.column_stack(
        [
            alpha_self,
            alpha_other,
            float_pow(alpha_self, -2),
            float_pow(alpha_other, -2),
            lam_self,
            float_pow(lam_self, 2),
            theta_self,
            theta_other,
            phi_self,
            1.0 / phi_self,
        ]
    )


def base_descriptors(l_c, area_self, area_other, length_self, theta_self,
                     theta_other, phi_self) -> dict:
    """The fields of DimensionlessGeometry, unclamped and unchecked, for an
    outlet of area area_self and attributed length length_self whose sibling
    has area area_other, behind a junction inlet of radius l_c: alpha = A/A_c
    and lam = length/l_c.  Floats, or n-vectors for n outlets."""
    a_c = characteristic_area(l_c)
    return {
        "alpha_self": area_self / a_c,
        "alpha_other": area_other / a_c,
        "lam_self": length_self / l_c,
        "theta_self": theta_self,
        "theta_other": theta_other,
        "phi_self": phi_self,
    }


def check_geometry(alpha_self, alpha_other, lam_self, phi_self) -> None:
    """Raise the InvalidGeometryError of the first outlet whose descriptors
    DimensionlessGeometry rejects: the ratios must be positive and the flow
    split in (0, 1).  Floats for one outlet, or n-vectors."""
    nonpositive = (alpha_self <= 0) | (alpha_other <= 0) | (lam_self <= 0)
    # operators that floats and arrays share; phi != phi rejects a NaN split
    outside = (phi_self <= 0.0) | (phi_self >= 1.0) | (phi_self != phi_self)
    bad = np.flatnonzero(nonpositive | outside)
    if not bad.size:
        return
    k = int(bad[0])
    if np.ravel(nonpositive)[k]:
        raise InvalidGeometryError("area and length ratios must be positive")
    raise InvalidGeometryError(f"flow split must lie in (0, 1), got {np.ravel(phi_self)[k]}")


def nondimensionalize_geometry(
    inlet_area: float,
    outlet_areas: tuple[float, float],
    outlet_lengths: tuple[float, float],
    outlet_angles: tuple[float, float],
    phi: tuple[float, float],
    outlet: int,
) -> DimensionlessGeometry:
    """Dimensionless descriptor for one outlet (0 or 1) of a junction, from
    base_descriptors.

    The characteristic length is the junction inlet radius, so the result is
    invariant under uniform spatial scaling of the junction.
    """
    if inlet_area <= 0:
        raise InvalidGeometryError("inlet area must be positive")
    other = 1 - outlet
    return DimensionlessGeometry(**base_descriptors(
        circle_radius(inlet_area), outlet_areas[outlet], outlet_areas[other],
        outlet_lengths[outlet], outlet_angles[outlet], outlet_angles[other], phi[outlet],
    ))


@dataclass(frozen=True, slots=True)
class CoefficientSet:
    """RRI triple (r_lin, r_quad, l) or RI pair (r_lin, l).

    Signs are unconstrained; least-squares fits may produce negatives.
    """

    kind: str  # "RRI" | "RI"
    r_lin: float
    l: float
    r_quad: Optional[float] = None
    dimensionless: bool = False

    def __post_init__(self):
        if self.kind not in ("RRI", "RI"):
            raise NondimError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "RRI" and self.r_quad is None:
            raise NondimError("RRI coefficients require r_quad")
        if not (math.isfinite(self.r_lin) and math.isfinite(self.l)
                and (self.r_quad is None or math.isfinite(self.r_quad))):
            raise NondimError("coefficients must be finite")

    def quad(self) -> float:
        return self.r_quad if self.r_quad is not None else 0.0


def nondimensionalize_values(r_lin, r_quad, l, scales):
    """R_lin* = R_lin*Qc/Pc, R_quad* = R_quad*Qc^2/Pc, L* = L*Qc/(tc*Pc).

    The values and the scales' fields may be floats or arrays; r_quad may be
    None (RI)."""
    return (
        r_lin * scales.q_c / scales.p_c,
        None if r_quad is None else r_quad * float_pow(scales.q_c, 2) / scales.p_c,
        l * scales.q_c / (scales.t_c * scales.p_c),
    )


def redimensionalize_values(r_lin, r_quad, l, scales):
    """The inverse of nondimensionalize_values, on the same kinds of input."""
    return (
        r_lin * scales.p_c / scales.q_c,
        None if r_quad is None else r_quad * scales.p_c / float_pow(scales.q_c, 2),
        l * scales.t_c * scales.p_c / scales.q_c,
    )


def nondimensionalize_coeffs(
    coeffs: CoefficientSet, scales: SimpleNamespace
) -> CoefficientSet:
    if coeffs.dimensionless:
        raise NondimError("coefficients are already dimensionless")
    r_lin, r_quad, l = nondimensionalize_values(coeffs.r_lin, coeffs.r_quad, coeffs.l, scales)
    return CoefficientSet(kind=coeffs.kind, r_lin=r_lin, r_quad=r_quad, l=l, dimensionless=True)


def redimensionalize_coeffs(
    coeffs: CoefficientSet, scales: SimpleNamespace
) -> CoefficientSet:
    if not coeffs.dimensionless:
        raise NondimError("coefficients are already dimensional")
    r_lin, r_quad, l = redimensionalize_values(coeffs.r_lin, coeffs.r_quad, coeffs.l, scales)
    return CoefficientSet(kind=coeffs.kind, r_lin=r_lin, r_quad=r_quad, l=l, dimensionless=False)


@dataclass(frozen=True)
class ZNormStats:
    """Per-entry mean/std (population std, divide by N)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        object.__setattr__(self, "std", np.atleast_1d(np.asarray(self.std, float)))
        if np.any(self.std <= 0):
            bad = int(np.argmax(self.std <= 0))
            raise DegenerateFeatureError(f"non-positive std for entry {bad}")


def fit_znorm(data: np.ndarray, names: Optional[tuple[str, ...]] = None) -> ZNormStats:
    x = np.asarray(data, float)
    if x.ndim == 1:
        x = x[:, None]  # a 1-D array is one feature, not one sample
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population std
    if np.any(std == 0):
        bad = int(np.argmax(std == 0))
        label = names[bad] if names else str(bad)
        raise DegenerateFeatureError(f"zero-variance entry {label!r}")
    return ZNormStats(mean=mean, std=std)


def apply_znorm(x: np.ndarray, stats: ZNormStats) -> np.ndarray:
    return (np.asarray(x, float) - stats.mean) / stats.std


def invert_znorm(z: np.ndarray, stats: ZNormStats) -> np.ndarray:
    return np.asarray(z, float) * stats.std + stats.mean
