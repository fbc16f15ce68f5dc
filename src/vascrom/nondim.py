"""Physics-based scaling of junction geometry and coefficients, plus z-normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import Fluid, InvalidGeometryError

DEFAULT_RE_C = 4500.0  # reference Reynolds number; the choice is arbitrary


class NondimError(Exception):
    pass


class DegenerateFeatureError(NondimError):
    pass


@dataclass(frozen=True)
class CharacteristicScales:
    """Characteristic values derived from the inlet radius l_c.

    A_c = pi*l_c^2, U_c = Re_c*mu/(2*rho*l_c), Q_c = A_c*U_c,
    t_c = l_c/U_c, P_c = rho*U_c^2.
    """

    l_c: float
    a_c: float
    u_c: float
    q_c: float
    t_c: float
    p_c: float
    re_c: float

    def __post_init__(self):
        checks = {
            "a_c": math.pi * self.l_c**2,
            "q_c": self.a_c * self.u_c,
            "t_c": self.l_c / self.u_c,
        }
        for name, expected in checks.items():
            if not math.isclose(getattr(self, name), expected, rel_tol=1e-12):
                raise NondimError(f"inconsistent characteristic scale {name}")


def characteristic_scales(
    l_c: float, fluid: Fluid, re_c: float = DEFAULT_RE_C
) -> CharacteristicScales:
    if l_c <= 0 or re_c <= 0:
        raise InvalidGeometryError(f"need l_c > 0 and Re_c > 0, got {l_c}, {re_c}")
    u_c = re_c * fluid.mu / (fluid.rho * 2.0 * l_c)
    a_c = math.pi * l_c**2
    return CharacteristicScales(
        l_c=l_c,
        a_c=a_c,
        u_c=u_c,
        q_c=a_c * u_c,
        t_c=l_c / u_c,
        p_c=fluid.rho * u_c**2,
        re_c=re_c,
    )


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
        if self.alpha_self <= 0 or self.alpha_other <= 0 or self.lam_self <= 0:
            raise InvalidGeometryError("area and length ratios must be positive")
        if not (0.0 < self.phi_self < 1.0):
            raise InvalidGeometryError(
                f"flow split must lie in (0, 1), got {self.phi_self}"
            )

    def vector(self) -> np.ndarray:
        return np.array(
            [
                self.alpha_self,
                self.alpha_other,
                self.alpha_self**-2,
                self.alpha_other**-2,
                self.lam_self,
                self.lam_self**2,
                self.theta_self,
                self.theta_other,
                self.phi_self,
                1.0 / self.phi_self,
            ]
        )


def nondimensionalize_geometry(
    inlet_area: float,
    outlet_areas: tuple[float, float],
    outlet_lengths: tuple[float, float],
    outlet_angles: tuple[float, float],
    phi: tuple[float, float],
    outlet: int,
) -> DimensionlessGeometry:
    """Dimensionless descriptor for one outlet (0 or 1) of a junction.

    The characteristic length is the junction inlet radius, so the result is
    invariant under uniform spatial scaling of the junction.
    """
    if inlet_area <= 0:
        raise InvalidGeometryError("inlet area must be positive")
    l_c = math.sqrt(inlet_area / math.pi)
    a_c = math.pi * l_c**2
    other = 1 - outlet
    return DimensionlessGeometry(
        alpha_self=outlet_areas[outlet] / a_c,
        alpha_other=outlet_areas[other] / a_c,
        lam_self=outlet_lengths[outlet] / l_c,
        theta_self=outlet_angles[outlet],
        theta_other=outlet_angles[other],
        phi_self=phi[outlet],
    )


@dataclass(frozen=True)
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
        vals = [self.r_lin, self.l] + ([self.r_quad] if self.r_quad is not None else [])
        if not all(math.isfinite(v) for v in vals):
            raise NondimError("coefficients must be finite")

    def quad(self) -> float:
        return self.r_quad if self.r_quad is not None else 0.0


def nondimensionalize_coeffs(
    coeffs: CoefficientSet, scales: CharacteristicScales
) -> CoefficientSet:
    """R_lin* = R_lin*Qc/Pc, R_quad* = R_quad*Qc^2/Pc, L* = L*Qc/(tc*Pc)."""
    if coeffs.dimensionless:
        raise NondimError("coefficients are already dimensionless")
    return CoefficientSet(
        kind=coeffs.kind,
        r_lin=coeffs.r_lin * scales.q_c / scales.p_c,
        r_quad=(
            None
            if coeffs.r_quad is None
            else coeffs.r_quad * scales.q_c**2 / scales.p_c
        ),
        l=coeffs.l * scales.q_c / (scales.t_c * scales.p_c),
        dimensionless=True,
    )


def redimensionalize_coeffs(
    coeffs: CoefficientSet, scales: CharacteristicScales
) -> CoefficientSet:
    if not coeffs.dimensionless:
        raise NondimError("coefficients are already dimensional")
    return CoefficientSet(
        kind=coeffs.kind,
        r_lin=coeffs.r_lin * scales.p_c / scales.q_c,
        r_quad=(
            None
            if coeffs.r_quad is None
            else coeffs.r_quad * scales.p_c / scales.q_c**2
        ),
        l=coeffs.l * scales.t_c * scales.p_c / scales.q_c,
        dimensionless=False,
    )


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
