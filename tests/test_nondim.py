import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vascrom.network import Fluid, InvalidGeometryError
from vascrom.nondim import (
    CoefficientSet,
    DEFAULT_RE_C,
    DegenerateFeatureError,
    DimensionlessGeometry,
    NondimError,
    ZNormStats,
    apply_znorm,
    characteristic_scales,
    feature_matrix,
    fit_znorm,
    float_pow,
    invert_znorm,
    nondimensionalize_coeffs,
    nondimensionalize_geometry,
    nondimensionalize_values,
    redimensionalize_coeffs,
    redimensionalize_values,
    scale_fields,
)

FLUID = Fluid()


# -- characteristic scales -------------------------------------------------


def test_scales_reference_values():
    s = characteristic_scales(0.5, FLUID, 4500.0)
    assert s.u_c == pytest.approx(169.81132075471697, rel=1e-12)
    assert s.a_c == pytest.approx(0.7853981633974483, rel=1e-12)
    assert s.q_c == pytest.approx(133.3694994448497, rel=1e-12)
    assert s.t_c == pytest.approx(0.0029444444444444444, rel=1e-12)
    assert s.p_c == pytest.approx(30566.037735849055, rel=1e-12)
    assert s.re_c == 4500.0


def test_scales_rec_homogeneity():
    s1 = characteristic_scales(0.5, FLUID, 4500.0)
    s2 = characteristic_scales(0.5, FLUID, 9000.0)
    assert s2.u_c == pytest.approx(2 * s1.u_c, rel=1e-12)
    assert s2.q_c == pytest.approx(2 * s1.q_c, rel=1e-12)
    assert s2.p_c == pytest.approx(4 * s1.p_c, rel=1e-12)
    assert s2.t_c == pytest.approx(s1.t_c / 2, rel=1e-12)


def test_scales_lc_scaling():
    s1 = characteristic_scales(0.5, FLUID)
    s2 = characteristic_scales(1.0, FLUID)
    assert s2.u_c == pytest.approx(s1.u_c / 2, rel=1e-12)
    assert s2.a_c == pytest.approx(4 * s1.a_c, rel=1e-12)
    assert s2.q_c == pytest.approx(2 * s1.q_c, rel=1e-12)


def test_scales_default_rec():
    assert characteristic_scales(0.5, FLUID).re_c == DEFAULT_RE_C == 4500.0


def test_scales_reject_nonpositive():
    with pytest.raises(InvalidGeometryError):
        characteristic_scales(0.0, FLUID)
    with pytest.raises(InvalidGeometryError):
        characteristic_scales(1.0, FLUID, re_c=-1.0)


def test_scales_consistency_enforced_at_construction():
    from vascrom.nondim import CharacteristicScales

    with pytest.raises(NondimError, match="inconsistent"):
        CharacteristicScales(l_c=1.0, a_c=1.0, u_c=1.0, q_c=1.0, t_c=1.0,
                             p_c=1.0, re_c=4500.0)


# -- dimensionless geometry ------------------------------------------------


def test_geometry_identity_ratio():
    a_c = math.pi * 0.5**2
    g = nondimensionalize_geometry(
        inlet_area=a_c,
        outlet_areas=(a_c, 0.5 * a_c),
        outlet_lengths=(10.0, 10.0),
        outlet_angles=(0.3, 0.4),
        phi=(0.5, 0.5),
        outlet=0,
    )
    v = g.vector()
    assert v[0] == pytest.approx(1.0, rel=1e-12)  # alpha_self
    assert v[2] == pytest.approx(1.0, rel=1e-12)  # alpha_self^-2


def test_geometry_half_area():
    g = nondimensionalize_geometry(
        inlet_area=1.0,
        outlet_areas=(0.5, 0.6),
        outlet_lengths=(5.0, 5.0),
        outlet_angles=(0.3, 0.4),
        phi=(0.5, 0.5),
        outlet=0,
    )
    assert g.alpha_self == pytest.approx(0.5, rel=1e-12)
    assert g.vector()[2] == pytest.approx(4.0, rel=1e-12)


@given(s=st.floats(0.1, 10.0))
def test_geometry_scale_invariance(s):
    base = dict(
        inlet_area=1.0,
        outlet_areas=(0.5, 0.7),
        outlet_lengths=(5.0, 6.0),
        outlet_angles=(0.3, 0.4),
        phi=(0.4, 0.6),
    )
    g1 = nondimensionalize_geometry(outlet=0, **base)
    scaled = dict(
        inlet_area=s**2 * base["inlet_area"],
        outlet_areas=tuple(s**2 * a for a in base["outlet_areas"]),
        outlet_lengths=tuple(s * l for l in base["outlet_lengths"]),
        outlet_angles=base["outlet_angles"],
        phi=base["phi"],
    )
    g2 = nondimensionalize_geometry(outlet=0, **scaled)
    assert np.allclose(g1.vector(), g2.vector(), rtol=1e-12, atol=1e-12)


def _scalar_feature_vector(a_s, a_o, lam, th_s, th_o, phi):
    """The feature vector as scalar Python arithmetic computes it."""
    return np.array([a_s, a_o, a_s**-2, a_o**-2, lam, lam**2, th_s, th_o, phi, 1.0 / phi])


def test_feature_matrix_rows_are_the_scalar_feature_vectors():
    """Bit for bit, row for row, on random geometries, on values clamped to
    range bounds, and on powers where numpy's own pow differs from libm's."""
    rng = np.random.default_rng(11)
    n = 4000
    base = np.column_stack([
        rng.uniform(0.05, 3.0, n), rng.uniform(0.05, 3.0, n), rng.uniform(0.5, 80.0, n),
        rng.uniform(0.0, math.pi / 2, n), rng.uniform(0.0, math.pi / 2, n),
        rng.uniform(0.01, 0.99, n),
    ])
    # clamped rows: every descriptor at a cohort-like range bound
    lows, highs = (0.4, 0.37, 15.0, 0.05, 0.33, 0.15), (1.2, 1.2, 41.0, 1.41, 1.51, 0.89)
    base[:50] = np.clip(base[:50], lows, highs)
    base[50:100] = np.where(rng.random((50, 6)) < 0.5, lows, highs)
    x = feature_matrix(*base.T)
    assert x.shape == (n, DimensionlessGeometry.N_FEATURES)
    a, lam = base[:, 0], base[:, 2]
    # the inputs exercise the case that matters: numpy's pow is not libm's
    assert np.any(a**-2.0 != np.array([v**-2 for v in a.tolist()]))
    assert np.any(lam * lam != np.array([v**2 for v in lam.tolist()]))
    for row, b in zip(x, base.tolist()):
        g = DimensionlessGeometry(*b)
        expected = _scalar_feature_vector(*b)
        assert np.array_equal(row, expected) and np.array_equal(g.vector(), expected), b


def test_scale_and_coefficient_arrays_match_the_scalar_functions():
    """scale_fields and the (re/non)dimensionalisation on arrays, with one
    scale set per entry, equal the scalar functions entry by entry."""
    from types import SimpleNamespace

    rng = np.random.default_rng(5)
    l_c = rng.uniform(0.01, 2.0, 3000)
    r_lin, r_quad, l = rng.normal(size=(3, l_c.size)) * [[1e3], [1e2], [1.0]]
    arrays = SimpleNamespace(**scale_fields(l_c, FLUID, 4500.0))
    back = redimensionalize_values(r_lin, r_quad, l, arrays)
    star = nondimensionalize_values(r_lin, r_quad, l, arrays)
    for k, lc in enumerate(l_c.tolist()):
        s = characteristic_scales(lc, FLUID, 4500.0)
        # the documented formulas, in scalar arithmetic
        u_c = 4500.0 * FLUID.mu / (FLUID.rho * 2.0 * lc)
        assert (s.u_c, s.a_c, s.p_c) == (u_c, math.pi * lc**2, FLUID.rho * u_c**2)
        for name in ("l_c", "a_c", "u_c", "q_c", "t_c", "p_c"):
            assert getattr(arrays, name)[k] == getattr(s, name), name
        c = CoefficientSet(kind="RRI", r_lin=r_lin[k], r_quad=r_quad[k], l=l[k])
        dim = redimensionalize_coeffs(CoefficientSet(kind="RRI", r_lin=r_lin[k], r_quad=r_quad[k],
                                                     l=l[k], dimensionless=True), s)
        nd = nondimensionalize_coeffs(c, s)
        assert (back[0][k], back[1][k], back[2][k]) == (dim.r_lin, dim.r_quad, dim.l)
        assert dim.r_quad == r_quad[k] * s.p_c / s.q_c**2
        assert nondimensionalize_coeffs(c, s).r_quad == r_quad[k] * s.q_c**2 / s.p_c
        assert (star[0][k], star[1][k], star[2][k]) == (nd.r_lin, nd.r_quad, nd.l)


def test_float_pow_is_python_pow():
    x = np.random.default_rng(2).uniform(0.01, 100.0, 2000)
    for p in (2, -2):
        assert np.array_equal(float_pow(x, p), np.array([v**p for v in x.tolist()]))
        assert float_pow(float(x[0]), p) == float(x[0]) ** p


def test_geometry_feature_vector_layout():
    g = DimensionlessGeometry(
        alpha_self=0.8, alpha_other=0.9, lam_self=20.0,
        theta_self=0.3, theta_other=0.4, phi_self=0.25,
    )
    v = g.vector()
    assert v.shape == (10,)
    assert v[4] == 20.0
    assert v[5] == pytest.approx(400.0, rel=1e-12)
    assert v[9] == pytest.approx(4.0, rel=1e-12)


def test_geometry_rejects_bad_phi():
    with pytest.raises(InvalidGeometryError):
        DimensionlessGeometry(
            alpha_self=1.0, alpha_other=1.0, lam_self=20.0,
            theta_self=0.3, theta_other=0.4, phi_self=1.5,
        )


# -- coefficient scaling ---------------------------------------------------


def test_nondim_coeffs_reference_value():
    s = characteristic_scales(0.5, FLUID, 4500.0)
    c = CoefficientSet(kind="RRI", r_lin=100.0, r_quad=0.0, l=0.0)
    star = nondimensionalize_coeffs(c, s)
    assert star.r_lin == pytest.approx(0.43633231299858244, rel=1e-12)
    assert star.dimensionless


def test_nondim_coeffs_zero_maps_to_zero():
    s = characteristic_scales(0.5, FLUID)
    star = nondimensionalize_coeffs(
        CoefficientSet(kind="RRI", r_lin=0.0, r_quad=0.0, l=0.0), s
    )
    assert star.r_lin == star.r_quad == star.l == 0.0


@given(
    r_lin=st.floats(-1e3, 1e3),
    r_quad=st.floats(-10.0, 10.0),
    l=st.floats(-10.0, 10.0),
    l_c=st.floats(0.1, 2.0),
)
def test_coeff_roundtrip_identity(r_lin, r_quad, l, l_c):
    s = characteristic_scales(l_c, FLUID)
    c = CoefficientSet(kind="RRI", r_lin=r_lin, r_quad=r_quad, l=l)
    back = redimensionalize_coeffs(nondimensionalize_coeffs(c, s), s)
    assert back.r_lin == pytest.approx(r_lin, rel=1e-14, abs=1e-14)
    assert back.r_quad == pytest.approx(r_quad, rel=1e-14, abs=1e-14)
    assert back.l == pytest.approx(l, rel=1e-14, abs=1e-14)


def test_rec_arbitrariness_on_dimensional_coeffs():
    c = CoefficientSet(kind="RRI", r_lin=120.0, r_quad=3.0, l=0.7)
    for re_c in (1000.0, 4500.0):
        s = characteristic_scales(0.5, FLUID, re_c)
        back = redimensionalize_coeffs(nondimensionalize_coeffs(c, s), s)
        assert back.r_lin == pytest.approx(120.0, rel=1e-10)
        assert back.r_quad == pytest.approx(3.0, rel=1e-10)
        assert back.l == pytest.approx(0.7, rel=1e-10)


def test_pressure_drop_consistency_across_scaling():
    """dP computed dimensionally equals P_c * dP* computed from starred
    coefficients and Q* = Q/Q_c, Qdot* = Qdot*t_c/Q_c."""
    rng = np.random.default_rng(0)
    s = characteristic_scales(0.7, FLUID)
    c = CoefficientSet(kind="RRI", r_lin=50.0, r_quad=2.0, l=0.3)
    star = nondimensionalize_coeffs(c, s)
    q = rng.uniform(-50, 50, 20)
    qdot = rng.uniform(-500, 500, 20)
    dp_dim = c.r_lin * q + c.r_quad * q**2 + c.l * qdot
    q_star = q / s.q_c
    qdot_star = qdot * s.t_c / s.q_c
    dp_star = star.r_lin * q_star + star.r_quad * q_star**2 + star.l * qdot_star
    assert np.allclose(dp_dim, s.p_c * dp_star, rtol=1e-10)


def test_double_nondim_rejected():
    s = characteristic_scales(0.5, FLUID)
    star = nondimensionalize_coeffs(
        CoefficientSet(kind="RI", r_lin=1.0, l=1.0), s
    )
    with pytest.raises(NondimError):
        nondimensionalize_coeffs(star, s)
    with pytest.raises(NondimError):
        redimensionalize_coeffs(CoefficientSet(kind="RI", r_lin=1.0, l=1.0), s)


def test_rri_requires_quadratic_term():
    with pytest.raises(NondimError):
        CoefficientSet(kind="RRI", r_lin=1.0, l=1.0)
    with pytest.raises(NondimError):
        CoefficientSet(kind="XX", r_lin=1.0, l=1.0)


def test_coefficients_must_be_finite():
    with pytest.raises(NondimError):
        CoefficientSet(kind="RI", r_lin=float("nan"), l=1.0)


# -- z-normalization -------------------------------------------------------


def test_znorm_identity_stats():
    stats = ZNormStats(mean=np.zeros(3), std=np.ones(3))
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(apply_znorm(x, stats), x)


def test_znorm_two_point_example():
    stats = fit_znorm(np.array([1.0, 3.0]))
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(1.0)  # population std
    z = apply_znorm(np.array([[1.0], [3.0]]), stats)
    assert np.allclose(z.ravel(), [-1.0, 1.0])


def test_znorm_constant_column_rejected():
    with pytest.raises(DegenerateFeatureError, match="width"):
        fit_znorm(np.array([[1.0, 2.0], [1.0, 3.0]]), names=("width", "height"))


def test_znorm_applied_training_set_is_standardized():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.5, size=(500, 4))
    stats = fit_znorm(x)
    z = apply_znorm(x, stats)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)


@given(
    data=st.lists(
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        min_size=3,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_znorm_roundtrip_property(data):
    x = np.array(data)
    if np.any(x.std(axis=0) < 1e-9):
        return  # degenerate columns are covered by the error test
    stats = fit_znorm(x)
    back = invert_znorm(apply_znorm(x, stats), stats)
    assert np.allclose(back, x, rtol=1e-10, atol=1e-8)


def test_znorm_nonpositive_std_rejected():
    with pytest.raises(DegenerateFeatureError):
        ZNormStats(mean=np.zeros(2), std=np.array([1.0, 0.0]))
