import csv
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vascrom.network import Fluid
from vascrom.nondim import CoefficientSet, DimensionlessGeometry, characteristic_scales
from vascrom.datagen import (
    COEFFICIENT_TAGS,
    DatagenError,
    LAMBDA_FRACTIONS,
    SAMPLING_RANGES,
    TimeSeries,
    UnderdeterminedFitError,
    WaveformConfig,
    build_cohort,
    central_difference,
    fit_ri,
    fit_rri,
    ingest_timeseries_csv,
    latin_hypercube,
    oracle_coeffs,
    r_squared,
    sample_geometries,
    synthesize_timeseries,
    systolic_waveform,
)

FLUID = Fluid()


# -- derivatives and waveforms ---------------------------------------------


def test_central_difference_linear_ramp():
    qd = central_difference(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
    assert np.allclose(qd, [1.0, 1.0, 1.0, 1.0])


def test_central_difference_exact_for_quadratics():
    t = np.linspace(0, 1, 101)
    qd = central_difference(t**2, t[1] - t[0])
    assert np.allclose(qd[1:-1], 2 * t[1:-1], rtol=1e-10)


def test_central_difference_constant_is_zero():
    assert np.allclose(central_difference(np.full(5, 3.0), 0.1), 0.0)


def test_central_difference_needs_three_samples():
    with pytest.raises(DatagenError):
        central_difference(np.array([1.0, 2.0]), 1.0)


def test_waveform_reference_peak():
    t, q = systolic_waveform(5500.0, 0.5, FLUID, period=0.4, n_steps=201)
    assert q.max() == pytest.approx(163.00716598814964, rel=1e-10)
    assert q[0] == 0.0
    assert abs(q[-1]) < 1e-10


def test_waveform_zero_re_is_zero():
    _, q = systolic_waveform(0.0, 0.5, FLUID)
    assert np.all(q == 0.0)


def test_waveform_nonnegative():
    _, q = systolic_waveform(2000.0, 0.3, FLUID)
    assert np.all(q >= -1e-12)


@pytest.mark.parametrize("period", [1e308, 5.8e307, math.inf, math.nan, 0.0])
def test_waveform_rejects_bad_period(period):
    message = rf"period > 0 with pi \* period finite, .*period={re.escape(str(period))}$"
    with pytest.raises(DatagenError, match=message):
        systolic_waveform(5500.0, 0.5, FLUID, period=period)


def test_waveform_keeps_the_largest_period():
    period = np.nextafter(sys.float_info.max / math.pi, 0.0)
    t, q = systolic_waveform(5500.0, 0.5, FLUID, period=period, n_steps=3)
    assert np.isfinite(q).all() and q[1] == pytest.approx(163.00716598814964, rel=1e-10)


# -- sampling --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 10, 33])
def test_lhs_stratification(n):
    rng = np.random.default_rng(0)
    u = latin_hypercube(n, 4, rng)
    for j in range(4):
        strata = np.floor(u[:, j] * n).astype(int)
        assert sorted(strata) == list(range(n))


def test_sample_geometries_within_ranges():
    for junc in sample_geometries(25, seed=1):
        for name, (lo, hi) in SAMPLING_RANGES.items():
            assert lo <= getattr(junc, name) <= hi
        assert junc.phi2 == pytest.approx(1.0 - junc.phi1)


def test_sample_geometries_deterministic():
    a = sample_geometries(10, seed=42)
    b = sample_geometries(10, seed=42)
    assert a == b
    c = sample_geometries(10, seed=43)
    assert a != c


def test_default_ranges_match_documented_values():
    assert SAMPLING_RANGES["alpha1"] == (0.40, 1.2)
    assert SAMPLING_RANGES["theta1"] == (0.05, 1.41)
    assert SAMPLING_RANGES["phi1"] == (0.15, 0.89)


# -- analytic oracle -------------------------------------------------------


def _geometry(alpha=1.0, lam=15.0, theta=0.0, phi=0.5, alpha_other=1.0,
              theta_other=0.0):
    return DimensionlessGeometry(
        alpha_self=alpha, alpha_other=alpha_other, lam_self=lam,
        theta_self=theta, theta_other=theta_other, phi_self=phi,
    )


def test_oracle_base_values():
    c = oracle_coeffs(_geometry())
    assert c.r_lin == pytest.approx(0.75, rel=1e-12)
    assert c.r_quad == pytest.approx(0.0, abs=1e-15)
    assert c.l == pytest.approx(1.5, rel=1e-12)
    assert c.dimensionless


def test_oracle_monotone_in_lambda():
    lams = [5.0, 10.0, 20.0, 40.0]
    rlins = [oracle_coeffs(_geometry(lam=l)).r_lin for l in lams]
    ls = [oracle_coeffs(_geometry(lam=l)).l for l in lams]
    assert rlins == sorted(rlins) and len(set(rlins)) == len(rlins)
    assert ls == sorted(ls) and len(set(ls)) == len(ls)


def test_oracle_monotone_in_inverse_alpha_squared():
    alphas = [1.2, 1.0, 0.8, 0.5]
    rlins = [oracle_coeffs(_geometry(alpha=a)).r_lin for a in alphas]
    assert rlins == sorted(rlins)


def test_oracle_deterministic():
    g = _geometry(alpha=0.7, lam=22.0, theta=0.5, phi=0.3)
    a, b = oracle_coeffs(g), oracle_coeffs(g)
    assert (a.r_lin, a.r_quad, a.l) == (b.r_lin, b.r_quad, b.l)


def test_oracle_rejects_out_of_box():
    with pytest.raises(DatagenError, match="validity box"):
        oracle_coeffs(_geometry(lam=100.0))


# -- synthesis and fitting -------------------------------------------------


def test_synthesize_sine_closed_form():
    t = np.linspace(0.0, 1.0, 1000)
    q = np.sin(2 * math.pi * t)
    c = CoefficientSet(kind="RRI", r_lin=2.0, r_quad=3.0, l=0.5)
    series = synthesize_timeseries(c, t, q)
    qdot_exact = 2 * math.pi * np.cos(2 * math.pi * t)
    dp_exact = 2.0 * q + 3.0 * q * np.abs(q) + 0.5 * qdot_exact
    interior = slice(1, -1)
    assert np.max(np.abs(series.dp[interior] - dp_exact[interior])) < 1e-4
    # with the same discrete derivative the match is exact
    dp_disc = 2.0 * q + 3.0 * q * np.abs(q) + 0.5 * series.qdot
    assert np.allclose(series.dp, dp_disc, rtol=1e-12)


def test_synthesize_zero_coeffs():
    t = np.linspace(0, 1, 10)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=0.0, r_quad=0.0, l=0.0), t, np.sin(t)
    )
    assert np.all(series.dp == 0.0)


def test_fit_roundtrip_reference_triple():
    t = np.linspace(0.0, 1.0, 1000)
    q = np.sin(2 * math.pi * t)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=2.0, r_quad=3.0, l=0.5), t, q
    )
    fit = fit_rri(series)
    assert fit.r_lin == pytest.approx(2.0, rel=1e-8)
    assert fit.r_quad == pytest.approx(3.0, rel=1e-8)
    assert fit.l == pytest.approx(0.5, rel=1e-8)


@given(
    r_lin=st.floats(0.1, 100.0),
    r_quad=st.floats(-5.0, 5.0),
    l=st.floats(-2.0, 2.0),
)
@settings(max_examples=30, deadline=None)
def test_fit_roundtrip_property(r_lin, r_quad, l):
    t = np.linspace(0.0, 0.4, 300)
    q = 10.0 * np.sin(math.pi * t / 0.4)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=r_lin, r_quad=r_quad, l=l), t, q
    )
    fit = fit_rri(series)
    assert fit.r_lin == pytest.approx(r_lin, rel=1e-7, abs=1e-8)
    assert fit.r_quad == pytest.approx(r_quad, rel=1e-7, abs=1e-8)
    assert fit.l == pytest.approx(l, rel=1e-7, abs=1e-8)


def test_constant_flow_is_rank_deficient_for_rri():
    t = np.linspace(0, 1, 100)
    series = TimeSeries(t=t, q=np.full_like(t, 5.0), dp=np.full_like(t, 10.0))
    with pytest.raises(UnderdeterminedFitError):
        fit_rri(series)


def test_ri_fit_exact_on_linear_data():
    t = np.linspace(0.0, 0.4, 500)
    q = 8.0 * np.sin(math.pi * t / 0.4)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=4.0, r_quad=0.0, l=0.25), t, q
    )
    fit = fit_ri(series)
    assert fit.r_lin == pytest.approx(4.0, rel=1e-10)
    assert fit.l == pytest.approx(0.25, rel=1e-10)
    assert r_squared(series, fit) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_ordering_nested_models():
    t = np.linspace(0.0, 0.4, 500)
    q = 8.0 * np.sin(math.pi * t / 0.4)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=1.0, r_quad=2.0, l=0.1), t, q
    )
    r2_rri = r_squared(series, fit_rri(series))
    r2_ri = r_squared(series, fit_ri(series))
    assert r2_rri >= r2_ri
    assert r2_rri > r2_ri  # strongly quadratic data
    assert r2_rri == pytest.approx(1.0, abs=1e-12)


def test_r_squared_zero_variance_rejected():
    t = np.linspace(0, 1, 10)
    series = TimeSeries(t=t, q=np.sin(t), dp=np.zeros_like(t))
    with pytest.raises(DatagenError):
        r_squared(series, CoefficientSet(kind="RI", r_lin=0.0, l=0.0))


# -- CSV round trip --------------------------------------------------------


def write_timeseries_csv(series, path):
    """A t,Q,dP file with every value written as its repr."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "Q", "dP"])
        for t, q, dp in zip(series.t, series.q, series.dp):
            w.writerow([repr(float(t)), repr(float(q)), repr(float(dp))])


def test_csv_roundtrip_exact(tmp_path):
    t = np.linspace(0.0, 0.4, 50)
    series = synthesize_timeseries(
        CoefficientSet(kind="RRI", r_lin=1.3, r_quad=0.2, l=0.05),
        t, 5 * np.sin(math.pi * t / 0.4),
    )
    path = tmp_path / "series.csv"
    write_timeseries_csv(series, path)
    back = ingest_timeseries_csv(path)
    assert np.array_equal(back.t, series.t)
    assert np.array_equal(back.q, series.q)
    assert np.array_equal(back.dp, series.dp)


def test_csv_three_row_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,Q,dP\n0.0,1.0,2.0\n0.1,1.5,2.5\n0.2,2.0,3.0\n")
    series = ingest_timeseries_csv(path)
    assert series.t.size == 3
    assert series.dt == pytest.approx(0.1)


def test_csv_shuffled_time_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,Q,dP\n0.2,1.0,2.0\n0.0,1.5,2.5\n0.1,2.0,3.0\n")
    with pytest.raises(DatagenError):
        ingest_timeseries_csv(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("time,flow,drop\n0,1,2\n")
    with pytest.raises(DatagenError, match="header"):
        ingest_timeseries_csv(path)


def test_csv_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,Q,dP\n0.0,1.0,2.0\n0.1,x,2.5\n")
    message = f"{path}:3: need 3 finite numbers, got '0.1,x,2.5'"
    with pytest.raises(DatagenError, match=f"^{re.escape(message)}$"):
        ingest_timeseries_csv(path)


# -- cohort ----------------------------------------------------------------


def test_cohort_single_junction_row_count():
    dataset, manifest = build_cohort(n=1, seed=0)
    assert manifest["n_rows"] == 14
    assert dataset.inputs.shape == (14, 10)
    assert set(dataset.targets) == set(COEFFICIENT_TAGS)


def test_cohort_split_sizes():
    dataset, manifest = build_cohort(n=10, seed=0)
    assert manifest["n_rows"] == 140
    assert dataset.train_idx.size == 126
    assert dataset.val_idx.size == 14
    assert np.intersect1d(dataset.train_idx, dataset.val_idx).size == 0


def test_cohort_fit_recovers_oracle():
    """Noise-free extraction matches the analytic ground truth to 1e-8."""
    from vascrom.datagen import INLET_AREA_COHORT
    from vascrom.nondim import nondimensionalize_coeffs

    junc = sample_geometries(3, seed=5)[1]
    l_c = math.sqrt(INLET_AREA_COHORT / math.pi)
    scales = characteristic_scales(l_c, FLUID)
    t, q_inlet = systolic_waveform(5500.0, l_c, FLUID)
    for outlet in (0, 1):
        lam_total = (junc.lam1, junc.lam2)[outlet]
        phi = (junc.phi1, junc.phi2)[outlet]
        g = junc.geometry(outlet, lam_override=0.5 * lam_total)
        truth = oracle_coeffs(g)
        from vascrom.nondim import redimensionalize_coeffs

        series = synthesize_timeseries(
            redimensionalize_coeffs(truth, scales), t, phi * q_inlet
        )
        fitted = nondimensionalize_coeffs(fit_rri(series), scales)
        assert fitted.r_lin == pytest.approx(truth.r_lin, rel=1e-8)
        assert fitted.r_quad == pytest.approx(truth.r_quad, rel=1e-8, abs=1e-10)
        assert fitted.l == pytest.approx(truth.l, rel=1e-8)


def test_cohort_deterministic():
    d1, m1 = build_cohort(n=3, seed=9)
    d2, m2 = build_cohort(n=3, seed=9)
    assert np.array_equal(d1.inputs, d2.inputs)
    for tag in COEFFICIENT_TAGS:
        assert np.array_equal(d1.targets[tag], d2.targets[tag])
    assert m1 == m2


def test_cohort_training_split_is_standardized():
    dataset, _ = build_cohort(n=20, seed=2)
    z = dataset.inputs[dataset.train_idx]
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)


def test_cohort_noise_changes_targets_only_slightly():
    clean, _ = build_cohort(n=2, seed=4, noise_sigma=0.0)
    noisy, _ = build_cohort(n=2, seed=4, noise_sigma=1e-3)
    assert np.array_equal(clean.inputs[:, 0], noisy.inputs[:, 0])
    assert not np.array_equal(clean.targets["rri_rlin"], noisy.targets["rri_rlin"])


def test_timeseries_rejects_nonuniform_grid():
    with pytest.raises(DatagenError):
        TimeSeries(t=np.array([0.0, 0.1, 0.3]), q=np.zeros(3), dp=np.zeros(3))


def test_cohort_rejects_non_finite_targets():
    from vascrom.nondim import NondimError

    # the draws overflow to inf, and so do the fitted coefficients
    with pytest.raises(NondimError, match="coefficients must be finite"):
        build_cohort(n=2, noise_sigma=1e308)


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
def test_cohort_equals_per_row_reference(noise_sigma):
    """build_cohort fits every outlet in one batched least-squares solve;
    every target must equal a fresh synthesize-and-fit per row, bit for bit."""
    _assert_cohort_equals_per_row_reference(3, 0, noise_sigma)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
@pytest.mark.parametrize("n, seed", [(60, 7), (200, 0)])
def test_cohort_equals_per_row_reference_at_benchmark_sizes(n, seed, noise_sigma):
    """The same at the benchmark bundle's cohort (n = 60, seed 7) and at the
    CLI's default size, n = 200."""
    _assert_cohort_equals_per_row_reference(n, seed, noise_sigma)


def test_cohort_chunks_leave_its_files_byte_identical(tmp_path, monkeypatch):
    """build_cohort fits COHORT_CHUNK junctions at a time; chunks of 3, the
    last one short, write the same dataset.csv and stats.json as one chunk."""
    import vascrom.datagen as datagen
    from vascrom.mlp import save_dataset

    save_dataset(build_cohort(n=10, noise_sigma=0.5)[0], tmp_path / "whole")
    monkeypatch.setattr(datagen, "COHORT_CHUNK", 3)
    save_dataset(build_cohort(n=10, noise_sigma=0.5)[0], tmp_path / "chunked")
    for name in ("dataset.csv", "stats.json"):
        assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_cohort_traced_peak_stays_bounded():
    """With one fit over all junctions the traced peak at n = 2000 was
    126 MB, and it grew with n; fitting COHORT_CHUNK junctions at a time, it
    measured 27.8 MB."""
    tracemalloc.start()
    try:
        build_cohort(n=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _assert_cohort_equals_per_row_reference(n, seed, noise_sigma):
    from vascrom.datagen import INLET_AREA_COHORT
    from vascrom.nondim import (
        apply_znorm,
        fit_znorm,
        nondimensionalize_coeffs,
        redimensionalize_coeffs,
    )

    dataset, _ = build_cohort(n=n, seed=seed, noise_sigma=noise_sigma)

    l_c = math.sqrt(INLET_AREA_COHORT / math.pi)
    scales = characteristic_scales(l_c, FLUID)
    t, q_inlet = systolic_waveform(5500.0, l_c, FLUID)
    noise_seeds = np.random.SeedSequence(seed).spawn(n)
    x, y = [], {tag: [] for tag in COEFFICIENT_TAGS}
    for jidx, junc in enumerate(sample_geometries(n, seed=seed)):
        noise_rng = np.random.default_rng(noise_seeds[jidx])
        for outlet in (0, 1):
            lam_total = (junc.lam1, junc.lam2)[outlet]
            phi = (junc.phi1, junc.phi2)[outlet]
            for frac in LAMBDA_FRACTIONS:
                g = junc.geometry(outlet, lam_override=frac * lam_total)
                dim = redimensionalize_coeffs(oracle_coeffs(g), scales)
                series = synthesize_timeseries(dim, t, phi * q_inlet)
                if noise_sigma > 0:
                    series = TimeSeries(
                        t=series.t,
                        q=series.q,
                        dp=series.dp + noise_rng.normal(0.0, noise_sigma, series.dp.size),
                        qdot=series.qdot,
                    )
                rri = nondimensionalize_coeffs(fit_rri(series), scales)
                ri = nondimensionalize_coeffs(fit_ri(series), scales)
                x.append(g.vector())
                for tag, v in zip(COEFFICIENT_TAGS, (rri.r_lin, rri.r_quad, rri.l, ri.r_lin, ri.l)):
                    y[tag].append(v)

    x = np.array(x)
    train = dataset.train_idx
    xz = apply_znorm(x, fit_znorm(x[train], names=DimensionlessGeometry.FEATURE_NAMES))
    assert np.array_equal(dataset.inputs, xz)
    for tag in COEFFICIENT_TAGS:
        raw = np.array(y[tag])
        expected = apply_znorm(raw, fit_znorm(raw[train])).ravel()
        assert np.array_equal(dataset.targets[tag], expected), tag


# -- the shared batched fit -------------------------------------------------


def test_batched_fit_equals_one_fit_per_matrix():
    """A stack of design matrices with several right-hand sides each gives,
    bit for bit, what fitting each series alone gives."""
    from vascrom.datagen import fit_junction_law

    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 0.4, 120)
    q = rng.uniform(0.2, 2.0, (4, 1)) * np.sin(math.pi * t / 0.4) + rng.uniform(-1, 1, (4, 1))
    cols = {"Q": q, "Q|Q|": q * np.abs(q), "Qdot": central_difference(q, t[1] - t[0])}
    dp = rng.normal(size=(4, 3, t.size))
    for columns, fit in ((("Q", "Q|Q|", "Qdot"), fit_rri), (("Q", "Qdot"), fit_ri)):
        stacked = fit_junction_law(cols, columns, dp)
        assert stacked.shape == (4, 3, len(columns))
        for k in range(4):
            for f in range(3):
                one = fit(TimeSeries(t=t, q=q[k], dp=dp[k, f], qdot=cols["Qdot"][k]))
                values = (one.r_lin, one.r_quad, one.l) if len(columns) == 3 else (one.r_lin, one.l)
                assert stacked[k, f].tolist() == list(values)
        assert np.array_equal(fit_junction_law(cols, columns, dp[:, 1]), stacked[:, 1])


def test_fit_of_a_column_whose_norm_underflows():
    """A column of entries near 1e-170 has a norm that underflows to 0, yet
    it is not zero: it fits as the same column scaled up does.  A column of
    zeros still raises."""
    from vascrom.datagen import fit_junction_law

    t = np.linspace(0.0, 1.0, 50)
    q = np.sin(3 * t) + 1.5
    qdot = np.cos(2 * t)
    dp = 2.0 * q + 3.0 * qdot
    assert np.linalg.norm(1e-170 * qdot) == 0.0
    coef = fit_junction_law({"Q": q[None], "Qdot": 1e-170 * qdot[None]}, ("Q", "Qdot"), dp[None])
    assert coef[0] == pytest.approx([2.0, 3e170], rel=1e-12)
    with pytest.raises(UnderdeterminedFitError, match="column 'Qdot' is identically zero"):
        fit_junction_law({"Q": q[None], "Qdot": 0.0 * qdot[None]}, ("Q", "Qdot"), dp[None])


@pytest.mark.parametrize("bad, message", [
    (np.zeros(50), "column 'Q' is identically zero"),
    (np.full(50, 2.0), "rank-deficient design matrix"),
])
def test_batched_fit_names_the_first_failing_matrix(bad, message):
    from vascrom.datagen import fit_junction_law

    t = np.linspace(0.0, 1.0, 50)
    q = np.array([np.sin(3 * t) + 1, bad, np.cos(2 * t), bad])
    cols = {"Q": q, "Q|Q|": q * np.abs(q)}
    with pytest.raises(UnderdeterminedFitError, match=message) as err:
        fit_junction_law(cols, ("Q", "Q|Q|"), np.ones_like(q))
    assert err.value.index == 1
