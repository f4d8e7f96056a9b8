"""Closed-form eigenvalue families, assembly, and regularized traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfspectra import (
    DomainError,
    PoleError,
    PrincipalSpectrum,
    StructureError,
    SubmanifoldSpectralData,
    assemble_group_spectrum,
    assemble_pf_spectrum,
    cot_series,
    enumerate_by_floor,
    enumerate_rows,
    extrapolate_to_one,
    hurwitz_zeta,
    kappa,
    mu,
    mu_eigenfunction_coeffs,
    r_trace,
    zeta_trace,
)

IDENTITY_TOL = 1e-12

nu_floats = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
lam_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
lam_nonzero = lam_floats.filter(lambda v: abs(v) > 1e-6)
m_ints = st.integers(min_value=-30, max_value=30)


# ---------------------------------------------------------------- mu / kappa


def test_mu_frozen_values():
    # nu=1, lam=0: denominator pi/2 + m*pi.
    assert mu(1.0, 0.0, 0) == pytest.approx(2.0 / math.pi, abs=IDENTITY_TOL)
    assert mu(1.0, 0.0, -1) == pytest.approx(-2.0 / math.pi, abs=IDENTITY_TOL)
    # nu=1, lam=1: denominator pi/4 + m*pi.
    assert mu(1.0, 1.0, 0) == pytest.approx(4.0 / math.pi, abs=IDENTITY_TOL)
    assert mu(1.0, 1.0, 1) == pytest.approx(4.0 / (5.0 * math.pi), abs=IDENTITY_TOL)
    assert mu(1.0, 1.0, -1) == pytest.approx(-4.0 / (3.0 * math.pi), abs=IDENTITY_TOL)


def test_mu_uses_principal_angle_for_negative_lam():
    # The angle is the principal arctan of nu/lam, so lam < 0 gives an angle
    # in (-pi/2, 0) and a negative m=0 value.
    assert mu(1.0, -1.0, 0) == pytest.approx(-4.0 / math.pi, abs=IDENTITY_TOL)
    assert mu(1.0, -1.0, 1) == pytest.approx(4.0 / (3.0 * math.pi), abs=IDENTITY_TOL)
    assert mu(1.0, -1.0, -1) == pytest.approx(-4.0 / (5.0 * math.pi), abs=IDENTITY_TOL)


@given(nu_floats, lam_nonzero, m_ints)
@settings(max_examples=200, deadline=None)
def test_mu_negation_symmetry_for_nonzero_lam(nu, lam, m):
    lhs = -mu(nu, lam, m)
    rhs = mu(nu, -lam, -m)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(nu_floats, m_ints)
@settings(max_examples=100, deadline=None)
def test_mu_negation_symmetry_at_lam_zero(nu, m):
    assert -mu(nu, 0.0, m) == pytest.approx(mu(nu, 0.0, -m - 1), rel=1e-12)


@given(nu_floats, lam_floats)
@settings(max_examples=100, deadline=None)
def test_mu_m_zero_is_extremal(nu, lam):
    values = [mu(nu, lam, m) for m in range(-4, 5)]
    if lam >= 0:
        assert max(values) == pytest.approx(mu(nu, lam, 0), rel=1e-12)
    else:
        assert min(values) == pytest.approx(mu(nu, lam, 0), rel=1e-12)


def test_mu_rejects_nonpositive_frequency():
    with pytest.raises(DomainError):
        mu(0.0, 1.0, 0)
    with pytest.raises(DomainError):
        mu(-2.0, 1.0, 0)


@given(nu_floats, lam_floats)
@settings(max_examples=200, deadline=None)
def test_kappa_pair_solves_the_quadratic(nu, lam):
    plus, minus = kappa(nu, lam)
    assert plus * minus == pytest.approx(-nu * nu / 4.0, rel=1e-10)
    assert plus + minus == pytest.approx(lam, rel=1e-10, abs=1e-12)
    assert plus >= 0.0 >= minus


def test_kappa_frozen_value():
    plus, minus = kappa(1.0, 1.0)
    root = math.sqrt(2.0)
    assert plus == pytest.approx((1.0 + root) / 2.0, abs=IDENTITY_TOL)
    assert minus == pytest.approx((1.0 - root) / 2.0, abs=IDENTITY_TOL)


# ------------------------------------------------------------------ families


def test_spectrum_rejects_nonpositive_multiplicity():
    with pytest.raises(DomainError):
        PrincipalSpectrum(mus=((1.0, 0.0, 0),))
    with pytest.raises(DomainError):
        PrincipalSpectrum(lambdas=((0.5, 0),))
    with pytest.raises(DomainError):
        PrincipalSpectrum(harmonics=((1.0, -1),))


# ------------------------------------------------------- data and assembly


def test_sphere_like_shapes_the_block_table():
    data = SubmanifoldSpectralData.sphere_like(1.5, [(0.7, 2)], 3, 4)
    assert data.freq_mult == ((1.5, 4),)
    assert data.mult0 == ()
    assert data.mult == ((1.5, 0.7, 2),)
    assert data.perp == ((0.0, 1), (1.5, 2))
    assert data.dim_m0 == 1
    assert data.dim_k0 == 4


def test_sphere_like_rejects_zero_codimension():
    with pytest.raises(DomainError):
        SubmanifoldSpectralData.sphere_like(1.0, [], 0, 0)


def test_data_validates_block_totals():
    with pytest.raises(StructureError, match="block nu"):
        SubmanifoldSpectralData(
            freq_mult=((1.0, 2),),
            mult0=(),
            mult=((1.0, 0.5, 2),),
            perp=((0.0, 1), (1.0, 2)),
            dim_m0=1,
            dim_k0=0,
        )


@pytest.mark.parametrize("mult, perp", [
    (((2.0, 0.5, 1),), ((0.0, 1), (1.0, 2))),
    (((1.0, 0.5, 2),), ((0.0, 1), (3.0, 1))),
])
def test_data_rejects_blocks_without_a_frequency(mult, perp):
    with pytest.raises(StructureError, match="has no freq_mult entry"):
        SubmanifoldSpectralData(((1.0, 2),), (), mult, perp, dim_m0=1, dim_k0=0)


def test_data_json_round_trip():
    data = SubmanifoldSpectralData.sphere_like(2.0, [(0.3, 1), (-0.4, 2)], 2, 1)
    back = SubmanifoldSpectralData.from_json(data.to_json())
    assert back == data


def test_pf_assembly_families():
    data = SubmanifoldSpectralData.sphere_like(1.0, [(0.7, 2), (-0.4, 1)], 3, 2)
    spec = assemble_pf_spectrum(data)
    assert spec.lambdas == ()
    assert spec.harmonics == ((1.0, 2),)
    assert spec.mus == ((1.0, -0.4, 1), (1.0, 0.7, 2))


def test_group_assembly_entries():
    data = SubmanifoldSpectralData.sphere_like(1.0, [(0.7, 2), (-0.4, 1)], 3, 5)
    grp = assemble_group_spectrum(data)
    entries = dict(grp.entries)
    # zero multiplicity counts the subgroup kernel plus all normal block dims
    perp_pos = sum(m for nu, m in data.perp if nu > 0)
    assert entries[0.0] == 5 + perp_pos
    for lam, mult in [(0.7, 2), (-0.4, 1)]:
        plus, minus = kappa(1.0, lam)
        assert entries[plus] == mult
        assert entries[minus] == mult


# ------------------------------------------------------------- enumeration


def test_enumeration_window_and_order():
    data = SubmanifoldSpectralData.sphere_like(1.0, [(1.0, 1)], 2, 1)
    rows = enumerate_rows(assemble_pf_spectrum(data), n_max=2, m_max=1)
    values = [r.value for r in rows]
    assert values[-1] == 0.0  # zero family last
    finite = np.abs(values[:-1])
    assert all(finite[i] >= finite[i + 1] - 1e-15 for i in range(len(finite) - 1))
    mu_vals = sorted(r.value for r in rows if r.family == "mu")
    expected = sorted(mu(1.0, 1.0, m) for m in (-1, 0, 1))
    np.testing.assert_allclose(mu_vals, expected, atol=IDENTITY_TOL)


def test_enumeration_by_floor_respects_threshold():
    data = SubmanifoldSpectralData.sphere_like(1.0, [(0.5, 1), (-0.5, 1)], 3, 0)
    pairs = enumerate_by_floor(assemble_pf_spectrum(data), 0.05)
    assert pairs
    assert all(abs(v) >= 0.05 for v, _ in pairs)
    # the floor enumeration of a symmetric spectrum is itself symmetric
    vals = sorted(v for v, m in pairs for _ in range(m))
    np.testing.assert_allclose(vals, sorted(-v for v in vals), atol=1e-12)


def test_enumeration_rejects_bad_windows():
    spec = assemble_pf_spectrum(SubmanifoldSpectralData.sphere_like(1.0, [], 2, 0))
    with pytest.raises(DomainError):
        enumerate_rows(spec, n_max=-1, m_max=1)
    with pytest.raises(DomainError):
        enumerate_by_floor(spec, 0.0)


# ------------------------------------------------------------ special sums


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(DomainError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)


def test_cot_series_closed_form_is_exact_at_half():
    partial, closed = cot_series(0.5, 100000)
    assert closed == 2.0
    assert 0.0 < closed - partial <= 1.0 / (100000 + 0.5) + 1e-12


def test_cot_series_matches_brute_force_sum():
    a = 0.3
    n_terms = 500
    partial, closed = cot_series(a, n_terms)
    brute = sum(1.0 / (n * n - a * a) for n in range(1, n_terms + 1))
    assert partial == pytest.approx(brute, rel=1e-13)
    # tail of the series is positive and O(1/N)
    assert 0.0 < closed - partial < 2.0 / n_terms


def test_cot_series_closed_form_reference():
    # Independent closed form: sum_n 1/(n^2 - a^2) = (1 - pi*a*cot(pi*a)) / (2a^2)
    a = 0.3
    _, closed = cot_series(a, 10)
    ref = (1.0 - math.pi * a / math.tan(math.pi * a)) / (2.0 * a * a)
    assert closed == pytest.approx(ref, rel=1e-13)


def test_cot_series_pole_and_domain():
    with pytest.raises(PoleError):
        cot_series(3.0, 10)
    with pytest.raises(DomainError):
        cot_series(0.5, 0)


# ------------------------------------------------------------------- traces


def trace_spectrum(nu, lam):
    data = SubmanifoldSpectralData.sphere_like(nu, [(lam, 1)], 2, 0)
    return assemble_pf_spectrum(data)


@pytest.mark.parametrize("pair", [(1.0, 1.0), (2.0, -3.0), (math.pi, 0.0)])
def test_paired_partial_sums_converge_to_lambda(pair):
    nu, lam = pair
    spec = trace_spectrum(nu, lam)
    errors = []
    for m_cut in (100, 1000, 10000):
        est, exact = r_trace(spec, m_cut)
        assert exact == pytest.approx(lam, abs=1e-15)
        errors.append(abs(est - exact))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 1e-3


def test_zeta_probes_extrapolate_to_lambda():
    spec = trace_spectrum(2.0, -3.0)
    probes = (1.1, 1.01, 1.001)
    values = zeta_trace(spec, probes)
    limit = extrapolate_to_one(probes, values)
    assert limit == pytest.approx(-3.0, abs=1e-3)


def test_zeta_trace_rejects_bad_probes():
    spec = trace_spectrum(1.0, 0.5)
    with pytest.raises(DomainError):
        zeta_trace(spec, (0.9,))


def test_extrapolation_is_exact_on_polynomials():
    probes = (1.1, 1.01, 1.001)
    values = [3.0 - 2.0 * (s - 1.0) + 5.0 * (s - 1.0) ** 2 for s in probes]
    assert extrapolate_to_one(probes, values) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(DomainError):
        extrapolate_to_one((), ())


# -------------------------------------------------- eigenfunction expansion


@pytest.mark.parametrize("pair", [(1.0, 0.0), (2.0, 1.0), (math.pi, -1.0)])
@pytest.mark.parametrize("m", [-1, 0, 1])
def test_mu_coefficient_requirements_vanish(pair, m):
    # The three defining relations of the eigenfunction: the n-indexed ones
    # over n <= 400, the constant one with the tail summed in closed form,
    # sum_n a_n / n = 2 r sum_n 1/(n^2 - r^2).
    nu, lam = pair
    val = mu(nu, lam, m)
    c, a, b = mu_eigenfunction_coeffs(nu, lam, m, 400)
    n = np.arange(1, 401, dtype=float)
    r = nu / (math.pi * val)
    _, closed = cot_series(r, 1)
    residuals = (
        c * lam + (nu / math.pi) * 2.0 * r * closed - c * val,
        (nu / math.pi) * (2.0 * c - b) / n - val * a,
        -(nu / math.pi) * a / n - val * b,
    )
    assert max(np.abs(res).max() for res in residuals) <= 1e-10


def test_mu_coefficients_shapes_and_domain():
    a0, a, b = mu_eigenfunction_coeffs(1.0, 0.5, 0, 12)
    assert a0 == 1.0
    assert a.shape == b.shape == (12,)
    with pytest.raises(DomainError):
        mu_eigenfunction_coeffs(1.0, 0.5, 0, 0)
