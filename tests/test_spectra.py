"""Closed-form eigenvalue families, assembly, and regularized traces."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfspectra import (
    DomainError,
    EigenMultiset,
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
    kappa,
    mu,
    mu_eigenfunction_coeffs,
    r_trace,
    zeta_trace,
)
from pfspectra.formats import canonical_json
from pfspectra.spectra import cluster_indices

IDENTITY_TOL = 1e-12

nu_floats = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
lam_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
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


@given(nu_floats, st.floats(min_value=-6.0, max_value=300.0), st.sampled_from([-1.0, 1.0]),
       m_ints)
@example(1.0, 15.0, -1.0, 0)
@example(1.0, 20.0, -1.0, 0)
@example(1.0, 6.0, -1.0, 0)
@settings(max_examples=200, deadline=None)
def test_mu_negation_symmetry_for_nonzero_lam(nu, decades, sign, m):
    # |lambda|/nu from 1e-6 up to 1e300, either sign: the angle is odd in
    # lambda, so the symmetry holds bit for bit.
    lam = sign * nu * 10.0 ** decades
    assert -mu(nu, lam, m) == mu(nu, -lam, -m)


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


@pytest.mark.parametrize("nu, lam", [(1e308, 1e308), (1e308, -1e308), (1.0, 1.7e308),
                                     (1.3e308, 1.3e308), (1.3e308, -1.3e308), (1.7e308, 1e308)])
def test_kappa_is_finite_where_the_pair_is(nu, lam):
    # lambda + root overflows here, and in the last three the root itself
    # does, though the pair is finite
    plus, minus = kappa(nu, lam)
    half = math.hypot(lam / 2.0, nu / 2.0)
    assert (plus, minus) == (lam / 2.0 + half, lam / 2.0 - half)
    assert math.isfinite(plus) and math.isfinite(minus)


def test_kappa_plus_is_inf_only_past_the_largest_float():
    # kappa_+ = 0.75e308 * (1 + sqrt 2) = 1.81e308; kappa_- stays finite
    plus, minus = kappa(1.5e308, 1.5e308)
    assert plus == math.inf
    assert minus == pytest.approx(0.75e308 * (1.0 - math.sqrt(2.0)), rel=1e-15)


@given(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(5e-324, 5e-324)
@example(5e-324, -5e-324)
@example(1e-310, 3e-320)
@settings(max_examples=300, deadline=None)
def test_kappa_is_the_halved_sum_wherever_that_is_finite(nu, lam):
    root = math.hypot(lam, nu)
    for got, total in zip(kappa(nu, lam), (lam + root, lam - root)):
        if math.isfinite(total):
            assert math.copysign(1.0, got) == math.copysign(1.0, total / 2.0)
            assert got == total / 2.0


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
    back = SubmanifoldSpectralData.from_maps(**json.loads(canonical_json(data)))
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


# Sequential references: the loops the array forms replaced, kept verbatim
# in behaviour so that the array forms can be held to them bit for bit.


def sequential_clusters(values, tol):
    vals = np.asarray(values, dtype=float)
    groups = []
    for i in np.argsort(vals, kind="stable"):
        if groups and abs(vals[i] - head) <= tol * max(1.0, abs(head)):
            groups[-1].append(int(i))
        else:
            head = vals[i]
            groups.append([int(i)])
    return groups


def sequential_multiset(pairs, tol):
    pairs = [(float(v), int(m)) for v, m in pairs]
    vals = np.array([v for v, _ in pairs])
    entries = []
    for g in sequential_clusters(vals, tol):
        v = vals[g]
        w = np.array([pairs[i][1] for i in g], dtype=float)
        value = v[0] if (v == v[0]).all() else np.average(v, weights=w / w.max())
        entries.append((float(value), sum(pairs[i][1] for i in g)))
    return tuple(entries)


def sequential_rows(spectrum, n_max, m_max):
    rows = [("lambda", None, lam, mult) for lam, mult in spectrum.lambdas]
    for nu, mult in spectrum.harmonics:
        for n in range(-n_max, n_max + 1):
            if n != 0:
                rows.append(("harmonic", n, nu / (n * math.pi), mult))
    for nu, lam, mult in spectrum.mus:
        for m in range(-m_max, m_max + 1):
            rows.append(("mu", m, mu(nu, lam, m), mult))
    rows.sort(key=lambda r: (-abs(r[2]), r[0], r[1] if r[1] is not None else 0))
    return rows + [("zero", None, 0.0, "inf")]


def sequential_floor(spectrum, value_floor):
    pairs = [(lam, mult) for lam, mult in spectrum.lambdas if abs(lam) >= value_floor]
    for nu, mult in spectrum.harmonics:
        for n in range(1, math.floor(nu / (math.pi * value_floor)) + 1):
            pairs.append((nu / (n * math.pi), mult))
            pairs.append((nu / (-n * math.pi), mult))
    for nu, lam, mult in spectrum.mus:
        for m, step in ((0, 1), (-1, -1)):
            while abs(value := mu(nu, lam, m)) >= value_floor:
                pairs.append((value, mult))
                m += step
    return pairs


@st.composite
def clusterable_pairs(draw):
    """(pairs, tol): values near a few anchors, offset by up to three
    tolerance bounds (so chains longer than tol split) or by exactly 0, 1/2,
    1 or 2 bounds (ties and boundaries), a third of them nudged by one ulp,
    with negatives and some multiplicities of 10**20.  Up to 150 values, so
    that both the scan and the array form run; numpy draws the values from
    a seed, as drawing them one by one is slow."""
    tol = 10.0 ** draw(st.floats(-12.0, -3.0))
    scale = draw(st.sampled_from([1e-3, 0.5, 1.0, 1e3]))
    size = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = rng.integers(-4, 5, size) * scale
    exact = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], size)
    offset = np.where(rng.random(size) < 0.5, exact, rng.uniform(-3.0, 3.0, size))
    values = anchor + offset * tol * np.maximum(1.0, np.abs(anchor))
    nudge = rng.integers(-1, 2, size)
    nudged = np.nextafter(values, np.where(nudge > 0, np.inf, -np.inf))
    values = np.where(nudge == 0, values, nudged)
    mults = [10**20 if huge else int(m)
             for m, huge in zip(rng.integers(1, 4, size), rng.random(size) < 0.05)]
    return list(zip(values.tolist(), mults)), tol


@given(clusterable_pairs())
@settings(max_examples=300, deadline=None)
def test_clusterer_and_multiset_equal_the_sequential_loop(case):
    pairs, tol = case
    values = [v for v, _ in pairs]
    assert cluster_indices(values, tol) == sequential_clusters(values, tol)
    entries = EigenMultiset.from_pairs(pairs, tol).entries
    # repr tells every float apart, signed zeros included, and shows that
    # multiplicities are Python ints, 10**20 sums exact.
    assert repr(entries) == repr(sequential_multiset(pairs, tol))


def test_multiset_keeps_huge_multiplicities_exact():
    pairs = [(0.5, 10**20), (0.5, 10**20 + 1), (-0.25, 2**63 - 1), (-0.25, 2**63 - 1)]
    assert EigenMultiset.from_pairs(pairs).entries == (
        (-0.25, 2**64 - 2), (0.5, 2 * 10**20 + 1))


@st.composite
def enumerable_spectra(draw):
    """A spectrum with lambda = 0, negative and positive lambdas, and a floor
    that is sometimes exactly one of its family values."""
    lam = st.sampled_from([0.0, 0.5, -0.5]) | lam_floats
    spectrum = PrincipalSpectrum(
        tuple(draw(st.lists(st.tuples(lam, st.integers(1, 3)), max_size=3))),
        tuple(draw(st.lists(st.tuples(nu_floats, st.integers(1, 3)), max_size=2))),
        tuple(draw(st.lists(st.tuples(nu_floats, lam, st.integers(1, 3)), max_size=4))),
    )
    # Floors below 0.05 would ask for more rows than the enumeration allows.
    family_values = [value for value in (
        [abs(lam) for lam, _ in spectrum.lambdas]
        + [nu / (n * math.pi) for nu, _ in spectrum.harmonics for n in (1, 2, 7)]
        + [abs(mu(nu, lam, m)) for nu, lam, _ in spectrum.mus for m in (-3, -1, 0, 2)]
    ) if value >= 0.05]
    if family_values and draw(st.booleans()):
        floor = draw(st.sampled_from(family_values))
    else:
        floor = draw(st.floats(0.05, 5.0))
    return spectrum, floor


@given(enumerable_spectra(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_enumerations_equal_the_sequential_loops(case, n_max, m_max):
    spectrum, floor = case
    assert repr(enumerate_by_floor(spectrum, floor)) == repr(sequential_floor(spectrum, floor))
    rows = [tuple(r) for r in enumerate_rows(spectrum, n_max, m_max)]
    assert repr(rows) == repr(sequential_rows(spectrum, n_max, m_max))


def test_floor_equal_to_a_family_value_is_kept():
    # lambda = 0 pairs m with -m - 1; lambda < 0 starts its runs at theta - pi.
    for lam in (0.0, -0.7, 0.7):
        spectrum = PrincipalSpectrum((), ((1.3, 1),), ((1.1, lam, 2),))
        for floor in (abs(mu(1.1, lam, 0)), abs(mu(1.1, lam, -2)), 1.3 / (2 * math.pi)):
            pairs = enumerate_by_floor(spectrum, floor)
            assert repr(pairs) == repr(sequential_floor(spectrum, floor))
            assert any(abs(v) == floor for v, _ in pairs)


def test_enumeration_rejects_bad_windows():
    spec = assemble_pf_spectrum(SubmanifoldSpectralData.sphere_like(1.0, [], 2, 0))
    with pytest.raises(DomainError):
        enumerate_rows(spec, n_max=-1, m_max=1)
    with pytest.raises(DomainError):
        enumerate_by_floor(spec, 0.0)


# ------------------------------------------------------------ special sums


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


# (1, -1e7): the m = -1 term must not lose digits, so the error is the
# window's own truncation error, as at (2, -3).
@pytest.mark.parametrize("pair", [(1.0, 1.0), (2.0, -3.0), (math.pi, 0.0), (1.0, -1e7)])
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


@pytest.mark.parametrize("lam", [0.3, 1e3, 1e7, 1e13, 1e15, 1e20])
def test_zeta_trace_is_odd_in_lambda_bit_for_bit(lam):
    # Negating lambda negates the angle and swaps the two Hurwitz arguments
    # exactly, so no digit is lost however large |lambda|/nu is.
    plus = zeta_trace(trace_spectrum(1.0, lam), (1.1,))
    minus = zeta_trace(trace_spectrum(1.0, -lam), (1.1,))
    assert minus == [-v for v in plus]


def test_zeta_trace_rejects_bad_probes():
    spec = trace_spectrum(1.0, 0.5)
    with pytest.raises(DomainError):
        zeta_trace(spec, (0.9,))


def neville_by_entries(s_probes, values):
    """The Neville table entry by entry, in Python floats."""
    xs = [s - 1.0 for s in s_probes]
    tab = list(values)
    for level in range(1, len(tab)):
        for i in range(len(tab) - level):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + level] / (xs[i] - xs[i + level])
    return tab[0]


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_extrapolation_by_levels_equals_the_per_entry_table(n):
    rng = np.random.default_rng(n)
    probes = (1.0 + rng.permutation(np.geomspace(1e-4, 2.0, n))).tolist()
    values = rng.normal(size=n).tolist()
    assert extrapolate_to_one(probes, values) == neville_by_entries(probes, values)
    # Non-finite entries give the same inf or nan, with no warning.
    for bad in (math.inf, math.nan, 1e308):
        values[n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extrapolate_to_one(probes, values)
        assert repr(got) == repr(neville_by_entries(probes, values))


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
