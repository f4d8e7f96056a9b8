"""Independent numerical cross-checks of the closed-form spectra."""

import dataclasses
import importlib.util
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfspectra import (
    DimensionError,
    DomainError,
    FourierBasisLabel,
    PERP_LABEL,
    TimeGrid,
    TruncatedOperator,
    build_harmonic_block,
    build_mu_block,
    compare_spectra,
    finite_group_oracle,
    grid_l2_norm,
    group_shape_matrix,
    kappa,
    label_closed_form,
    label_decomposed_path,
    match_multisets,
    mu,
    mu_block_residual,
    mu_eigenfunction_coeffs,
    paired_bases,
    shape_apply_raw,
    sphere_geometry,
    split_geometry,
    split_pair,
)
from pfspectra import cli, oracle
from pfspectra.formats import canonical_json
from pfspectra.oracle import random_m_direction

COARSE_GRID = 129
COARSE_TOL = 1e-10


# ------------------------------------------------------- truncated operators


def dense_block(op):
    """The (2N + 1)^2 mu block assembled from its numbers, in the basis
    {y} + {sqrt2 x sin n pi t} + {sqrt2 y cos n pi t}: the test reference."""
    c = op.couplings
    n = c.size
    mat = np.zeros((2 * n + 1, 2 * n + 1))
    mat[0, 0] = op.lam
    sin, cos = np.arange(1, n + 1), np.arange(n + 1, 2 * n + 1)
    mat[0, sin] = mat[sin, 0] = math.sqrt(2.0) * c
    mat[sin, cos] = mat[cos, sin] = -c
    return mat


def test_mu_block_shape_and_symmetry():
    op = build_mu_block(1.0, 0.5, 10)
    assert (op.nu, op.lam, op.cutoff) == (1.0, 0.5, 10)
    np.testing.assert_array_equal(op.couplings, 1.0 / (np.arange(1, 11) * math.pi))
    assert not op.couplings.flags.writeable
    mat = dense_block(op)
    assert mat.shape == (21, 21)
    assert np.abs(mat - mat.T).max() == 0.0


def test_mu_block_top_eigenvalue_approaches_closed_form():
    target = mu(2.0, 1.0, 0)
    ev = build_mu_block(2.0, 1.0, 100).eigenvalues()
    best = min(abs(e - target) for e in ev)
    assert best <= 1e-2 * abs(target)


def test_mu_block_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_mu_block(-1.0, 0.0, 10)
    with pytest.raises(DomainError):
        build_mu_block(1.0, 0.0, 0)


def test_harmonic_block_is_exact():
    for nu, n in [(1.0, 1), (2.0, 3), (math.pi, 2)]:
        ev = sorted(build_harmonic_block(nu, n).eigenvalues())
        c = nu / (n * math.pi)
        np.testing.assert_allclose(ev, [-c, c], atol=1e-12)


def test_harmonic_block_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_harmonic_block(1.0, 0)
    with pytest.raises(DomainError):
        build_harmonic_block(0.0, 1)


def test_truncated_operator_validates_input():
    for lam in (0.0, None):
        with pytest.raises(DimensionError, match="cutoff of at least 1, got 0"):
            TruncatedOperator(1.0, lam, 0)
        with pytest.raises(DomainError, match="must be finite"):
            TruncatedOperator(math.nan, lam, 1)
    with pytest.raises(DomainError, match="must be finite"):
        TruncatedOperator(1.0, math.inf, 1)


def test_a_block_is_its_frequency_head_and_cutoff():
    assert [f.name for f in dataclasses.fields(TruncatedOperator)] == [
        "nu", "lam", "cutoff", "couplings"
    ]
    pair = build_harmonic_block(2.0, 3)
    assert (pair.nu, pair.lam, pair.cutoff) == (2.0, None, 3)
    np.testing.assert_array_equal(pair.couplings, [2.0 / (3 * math.pi)])
    assert not pair.couplings.flags.writeable
    # the labels are built only when read, one per row of the block
    assert pair.labels == (FourierBasisLabel("k_nu_sin", 0, 2.0, PERP_LABEL, 3),
                           FourierBasisLabel("m_nu_cos", 0, 2.0, PERP_LABEL, 3))
    labels = build_mu_block(1.3, -0.4, 5).labels
    assert labels[0] == FourierBasisLabel("m_nu_const", 0, 1.3, -0.4)
    assert [(lb.kind, lb.mode) for lb in labels[1:]] == [
        (kind, n) for kind in ("k_nu_sin", "m_nu_cos") for n in range(1, 6)
    ]
    assert {(lb.nu, lb.lam) for lb in labels} == {(1.3, -0.4)}


def test_mu_block_builds_only_its_numbers():
    tracemalloc.start()
    try:
        build_mu_block(1.0, 0.3, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("cutoff", [1, 2, 50, 400, 1000])
@pytest.mark.parametrize("lam", [0.7, 0.0, -2.3])
def test_secular_roots_match_the_dense_reference(cutoff, lam):
    op = build_mu_block(1.9, lam, cutoff)
    ref = np.linalg.eigvalsh(dense_block(op))
    got = op.eigenvalues()
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("lam", [0.5, -3.0, 1e-9, 0.0])
def test_each_secular_root_is_accurate_to_its_own_size(lam):
    # In exact rational arithmetic, f(x) = lambda - x - sum 2 x c^2/(c^2 - x^2)
    # falls through 0 within 4 eps of every computed root, the smallest ones
    # too: a dense solve is only accurate to eps times the largest.
    op = build_mu_block(1.3, lam, 20)
    head, cs = Fraction(op.lam), [Fraction(c) for c in op.couplings]

    def f(x):
        return head - x - sum(2 * x * c * c / (c * c - x * x) for c in cs)

    for x in map(Fraction, op.eigenvalues()):
        lo, hi = sorted((x * (1 - Fraction(1, 2**50)), x * (1 + Fraction(1, 2**50))))
        assert f(lo) >= 0 >= f(hi), float(x)


@pytest.mark.parametrize("lam", [0.0, -0.0])
@pytest.mark.parametrize("cutoff", [1, 50, 1000])
def test_a_zero_head_gives_the_root_plus_zero(cutoff, lam):
    # f(0) = lambda = 0 exactly: the middle bracket ends at its first midpoint
    middle = build_mu_block(1.9, lam, cutoff).eigenvalues()[cutoff]
    assert middle == 0.0 and math.copysign(1.0, middle) == 1.0


@pytest.mark.parametrize("exp", [-1000, -3, 5, 1000])
def test_secular_roots_scale_exactly_by_a_power_of_two(exp):
    # the roots are solved at unit scale, so scaling nu and lambda by 2^exp
    # scales every root by exactly 2^exp
    base = build_mu_block(1.5, -0.8, 60)
    scaled = build_mu_block(math.ldexp(1.5, exp), math.ldexp(-0.8, exp), 60)
    assert np.array_equal(scaled.eigenvalues(), np.ldexp(base.eigenvalues(), exp))
    assert np.array_equal(scaled.eigenvalues(9), np.ldexp(base.eigenvalues(9), exp))


def test_mu_block_residual_decreases_with_cutoff():
    r50 = mu_block_residual(build_mu_block(1.0, 0.5, 50), 0)
    r200 = mu_block_residual(build_mu_block(1.0, 0.5, 200), 0)
    assert r200 < r50
    assert r200 <= 1e-2


def test_mu_block_residual_applies_the_dense_block():
    nu, lam, cutoff = 1.3, -0.6, 80
    op = build_mu_block(nu, lam, cutoff)
    for m in (-2, 0, 3):
        c, a, b = mu_eigenfunction_coeffs(nu, lam, m, cutoff)
        v = np.concatenate(([c], a / math.sqrt(2.0), b / math.sqrt(2.0)))
        want = np.linalg.norm(dense_block(op) @ v - mu(nu, lam, m) * v) / np.linalg.norm(v)
        assert mu_block_residual(op, m) == pytest.approx(want, rel=1e-9)


def test_mu_block_residual_refuses_a_harmonic_block():
    with pytest.raises(DomainError, match="needs a mu block, got harmonic n=1"):
        mu_block_residual(build_harmonic_block(1.0, 1), 0)


# ----------------------------------------------------------- window matching


def test_compare_spectra_passes_on_consistent_data():
    rep = compare_spectra(build_mu_block(1.0, 0.5, 200), 1, 1e-10, 1e-2)
    assert rep.passed
    rep = compare_spectra(build_harmonic_block(1.0, 1), 1, 1e-10, 1e-2)
    assert rep.passed


@dataclasses.dataclass(frozen=True)
class Relabeled(TruncatedOperator):
    """A block that names the family of its (nu, lam, cutoff) but has the
    eigenvalues of the block ``actual``, as a wrong block would."""

    actual: TruncatedOperator | None = None

    def eigenvalues(self, count=None):
        return self.actual.eigenvalues(count)


def test_compare_spectra_detects_wrong_lambda():
    # A lambda=0.5 block under the name lambda=0.9: the name fixes the
    # predicted family, but the computed eigenvalues belong to another block.
    rep = compare_spectra(Relabeled(1.0, 0.9, 200, build_mu_block(1.0, 0.5, 200)), 1, 1e-10, 1e-3)
    assert not rep.passed


def test_compare_spectra_predicts_the_family_its_labels_name():
    nu, lam = 1.3, -0.4
    rep = compare_spectra(build_mu_block(nu, lam, 100), 2, 1e-10, 1e-2)
    assert rep.block == "mu nu=1.3 lambda=-0.4"
    assert sorted(e.predicted for e in rep.entries) == sorted(mu(nu, lam, m) for m in range(-2, 3))
    rep = compare_spectra(build_harmonic_block(nu, 3), 2, 1e-10, 1e-2)
    assert rep.block == "harmonic nu=1.3 n=3"
    assert [e.predicted for e in rep.entries] == [nu / (3 * math.pi), nu / (-3 * math.pi)]
    for m_max in (-1, 1001):
        with pytest.raises(DomainError, match="m_max must be between 0 and 1000"):
            compare_spectra(build_harmonic_block(nu, 3), m_max, 1e-10, 1e-2)


class DenseReference(Relabeled):
    """Reference block: every eigenvalue from the dense solve of ``actual``'s
    ``dense_block``, whatever count is asked for, so compare_spectra
    matches over the whole spectrum."""

    def eigenvalues(self, count=None):
        return np.linalg.eigvalsh(dense_block(self.actual))


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(0.0, math.pi, exclude_min=True, allow_subnormal=False),
    lam=st.floats(-2.0, 2.0),
    cutoff=st.integers(1, 300),
    m_max=st.integers(0, 40),
    scale=st.sampled_from([1.0, 0.25, 4.0]),
)
@example(nu=1.0, lam=0.0, cutoff=300, m_max=40, scale=1.0)
@example(nu=1.0, lam=0.0, cutoff=300, m_max=40, scale=4.0)
def test_top_of_spectrum_matches_dense_reference(nu, lam, cutoff, m_max, scale):
    # scale != 1 puts the block of another frequency under this one's name,
    # so the targets fall among eigenvalues the first top-of-spectrum solve
    # leaves out and the certificate has to ask for more.
    actual = build_mu_block(scale * nu, lam, cutoff)
    op = Relabeled(nu, lam, cutoff, actual)
    window = (m_max, 1e-10, 1e-2)
    try:
        ref = compare_spectra(DenseReference(nu, lam, cutoff, actual), *window)
    except DomainError:  # mu() has no value once nu/lambda rounds to 0
        with pytest.raises(DomainError):
            compare_spectra(op, *window)
        return
    got = compare_spectra(op, *window)
    assert [(e.descriptor, e.predicted) for e in got.entries] == [
        (e.descriptor, e.predicted) for e in ref.entries
    ]
    # The dense solve is accurate to about eps times the largest magnitude,
    # so it judges only the targets above a thousandth of it; the secular
    # roots below that are checked to their own size on their own.
    top = np.abs(op.eigenvalues(1)).max()
    resolved = [i for i, e in enumerate(ref.entries) if abs(e.predicted) >= 1e-3 * top]
    if len(resolved) == len(ref.entries):
        assert got.passed == ref.passed
    assert [got.entries[i].ok for i in resolved] == [ref.entries[i].ok for i in resolved]
    np.testing.assert_allclose(
        [got.entries[i].computed for i in resolved], [ref.entries[i].computed for i in resolved],
        rtol=0.0, atol=1e-14 * top, equal_nan=True,
    )


def test_benchmark_counter_reads_the_block_size():
    # perfbench/spans.py counts the rows of each compared block by its labels
    spec = importlib.util.spec_from_file_location(
        "spans", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        oracle.compare_spectra(oracle.build_mu_block(1.0, 0.5, 40), 2, 1e-10, 1e-2)
        mu_rows = tracer.counts["oracle.eig_computed"]
        oracle.compare_spectra(oracle.build_harmonic_block(1.0, 3), 2, 1e-10, 1e-2)
    finally:
        tracer.uninstall()
    assert (mu_rows, tracer.counts["oracle.eig_computed"]) == (81, 83)


def test_certificate_asks_for_more_only_when_needed(monkeypatch):
    calls = []
    solve = TruncatedOperator.eigenvalues

    def spy(self, count=None):
        vals = solve(self, count)
        calls.append((count, len(vals)))
        return vals

    monkeypatch.setattr(TruncatedOperator, "eigenvalues", spy)
    window = (2, 1e-10, 1e-2)
    honest = build_mu_block(1.0, 0.5, 400)
    assert compare_spectra(honest, *window).passed
    assert calls == [(7, 7)]
    # a block of frequency 4 under this name: the targets sit inside its
    # spectrum, below the seven largest magnitudes
    calls.clear()
    impostor = Relabeled(1.0, 0.5, 400, build_mu_block(4.0, 0.5, 400))
    assert not compare_spectra(impostor, *window).passed
    assert calls[0] == (7, 7) and len(calls) > 1
    assert all(b == 2 * a for (a, _), (b, _) in zip(calls, calls[1:]))


def test_top_of_spectrum_is_repeatable():
    op = build_mu_block(2.9, -1.3, 800)
    first = op.eigenvalues(7)
    assert first.shape == (7,)
    for _ in range(3):
        assert np.array_equal(op.eigenvalues(7), first)


def test_top_count_equals_the_dense_top_count():
    op = build_mu_block(1.0, 0.5, 50)  # size 101
    dense = np.linalg.eigvalsh(dense_block(op))
    by_magnitude = dense[np.argsort(-np.abs(dense))]
    for count in range(1, 104):
        top = op.eigenvalues(count)
        assert top.shape == (min(count, 101),)
        np.testing.assert_allclose(top, np.sort(by_magnitude[:count]), rtol=0.0, atol=1e-15)


def test_match_multisets_accounts_for_every_value():
    rep = match_multisets(np.array([0.0, 1.0, 1.0]), [(0.0, 1), (1.0, 2)], 1e-12)
    assert rep.passed
    rep = match_multisets(np.array([0.0, 1.0]), [(0.0, 1), (2.0, 1)], 1e-6)
    assert not rep.passed
    doc = json.loads(canonical_json(rep))
    assert doc["passed"] is False


# -------------------------------------------------------------- geometries


def test_sphere_geometry_matches_requested_table():
    rng = np.random.default_rng(0)
    geo = sphere_geometry(5, [(0.7, 1), (-0.3, 2)], rng)
    data = geo.spectral_data()
    nu = data.freq_mult[0][0]
    assert nu == pytest.approx(geo.cd.algebra.norm(geo.xi))
    assert dict((lam, m) for _, lam, m in data.mult) == {0.7: 1, -0.3: 2}
    assert data.dim_m0 == 1  # the normal direction xi itself


def test_sphere_geometry_rejects_overfull_tangent():
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError, match="exceeds"):
        sphere_geometry(4, [(0.5, 4)], rng)


def test_split_geometry_populates_kernel_blocks():
    rng = np.random.default_rng(2)
    geo = split_geometry(3, 3, rng, tangent0_lams=[0.4], block_lams=[0.9])
    data = geo.spectral_data()
    assert (0.4, 1) in data.mult0
    assert data.dim_m0 == 3  # rank of the split pair
    kinds = {lb.kind for lb in geo.fourier_labels(1)}
    assert "m_const" in kinds and "m_cos" in kinds


def test_builder_puts_several_directions_into_one_block():
    # split_pair(2, 4) has two frequency blocks of multiplicity 2 (the short
    # restricted roots) and a two-dimensional kernel m_0.
    rng = np.random.default_rng(13)
    cd = split_pair(2, 4)
    probe = paired_bases(cd, random_m_direction(cd, np.random.default_rng(13)))
    wide = next(i for i, b in enumerate(probe.blocks) if b.mult == 2)
    block_lams = [[] for _ in range(wide)] + [[(0.6, 2)]]
    geo = oracle._adapted_geometry(cd, rng, [-0.4], block_lams)
    nu = geo.ad.blocks[wide].nu
    assert nu == probe.blocks[wide].nu  # the same draw of xi
    data = geo.spectral_data()
    assert data.mult == ((nu, 0.6, 2),)
    assert data.mult0 == ((-0.4, 1),)
    assert (nu, 0) in data.perp and (0.0, 1) in data.perp
    assert [(n, lam, len(ys)) for n, lam, ys in geo.tangent] == [(0.0, -0.4, 1), (nu, 0.6, 2)]
    rep = finite_group_oracle(geo, tol=1e-8)
    assert rep.passed, rep.detail
    matched = {(m.predicted, m.mult) for m in rep.matches}
    assert {(kp, 2) for kp in kappa(nu, 0.6)} <= matched
    alg = geo.cd.algebra
    for label in geo.fourier_labels(2):
        path = label_decomposed_path(geo, label, COARSE_GRID)
        resid = grid_l2_norm(shape_apply_raw(geo, path)
                             - label_closed_form(geo, label, COARSE_GRID), alg)
        assert resid <= COARSE_TOL, label.describe()


def test_builder_refuses_more_directions_than_a_block_has():
    cd = split_pair(2, 4)
    # the kernel block: m_0 orthogonal to xi
    with pytest.raises(DomainError, match="dimension 2 exceeds the dimension 1 of block nu=0"):
        oracle._adapted_geometry(cd, np.random.default_rng(0), [0.1, 0.2], [])
    with pytest.raises(DomainError, match="only 4 frequency blocks"):
        oracle._adapted_geometry(cd, np.random.default_rng(0), [], [[]] * 5)
    # no frequency block of split_pair(2, 4) has more than two directions
    with pytest.raises(DomainError, match="tangent dimension 3 exceeds the dimension"):
        oracle._adapted_geometry(cd, np.random.default_rng(0), [], [[(0.5, 3)]])


def test_labels_cover_both_normal_modes():
    rng = np.random.default_rng(3)
    geo = split_geometry(3, 3, rng, tangent0_lams=[0.4], block_lams=[0.9])
    modes = {lb.lam == PERP_LABEL for lb in geo.fourier_labels(1) if lb.kind == "m_cos"}
    assert modes == {True, False}


def test_label_count_is_the_closed_form_the_forms_limit_uses():
    # `oracle --mode forms` counts its work from this count before it
    # builds any label: n_max per algebra direction, one per tangent one.
    rng = np.random.default_rng(5)
    geos = [sphere_geometry(5, [(0.4, 2), (-1.0, 1)], rng),
            split_geometry(3, 4, rng, tangent0_lams=[0.5, -0.2], block_lams=[0.3, 0.7])]
    for geo in geos:
        for n_max in (0, 1, 3):
            labels = geo.fourier_labels(n_max)
            assert len(labels) == n_max * geo.cd.algebra.dim + geo.tangent_space.dim


def test_constant_labels_cover_each_tangent_direction_once():
    # The constant labels realise the tangent frame row by row, a repeated
    # (nu, lambda) entry included.
    rng = np.random.default_rng(9)
    geos = [sphere_geometry(5, [(0.4, 2), (-1.0, 1)], rng),
            split_geometry(3, 4, rng, tangent0_lams=[0.5, -0.2], block_lams=[0.3, 0.7]),
            sphere_geometry(5, [(0.5, 1), (0.5, 1)], rng)]
    for geo in geos:
        frame = np.concatenate([ys for _, _, ys in geo.tangent])
        ys = [label_decomposed_path(geo, lb, 3).y for lb in geo.fourier_labels(0)]
        assert np.array_equal(np.array(ys), frame)


def test_labels_come_in_basis_order():
    # The forms report lists its labels in this order.
    rng = np.random.default_rng(2)
    geo = split_geometry(3, 3, rng, tangent0_lams=[0.4], block_lams=[0.9])
    got = [(lb.kind, lb.index, lb.mode, lb.lam == PERP_LABEL) for lb in geo.fourier_labels(1)]
    perp_pair = [("k_nu_sin", 0, 1, True), ("m_nu_cos", 0, 1, True)]
    assert got == [
        ("m_const", 0, None, False), ("m_cos", 0, 1, False),
        ("m_cos", 1, 1, True), ("m_cos", 2, 1, True),
        ("m_nu_const", 0, None, False), ("k_nu_sin", 0, 1, False), ("m_nu_cos", 0, 1, False),
        *perp_pair * 5,
    ]


def test_tangent_projection_rejects_normal_vectors():
    rng = np.random.default_rng(4)
    geo = sphere_geometry(4, [(0.5, 1)], rng)
    with pytest.raises(DomainError, match="not tangent"):
        geo.base_shape_apply(geo.xi)


# ---------------------------------------------------- raw-formula equivalence


def test_raw_and_closed_forms_agree_on_a_coarse_grid():
    rng = np.random.default_rng(5)
    geo = sphere_geometry(4, [(0.7, 1)], rng)
    for label in geo.fourier_labels(2):
        path = label_decomposed_path(geo, label, COARSE_GRID)
        raw = shape_apply_raw(geo, path)
        closed = label_closed_form(geo, label, COARSE_GRID)
        resid = grid_l2_norm(raw - closed, geo.cd.algebra)
        assert resid <= COARSE_TOL, label.describe()


def forms_geometries():
    rng = np.random.default_rng(11)
    return [sphere_geometry(5, [(0.4, 2), (-1.0, 1)], rng),
            split_geometry(3, 4, rng, tangent0_lams=[0.5, -0.2], block_lams=[0.3, 0.7])]


def test_buffered_forms_calls_equal_the_allocating_ones():
    # Buffers start as NaN, so every entry must be written.
    for geo in forms_geometries():
        labels = geo.fourier_labels(2)
        kinds = {(lb.profile, lb.mode, lb.lam == PERP_LABEL) for lb in labels}
        for profile in ("sin", "cos"):
            assert {(profile, n, perp) for n in (1, 2) for perp in (False, True)} <= kinds
        assert ("const", None, False) in kinds
        for label in labels:
            check_buffered_label(geo, label, 65)


def check_buffered_label(geo, label, grid):
    q, raw, closed = np.full((3, grid, geo.cd.algebra.dim), np.nan)
    path = label_decomposed_path(geo, label, grid, out=q)
    fresh = label_decomposed_path(geo, label, grid)
    assert path.q is q
    for got, want in zip((path.q, path.x, path.y), (fresh.q, fresh.x, fresh.y)):
        np.testing.assert_array_equal(got, want)
    assert shape_apply_raw(geo, path, out=raw) is raw
    np.testing.assert_array_equal(raw, shape_apply_raw(geo, fresh))
    assert label_closed_form(geo, label, grid, out=closed) is closed
    np.testing.assert_array_equal(closed, label_closed_form(geo, label, grid))


def test_one_buffer_set_serves_a_whole_sweep():
    # The forms check reuses its buffers and its TimeGrid from label to label.
    geo = forms_geometries()[1]
    alg, grid = geo.cd.algebra, 129
    times = TimeGrid(grid)
    labels = geo.fourier_labels(2)
    q, raw, closed = np.empty((3, grid, alg.dim))
    reused = []
    for label in labels:
        path = label_decomposed_path(geo, label, times, out=q)
        shape_apply_raw(geo, path, out=raw)
        label_closed_form(geo, label, times, out=closed)
        reused.append(grid_l2_norm(np.subtract(raw, closed, out=raw), alg, times))
    fresh = [
        grid_l2_norm(shape_apply_raw(geo, label_decomposed_path(geo, lb, grid))
                     - label_closed_form(geo, lb, grid), alg)
        for lb in labels
    ]
    assert reused == fresh


def test_decomposed_primitive_vanishes_at_endpoints():
    rng = np.random.default_rng(6)
    geo = sphere_geometry(4, [(0.7, 1)], rng)
    for label in geo.fourier_labels(2):
        path = label_decomposed_path(geo, label, 65)
        assert np.abs(path.q[0]).max() <= 1e-12
        assert np.abs(path.q[-1]).max() <= 1e-12


def test_shape_apply_raw_rejects_bad_decompositions():
    rng = np.random.default_rng(7)
    geo = sphere_geometry(4, [(0.7, 1)], rng)
    label = geo.fourier_labels(1)[0]
    path = label_decomposed_path(geo, label, 65)
    bad_q = path.q.copy()
    bad_q[0] += 1.0
    with pytest.raises(DomainError, match="vanish"):
        shape_apply_raw(geo, type(path)(bad_q, path.x, path.y))
    with pytest.raises(DomainError, match="lie in k"):
        shape_apply_raw(geo, type(path)(path.q, geo.xi, path.y))


def test_grid_l2_norm_of_plain_waves():
    rng = np.random.default_rng(8)
    geo = sphere_geometry(4, [(0.7, 1)], rng)
    alg = geo.cd.algebra
    t = np.linspace(0.0, 1.0, 2049)
    x = np.eye(alg.dim)[0]
    const = np.tile(x, (t.size, 1))
    assert grid_l2_norm(const, alg) == pytest.approx(1.0, abs=1e-12)
    wave = np.sin(np.pi * t)[:, None] * x[None, :]
    assert grid_l2_norm(wave, alg) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_time_grid_weights_waves_and_affine_stack():
    times = TimeGrid(65)
    t = np.linspace(0.0, 1.0, 65)
    f = np.exp(t) * np.cos(3.0 * t)
    assert times.w @ f == pytest.approx(np.trapezoid(f, t), rel=1e-15)
    np.testing.assert_array_equal(times.affine, np.stack([np.ones(65), t], axis=1))
    first = times.waves(2).copy()
    times.waves(3)
    for got in (first, times.waves(2)):  # rebuilt after another mode
        np.testing.assert_array_equal(got[:, :2], times.affine)
        np.testing.assert_allclose(got[:, 2:], np.stack([np.cos(2 * np.pi * t),
                                                         np.sin(2 * np.pi * t)], axis=1),
                                   rtol=0, atol=1e-15)
    with pytest.raises(DimensionError, match="at least 2 nodes"):
        TimeGrid(1)


def test_shape_apply_raw_on_a_non_separable_path_equals_the_formula_node_by_node():
    # Q is a sum of four sine profiles with unrelated directions, so no
    # row of it is a multiple of another; x is in k and y tangent.
    rng = np.random.default_rng(21)
    for geo in forms_geometries():
        alg, grid = geo.cd.algebra, 97
        t = np.linspace(0.0, 1.0, grid)
        q = sum(np.outer(np.sin(k * np.pi * t), rng.standard_normal(alg.dim))
                for k in range(1, 5))
        x = rng.standard_normal(geo.cd.k.dim) @ geo.cd.k.basis
        y = rng.standard_normal(geo.tangent_space.dim) @ geo.tangent_space.basis
        got = shape_apply_raw(geo, oracle.DecomposedPath(q, x, y))
        q_int = np.trapezoid(q, t, axis=0)
        bx, by = alg.bracket(geo.xi, x), alg.bracket(geo.xi, y)
        fixed = (-geo.perp_project(alg.bracket(geo.xi, q_int))
                 + 0.5 * geo.perp_project(bx) + geo.base_shape_apply(y))
        want = np.array([alg.bracket(geo.xi, q[i]) + fixed - t[i] * bx + (1.0 - t[i]) * by
                         for i in range(grid)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def _ad_matrix(alg, x):
    """Matrix of ad(x) on coordinate vectors: column b is [x, e_b]."""
    return alg.bracket(x, np.eye(alg.dim)).T


def _reference_forms_residuals(data, n_max, grid):
    """The forms check's per-label loop before the shared TimeGrid: each
    label builds its own linspace, outer products and trapezoid sums."""
    alg = data.cd.algebra
    t = np.linspace(0.0, 1.0, grid)
    admat = _ad_matrix(alg, data.xi)
    zero = np.zeros(alg.dim)

    def l2(values):
        return math.sqrt(np.trapezoid(alg.norm(values) ** 2, t))

    rows = []
    for label in data.fourier_labels(n_max):
        nu = label.nu or 0.0
        if label.profile == "const":
            q, x, y = np.zeros((grid, alg.dim)), zero, label.y
            closed = nu * np.outer(1.0 - t, label.x) + label.lam * label.y
        else:
            n = label.mode
            scale = math.sqrt(2.0) / (n * math.pi)
            coef = -nu / (n * math.pi) * math.sqrt(2.0)
            if label.profile == "sin":
                z1 = scale * ((-1.0) ** n - 1.0) * label.x
                q = scale * np.outer(np.cos(n * math.pi * t) - 1.0, label.x) - np.outer(t, z1)
                x, y = -z1, zero
                shift = 0.0 if label.lam == PERP_LABEL else 1.0
                closed = coef * np.outer(np.cos(n * math.pi * t) - shift, label.y)
            else:
                q = -scale * np.outer(np.sin(n * math.pi * t), label.y)
                x, y = zero, zero
                closed = coef * np.outer(np.sin(n * math.pi * t), label.x)
        bx, by = admat @ x, admat @ y
        raw = (q @ admat.T - data.perp_project(admat @ np.trapezoid(q, t, axis=0))
               + 0.5 * data.perp_project(bx) - np.outer(t, bx)
               + data.base_shape_apply(y) + np.outer(1.0 - t, by))
        rows.append((label.describe(), l2(raw - closed) / max(l2(closed), 1.0)))
    return rows


# The `oracle --mode forms` sizes (l, grid) of the lie-geometry benchmark.
@pytest.mark.parametrize("l, grid", [(4, 512), (4, 1024), (5, 512), (5, 1024), (6, 2048)])
def test_forms_check_matches_the_per_label_reference(capsys, l, grid):
    for seed in range(4):
        assert cli.main(["oracle", "--mode", "forms", "--l", str(l), "--grid", str(grid),
                         "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        rng = np.random.default_rng(seed)
        lam_mults = cli._random_lam_mults(rng, max_vals=2, max_mult=2, max_dims=l - 2)
        data = sphere_geometry(l, lam_mults, rng)
        want = _reference_forms_residuals(data, 3, grid + 1)
        assert [row["label"] for row in report["labels"]] == [d for d, _ in want]
        for row, (_, ref) in zip(report["labels"], want):
            assert abs(row["residual"] - ref) <= 1e-14, row["label"]
        assert report["worst_residual"] == max(row["residual"] for row in report["labels"])


def test_forms_check_memory_does_not_grow_with_the_label_count(capsys):
    # At --l 4 --grid 65536 one (nodes, dim) label array is 5.2 MB.  The
    # check holds a fixed set of them, whatever the number of labels.
    nodes, dim = 65537, 10
    peaks = []
    for n_max in (1, 3):
        tracemalloc.start()
        try:
            assert cli.main(["oracle", "--mode", "forms", "--l", "4", "--grid", "65536",
                             "--n-max", str(n_max)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert max(peaks) <= 6 * nodes * dim * 8
    assert peaks[1] <= peaks[0] + nodes * 8


def test_base_shape_apply_on_a_stack_equals_row_by_row_calls():
    rng = np.random.default_rng(6)
    geos = [sphere_geometry(6, [(0.4, 2), (-1.0, 2)], rng),
            split_geometry(3, 4, rng, tangent0_lams=[0.5, -0.2], block_lams=[0.3, 0.7])]
    for geo in geos:
        basis = geo.tangent_space.basis
        stack = np.vstack([basis, rng.standard_normal((4, len(basis))) @ basis])
        rows = np.array([geo.base_shape_apply(y) for y in stack])
        np.testing.assert_allclose(geo.base_shape_apply(stack), rows, rtol=0, atol=1e-15)
        with pytest.raises(DomainError, match="not tangent"):
            geo.base_shape_apply(np.vstack([stack, geo.xi]))


# ------------------------------------------------------------- group oracle


def _group_shape_matrix_by_rows(data):
    """group_shape_matrix as one bracket and one projection per basis row,
    with the base shape operator summed vector by vector."""
    alg = data.cd.algebra
    frames = [(lam, ys) for _, lam, ys in data.tangent]

    def base_shape(y):
        out = np.zeros(alg.dim)
        for lam, ys in frames:
            for e in ys:
                out += lam * alg.inner(e, y) * e
        return out

    k_rows, t_rows = data.cd.k.basis, data.tangent_space.basis
    basis = np.vstack([k_rows, t_rows]) if t_rows.size else k_rows
    admat = _ad_matrix(alg, data.xi)
    images = []
    for i, row in enumerate(basis):
        br = admat @ row
        if i < len(k_rows):
            images.append(-0.5 * data.tangent_space.project_coords(br))
        else:
            images.append(base_shape(row) + 0.5 * data.cd.k.project_coords(br))
    mat = alg.inner(basis, np.array(images))
    return 0.5 * (mat + mat.T)


def test_group_shape_matrix_equals_the_per_row_loop():
    rng = np.random.default_rng(12)
    geos = [sphere_geometry(5, [(0.6, 1), (-0.8, 2)], rng),
            sphere_geometry(4, [], rng),
            split_geometry(2, 3, rng, tangent0_lams=[0.3], block_lams=[-0.7]),
            split_geometry(3, 4, rng, tangent0_lams=[0.5, -0.2], block_lams=[0.3, 0.7])]
    for geo in geos:
        np.testing.assert_allclose(group_shape_matrix(geo), _group_shape_matrix_by_rows(geo),
                                   rtol=0, atol=1e-14)


def test_group_shape_matrix_is_symmetric():
    rng = np.random.default_rng(9)
    geo = sphere_geometry(5, [(0.6, 2)], rng)
    mat = group_shape_matrix(geo)
    assert np.abs(mat - mat.T).max() <= 1e-12


def test_finite_group_oracle_passes_on_both_geometries():
    rng = np.random.default_rng(10)
    sphere = sphere_geometry(5, [(0.6, 1), (-0.8, 1)], rng)
    split = split_geometry(2, 3, rng, tangent0_lams=[0.3], block_lams=[-0.7])
    for geo in (sphere, split):
        rep = finite_group_oracle(geo, tol=1e-8)
        assert rep.passed
        canonical_json(rep)  # report must serialize cleanly
