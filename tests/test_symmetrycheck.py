"""Austerity, aridity, and chamber-strata checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfspectra import (
    BUILTIN_ROOT_SYSTEMS,
    DimensionError,
    DomainError,
    EigenMultiset,
    SubmanifoldSpectralData,
    arid_orbit_candidate_check,
    assemble_pf_spectrum,
    austere_check_enumerated,
    austere_check_finite,
    austere_check_pf,
    build_so,
    isolated_directions,
    product_sphere_austere,
    product_sphere_shape,
    sample_product_normals,
    so9_arid_verify,
    so9_build,
    so9_conjugation_matrix,
    so9_normal_matrix,
    so9_swap_matrix,
    stratum_membership,
    subspace_preserved,
    weyl_strata,
)
from pfspectra.symmetrycheck import CLUSTER_TOL

FD_EIGEN_TOL = 1e-5
PRESERVE_TOL = 1e-9

# Frozen action of the three block swaps on the normal-plane coefficients
# (x, y), verified by direct conjugation of the block pattern.
SWAP_ACTIONS = {
    (1, 2): np.array([[-1.0, 0.0], [0.0, 1.0]]),
    (1, 3): np.array([[0.5, -0.5], [-1.5, -0.5]]),
    (2, 3): np.array([[0.5, 0.5], [1.5, -0.5]]),
}


# -------------------------------------------------------------- multisets


def simple(values):
    """Multiset of values that each have multiplicity one."""
    return EigenMultiset.from_pairs([(v, 1) for v in values])


def test_multiset_clusters_nearby_values():
    ms = simple([1.0, 1.0 + 1e-12, -2.0, -2.0, 0.5])
    assert sum(m for _, m in ms.entries) == 5
    assert len(ms.entries) == 3
    counts = dict(ms.entries)
    assert counts[next(v for v in counts if abs(v - 1.0) < 1e-9)] == 2
    # A value joins its cluster while within tol * max(1, |head|) of the
    # cluster's smallest value: absolute below 1, relative above.
    tol = CLUSTER_TOL
    for head in (0.5, -0.5, 1000.0, -1000.0 - 0.9e-6):
        step = tol * max(1.0, abs(head))
        assert len(simple([head, head + 0.9 * step]).entries) == 1
        assert len(simple([head, head + 1.1 * step]).entries) == 2
    # The head stays fixed: a chain of small steps still splits.
    chain = simple([0.0, 0.6 * tol, 1.2 * tol])
    assert [m for _, m in chain.entries] == [2, 1]


def test_multiset_keeps_exact_values_and_weights_means():
    # Singletons and groups of equal values keep their value bit for bit,
    # whatever the multiplicities; the summed multiplicity is never expanded.
    third = 1.0 / 3.0
    ms = EigenMultiset.from_pairs([(third, 7), (-0.1, 1), (third, 10**12), (2.0 / 3.0, 3)])
    assert ms.entries == ((-0.1, 1), (third, 10**12 + 7), (2.0 / 3.0, 3))
    # A group of distinct values takes the multiplicity-weighted mean; with
    # multiplicity one that is the plain mean.
    tol = CLUSTER_TOL
    (value, mult), = EigenMultiset.from_pairs([(0.5, 3), (0.5 + 0.4 * tol, 1)]).entries
    assert mult == 4 and value == pytest.approx(0.5 + 0.1 * tol, abs=1e-18)
    values = [0.25, 0.25 + 0.3 * tol, 0.25 + 0.7 * tol]
    assert simple(values).entries == ((float(np.mean(values)), 3),)


def test_multiset_rejects_bad_multiplicity():
    with pytest.raises(DomainError):
        EigenMultiset.from_pairs([(1.0, 0)])


def mirror_reference(ms, tol):
    """Brute force: the sorted expanded values against the sorted negated values."""
    values = np.sort(np.repeat([v for v, _ in ms.entries], [m for _, m in ms.entries]))
    return bool(np.all(np.abs(values - np.sort(-values)) <= tol))


# (lattice index, multiplicity, perturbation in units of tol): lattice points
# 1/4 apart keep distinct entries far outside the tolerance.
LATTICE_PAIRS = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 3), st.floats(-0.25, 0.25)), max_size=8
)


@given(LATTICE_PAIRS, st.booleans(), LATTICE_PAIRS.map(lambda p: p[:2]))
@settings(max_examples=300, deadline=None)
def test_mirror_check_matches_brute_force(half, mirrored, extra):
    tol = CLUSTER_TOL
    pairs = [(k / 4 + e * tol, m) for k, m, e in half + extra]
    if mirrored:
        pairs += [(-k / 4 + e * tol, m) for k, m, e in half]
    ms = EigenMultiset.from_pairs(pairs)
    assert austere_check_finite(ms) == mirror_reference(ms, tol)


def test_finite_negation_invariance():
    assert austere_check_finite(EigenMultiset.from_pairs([(1.0, 2), (-1.0, 2)]))
    assert austere_check_finite(EigenMultiset.from_pairs([(0.0, 3)]))
    assert not austere_check_finite(EigenMultiset.from_pairs([(1.0, 2), (-1.0, 1)]))
    assert not austere_check_finite(EigenMultiset.from_pairs([(0.7, 1)]))


# ------------------------------------------------------------ family rules


def symmetric_data():
    return SubmanifoldSpectralData.sphere_like(1.3, [(0.8, 2), (-0.8, 2)], 2, 1)


def asymmetric_data():
    return SubmanifoldSpectralData.sphere_like(1.3, [(0.8, 2), (-0.8, 1)], 2, 1)


def test_family_rule_matches_symmetry_of_the_lambdas():
    assert austere_check_pf(assemble_pf_spectrum(symmetric_data()))
    assert not austere_check_pf(assemble_pf_spectrum(asymmetric_data()))


def test_family_rule_accepts_self_paired_zero_lambda():
    data = SubmanifoldSpectralData.sphere_like(2.0, [(0.0, 3)], 2, 0)
    assert austere_check_pf(assemble_pf_spectrum(data))


def test_enumerated_rule_agrees_with_family_rule():
    for data in (symmetric_data(), asymmetric_data()):
        spec = assemble_pf_spectrum(data)
        assert austere_check_enumerated(spec, 0.05) == austere_check_pf(spec)


def test_enumerated_rule_handles_zero_lambda_families():
    data = SubmanifoldSpectralData.sphere_like(2.0, [(0.0, 3)], 2, 0)
    assert austere_check_enumerated(assemble_pf_spectrum(data), 0.05)


# --------------------------------------------------------- product spheres


def test_product_sphere_normals_validate():
    with pytest.raises(DomainError, match="sum to zero"):
        product_sphere_shape(2, 2, [1.0, 1.0])
    with pytest.raises(DomainError, match="zero"):
        product_sphere_shape(2, 2, [0.0, 0.0])
    with pytest.raises(DimensionError):
        product_sphere_shape(1, 2, [0.0])
    with pytest.raises(DimensionError):
        product_sphere_shape(2, 2, [1.0, -0.5, -0.5])


def test_product_sphere_shape_eigenvalues():
    # Second-fundamental form along a = (1,-1)/sqrt(2): one curvature -a_i
    # per factor, each with multiplicity n-1 = 2.
    mat = product_sphere_shape(2, 3, [1.0, -1.0])
    w = np.sort(np.linalg.eigvalsh(mat))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(w, [-r, -r, r, r], atol=FD_EIGEN_TOL)


def test_product_sphere_shape_respects_base_point():
    base = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    mat = product_sphere_shape(2, 3, [1.0, -1.0], base_point=base)
    w = np.sort(np.linalg.eigvalsh(mat))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(w, [-r, -r, r, r], atol=FD_EIGEN_TOL)
    with pytest.raises(DomainError, match="unit"):
        product_sphere_shape(2, 3, [1.0, -1.0], base_point=[[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])


def test_sampled_normals_live_on_the_trace_free_sphere():
    rng = np.random.default_rng(0)
    normals = sample_product_normals(3, 8, rng)
    assert len(normals) == 8
    for a in normals:
        assert abs(np.sum(a)) <= 1e-10
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_two_factors_austere_three_factors_not():
    ok2, _ = product_sphere_austere(2, 2, samples=8, rng=np.random.default_rng(1))
    ok3, details3 = product_sphere_austere(3, 2, samples=8, rng=np.random.default_rng(2))
    assert ok2
    assert not ok3
    assert any(not d["austere"] for d in details3)


# ------------------------------------------------------------- weyl strata


@pytest.mark.parametrize("name", sorted(BUILTIN_ROOT_SYSTEMS))
def test_strata_counts_and_dimensions(name):
    roots = BUILTIN_ROOT_SYSTEMS[name]
    strata = weyl_strata(roots)
    assert len(strata) == 4  # 2^rank
    dims = sorted(s.dim for s in strata)
    assert dims == [0, 1, 1, 2]
    for s in strata:
        assert s.dim == len(s.active)
        assert stratum_membership(roots, s.representative, s.active)


@pytest.mark.parametrize("name", sorted(BUILTIN_ROOT_SYSTEMS))
def test_exactly_rank_isolated_directions(name):
    roots = BUILTIN_ROOT_SYSTEMS[name]
    iso = isolated_directions(roots)
    assert len(iso) == 2
    one_dim = [s for s in weyl_strata(roots) if s.dim == 1]
    for v in iso:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert any(stratum_membership(roots, v, s.active) for s in one_dim)


def test_b2_representatives_are_the_dual_basis():
    strata = {s.active: s for s in weyl_strata(BUILTIN_ROOT_SYSTEMS["B2"])}
    np.testing.assert_allclose(strata[(0,)].representative, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(strata[(1,)].representative, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(strata[(0, 1)].representative, [2.0, 1.0], atol=1e-12)


def test_membership_rejects_wrong_walls():
    roots = BUILTIN_ROOT_SYSTEMS["A2"]
    strata = {s.active: s for s in weyl_strata(roots)}
    w = strata[(0,)].representative
    assert not stratum_membership(roots, w, (1,))
    assert not stratum_membership(roots, w, (0, 1))


def test_weyl_strata_validate_input():
    with pytest.raises(DimensionError):
        weyl_strata([1.0, 0.0])
    with pytest.raises(DomainError):
        weyl_strata([[1.0, 0.0], [2.0, 0.0]])


# ------------------------------------------------------------ so(9) orbit


class TestSO9:
    def setup_method(self):
        self.ex = so9_build()
        self.alg = build_so(9)

    def test_conjugation_is_orthogonal(self):
        q = so9_conjugation_matrix()
        np.testing.assert_allclose(q @ q.T, np.eye(9), atol=1e-12)

    def test_tangent_and_normal_dimensions(self):
        assert self.ex.h_basis.shape == (34, self.alg.dim)
        assert self.ex.normal_basis.shape == (2, self.alg.dim)

    def test_normal_plane_matches_the_block_pattern(self):
        from pfspectra import Subspace

        normal = Subspace(self.alg, self.ex.normal_basis)
        for x, y in [(1.0, 0.0), (0.0, 1.0), (0.3, -0.9)]:
            vec = self.alg.from_matrix(so9_normal_matrix(x, y))
            resid = vec - normal.project_coords(vec)
            assert self.alg.norm(resid) <= PRESERVE_TOL * max(1.0, self.alg.norm(vec))

    def test_swaps_preserve_tangent_space(self):
        for swap in self.ex.swaps:
            resid = subspace_preserved(self.alg, self.ex.h_basis, swap)
            assert resid <= PRESERVE_TOL

    @pytest.mark.parametrize("ij", sorted(SWAP_ACTIONS))
    def test_swap_action_on_normal_coefficients(self, ij):
        action = SWAP_ACTIONS[ij]
        swap = so9_swap_matrix(*ij)
        for xy in [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.4, 0.7])]:
            moved = swap @ so9_normal_matrix(*xy) @ swap.T
            expected = so9_normal_matrix(*(action @ xy))
            np.testing.assert_allclose(moved, expected, atol=1e-12)

    def test_swap_matrix_rejects_bad_blocks(self):
        with pytest.raises(DomainError):
            so9_swap_matrix(2, 2)
        with pytest.raises(DomainError):
            so9_swap_matrix(0, 3)

    def test_candidate_check_finds_a_moving_swap(self):
        xi = self.alg.from_matrix(so9_normal_matrix(1.0, 0.3))
        residuals = [subspace_preserved(self.alg, self.ex.h_basis, s) for s in self.ex.swaps]
        idx = arid_orbit_candidate_check(self.alg, xi, self.ex.swaps, residuals)
        assert idx is not None

    def test_candidate_check_returns_none_without_movers(self):
        xi = self.alg.from_matrix(so9_normal_matrix(1.0, 0.3))
        residual = subspace_preserved(self.alg, self.ex.h_basis, np.eye(9))
        idx = arid_orbit_candidate_check(self.alg, xi, [np.eye(9)], [residual])
        assert idx is None

    def test_full_circle_verification(self):
        report = so9_arid_verify(grid_size=16)
        assert report["passed"]
        assert len(report["samples"]) == 16
        assert max(report["tangent_preservation_residuals"]) <= PRESERVE_TOL
        assert max(report["subalgebra_preservation_residuals"]) <= PRESERVE_TOL
