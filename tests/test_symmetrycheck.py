"""Austerity, aridity, and chamber-strata checks."""

import math

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
from pfspectra import symmetrycheck
from pfspectra.symmetrycheck import CLUSTER_TOL, FD_STEP

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


def test_product_sphere_normal_of_any_size():
    # Above about 1.3e154 the plain norm of a normal overflows; the scaled
    # one gives the report of the unit normal.
    unit = product_sphere_austere(2, 3, normals=[np.array([1.0, -1.0])])
    assert product_sphere_austere(2, 3, normals=[np.array([1e200, -1e200])]) == (
        unit[0], [{**unit[1][0], "normal": [1e200, -1e200]}])
    for scale in (1e-200, 1.7e308):
        austere, [detail] = product_sphere_austere(2, 3, normals=[[scale, -scale]])
        assert austere == unit[0]
        np.testing.assert_allclose(detail["eigenvalues"], unit[1][0]["eigenvalues"], rtol=1e-12)
    with pytest.raises(DomainError, match="zero"):
        product_sphere_shape(2, 3, [0.0, 0.0])
    with pytest.raises(DomainError, match="sum to zero"):
        product_sphere_shape(3, 2, [1e200, 1e200, -1e200])


def test_product_sphere_shape_eigenvalues():
    # Second-fundamental form along a = (1,-1)/sqrt(2): one curvature -a_i
    # per factor, each with multiplicity n-1 = 2.
    mat = product_sphere_shape(2, 3, [1.0, -1.0])
    w = np.sort(np.linalg.eigvalsh(mat))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(w, [-r, -r, r, r], atol=FD_EIGEN_TOL)


def sequential_sphere_shape(m, n, normal_coeffs):
    """The per-pair scalar oracle that the stacked one replaced: every
    velocity's curve evaluated factor by factor."""
    a = np.asarray(normal_coeffs, dtype=float)
    a = a / np.linalg.norm(a)
    pts = [np.eye(n)[0]] * m
    basis = np.linalg.svd(np.eye(n) - np.outer(pts[0], pts[0]))[0][:, : n - 1]
    frame = []
    for i in range(m):
        for c in range(n - 1):
            vec = np.zeros((m, n))
            vec[i] = basis[:, c]
            frame.append(vec)
    xi = np.array([a[i] * pts[i] for i in range(m)])

    def factor_curve(p, v, t):
        s = np.linalg.norm(v)
        if s == 0.0:
            return p.copy()
        return math.cos(s * t) * p + math.sin(s * t) * (v / s)

    def second_derivative_dot_xi(vel):
        def central(h):
            cp, cm, c0 = (np.array([factor_curve(pts[i], vel[i], t) for i in range(m)])
                          for t in (h, -h, 0.0))
            return float(np.sum((cp - 2.0 * c0 + cm) * xi)) / (h * h)

        return (4.0 * central(FD_STEP / 2.0) - central(FD_STEP)) / 3.0

    dim = len(frame)
    mat = np.zeros((dim, dim))
    for i in range(dim):
        mat[i, i] = second_derivative_dot_xi(frame[i])
        for j in range(i + 1, dim):
            plus = second_derivative_dot_xi(frame[i] + frame[j])
            minus = second_derivative_dot_xi(frame[i] - frame[j])
            mat[i, j] = mat[j, i] = (plus - minus) / 4.0
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4), (5, 3)])
def test_stacked_sphere_shape_equals_the_per_pair_oracle(m, n):
    for a in sample_product_normals(m, 3, np.random.default_rng(10 * m + n)):
        np.testing.assert_array_equal(product_sphere_shape(m, n, a),
                                      sequential_sphere_shape(m, n, a))


def test_sphere_shape_blocks_do_not_change_a_bit(monkeypatch):
    # A budget below one velocity's numbers puts every pair in its own block.
    a = sample_product_normals(3, 1, np.random.default_rng(5))[0]
    whole = product_sphere_shape(3, 4, a)
    monkeypatch.setattr(symmetrycheck, "_FD_BLOCK", 7)
    np.testing.assert_array_equal(product_sphere_shape(3, 4, a), whole)
    np.testing.assert_array_equal(whole, sequential_sphere_shape(3, 4, a))


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


def test_weyl_strata_judge_independence_by_direction():
    # A1 x A1 with roots of length 1e-7: det(roots) is 1e-14, yet the
    # directions are orthogonal
    strata = weyl_strata([[1e-7, 0.0], [0.0, 1e-7]])
    assert [(s.active, s.dim) for s in strata] == [((), 0), ((0,), 1), ((1,), 1), ((0, 1), 2)]
    np.testing.assert_allclose(strata[3].representative, [1e7, 1e7], rtol=1e-15)


def test_membership_rejects_wrong_walls():
    roots = BUILTIN_ROOT_SYSTEMS["A2"]
    strata = {s.active: s for s in weyl_strata(roots)}
    w = strata[(0,)].representative
    assert not stratum_membership(roots, w, (1,))
    assert not stratum_membership(roots, w, (0, 1))


def _isolated_by_enumeration(roots):
    """isolated_directions as the one-dimensional strata of the full
    enumeration, each representative scaled by a power of two and normalized."""
    out = []
    for st in weyl_strata(roots):
        if st.dim == 1:
            rep = np.array(st.representative)
            rep = np.ldexp(rep, -np.frexp(np.abs(rep).max())[1])
            out.append(rep / np.linalg.norm(rep))
    return out


@pytest.mark.parametrize("roots", [
    *(BUILTIN_ROOT_SYSTEMS[name] for name in sorted(BUILTIN_ROOT_SYSTEMS)),
    np.random.default_rng(17).standard_normal((5, 5)),
])
def test_isolated_directions_are_the_enumeration_bit_for_bit(roots):
    got = isolated_directions(roots)
    want = _isolated_by_enumeration(roots)
    assert len(got) == len(want) == len(roots)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_weyl_refuses_a_rank_above_the_limit():
    assert len(weyl_strata(np.eye(symmetrycheck.MAX_WEYL_RANK))) == 4096
    with pytest.raises(DomainError, match="at most 12 simple roots"):
        weyl_strata(np.eye(symmetrycheck.MAX_WEYL_RANK + 1))


def test_weyl_strata_validate_input():
    with pytest.raises(DimensionError):
        weyl_strata([1.0, 0.0])
    with pytest.raises(DomainError):
        weyl_strata([[1.0, 0.0], [2.0, 0.0]])


def test_membership_equals_the_root_by_root_loop():
    def by_roots(roots, w, active):
        for i, v in enumerate(np.asarray(roots) @ np.asarray(w)):
            if i in active:
                if v <= symmetrycheck.STRATUM_TOL:
                    return False
            elif abs(v) > symmetrycheck.STRATUM_TOL:
                return False
        return True

    rng = np.random.default_rng(4)
    for roots in BUILTIN_ROOT_SYSTEMS.values():
        points = [s.representative for s in weyl_strata(roots)]
        points += list(rng.standard_normal((20, 2))) + [np.zeros(2)]
        for w in points:
            for active in ((), (0,), (1,), (0, 1)):
                assert stratum_membership(roots, w, active) == by_roots(roots, w, active)


# ------------------------------------------------------------ so(9) orbit


def _so9_by_blocks():
    """The conjugation, swap and normal matrices of the SO(9) orbit, and
    its two generator sets, assembled block by block and matrix by matrix."""
    e, root2, root3 = np.eye(3), math.sqrt(2.0), math.sqrt(3.0)
    q = np.zeros((9, 9))
    q[0:3, 0:3], q[0:3, 3:6], q[0:3, 6:9] = root2 * e, root3 * e, e
    q[3:6, 0:3], q[3:6, 3:6], q[3:6, 6:9] = root2 * e, -root3 * e, e
    q[6:9, 0:3], q[6:9, 6:9] = root2 * e, -2.0 * e
    q /= math.sqrt(6.0)
    swaps = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        perm = list(range(3))
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        out = np.zeros((9, 9))
        for a, b in enumerate(perm):
            out[3 * a : 3 * a + 3, 3 * b : 3 * b + 3] = e
        swaps.append(out)

    def normal(x, y):
        out = np.zeros((9, 9))
        out[0:3, 3:6] = np.diag([-2.0 * x, 0.0, 0.0])
        out[0:3, 6:9] = np.diag([-x - y, 0.0, 0.0])
        out[3:6, 6:9] = np.diag([x - y, 0.0, 0.0])
        return out - out.T

    def unit(i, j):
        mat = np.zeros((9, 9))
        mat[i, j], mat[j, i] = 1.0, -1.0
        return mat

    kp = [unit(3 * b + i, 3 * b + j) for b in range(3) for i in range(3) for j in range(i + 1, 3)]
    kk = [q @ unit(i, j) @ q.T for i in range(1, 9) for j in range(i + 1, 9)]
    return q, swaps, normal, kp, kk


def test_kronecker_matrices_equal_the_block_constructions():
    q, swaps, normal, _, _ = _so9_by_blocks()
    np.testing.assert_array_equal(so9_conjugation_matrix(), q)
    for (i, j), swap in zip(((1, 2), (1, 3), (2, 3)), swaps):
        np.testing.assert_array_equal(so9_swap_matrix(i, j), swap)
    for x, y in ((1.0, 0.0), (0.3, -0.9), (-2.5, 1e-7)):
        np.testing.assert_array_equal(so9_normal_matrix(x, y), normal(x, y))


def test_indexed_generators_equal_the_matrix_by_matrix_ones():
    from pfspectra import gram_schmidt

    _, _, _, kp, kk = _so9_by_blocks()
    alg = build_so(9)
    kp = np.array([alg.from_matrix(m) for m in kp])
    kk = np.array([alg.from_matrix(m) for m in kk])
    ex = so9_build()
    np.testing.assert_array_equal(ex.h_basis, gram_schmidt(alg, np.vstack([kp, kk])))
    np.testing.assert_array_equal(ex.kk_basis, gram_schmidt(alg, kk))


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
