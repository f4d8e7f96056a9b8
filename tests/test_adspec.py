"""Frequency-block decomposition tests.

The frozen expectations below were computed two ways before being pinned:
once through the SVD pairing under test and once through a direct
eigendecomposition of the squared bracket operator restricted to the
subgroup factor.  Both routes agreed to 1e-10 or better.
"""

import numpy as np
import pytest

from pfspectra import (
    CurvatureAdaptedData,
    DimensionError,
    DomainError,
    StructureError,
    Subspace,
    build_so,
    cartan_decompose,
    paired_bases,
    so9_build,
    so9_normal_matrix,
)

PAIRING_TOL = 1e-10
EIGEN_ROUTE_TOL = 1e-9


def sphere_cd(l):
    alg = build_so(l)
    return alg, cartan_decompose(alg, np.diag([1.0] + [-1.0] * (l - 1)))


def eigen_route_frequencies(cd, xi):
    """Frequencies via eigenvalues of minus the squared bracket map on k."""
    alg = cd.algebra
    a = alg.bracket(xi, np.eye(alg.dim)).T  # column b: [xi, e_b]
    op = cd.k.basis @ (a @ a) @ cd.k.basis.T
    w = np.linalg.eigvalsh(-0.5 * (op + op.T))
    w[np.abs(w) < EIGEN_ROUTE_TOL] = 0.0
    freqs = np.sqrt(np.maximum(w, 0.0))
    vals, counts = np.unique(np.round(freqs, 8), return_counts=True)
    return [(float(v), int(c)) for v, c in zip(vals, counts) if v > 0.0]


def test_sphere_single_frequency_equals_norm():
    alg, cd = sphere_cd(5)
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    spec = paired_bases(cd, xi).frequency_multiplicities()
    assert len(spec) == 1
    nu, mult = spec[0]
    assert abs(nu - alg.norm(xi)) <= PAIRING_TOL * alg.norm(xi)
    assert mult == cd.m.dim - 1


def test_paired_bases_satisfy_bracket_relations():
    alg, cd = sphere_cd(6)
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    eig = paired_bases(cd, xi)
    for block in eig.blocks:
        nu = block.nu
        for x, y in zip(block.x_basis, block.y_basis):
            assert cd.k.contains(x)
            assert cd.m.contains(y)
            r1 = alg.bracket(xi, x) + nu * y
            r2 = alg.bracket(xi, y) - nu * x
            assert alg.norm(r1) <= PAIRING_TOL * max(1.0, nu)
            assert alg.norm(r2) <= PAIRING_TOL * max(1.0, nu)


def test_blocks_exhaust_both_factors():
    alg, cd = sphere_cd(5)
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    eig = paired_bases(cd, xi)
    total = sum(b.mult for b in eig.blocks)
    assert total + eig.dim_k0 == cd.k.dim
    assert total + eig.dim_m0 == cd.m.dim


def test_kernel_subspaces_commute_with_xi():
    alg, cd = sphere_cd(5)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    eig = paired_bases(cd, xi)
    for vec in list(eig.k0_basis) + list(eig.m0_basis):
        assert alg.norm(alg.bracket(xi, vec)) <= 1e-8 * alg.norm(xi)
    assert Subspace(alg, eig.k0_basis).dim == eig.dim_k0
    assert Subspace(alg, eig.m0_basis).dim == eig.dim_m0


def test_frequency_spectrum_matches_eigen_route():
    for seed, (p, q) in [(4, (2, 3)), (5, (3, 3)), (6, (2, 4))]:
        alg = build_so(p + q)
        cd = cartan_decompose(alg, np.diag([1.0] * p + [-1.0] * q))
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
        svd_route = paired_bases(cd, xi).frequency_multiplicities()
        ref = eigen_route_frequencies(cd, xi)
        assert len(svd_route) == len(ref)
        for (nu_a, m_a), (nu_b, m_b) in zip(sorted(svd_route), sorted(ref)):
            assert abs(nu_a - nu_b) <= 1e-7 * max(1.0, nu_a)
            assert m_a == m_b


def test_isomorphism_is_an_isometry_onto_the_partner_block():
    alg, cd = sphere_cd(6)
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    eig = paired_bases(cd, xi)
    block = eig.blocks[0]
    x = block.x_basis[0]
    y = -alg.bracket(xi, x) / block.nu
    assert abs(alg.norm(y) - 1.0) <= 1e-10
    assert cd.m.contains(y)
    assert alg.norm(y - block.y_basis[0]) <= 1e-10


def test_isomorphism_rejects_nonpositive_frequency():
    # a tangent frame is paired through a block of ad(xi): nu = 0 is the
    # kernel m_0, which a frequency-block vector does not lie in, and no
    # block has a negative nu
    alg, cd = sphere_cd(4)
    rng = np.random.default_rng(8)
    xi = rng.standard_normal(cd.m.dim) @ cd.m.basis
    eig = paired_bases(cd, xi)
    assert all(block.nu > 0.0 for block in eig.blocks)
    y = eig.blocks[0].y_basis[:1]
    with pytest.raises(StructureError, match="does not lie in its frequency block"):
        CurvatureAdaptedData(eig, [(0.0, 0.5, y)])
    with pytest.raises(DomainError, match="no frequency block"):
        CurvatureAdaptedData(eig, [(-eig.blocks[0].nu, 0.5, y)])


def test_rejects_xi_outside_m():
    alg, cd = sphere_cd(4)
    with pytest.raises(DomainError, match="not in m"):
        paired_bases(cd, cd.k.basis[0])
    with pytest.raises(DimensionError):
        paired_bases(cd, cd.m.basis[0][:-1])


def test_rejects_zero_xi():
    alg, cd = sphere_cd(4)
    with pytest.raises(DomainError, match="nonzero"):
        paired_bases(cd, np.zeros(alg.dim))


@pytest.mark.parametrize("size", [1e-170, 3e-160, 1.0, 3e153])
def test_frequencies_scale_with_xi_at_any_norm(size):
    # At |xi| ~ 3e-160 the squared bracket norms are subnormal, and at 1e-170
    # the squared norm of xi itself underflows; the blocks are computed at
    # norm about 1 and the frequencies scaled back.
    alg = build_so(5)
    cd = cartan_decompose(alg, np.diag([1.0, 1.0, -1.0, -1.0, -1.0]))
    unit = np.random.default_rng(3).standard_normal(cd.m.dim) @ cd.m.basis
    unit /= alg.norm(unit)
    ref = paired_bases(cd, unit)
    xi = size * unit
    eig = paired_bases(cd, xi)
    np.testing.assert_array_equal(eig.xi, xi)
    assert abs(eig.xi_norm - size) <= 1e-14 * size
    assert [b.mult for b in eig.blocks] == [b.mult for b in ref.blocks]
    for block, unit_block in zip(eig.blocks, ref.blocks):
        assert abs(block.nu - size * unit_block.nu) <= 1e-12 * block.nu
        images = alg.bracket(xi, block.x_basis) / block.nu
        assert np.abs(images + block.y_basis).max() <= PAIRING_TOL
    with pytest.raises(DomainError, match="not in m"):
        paired_bases(cd, size * cd.k.basis[0])


class TestSO9NormalDirections:
    """The rank-two family of normal directions of the 34-dimensional orbit.

    Frozen facts (verified against the eigen route above): conjugating the
    block pattern into so(3)+so(6) position, any normal direction built from
    coefficients (x, y) has the single frequency sqrt(6x^2 + 2y^2) with
    multiplicity 7, and an 11-dimensional kernel on each side.
    """

    def setup_method(self):
        ex = so9_build()
        self.alg = build_so(9)
        p = ex.q_matrix @ np.diag([1.0] * 3 + [-1.0] * 6) @ ex.q_matrix.T
        self.cd = cartan_decompose(self.alg, p)

    @pytest.mark.parametrize("xy", [(1.0, 0.0), (0.0, 1.0), (0.37, -1.21)])
    def test_single_frequency_block_of_multiplicity_seven(self, xy):
        x, y = xy
        xi = self.alg.from_matrix(so9_normal_matrix(x, y))
        expected_nu = np.sqrt(6.0 * x * x + 2.0 * y * y)
        assert abs(self.alg.norm(xi) - expected_nu) <= 1e-12
        spec = paired_bases(self.cd, xi).frequency_multiplicities()
        assert len(spec) == 1
        assert abs(spec[0][0] - expected_nu) <= 1e-9
        assert spec[0][1] == 7

    def test_kernel_dimensions(self):
        xi = self.alg.from_matrix(so9_normal_matrix(1.0, 0.0))
        eig = paired_bases(self.cd, xi)
        assert eig.dim_k0 == 11
        assert eig.dim_m0 == 11

    def test_agrees_with_eigen_route(self):
        xi = self.alg.from_matrix(so9_normal_matrix(0.6, 0.8))
        ref = eigen_route_frequencies(self.cd, xi)
        spec = paired_bases(self.cd, xi).frequency_multiplicities()
        assert len(ref) == len(spec) == 1
        assert abs(ref[0][0] - spec[0][0]) <= 1e-7
        assert ref[0][1] == spec[0][1]
