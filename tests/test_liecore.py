"""Structure tests for the matrix Lie algebra core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfspectra import (
    DimensionError,
    DomainError,
    StructureError,
    Subspace,
    bracket,
    build_so,
    cartan_decompose,
    gram_schmidt,
    inner,
    project,
    so_pair_index,
)

ORTHO_TOL = 1e-12
BRACKET_TOL = 1e-12
# The runtime checks are a few random probes; the identities are tested
# exhaustively here, on every size in this list.
SO_SIZES = (3, 5, 8)


def draw_elements(data, alg, count):
    """Draw `count` elements of alg with bounded coordinates."""
    coords = st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=alg.dim,
        max_size=alg.dim,
    )
    return [alg.element(data.draw(coords)) for _ in range(count)]


def test_build_so_dimensions():
    for n in range(2, 7):
        alg = build_so(n)
        assert alg.n == n
        assert alg.dim == n * (n - 1) // 2


def test_build_so_rejects_small_n():
    with pytest.raises(DimensionError):
        build_so(1)


def test_build_so_rejects_bad_scale():
    with pytest.raises(DomainError):
        build_so(3, ip_scale=0.0)


def test_basis_is_orthonormal():
    alg = build_so(5)
    np.testing.assert_allclose(alg.gram, np.eye(alg.dim), atol=ORTHO_TOL)


def test_pair_index_round_trip():
    n = 6
    alg = build_so(n)
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            idx = so_pair_index(n, i, j)
            seen.add(idx)
            mat = alg.basis[idx]
            assert mat[i, j] == 1.0 and mat[j, i] == -1.0
    assert seen == set(range(alg.dim))


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(DomainError):
        so_pair_index(4, 2, 2)
    with pytest.raises(DomainError):
        so_pair_index(4, 1, 4)


def test_element_round_trip_through_matrix():
    alg = build_so(4)
    rng = np.random.default_rng(0)
    coords = rng.standard_normal(alg.dim)
    x = alg.element(coords)
    back = alg.from_matrix(x.matrix)
    np.testing.assert_allclose(back.coords, coords, atol=1e-13)


def test_from_matrix_rejects_symmetric_part():
    alg = build_so(3)
    with pytest.raises(DomainError, match="not in the algebra span"):
        alg.from_matrix(np.eye(3))


def test_element_rejects_wrong_length():
    alg = build_so(3)
    with pytest.raises(DimensionError):
        alg.element([1.0, 2.0])


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_bracket_antisymmetry(data):
    for n in SO_SIZES:
        x, y = draw_elements(data, build_so(n), 2)
        lhs = bracket(x, y).coords
        rhs = -bracket(y, x).coords
        np.testing.assert_allclose(lhs, rhs, atol=BRACKET_TOL * 100)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_jacobi_identity(data):
    for n in SO_SIZES:
        x, y, z = draw_elements(data, build_so(n), 3)
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        assert total.norm() <= 1e-10 * scale


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_inner_product_is_ad_invariant(data):
    for n in SO_SIZES:
        x, y, z = draw_elements(data, build_so(n), 3)
        lhs = inner(bracket(x, y), z)
        rhs = -inner(y, bracket(x, z))
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(1)
    for n in SO_SIZES:
        alg = build_so(n)
        x = alg.element(rng.standard_normal(alg.dim))
        y = alg.element(rng.standard_normal(alg.dim))
        comm = x.matrix @ y.matrix - y.matrix @ x.matrix
        np.testing.assert_allclose(bracket(x, y).matrix, comm, atol=1e-12)


def test_ad_matrix_reproduces_bracket():
    rng = np.random.default_rng(2)
    for n in SO_SIZES:
        alg = build_so(n)
        x = alg.element(rng.standard_normal(alg.dim))
        y = alg.element(rng.standard_normal(alg.dim))
        np.testing.assert_allclose(
            alg.ad_matrix(x) @ y.coords, bracket(x, y).coords, atol=1e-12
        )


def test_large_algebra_brackets_match_commutators():
    # so(20) has dim 190; a dense structure tensor would not fit in memory.
    alg = build_so(20)
    assert alg.dim == 190
    rng = np.random.default_rng(7)
    x = alg.element(rng.standard_normal(alg.dim))
    y = alg.element(rng.standard_normal(alg.dim))
    comm = x.matrix @ y.matrix - y.matrix @ x.matrix
    np.testing.assert_allclose(bracket(x, y).matrix, comm, atol=1e-11)
    np.testing.assert_allclose(alg.from_matrix(comm).coords, bracket(x, y).coords, atol=1e-11)


def test_coordinates_are_upper_triangle_entries():
    alg = build_so(4, ip_scale=1.5)
    rng = np.random.default_rng(8)
    x = alg.element(rng.standard_normal(alg.dim))
    rows, cols = np.triu_indices(4, 1)
    np.testing.assert_array_equal(x.matrix[rows, cols], x.coords)
    np.testing.assert_array_equal(x.matrix, -x.matrix.T)
    np.testing.assert_allclose(alg.gram, 3.0 * np.eye(alg.dim))
    assert inner(x, x) == pytest.approx(-1.5 * np.trace(x.matrix @ x.matrix))


def test_bracket_rejects_mixed_algebras():
    a3, a4 = build_so(3), build_so(4)
    with pytest.raises(DomainError):
        bracket(a3.basis_element(0), a4.basis_element(0))


def test_gram_schmidt_orthonormalizes_and_drops():
    alg = build_so(4)
    rng = np.random.default_rng(3)
    v1 = rng.standard_normal(alg.dim)
    v2 = rng.standard_normal(alg.dim)
    vectors = [v1, 2.0 * v1, v2, v1 + v2]
    basis = gram_schmidt(alg, vectors)
    assert len(basis) == 2 and all(row.shape == (alg.dim,) for row in basis)
    stacked = np.stack(basis)
    np.testing.assert_allclose(stacked @ stacked.T, np.eye(2), atol=1e-10)


def test_gram_schmidt_drops_roundoff_relative_to_the_batch():
    # A roundoff-sized vector is dropped even though, measured against its
    # own norm, it is far from zero.
    alg = build_so(4)
    v = np.zeros(alg.dim)
    v[0] = 1.0
    tiny = np.zeros(alg.dim)
    tiny[1] = 1e-17
    assert len(gram_schmidt(alg, [v, tiny])) == 1
    assert gram_schmidt(alg, [np.zeros(alg.dim)]) == []


def test_subspace_projection_is_idempotent():
    alg = build_so(4)
    rng = np.random.default_rng(4)
    basis = gram_schmidt(alg, rng.standard_normal((3, alg.dim)))
    sub = Subspace(alg, basis)
    assert sub.dim == 3
    x = alg.element(rng.standard_normal(alg.dim))
    p1 = project(x, sub)
    p2 = project(p1, sub)
    np.testing.assert_allclose(p1.coords, p2.coords, atol=1e-12)
    assert sub.contains(p1)
    assert not sub.contains(x) or np.allclose(p1.coords, x.coords)


def test_subspace_rejects_non_orthonormal_rows():
    alg = build_so(3)
    with pytest.raises(StructureError):
        Subspace(alg, np.array([[2.0, 0.0, 0.0]]))


class TestCartanSphere:
    """Decomposition of so(l) by the reflection fixing the first axis."""

    def setup_method(self):
        self.l = 5
        self.alg = build_so(self.l)
        p = np.diag([1.0] + [-1.0] * (self.l - 1))
        self.cd = cartan_decompose(self.alg, p)

    def test_dimensions(self):
        l = self.l
        assert self.cd.k.dim == (l - 1) * (l - 2) // 2
        assert self.cd.m.dim == l - 1
        assert self.cd.k.dim + self.cd.m.dim == self.alg.dim

    def test_projections_split_every_element(self):
        rng = np.random.default_rng(5)
        x = self.alg.element(rng.standard_normal(self.alg.dim))
        xk = self.cd.project_k(x)
        xm = self.cd.project_m(x)
        np.testing.assert_allclose(xk.coords + xm.coords, x.coords, atol=1e-12)
        assert abs(inner(xk, xm)) <= 1e-12

    def test_bracket_relations(self):
        rng = np.random.default_rng(6)
        k1 = self.alg.element(rng.standard_normal(self.cd.k.dim) @ self.cd.k.basis)
        k2 = self.alg.element(rng.standard_normal(self.cd.k.dim) @ self.cd.k.basis)
        m1 = self.alg.element(rng.standard_normal(self.cd.m.dim) @ self.cd.m.basis)
        m2 = self.alg.element(rng.standard_normal(self.cd.m.dim) @ self.cd.m.basis)
        assert self.cd.k.contains(bracket(k1, k2))
        assert self.cd.m.contains(bracket(k1, m1))
        assert self.cd.k.contains(bracket(m1, m2))


def test_cartan_rejects_non_involution():
    alg = build_so(3)
    with pytest.raises(DomainError, match="square to the identity"):
        cartan_decompose(alg, np.diag([2.0, 1.0, 1.0]))


def test_cartan_rejects_non_isometric_involution():
    # Involutive but not orthogonal: conjugation does not preserve skewness.
    alg = build_so(2)
    p = np.array([[1.0, 1.0], [0.0, -1.0]])
    with pytest.raises(StructureError):
        cartan_decompose(alg, p)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [6, 8])
def test_split_involution_fills_the_algebra_at_every_scale(n, scale):
    alg = build_so(n, ip_scale=scale)
    for p in range(1, n):
        cd = cartan_decompose(alg, np.diag([1.0] * p + [-1.0] * (n - p)))
        q = n - p
        assert cd.k.dim == p * (p - 1) // 2 + q * (q - 1) // 2
        assert cd.m.dim == p * q
        assert cd.k.dim + cd.m.dim == alg.dim
