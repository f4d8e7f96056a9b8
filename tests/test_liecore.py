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
    build_so,
    cartan_decompose,
    gram_schmidt,
)
from pfspectra.liecore import MAX_SO_N

ORTHO_TOL = 1e-12
BRACKET_TOL = 1e-12
# The runtime checks are a few random probes; the identities are tested
# exhaustively here, on every size in this list.
SO_SIZES = (3, 5, 8)


def draw_elements(data, alg, count):
    """Draw `count` coordinate vectors of alg with bounded entries."""
    coords = st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=alg.dim,
        max_size=alg.dim,
    )
    return [np.array(data.draw(coords)) for _ in range(count)]


def test_build_so_dimensions():
    for n in range(2, 7):
        alg = build_so(n)
        assert alg.n == n
        assert alg.dim == n * (n - 1) // 2


def test_build_so_rejects_small_n():
    with pytest.raises(DimensionError):
        build_so(1)


def test_build_so_rejects_large_n():
    build_so(MAX_SO_N)
    with pytest.raises(DimensionError, match=f"n <= {MAX_SO_N}"):
        build_so(MAX_SO_N + 1)


def test_build_so_rejects_bad_scale():
    with pytest.raises(DomainError):
        build_so(3, ip_scale=0.0)


def test_basis_is_orthonormal():
    alg = build_so(5)
    np.testing.assert_allclose(alg.inner(np.eye(alg.dim), np.eye(alg.dim)), np.eye(alg.dim),
                               atol=ORTHO_TOL)


def test_pair_index_round_trip():
    # basis element k is E_ij for the k-th pair i < j in row-major order
    n = 6
    alg = build_so(n)
    rows, cols = np.triu_indices(n, 1)
    assert len(rows) == alg.dim
    for mat, i, j in zip(alg.to_matrices(np.eye(alg.dim)), rows, cols):
        assert mat[i, j] == 1.0 and mat[j, i] == -1.0
        assert np.count_nonzero(mat) == 2


def test_element_round_trip_through_matrix():
    alg = build_so(4)
    rng = np.random.default_rng(0)
    coords = rng.standard_normal(alg.dim)
    back = alg.from_matrix(alg.to_matrices(coords))
    np.testing.assert_allclose(back, coords, atol=1e-13)
    # an entry near the float limit: the two triangle entries differ by
    # 3e308, which would overflow, so each is halved first
    for entry in (1.5e308, -1.5e308):
        coords = np.zeros(alg.dim)
        coords[2] = entry
        np.testing.assert_array_equal(alg.from_matrix(alg.to_matrices(coords)), coords)


def test_from_matrix_rejects_symmetric_part():
    alg = build_so(3)
    with pytest.raises(DomainError, match="not in the algebra span"):
        alg.from_matrix(np.eye(3))


def test_element_rejects_wrong_length():
    alg = build_so(3)
    with pytest.raises(DimensionError):
        alg.to_matrices([1.0, 2.0])
    with pytest.raises(DimensionError):
        alg.norm([1.0, 2.0])
    with pytest.raises(DimensionError):
        alg.bracket(np.zeros(4), np.zeros(3))
    with pytest.raises(DimensionError):
        alg.conjugate(np.eye(3), np.zeros(4))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_bracket_antisymmetry(data):
    for n in SO_SIZES:
        alg = build_so(n)
        x, y = draw_elements(data, alg, 2)
        lhs = alg.bracket(x, y)
        rhs = -alg.bracket(y, x)
        np.testing.assert_allclose(lhs, rhs, atol=BRACKET_TOL * 100)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_jacobi_identity(data):
    for n in SO_SIZES:
        alg = build_so(n)
        x, y, z = draw_elements(data, alg, 3)
        br = alg.bracket
        total = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
        scale = max(1.0, alg.norm(x) * alg.norm(y) * alg.norm(z))
        assert alg.norm(total) <= 1e-10 * scale


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_inner_product_is_ad_invariant(data):
    for n in SO_SIZES:
        alg = build_so(n)
        x, y, z = draw_elements(data, alg, 3)
        lhs = alg.inner(alg.bracket(x, y), z)
        rhs = -alg.inner(y, alg.bracket(x, z))
        scale = max(1.0, alg.norm(x) * alg.norm(y) * alg.norm(z))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(1)
    for n in SO_SIZES:
        alg = build_so(n)
        x, y = rng.standard_normal((2, alg.dim))
        xm, ym = alg.to_matrices(x), alg.to_matrices(y)
        np.testing.assert_allclose(alg.to_matrices(alg.bracket(x, y)), xm @ ym - ym @ xm,
                                   atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_conjugate_equals_the_matrix_route(n):
    alg = build_so(n)
    rng = np.random.default_rng(n)
    for shape in [(alg.dim,), (4, alg.dim), (2, 3, alg.dim)]:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = rng.standard_normal(shape)
        got = alg.conjugate(q, a)
        assert got.shape == shape
        np.testing.assert_array_equal(got, alg.from_matrix(q @ alg.to_matrices(a) @ q.T))


def test_large_algebra_brackets_match_commutators():
    # so(20) has dim 190; a dense structure tensor would not fit in memory.
    alg = build_so(20)
    assert alg.dim == 190
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, alg.dim))
    xm, ym = alg.to_matrices(x), alg.to_matrices(y)
    comm = xm @ ym - ym @ xm
    np.testing.assert_allclose(alg.to_matrices(alg.bracket(x, y)), comm, atol=1e-11)
    np.testing.assert_allclose(alg.from_matrix(comm), alg.bracket(x, y), atol=1e-11)


def test_coordinates_are_upper_triangle_entries():
    alg = build_so(4, ip_scale=1.5)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(alg.dim)
    xm = alg.to_matrices(x)
    rows, cols = np.triu_indices(4, 1)
    np.testing.assert_array_equal(xm[rows, cols], x)
    np.testing.assert_array_equal(xm, -xm.T)
    np.testing.assert_allclose(alg.inner(np.eye(alg.dim), np.eye(alg.dim)), 3.0 * np.eye(alg.dim))
    assert alg.inner(x, x) == pytest.approx(-1.5 * np.trace(xm @ xm))


def test_bracket_rejects_mixed_algebras():
    # An so(4) coordinate vector has the wrong length for so(3).
    a3, a4 = build_so(3), build_so(4)
    with pytest.raises(DimensionError):
        a3.bracket(np.eye(a3.dim)[0], np.eye(a4.dim)[0])
    with pytest.raises(DimensionError):
        a3.inner(np.eye(a3.dim)[0], np.eye(a4.dim)[0])


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
    assert gram_schmidt(alg, [np.zeros(alg.dim)]).shape == (0, alg.dim)


def test_gram_schmidt_bits_do_not_depend_on_memory_order():
    # The 28 generators of the conjugated so(8) in the SO(9) orbit: a
    # stacked from_matrix returns them column-major.
    from pfspectra.symmetrycheck import so9_conjugation_matrix

    alg = build_so(9)
    q = so9_conjugation_matrix()
    gens = alg.from_matrix(q @ alg.to_matrices(np.eye(alg.dim)[8:]) @ q.T)
    assert gens.shape == (28, alg.dim)
    c_basis = gram_schmidt(alg, np.ascontiguousarray(gens))
    np.testing.assert_array_equal(gram_schmidt(alg, np.asfortranarray(gens)), c_basis)
    np.testing.assert_array_equal(gram_schmidt(alg, gens), c_basis)


def test_subspace_contains_takes_a_stack():
    alg = build_so(5)
    sub = Subspace(alg, gram_schmidt(alg, np.random.default_rng(8).standard_normal((3, alg.dim))))
    inside = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]]) @ sub.basis
    outside = np.eye(alg.dim)[0] - sub.project_coords(np.eye(alg.dim)[0])
    assert sub.contains(inside) and all(sub.contains(row) for row in inside)
    assert not sub.contains(np.vstack([inside, outside])) and not sub.contains(outside)
    assert sub.contains(np.zeros((0, alg.dim)))


def test_subspace_projection_is_idempotent():
    alg = build_so(4)
    rng = np.random.default_rng(4)
    basis = gram_schmidt(alg, rng.standard_normal((3, alg.dim)))
    sub = Subspace(alg, basis)
    assert sub.dim == 3
    x = rng.standard_normal(alg.dim)
    p1 = sub.project_coords(x)
    p2 = sub.project_coords(p1)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert sub.contains(p1)
    assert not sub.contains(x) or np.allclose(p1, x)


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
        x = rng.standard_normal(self.alg.dim)
        xk = self.cd.k.project_coords(x)
        xm = self.cd.m.project_coords(x)
        np.testing.assert_allclose(xk + xm, x, atol=1e-12)
        assert abs(self.alg.inner(xk, xm)) <= 1e-12

    def test_bracket_relations(self):
        rng = np.random.default_rng(6)
        k1 = rng.standard_normal(self.cd.k.dim) @ self.cd.k.basis
        k2 = rng.standard_normal(self.cd.k.dim) @ self.cd.k.basis
        m1 = rng.standard_normal(self.cd.m.dim) @ self.cd.m.basis
        m2 = rng.standard_normal(self.cd.m.dim) @ self.cd.m.basis
        br = self.alg.bracket
        assert self.cd.k.contains(br(k1, k2))
        assert self.cd.m.contains(br(k1, m1))
        assert self.cd.k.contains(br(m1, m2))


@pytest.mark.parametrize("p", [1, 3])
def test_cartan_relations_hold_on_every_basis_pair(p):
    # The decomposition itself only probes random combinations.
    n = 6
    alg = build_so(n)
    cd = cartan_decompose(alg, np.diag([1.0] * p + [-1.0] * (n - p)))
    k, m = cd.k.basis, cd.m.basis
    for a, b, target in ((k, k, cd.k), (k, m, cd.m), (m, m, cd.k)):
        w = alg.bracket(a[:, None], b[None]).reshape(-1, alg.dim)
        leak = alg.norm(w - target.project_coords(w))
        assert leak.max(initial=0.0) <= BRACKET_TOL


def test_cartan_relation_probes_catch_a_wrong_split():
    alg = build_so(6)
    cd = cartan_decompose(alg, np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(StructureError, match="Cartan relations fail"):
        cd._check_relations(cd.m, cd.k)
    # Rotating one k vector slightly into m keeps k and m orthonormal
    # complements, but breaks the relations.
    k, m = cd.k.basis.copy(), cd.m.basis.copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    k[0], m[0] = c * k[0] + s * m[0], c * m[0] - s * k[0]
    with pytest.raises(StructureError, match="Cartan relations fail"):
        cd._check_relations(Subspace(alg, k), Subspace(alg, m))


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


@pytest.mark.parametrize("n", [18, 20, 24])
def test_cartan_splits_random_orthogonal_involutions(n):
    # P = Q diag(1^p, -1^q) Q^T for a random orthogonal Q: the eigenspaces
    # have dimensions C(p,2) + C(q,2) and p*q, and conjugation acts as +1
    # on every k row and -1 on every m row.
    alg = build_so(n)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, n))
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        inv = q_mat @ np.diag([1.0] * p + [-1.0] * (n - p)) @ q_mat.T
        inv = 0.5 * (inv + inv.T)
        cd = cartan_decompose(alg, inv)
        q = n - p
        assert cd.k.dim == p * (p - 1) // 2 + q * (q - 1) // 2
        assert cd.m.dim == p * q
        ks, ms = alg.to_matrices(cd.k.basis), alg.to_matrices(cd.m.basis)
        assert np.abs(inv @ ks @ inv - ks).max() <= ORTHO_TOL
        assert np.abs(inv @ ms @ inv + ms).max() <= ORTHO_TOL


@pytest.mark.parametrize("n", [4, 10, 25, 40])
def test_rotated_split_bases_match_the_basis_stack_route(n):
    # Reference: conjugate the (dim, n, n) stack of basis matrices E_ij by
    # the eigenvectors of -P and read the rows back through from_matrix.
    alg = build_so(n, ip_scale=0.7)
    rng = np.random.default_rng(n)
    p = int(rng.integers(1, n))
    rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
    inv = rot @ np.diag([1.0] * p + [-1.0] * (n - p)) @ rot.T
    inv = 0.5 * (inv + inv.T)
    cd = cartan_decompose(alg, inv)
    neg_s, q = np.linalg.eigh(-inv)
    stack = alg.to_matrices(np.eye(alg.dim))
    ref = alg.from_matrix(q @ stack @ q.T) / np.sqrt(2.0 * alg.ip_scale)
    rows, cols = np.triu_indices(n, 1)
    fixed = (neg_s[rows] < 0) == (neg_s[cols] < 0)
    np.testing.assert_allclose(cd.k.basis, ref[fixed], rtol=0, atol=1e-14)
    np.testing.assert_allclose(cd.m.basis, ref[~fixed], rtol=0, atol=1e-14)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_diagonal_split_bases_are_scaled_coordinate_rows(scale):
    # For P = diag(1^p, -1^q) the bases are exactly the coordinate rows of
    # the fixed and flipped pairs, in coordinate order, scaled to unit norm.
    cases = [(n, p) for n in range(2, 13) for p in range(1, n)]
    cases += [(40, 1), (40, 20), (40, 39)]
    for n, p in cases:
        alg = build_so(n, ip_scale=scale)
        cd = cartan_decompose(alg, np.diag([1.0] * p + [-1.0] * (n - p)))
        rows, cols = np.triu_indices(n, 1)
        fixed = (rows < p) == (cols < p)
        unit = np.eye(alg.dim) / np.sqrt(2.0 * scale)
        np.testing.assert_array_equal(cd.k.basis, unit[fixed])
        np.testing.assert_array_equal(cd.m.basis, unit[~fixed])
