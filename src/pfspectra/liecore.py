"""The Lie algebra so(n) with a trace inner product, and its Cartan decompositions.

Every algebra here is so(n), the real skew-symmetric n x n matrices.  An
element is stored as its coordinate vector: the strict upper-triangle
entries X[i, j], i < j, in row-major order (see ``so_pair_index``), so the
coordinate basis is E_ij = e_i e_j^T - e_j e_i^T.  The inner product is
``<X, Y> = -ip_scale * tr(XY)``; in these coordinates its Gram matrix is
``2 * ip_scale * I``.  Brackets are matrix commutators, O(n^3) each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, StructureError

# Tolerances used by construction-time validation.
CLOSURE_TOL = 1e-10
JACOBI_TOL = 1e-9
SUBSPACE_GRAM_TOL = 1e-10
PROBES = 3  # randomised Jacobi/ad-invariance probes per algebra


class MatrixLieAlgebra:
    """so(n) in strict-upper-triangle coordinates."""

    def __init__(self, n: int, ip_scale: float):
        if n < 2:
            raise DimensionError(f"so(n) needs n >= 2, got {n}")
        if ip_scale <= 0:
            raise DomainError(f"ip_scale must be positive, got {ip_scale}")
        self.n = int(n)
        self.dim = self.n * (self.n - 1) // 2
        self.ip_scale = float(ip_scale)
        self._w = 2.0 * self.ip_scale  # <e_a, e_b> = _w * delta_ab
        self._rows, self._cols = np.triu_indices(self.n, 1)
        self._gram = self._w * np.eye(self.dim)
        self._gram.setflags(write=False)
        self._basis = None
        self._probe()

    def _probe(self) -> None:
        """Randomised Jacobi and ad-invariance probes, O(n^3) each, in one batch."""
        x, y, z = np.random.default_rng(0).standard_normal((3, PROBES, self.dim))
        br = self.bracket_coords
        tol = JACOBI_TOL * max(1.0, np.prod(np.linalg.norm([x, y, z], axis=2), axis=0).max())
        jac = np.abs(br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))).max()
        if jac > tol:
            raise StructureError(f"Jacobi identity violated (residual {jac:.3e})")
        adinv = self._w * np.abs(np.sum(br(x, y) * z + y * br(x, z), axis=1)).max()
        if adinv > tol:
            raise StructureError(f"inner product is not ad-invariant (residual {adinv:.3e})")

    # -- coordinate/matrix conversions ----------------------------------------------

    def to_matrices(self, coords) -> np.ndarray:
        """Matrices of a (..., dim) stack of coordinate vectors."""
        coords = np.asarray(coords, dtype=float)
        mats = np.zeros(coords.shape[:-1] + (self.n, self.n))
        mats[..., self._rows, self._cols] = coords
        mats[..., self._cols, self._rows] = -coords
        return mats

    def _coords(self, mats: np.ndarray) -> np.ndarray:
        """Coordinates of the skew part of a (..., n, n) stack."""
        return 0.5 * (mats[..., self._rows, self._cols] - mats[..., self._cols, self._rows])

    @property
    def basis(self) -> np.ndarray:
        """The (dim, n, n) stack of coordinate basis matrices E_ij."""
        if self._basis is None:
            self._basis = self.to_matrices(np.eye(self.dim))
            self._basis.setflags(write=False)
        return self._basis

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    def element(self, coords) -> "Element":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise DimensionError(f"expected {self.dim} coefficients, got shape {coords.shape}")
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dim))

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim)
        coords[i] = 1.0
        return Element(self, coords)

    def from_matrix(self, mat, tol: float = CLOSURE_TOL) -> "Element":
        """Element with the given matrix; the matrix must be skew-symmetric."""
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.n, self.n):
            raise DimensionError(f"expected a {self.n}x{self.n} matrix, got {mat.shape}")
        resid = 0.5 * np.abs(mat + mat.T).max()  # distance to the skew part
        if resid > tol * max(1.0, np.abs(mat).max()):
            raise DomainError(f"matrix is not in the algebra span (residual {resid:.3e})")
        return Element(self, self._coords(mat))

    # -- algebra operations --------------------------------------------------------

    def ad_matrix(self, x: "Element") -> np.ndarray:
        """Matrix of ad(x) = [x, .] acting on coordinate vectors."""
        self._check_owns(x)
        xm, basis = x.matrix, self.basis
        return self._coords(xm @ basis - basis @ xm).T

    def bracket_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinates of [a, b]; a and b may be broadcastable stacks."""
        x, y = self.to_matrices(a), self.to_matrices(b)
        return self._coords(x @ y - y @ x)

    def inner_coords(self, a: np.ndarray, b: np.ndarray) -> float:
        return self._w * float(a @ b)

    def _check_owns(self, x: "Element") -> None:
        if x.algebra is not self:
            raise DomainError("element belongs to a different algebra")


@dataclass(frozen=True)
class Element:
    """An algebra element, stored as coefficients over the declared basis."""

    algebra: MatrixLieAlgebra
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.array(self.coords, dtype=float))
        self.coords.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.algebra.to_matrices(self.coords)

    def norm(self) -> float:
        return float(np.sqrt(max(self.algebra.inner_coords(self.coords, self.coords), 0.0)))

    def __add__(self, other: "Element") -> "Element":
        self.algebra._check_owns(other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        self.algebra._check_owns(other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)

    def __mul__(self, s: float) -> "Element":
        return Element(self.algebra, self.coords * float(s))

    __rmul__ = __mul__


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket [x, y], the matrix commutator."""
    if x.algebra is not y.algebra:
        raise DomainError("bracket requires elements of the same algebra")
    return Element(x.algebra, x.algebra.bracket_coords(x.coords, y.coords))


def inner(x: Element, y: Element) -> float:
    """Ad-invariant inner product -ip_scale * tr(xy)."""
    if x.algebra is not y.algebra:
        raise DomainError("inner product requires elements of the same algebra")
    return x.algebra.inner_coords(x.coords, y.coords)


def build_so(n: int, ip_scale: float = 0.5) -> MatrixLieAlgebra:
    """so(n) with basis E_ij = e_i e_j^T - e_j e_i^T, i < j (row-major order).

    With the default scale 1/2 this basis is orthonormal.
    """
    return MatrixLieAlgebra(n, ip_scale)


def so_pair_index(n: int, i: int, j: int) -> int:
    """Index of E_ij (i < j) in the build_so(n) basis ordering."""
    if not (0 <= i < j < n):
        raise DomainError(f"need 0 <= i < j < {n}, got ({i}, {j})")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def gram_schmidt(algebra: MatrixLieAlgebra, vectors, drop_tol: float = 1e-12):
    """Gram-Schmidt with one re-orthogonalization pass.

    Returns coefficient vectors orthonormal under the algebra inner product.
    A vector whose residual falls below drop_tol times the largest input
    norm is dropped, so a roundoff-only input never becomes a basis vector.
    """
    vecs = np.array(vectors, dtype=float).reshape(-1, algebra.dim)
    w = algebra._w
    cut = drop_tol * np.sqrt(w * np.einsum("ij,ij->i", vecs, vecs).max(initial=0.0))
    out = np.empty_like(vecs)
    k = 0
    for v in vecs:
        for _ in range(2):  # second pass controls cancellation
            v = v - w * ((out[:k] @ v) @ out[:k])
        nrm = np.sqrt(w * (v @ v))
        if nrm > cut:
            out[k] = v / nrm
            k += 1
    return list(out[:k])


@dataclass(frozen=True)
class Subspace:
    """A subspace with an orthonormal basis of coefficient vectors."""

    algebra: MatrixLieAlgebra
    basis: np.ndarray  # shape (dim_subspace, dim_algebra), orthonormal rows

    def __post_init__(self):
        arr = np.array(self.basis, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.algebra.dim:
            raise DimensionError(
                f"subspace basis must have shape (k, {self.algebra.dim}), got {arr.shape}"
            )
        gram = self.algebra._w * (arr @ arr.T)
        if arr.shape[0] and np.abs(gram - np.eye(arr.shape[0])).max() > SUBSPACE_GRAM_TOL:
            raise StructureError("subspace basis is not orthonormal")
        object.__setattr__(self, "basis", arr)
        arr.setflags(write=False)

    @classmethod
    def span(cls, algebra: MatrixLieAlgebra, vectors) -> "Subspace":
        """Subspace spanned by arbitrary coefficient vectors (orthonormalized)."""
        basis = gram_schmidt(algebra, vectors)
        arr = np.array(basis).reshape(len(basis), algebra.dim)
        return cls(algebra, arr)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project_coords(self, coords: np.ndarray) -> np.ndarray:
        """Projection of a vector, or of a stack of row vectors."""
        return self.coefficients(coords) @ self.basis

    def coefficients(self, coords: np.ndarray) -> np.ndarray:
        """Components of a vector (or row stack) along the orthonormal basis."""
        return self.algebra._w * (coords @ self.basis.T)

    def contains(self, x: Element, tol: float = 1e-10) -> bool:
        resid = x.coords - self.project_coords(x.coords)
        return np.sqrt(max(self.algebra.inner_coords(resid, resid), 0.0)) <= tol * max(
            1.0, x.norm()
        )


def project(x: Element, subspace: Subspace) -> Element:
    """Orthogonal projection of x onto the subspace (total; zero subspace -> 0)."""
    if x.algebra is not subspace.algebra:
        raise DomainError("projection requires a subspace of the same algebra")
    return Element(x.algebra, subspace.project_coords(x.coords))


@dataclass(frozen=True)
class CartanDecomposition:
    """Splitting g = k + m into +1/-1 eigenspaces of an involution.

    The involution acts by conjugation, X -> P X P^{-1}, with P*P = identity.
    k is the fixed subalgebra, m its orthogonal complement, and the pieces
    satisfy [k,k] in k, [k,m] in m, [m,m] in k.
    """

    algebra: MatrixLieAlgebra
    p_matrix: np.ndarray
    k: Subspace = field(init=False)
    m: Subspace = field(init=False)

    def __post_init__(self):
        alg = self.algebra
        p = np.array(self.p_matrix, dtype=float)
        if p.shape != (alg.n, alg.n):
            raise DimensionError(f"involution matrix must be {alg.n}x{alg.n}, got {p.shape}")
        if np.abs(p @ p - np.eye(alg.n)).max() > 1e-12:
            raise DomainError("involution matrix must square to the identity")
        object.__setattr__(self, "p_matrix", p)
        p.setflags(write=False)

        # Matrix of the differential X -> P X P on coordinate vectors.
        conj = p @ alg.basis @ p
        t = alg._coords(conj).T
        if np.abs(alg.to_matrices(t.T) - conj).max() > 1e-9:
            raise StructureError("conjugation by P does not preserve the algebra span")
        if np.abs(t @ t - np.eye(alg.dim)).max() > 1e-9:
            raise StructureError("differential of the involution does not square to identity")

        k = Subspace.span(alg, (np.eye(alg.dim) + t).T / 2.0)
        m = Subspace.span(alg, (np.eye(alg.dim) - t).T / 2.0)
        if k.dim + m.dim != alg.dim:
            raise StructureError(
                f"eigenspace dimensions {k.dim}+{m.dim} do not fill the algebra ({alg.dim})"
            )
        cross = alg._w * (k.basis @ m.basis.T)
        if np.abs(cross).max(initial=0.0) > 1e-10:
            raise StructureError("k and m are not orthogonal; involution is not an isometry")
        self._check_relations(k, m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def _check_relations(self, k: Subspace, m: Subspace) -> None:
        alg = self.algebra

        def max_leak(a: Subspace, b: Subspace, target: Subspace) -> float:
            # Every bracket [a_i, b_j] in batched commutators, in row chunks
            # of a that keep each temporary near 2**20 entries.
            step = max(1, (1 << 20) // max(1, b.dim * alg.n ** 2))
            y = alg.to_matrices(b.basis)[None]
            worst = 0.0
            for s in range(0, a.dim, step):
                x = alg.to_matrices(a.basis[s:s + step])[:, None]
                w = alg._coords(x @ y - y @ x).reshape(-1, alg.dim)
                resid = w - target.project_coords(w)
                worst = max(worst, np.einsum("ij,ij->i", resid, resid).max(initial=0.0))
            return float(np.sqrt(alg._w * worst))

        checks = [max_leak(k, k, k), max_leak(k, m, m), max_leak(m, m, k)]
        if max(checks) > CLOSURE_TOL:
            raise StructureError(
                f"Cartan relations fail (residuals {[f'{c:.2e}' for c in checks]})"
            )

    def project_k(self, x: Element) -> Element:
        return project(x, self.k)

    def project_m(self, x: Element) -> Element:
        return project(x, self.m)


def cartan_decompose(algebra: MatrixLieAlgebra, p_matrix) -> CartanDecomposition:
    """Cartan decomposition induced by conjugation with the involutive matrix P."""
    return CartanDecomposition(algebra, np.asarray(p_matrix, dtype=float))
