"""The Lie algebra so(n) with a trace inner product, and its Cartan decompositions.

Every algebra here is so(n), the real skew-symmetric n x n matrices.  An
element is a plain float array of its coordinates: the strict upper-triangle
entries X[i, j], i < j, in row-major order (see ``so_pair_index``), so the
coordinate basis is E_ij = e_i e_j^T - e_j e_i^T.  A (k, dim) array is a
stack of k elements.  The inner product is ``<X, Y> = -ip_scale * tr(XY)``;
in these coordinates its Gram matrix is ``2 * ip_scale * I``.  Brackets are
matrix commutators, O(n^3) each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, StructureError

# Tolerances used by construction-time validation.
CLOSURE_TOL = 1e-10
JACOBI_TOL = 1e-9
SUBSPACE_GRAM_TOL = 1e-10
PROBES = 3  # randomised probes per algebra and per Cartan decomposition
# Largest n for so(n): a Cartan split orthonormalises dim = n(n-1)/2
# vectors of that length, O(n^6); decompose --n 40 takes about 0.6 s and
# 120 MB with one BLAS thread.
MAX_SO_N = 40


class MatrixLieAlgebra:
    """so(n) in strict-upper-triangle coordinates."""

    def __init__(self, n: int, ip_scale: float):
        if not 2 <= n <= MAX_SO_N:
            raise DimensionError(f"so(n) needs 2 <= n <= {MAX_SO_N}, got {n}")
        if ip_scale <= 0:
            raise DomainError(f"ip_scale must be positive, got {ip_scale}")
        self.n = int(n)
        self.dim = self.n * (self.n - 1) // 2
        self.ip_scale = float(ip_scale)
        self._w = 2.0 * self.ip_scale  # <e_a, e_b> = _w * delta_ab
        self._rows, self._cols = np.triu_indices(self.n, 1)
        self._basis = None
        self._probe()

    def _probe(self) -> None:
        """Randomised Jacobi and ad-invariance probes, O(n^3) each, in one batch."""
        x, y, z = np.random.default_rng(0).standard_normal((3, PROBES, self.dim))
        br = self.bracket
        tol = JACOBI_TOL * max(1.0, np.prod(np.linalg.norm([x, y, z], axis=2), axis=0).max())
        jac = np.abs(br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))).max()
        if jac > tol:
            raise StructureError(f"Jacobi identity violated (residual {jac:.3e})")
        adinv = self._w * np.abs(np.sum(br(x, y) * z + y * br(x, z), axis=1)).max()
        if adinv > tol:
            raise StructureError(f"inner product is not ad-invariant (residual {adinv:.3e})")

    def _checked(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1:] != (self.dim,):
            raise DimensionError(f"expected {self.dim} coefficients, got shape {coords.shape}")
        return coords

    # -- coordinate/matrix conversions ----------------------------------------------

    def to_matrices(self, coords) -> np.ndarray:
        """Matrices of a (..., dim) stack of coordinate vectors."""
        coords = self._checked(coords)
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

    def from_matrix(self, mat) -> np.ndarray:
        """Coordinates of a matrix, which must be skew-symmetric (to
        CLOSURE_TOL relative to its largest entry)."""
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.n, self.n):
            raise DimensionError(f"expected a {self.n}x{self.n} matrix, got {mat.shape}")
        resid = 0.5 * np.abs(mat + mat.T).max()  # distance to the skew part
        if resid > CLOSURE_TOL * max(1.0, np.abs(mat).max()):
            raise DomainError(f"matrix is not in the algebra span (residual {resid:.3e})")
        return self._coords(mat)

    # -- algebra operations --------------------------------------------------------

    def ad_matrix(self, x) -> np.ndarray:
        """Matrix of ad(x) = [x, .] acting on coordinate vectors."""
        xm, basis = self.to_matrices(x), self.basis
        return self._coords(xm @ basis - basis @ xm).T

    def bracket(self, a, b) -> np.ndarray:
        """Coordinates of [a, b]; a and b may be broadcastable stacks."""
        x, y = self.to_matrices(a), self.to_matrices(b)
        return self._coords(x @ y - y @ x)

    def inner(self, a, b):
        """Ad-invariant inner products -ip_scale * tr(xy) of every row of a
        with every row of b; for two vectors, one number."""
        return self._w * (self._checked(a) @ self._checked(b).T)

    def norm(self, a):
        """Norm of a coordinate vector, or of each row of a stack."""
        a = self._checked(a)
        return np.sqrt(np.maximum(self._w * np.vecdot(a, a), 0.0))


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


def gram_schmidt(algebra: MatrixLieAlgebra, vectors) -> np.ndarray:
    """Gram-Schmidt with one re-orthogonalization pass.

    Returns the orthonormal rows, as a (k, dim) array, under the algebra
    inner product.  A vector whose residual falls below 1e-12 times the
    largest input norm is dropped, so a roundoff-only input never becomes a
    basis vector.
    """
    vecs = np.array(vectors, dtype=float).reshape(-1, algebra.dim)
    cut = 1e-12 * algebra.norm(vecs).max(initial=0.0)
    out = np.empty_like(vecs)
    k = 0
    for v in vecs:
        for _ in range(2):  # second pass controls cancellation
            v = v - algebra.inner(out[:k], v) @ out[:k]
        nrm = algebra.norm(v)
        if nrm > cut:
            out[k] = v / nrm
            k += 1
    return out[:k]


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
        gram = self.algebra.inner(arr, arr)
        if arr.shape[0] and np.abs(gram - np.eye(arr.shape[0])).max() > SUBSPACE_GRAM_TOL:
            raise StructureError("subspace basis is not orthonormal")
        object.__setattr__(self, "basis", arr)
        arr.setflags(write=False)

    @classmethod
    def span(cls, algebra: MatrixLieAlgebra, vectors) -> "Subspace":
        """Subspace spanned by arbitrary coefficient vectors (orthonormalized)."""
        return cls(algebra, gram_schmidt(algebra, vectors))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project_coords(self, coords: np.ndarray) -> np.ndarray:
        """Projection of a vector, or of a stack of row vectors."""
        return self.coefficients(coords) @ self.basis

    def coefficients(self, coords: np.ndarray) -> np.ndarray:
        """Components of a vector (or row stack) along the orthonormal basis."""
        return self.algebra.inner(coords, self.basis)

    def contains(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        alg = self.algebra
        return alg.norm(x - self.project_coords(x)) <= tol * max(1.0, alg.norm(x))


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
        cross = alg.inner(k.basis, m.basis)
        if np.abs(cross).max(initial=0.0) > 1e-10:
            raise StructureError("k and m are not orthogonal; involution is not an isometry")
        self._check_relations(k, m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def _check_relations(self, k: Subspace, m: Subspace) -> None:
        """[k,k] in k, [k,m] in m and [m,m] in k on random combinations.

        With P^2 = I and the span check passed, X -> PXP is a bracket
        automorphism and the relations hold; batched probes catch a wrong
        split without bracketing every pair of basis vectors.
        """
        alg = self.algebra
        rng = np.random.default_rng(0)
        ka, kb = rng.standard_normal((2, PROBES, k.dim)) @ k.basis
        ma, mb = rng.standard_normal((2, PROBES, m.dim)) @ m.basis
        checks = []
        for a, b, target in ((ka, kb, k), (ka, ma, m), (ma, mb, k)):
            w = alg.bracket(a, b)
            scale = np.maximum(1.0, alg.norm(a) * alg.norm(b))
            checks.append(float((alg.norm(w - target.project_coords(w)) / scale).max()))
        if max(checks) > CLOSURE_TOL:
            raise StructureError(
                f"Cartan relations fail (residuals {[f'{c:.2e}' for c in checks]})"
            )


def cartan_decompose(algebra: MatrixLieAlgebra, p_matrix) -> CartanDecomposition:
    """Cartan decomposition induced by conjugation with the involutive matrix P."""
    return CartanDecomposition(algebra, np.asarray(p_matrix, dtype=float))
