"""The Lie algebra so(n) with a trace inner product, and its Cartan decompositions.

Every algebra here is so(n), the real skew-symmetric n x n matrices.  An
element is a plain float array of its coordinates: the strict upper-triangle
entries X[i, j], i < j, in row-major order (that of ``np.triu_indices(n, 1)``),
so the coordinate basis is E_ij = e_i e_j^T - e_j e_i^T.  A (k, dim) array is
a stack of k elements.  The inner product is ``<X, Y> = -ip_scale * tr(XY)``;
in these coordinates its Gram matrix is ``2 * ip_scale * I``.  Every map of
so(n) acts on coordinates: brackets are matrix commutators, O(n^3) each, and
``conjugate`` is the one conjugation X -> q X q^T by an orthogonal q.
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
# Largest n for so(n).  A Cartan split conjugates all dim = n(n-1)/2
# coordinate vectors as one (dim, n, n) stack of matrices, O(n^4) memory and
# O(n^5) time; the group oracle brackets xi with every row of a k + TN basis
# the same way.  Xeon, one BLAS thread: decompose --n 40 takes about 0.13 s
# and 45 MB above the interpreter's 58 MB; the group oracle's sample at
# --l 39 (so(40)) takes about 0.24 s.
MAX_SO_N = 40
# Accepted ip_scale.  The probes and the Cartan relations scale their
# roundoff with ip_scale or its inverse; for n = 2..40 (last-axis, half-half
# and randomly rotated involutions) they passed from 1e-10 to 5.6e6.  This
# range keeps at least a decade inside that.
IP_SCALE_RANGE = (1e-9, 1e5)


class MatrixLieAlgebra:
    """so(n) in strict-upper-triangle coordinates."""

    def __init__(self, n: int, ip_scale: float):
        if not 2 <= n <= MAX_SO_N:
            raise DimensionError(f"so(n) needs 2 <= n <= {MAX_SO_N}, got {n}")
        lo, hi = IP_SCALE_RANGE
        if not lo <= ip_scale <= hi:
            raise DomainError(f"ip_scale must be between {lo:g} and {hi:g}, got {ip_scale}")
        self.n = int(n)
        self.dim = self.n * (self.n - 1) // 2
        self.ip_scale = float(ip_scale)
        self._w = 2.0 * self.ip_scale  # <e_a, e_b> = _w * delta_ab
        self._rows, self._cols = np.triu_indices(self.n, 1)
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
        """Coordinates of the skew part of a (..., n, n) stack.  Halving
        each entry before the difference cannot overflow, and away from
        subnormals gives the same bits as halving the difference."""
        return 0.5 * mats[..., self._rows, self._cols] - 0.5 * mats[..., self._cols, self._rows]

    def from_matrix(self, mat) -> np.ndarray:
        """Coordinates of a matrix, or of each matrix of a (..., n, n) stack.

        Each matrix must be skew-symmetric to CLOSURE_TOL relative to its
        own largest entry; the error names the largest failing residual.
        """
        mat = np.asarray(mat, dtype=float)
        if mat.shape[-2:] != (self.n, self.n):
            raise DimensionError(f"expected a {self.n}x{self.n} matrix, got {mat.shape}")
        # Distance of each matrix to its skew part, against its own scale.
        resid = 0.5 * np.abs(mat + mat.mT).max(axis=(-2, -1))
        bad = resid > CLOSURE_TOL * np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
        if bad.any():
            raise DomainError(
                f"matrix is not in the algebra span (residual {resid[bad].max():.3e})"
            )
        return self._coords(mat)

    # -- algebra operations --------------------------------------------------------

    def bracket(self, a, b) -> np.ndarray:
        """Coordinates of [a, b]; a and b may be broadcastable stacks."""
        x, y = self.to_matrices(a), self.to_matrices(b)
        return self._coords(x @ y - y @ x)

    def conjugate(self, q, a) -> np.ndarray:
        """Coordinates of q X q^T for an orthogonal n x n matrix q and the
        element X of a, or of each element of a (..., dim) stack."""
        return self._coords(q @ self.to_matrices(a) @ q.T)

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


def gram_schmidt(algebra: MatrixLieAlgebra, vectors) -> np.ndarray:
    """Gram-Schmidt with one re-orthogonalization pass.

    Returns the orthonormal rows, as a (k, dim) array, under the algebra
    inner product.  A vector whose residual falls below 1e-12 times the
    largest input norm is dropped, so a roundoff-only input never becomes a
    basis vector.
    """
    # C order: the sums, and so the bits, do not depend on the input's layout.
    vecs = np.array(vectors, dtype=float, order="C").reshape(-1, algebra.dim)
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

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project_coords(self, coords: np.ndarray) -> np.ndarray:
        """Projection of a vector, or of a stack of row vectors."""
        return self.algebra.inner(coords, self.basis) @ self.basis

    def contains(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        """Whether a vector, or every row of a stack, lies in the span."""
        alg = self.algebra
        resid = alg.norm(x - self.project_coords(x))
        return bool(np.all(resid <= tol * np.maximum(1.0, alg.norm(x))))


@dataclass(frozen=True)
class CartanDecomposition:
    """Splitting g = k + m into +1/-1 eigenspaces of an involution.

    The involution acts by conjugation, X -> P X P, where P is a symmetric
    matrix with P*P = identity.  One eigendecomposition P = Q diag(s) Q^T
    gives the orthonormal basis q_i q_j^T - q_j q_i^T (i < j) of g, on
    which conjugation acts as s_i s_j: k, the fixed subalgebra, takes the
    pairs with s_i = s_j and m, its orthogonal complement, the rest.  The
    pieces satisfy [k,k] in k, [k,m] in m, [m,m] in k.  Ordering by
    eigh(-P) puts the +1 eigenvectors first, so a diagonal P = diag(1^p,
    -1^q) gives Q = I and coordinate bases.
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
        if np.abs(p - p.T).max() > 1e-9:
            raise StructureError("involution matrix is not symmetric, so not an isometry")
        object.__setattr__(self, "p_matrix", p)
        p.setflags(write=False)

        neg_s, q = np.linalg.eigh(-p)
        plus = neg_s < 0.0
        rows = alg.conjugate(q, np.eye(alg.dim)) / np.sqrt(alg._w)
        fixed = plus[alg._rows] == plus[alg._cols]
        k, m = Subspace(alg, rows[fixed]), Subspace(alg, rows[~fixed])
        self._check_relations(k, m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def _check_relations(self, k: Subspace, m: Subspace) -> None:
        """[k,k] in k, [k,m] in m and [m,m] in k on random combinations.

        With P symmetric and P^2 = I, X -> PXP is a bracket automorphism
        and the relations hold; batched probes catch a wrong split without
        bracketing every pair of basis vectors.
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
