"""Austere and arid verification tools.

A finite eigenvalue multiset is austere when it is invariant under
negation, multiplicities included.  For the infinite path-space spectrum
the same property reduces to a family pairing rule: lambda families must
pair lambda <-> -lambda, and within each frequency nu the mu families must
pair lambda <-> -lambda (the lambda = 0 family is self-paired, as are the
harmonic and zero families).

Aridity is checked by exhibiting, for every normal direction, an isometry
that fixes the base point, preserves the submanifold, and moves the
direction.  Two concrete geometries are provided: products of round
spheres inside a larger sphere (via a finite-difference second-fundamental
-form oracle) and a codimension-two orbit in SO(9) where block-swap
conjugations supply the isometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StructureError
from .spectra import (
    CLUSTER_TOL,
    EigenMultiset,
    PrincipalSpectrum,
    check_work,
    cluster_indices,
    enumerate_by_floor,
)

MAX_SO9_GRID = 10_000  # samples on the normal circle of the SO(9) orbit
# product_sphere_austere work: normals * dim^2 * m for dim = m (n - 1) tangent
# directions (dim^2 second differences, each along m factor curves); it also
# bounds the m^2 n (n - 1) entries of the tangent frame.  Xeon: 30-60 us per
# unit, so the limit is 1.5-3 s; --m 3 --n 3 --samples 8 is 864 units.
MAX_PRODUCT_SPHERE_WORK = 50_000
FD_STEP = 1e-4  # step of the finite-difference second derivatives
# Eigenvalue clustering of the sphere-product check: coarser than
# CLUSTER_TOL, as its eigenvalues carry finite-difference noise near 1e-7.
PRODUCT_CLUSTER_TOL = 1e-5
STRATUM_TOL = 1e-10
# Arid certificate: a conjugation preserves the tangent space to
# PRESERVE_TOL and moves xi by more than MOVE_TOL.
PRESERVE_TOL = 1e-9
MOVE_TOL = 1e-8


def austere_check_finite(ms: EigenMultiset, tol: float = CLUSTER_TOL) -> bool:
    """True when the multiset is invariant under negation.

    Entries within tol of zero pair with themselves; the i-th most negative
    entry must mirror the i-th most positive one, multiplicity included.
    """
    entries = sorted(ms.entries)
    neg = [(v, m) for v, m in entries if v < -tol]
    pos = [(v, m) for v, m in reversed(entries) if v > tol]
    return len(neg) == len(pos) and all(
        abs(nv + pv) <= tol and nm == pm for (nv, nm), (pv, pm) in zip(neg, pos)
    )


def austere_check_pf(spectrum: PrincipalSpectrum) -> bool:
    """Negation-invariance of the full path-space spectrum via family pairing.

    Zero and harmonic families are self-paired.  Lambda families must pair
    value-wise; mu families must pair lambda <-> -lambda within the same
    frequency (lambda = 0 is self-paired: its value set is symmetric under
    m -> -m - 1).  Values cluster at CLUSTER_TOL.
    """
    if not austere_check_finite(EigenMultiset.from_pairs(spectrum.lambdas)):
        return False
    mus = spectrum.mus
    for same_nu in cluster_indices([nu for nu, _, _ in mus], CLUSTER_TOL):
        pairs = [mus[i][1:] for i in same_nu]
        if not austere_check_finite(EigenMultiset.from_pairs(pairs)):
            return False
    return True


def austere_check_enumerated(spectrum: PrincipalSpectrum, value_floor: float) -> bool:
    """Literal negation check on all enumerated eigenvalues above a floor.

    The floor window is symmetric under negation, so this agrees with the
    family-pairing rule whenever the enumeration is faithful.
    """
    pairs = enumerate_by_floor(spectrum, value_floor)
    return austere_check_finite(EigenMultiset.from_pairs(pairs))


# ---------------------------------------------------------------------------
# Products of round spheres in a larger sphere
# ---------------------------------------------------------------------------


def _check_product_dims(m: int, n: int) -> None:
    if m < 2 or n < 2:
        raise DimensionError(f"need m >= 2 factors of dimension n - 1 >= 1, got ({m}, {n})")


def _factor_curve(p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Great-circle curve on a unit sphere factor with c(0)=p, c'(0)=v."""
    s = np.linalg.norm(v)
    if s == 0.0:
        return p.copy()
    return math.cos(s * t) * p + math.sin(s * t) * (v / s)


def product_sphere_shape(m: int, n: int, normal_coeffs, base_point=None) -> np.ndarray:
    """Shape-operator matrix of S^{n-1}(1)^m inside S^{mn-1}(sqrt m).

    The normal direction is xi = (a_1 p_1, ..., a_m p_m) with sum a_i = 0
    (tangency to the ambient sphere) and sum a_i^2 = 1.  Entries come from
    a finite-difference second-fundamental-form oracle: for tangent V the
    quadratic form <A_xi V, V> equals <c_V''(0), xi> along the per-factor
    great-circle curve c_V, differentiated by Richardson-extrapolated
    central second differences.  No closed-form eigenvalue data enters.
    """
    _check_product_dims(m, n)
    a = np.asarray(normal_coeffs, dtype=float)
    if a.shape != (m,):
        raise DimensionError(f"normal needs {m} coefficients, got shape {a.shape}")
    if abs(a.sum()) > 1e-10:
        raise DomainError(f"normal coefficients must sum to zero (got {a.sum():.3e})")
    nrm = np.linalg.norm(a)
    if nrm < 1e-12:
        raise DomainError("normal direction is zero (all coefficients vanish)")
    a = a / nrm

    if base_point is None:
        pts = [np.eye(n)[0] for _ in range(m)]
    else:
        pts = [np.asarray(p, dtype=float) for p in base_point]
        if len(pts) != m or any(p.shape != (n,) for p in pts):
            raise DimensionError("base point must list m unit vectors of length n")
        if any(abs(np.linalg.norm(p) - 1.0) > 1e-10 for p in pts):
            raise DomainError("base point factors must be unit vectors")

    # Orthonormal tangent frame: per factor, any completion of p_i.
    frame = []
    for i, p in enumerate(pts):
        basis = np.linalg.svd(np.eye(n) - np.outer(p, p))[0][:, : n - 1]
        for c in range(n - 1):
            vec = np.zeros((m, n))
            vec[i] = basis[:, c]
            frame.append(vec)
    dim = len(frame)

    xi = np.array([a[i] * pts[i] for i in range(m)])

    def curve(vel: np.ndarray, t: float) -> np.ndarray:
        return np.array([_factor_curve(pts[i], vel[i], t) for i in range(m)])

    def second_derivative_dot_xi(vel: np.ndarray) -> float:
        def central(h: float) -> float:
            cp = curve(vel, h)
            cm = curve(vel, -h)
            c0 = curve(vel, 0.0)
            return float(np.sum((cp - 2.0 * c0 + cm) * xi)) / (h * h)

        d1 = central(FD_STEP)
        d2 = central(FD_STEP / 2.0)
        return (4.0 * d2 - d1) / 3.0  # Richardson: O(h^4) truncation

    mat = np.zeros((dim, dim))
    for i in range(dim):
        mat[i, i] = second_derivative_dot_xi(frame[i])
        for j in range(i + 1, dim):
            plus = second_derivative_dot_xi(frame[i] + frame[j])
            minus = second_derivative_dot_xi(frame[i] - frame[j])
            mat[i, j] = mat[j, i] = (plus - minus) / 4.0
    return 0.5 * (mat + mat.T)


def sample_product_normals(m: int, count: int, rng: np.random.Generator):
    """Unit normal coefficient vectors on {sum a = 0, sum a^2 = 1}."""
    if m < 2:
        raise DimensionError(f"centred normals need m >= 2 coefficients, got {m}")
    out = []
    while len(out) < count:
        a = rng.standard_normal(m)
        a -= a.mean()
        nrm = np.linalg.norm(a)
        if nrm > 1e-6:
            out.append(a / nrm)
    return out


def product_sphere_austere(
    m: int,
    n: int,
    normals=None,
    samples: int = 32,
    rng: np.random.Generator | None = None,
):
    """Austerity report for S^{n-1}(1)^m over sampled normal directions.

    Returns (austere, details): austere is True when every sampled normal
    yields a negation-invariant shape spectrum, clustered at
    PRODUCT_CLUSTER_TOL.
    """
    _check_product_dims(m, n)
    dim = m * (n - 1)
    count = samples if normals is None else len(normals)
    check_work("the sphere-product check", count * dim * dim * m, MAX_PRODUCT_SPHERE_WORK)
    if normals is None:
        rng = rng or np.random.default_rng(0)
        normals = sample_product_normals(m, samples, rng)
    details = []
    all_ok = True
    for a in normals:
        eig = np.linalg.eigvalsh(product_sphere_shape(m, n, a))
        ms = EigenMultiset.from_pairs([(v, 1) for v in eig], PRODUCT_CLUSTER_TOL)
        ok = austere_check_finite(ms, PRODUCT_CLUSTER_TOL)
        all_ok &= ok
        details.append({"normal": list(np.asarray(a, dtype=float)), "austere": ok,
                        "eigenvalues": [v for v, _ in ms.entries]})
    return all_ok, details


# ---------------------------------------------------------------------------
# Weyl chamber strata
# ---------------------------------------------------------------------------

BUILTIN_ROOT_SYSTEMS = {
    "A2": [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0]],
    "B2": [[1.0, -1.0], [0.0, 1.0]],
    "G2": [[1.0, 0.0], [-1.5, math.sqrt(3.0) / 2.0]],
}


@dataclass(frozen=True)
class WeylStratum:
    """One boundary stratum of the closed fundamental chamber.

    ``active`` indexes the simple roots kept strictly positive; the others
    are pinned to zero.  The representative sums the dual-basis vectors of
    the active roots.
    """

    active: tuple  # sorted indices into the fundamental system
    dim: int
    representative: np.ndarray

    def to_json(self) -> dict:
        return {
            "active": list(self.active),
            "dim": self.dim,
            "representative": list(self.representative),
        }


def weyl_strata(fundamental_roots):
    """All 2^|F| strata of the closed chamber of a fundamental system F.

    F must be linearly independent and span its space (rank = |F|).  The
    stratum for a subset keeps its roots positive and kills the rest; its
    dimension is rank - |F \\ subset|.
    """
    roots = np.asarray(fundamental_roots, dtype=float)
    if roots.ndim != 2:
        raise DimensionError("fundamental system must be a matrix of row vectors")
    count, rank = roots.shape
    if count != rank or abs(np.linalg.det(roots)) < 1e-12:
        raise DomainError("fundamental system must be a linearly independent basis")
    duals = np.linalg.inv(roots)  # columns: <alpha_i, omega_j> = delta_ij
    strata = []
    for mask in range(1 << count):
        active = tuple(i for i in range(count) if mask & (1 << i))
        rep = duals[:, list(active)].sum(axis=1) if active else np.zeros(rank)
        strata.append(WeylStratum(active, len(active), rep))
    return strata


def isolated_directions(fundamental_roots):
    """Unit representatives of the one-dimensional strata (|active| = 1)."""
    out = []
    for st in weyl_strata(fundamental_roots):
        if st.dim == 1:
            rep = st.representative
            out.append(rep / np.linalg.norm(rep))
    return out


def stratum_membership(roots, w, active) -> bool:
    """Does w lie in the stratum where exactly ``active`` roots are positive
    (beyond STRATUM_TOL, and the others vanish to within it)?"""
    roots = np.asarray(roots, dtype=float)
    vals = roots @ np.asarray(w, dtype=float)
    for i, v in enumerate(vals):
        if i in active:
            if v <= STRATUM_TOL:
                return False
        elif abs(v) > STRATUM_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# The codimension-two SO(9) orbit
# ---------------------------------------------------------------------------


def so9_conjugation_matrix() -> np.ndarray:
    """The orthogonal 9x9 block matrix aligning the subgroup pair."""
    e = np.eye(3)
    root2, root3 = math.sqrt(2.0), math.sqrt(3.0)
    q = np.zeros((9, 9))
    q[0:3, 0:3] = root2 * e
    q[0:3, 3:6] = root3 * e
    q[0:3, 6:9] = e
    q[3:6, 0:3] = root2 * e
    q[3:6, 3:6] = -root3 * e
    q[3:6, 6:9] = e
    q[6:9, 0:3] = root2 * e
    q[6:9, 6:9] = -2.0 * e
    return q / math.sqrt(6.0)


def so9_normal_matrix(x: float, y: float) -> np.ndarray:
    """Skew matrix of the two-parameter normal family of the orbit."""
    u = np.diag([-2.0 * x, 0.0, 0.0])
    v = np.diag([-x - y, 0.0, 0.0])
    w = np.diag([x - y, 0.0, 0.0])
    out = np.zeros((9, 9))
    out[0:3, 3:6] = u
    out[0:3, 6:9] = v
    out[3:6, 6:9] = w
    return out - out.T


def so9_swap_matrix(i: int, j: int) -> np.ndarray:
    """Orthogonal matrix swapping 3x3 coordinate blocks i and j (1-based)."""
    if not (1 <= i < j <= 3):
        raise DomainError(f"block indices must satisfy 1 <= i < j <= 3, got ({i}, {j})")
    perm = list(range(3))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    out = np.zeros((9, 9))
    for a, b in enumerate(perm):
        out[3 * a : 3 * a + 3, 3 * b : 3 * b + 3] = np.eye(3)
    return out


@dataclass(frozen=True)
class SO9Example:
    """Ingredients of the codimension-two orbit in SO(9).

    ``algebra`` is so(9); ``h_basis`` spans the tangent space of the orbit
    at the identity (the sum of the two subalgebras), and ``kk_basis`` the
    second, conjugated subalgebra alone; ``normal_basis`` is the
    two-dimensional orthogonal complement of ``h_basis``, matching the
    printed normal family; ``swaps`` are the three block-swap conjugations
    used as candidate isometries.
    """

    algebra: object  # MatrixLieAlgebra so(9)
    q_matrix: np.ndarray
    h_basis: np.ndarray  # (34, 36) orthonormal coefficient rows
    kk_basis: np.ndarray  # (28, 36) orthonormal coefficient rows
    normal_basis: np.ndarray  # (2, 36)
    swaps: tuple  # three 9x9 orthogonal matrices


def so9_build() -> SO9Example:
    """Assemble the orbit data and verify its advertised structure."""
    from .liecore import build_so, gram_schmidt

    alg = build_so(9)
    q = so9_conjugation_matrix()
    if np.abs(q @ q.T - np.eye(9)).max() > 1e-14:
        raise StructureError("conjugation matrix is not orthogonal")

    # First subalgebra: three diagonal so(3) blocks.
    kp = []
    for blk in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                mat = np.zeros((9, 9))
                mat[3 * blk + i, 3 * blk + j] = 1.0
                mat[3 * blk + j, 3 * blk + i] = -1.0
                kp.append(alg.from_matrix(mat))
    # Second subalgebra: conjugated copy of the matrices with zero first row.
    kk = []
    for i in range(1, 9):
        for j in range(i + 1, 9):
            mat = np.zeros((9, 9))
            mat[i, j] = 1.0
            mat[j, i] = -1.0
            kk.append(alg.from_matrix(q @ mat @ q.T))

    h_basis = gram_schmidt(alg, kp + kk)
    if h_basis.shape[0] != 34:
        raise StructureError(f"orbit tangent space has dim {h_basis.shape[0]}, expected 34")
    kk_basis = gram_schmidt(alg, kk)

    # Orthogonal complement inside so(9): the coordinate vectors
    # orthonormalised after h_basis.
    normal_basis = gram_schmidt(alg, np.vstack([h_basis, np.eye(alg.dim)]))[len(h_basis):]
    if normal_basis.shape[0] != 2:
        raise StructureError(
            f"normal space has dim {normal_basis.shape[0]}, expected 2"
        )

    swaps = tuple(so9_swap_matrix(i, j) for i, j in ((1, 2), (1, 3), (2, 3)))
    return SO9Example(alg, q, h_basis, kk_basis, normal_basis, swaps)


def subspace_preserved(alg, basis_rows: np.ndarray, conj: np.ndarray) -> float:
    """Max residual of conjugated basis vectors against the subspace span."""
    worst = 0.0
    for row in basis_rows:
        coords = alg.from_matrix(conj @ alg.to_matrices(row) @ conj.T)
        resid = coords - alg.inner(basis_rows, coords) @ basis_rows
        worst = max(worst, float(alg.norm(resid)))
    return worst


def arid_orbit_candidate_check(alg, xi: np.ndarray, conjugations, preserve_residuals):
    """Find a conjugation preserving the tangent space but moving xi.

    ``preserve_residuals`` holds each conjugation's ``subspace_preserved``
    residual on the tangent space; it does not depend on xi, so a caller
    scanning many directions computes it once.  Returns the index of the
    first success, or None.  This is the generic aridity certificate: a
    fixed-point isometry of the ambient group that maps the orbit to itself
    while displacing the chosen normal direction.
    """
    xi_mat = alg.to_matrices(xi)
    for idx, (conj, resid) in enumerate(zip(conjugations, preserve_residuals)):
        if resid <= PRESERVE_TOL and np.abs(conj @ xi_mat @ conj.T - xi_mat).max() > MOVE_TOL:
            return idx
    return None


def so9_arid_verify(grid_size: int = 64):
    """Check aridity of the SO(9) orbit on a circle of normal directions.

    For each sampled unit normal xi(x, y) some block swap must move xi while
    preserving the orbit's tangent space.  The report records, per sample,
    the swap found, and globally whether the swaps also preserve the two
    subalgebras separately.
    """
    if not 4 <= grid_size <= MAX_SO9_GRID:
        raise DomainError(
            f"need between 4 and {MAX_SO9_GRID} samples on the normal circle, got {grid_size}"
        )
    ex = so9_build()
    alg = ex.algebra
    swap_names = ["(1,2)", "(1,3)", "(2,3)"]

    h_pres = [subspace_preserved(alg, ex.h_basis, s) for s in ex.swaps]
    # Does each swap preserve the second subalgebra alone?  Recorded for
    # reference alongside the full tangent-space check.
    k_pres = [subspace_preserved(alg, ex.kk_basis, s) for s in ex.swaps]

    samples = []
    all_ok = True
    for idx in range(grid_size):
        ang = 2.0 * math.pi * idx / grid_size
        x, y = math.cos(ang), math.sin(ang)
        xi = alg.from_matrix(so9_normal_matrix(x, y))
        found = arid_orbit_candidate_check(alg, xi, ex.swaps, h_pres)
        ok = found is not None
        all_ok &= ok
        samples.append({"x": x, "y": y, "swap": swap_names[found] if ok else None, "ok": ok})
    return {
        "passed": bool(all_ok),
        "samples": samples,
        "tangent_preservation_residuals": h_pres,
        "subalgebra_preservation_residuals": k_pres,
    }
