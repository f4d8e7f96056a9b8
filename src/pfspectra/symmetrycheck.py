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
# bounds the m^2 n (n - 1) entries of the tangent frame.  Xeon, one BLAS
# thread: 0.3-7 us per unit, the least for many small factors, so a check at
# the limit takes 15-300 ms (the most at --m 2 --n 80); --m 3 --n 3
# --samples 8 is 864 units and takes 4 ms.
MAX_PRODUCT_SPHERE_WORK = 50_000
FD_STEP = 1e-4  # step of the finite-difference second derivatives
_FD_BLOCK = 1 << 16  # numbers per velocity stack of the sphere-product oracle
# Eigenvalue clustering of the sphere-product check: coarser than
# CLUSTER_TOL, as its eigenvalues carry finite-difference noise near 1e-7.
PRODUCT_CLUSTER_TOL = 1e-5
STRATUM_TOL = 1e-10
# weyl_strata lists all 2^rank strata.  In one process, identity systems of
# rank 14 took 0.9 s and 90 MB, rank 18 took 20 s and 1.1 GB; rank 12 is
# 4096 strata in 0.26 s.
MAX_WEYL_RANK = 12
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


def _curve_dot_xi(vel: np.ndarray, p: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """<c_V''(0), xi> for each velocity V of a (k, m, n) stack.

    c_V runs on every factor along the great circle with c(0) = p and
    c'(0) = V_i (constant at p where V_i = 0).  The second derivative is a
    Richardson-extrapolated central second difference.
    """
    speed = np.sqrt(np.vecdot(vel, vel))[..., None]
    # A zero speed gives cos 1 and sin 0, so that factor stays at p.
    unit = np.divide(vel, speed, out=np.zeros_like(vel), where=speed != 0.0)

    def curve(t: float) -> np.ndarray:
        return np.cos(speed * t) * p + np.sin(speed * t) * unit

    def central(h: float) -> np.ndarray:
        return np.sum((curve(h) - 2.0 * curve(0.0) + curve(-h)) * xi, axis=(1, 2)) / (h * h)

    d1 = central(FD_STEP)
    d2 = central(FD_STEP / 2.0)
    return (4.0 * d2 - d1) / 3.0  # Richardson: O(h^4) truncation


def product_sphere_shape(m: int, n: int, normal_coeffs) -> np.ndarray:
    """Shape-operator matrix of S^{n-1}(1)^m inside S^{mn-1}(sqrt m).

    The normal direction is xi = (a_1 p_1, ..., a_m p_m) with sum a_i = 0
    (tangency to the ambient sphere) and sum a_i^2 = 1.  Entries come from
    a finite-difference second-fundamental-form oracle: for tangent V the
    quadratic form <A_xi V, V> equals <c_V''(0), xi> along the per-factor
    great-circle curve c_V, differentiated by Richardson-extrapolated
    central second differences.  The diagonal takes V = e_i, the entry
    (i, j) polarises with V = e_i + e_j and e_i - e_j; the curves of all
    these velocities run as stacks.  No closed-form eigenvalue data enters.
    """
    _check_product_dims(m, n)
    a = np.asarray(normal_coeffs, dtype=float)
    if a.shape != (m,):
        raise DimensionError(f"normal needs {m} coefficients, got shape {a.shape}")
    if not a.any():
        raise DomainError("normal direction is zero (all coefficients vanish)")
    # Scaled exactly by a power of two to a largest entry in [0.5, 1): the
    # sum test is relative, and the norm cannot overflow (above about 1.3e154).
    a = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
    if abs(a.sum()) > 1e-10:
        raise DomainError(f"normal coefficients must sum to zero (scaled sum {a.sum():.3e})")
    a = a / np.linalg.norm(a)

    # Base point (e_1, ..., e_1); the tangent frame of each factor is one
    # orthonormal completion of e_1.
    p = np.eye(n)[0]
    basis = np.linalg.svd(np.eye(n) - np.outer(p, p))[0][:, : n - 1]
    dim = m * (n - 1)
    frame = np.zeros((dim, m, n))
    for i in range(m):
        frame[i * (n - 1) : (i + 1) * (n - 1), i] = basis.T
    xi = a[:, None] * p

    mat = np.diag(_curve_dot_xi(frame, p, xi))
    # Blocks of pairs, so that no stack holds more than about _FD_BLOCK
    # numbers whatever the size.
    rows, cols = np.triu_indices(dim, 1)
    step = max(1, _FD_BLOCK // (m * n))
    for lo in range(0, len(rows), step):
        i, j = rows[lo : lo + step], cols[lo : lo + step]
        plus = _curve_dot_xi(frame[i] + frame[j], p, xi)
        minus = _curve_dot_xi(frame[i] - frame[j], p, xi)
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
    representative: tuple  # floats


def _dual_basis(fundamental_roots) -> np.ndarray:
    """Columns omega_j with <alpha_i, omega_j> = delta_ij, after checking that
    the fundamental system F has at most MAX_WEYL_RANK roots, is linearly
    independent and spans its space (rank = |F|).  The strata depend only on
    the root directions, so independence is judged on the roots scaled to
    unit length."""
    roots = np.asarray(fundamental_roots, dtype=float)
    if roots.ndim != 2:
        raise DimensionError("fundamental system must be a matrix of row vectors")
    count, rank = roots.shape
    if count > MAX_WEYL_RANK:  # weyl_strata lists 2^count strata
        raise DomainError(f"weyl takes at most {MAX_WEYL_RANK} simple roots, got {count}")
    # a power of two per row brings its largest entry into [0.5, 1) exactly,
    # so the unit rows come without overflow or underflow
    top = np.abs(roots).max(axis=1, initial=0.0)
    scaled = np.ldexp(roots, -np.frexp(top)[1][:, None])
    norms = np.linalg.norm(scaled, axis=1)
    independent = count == rank and norms.all()
    if not (independent and abs(np.linalg.det(scaled / norms[:, None])) >= 1e-12):
        raise DomainError("fundamental system must be a linearly independent basis")
    duals = np.linalg.inv(roots)
    if not np.isfinite(duals).all():  # a root too short for its dual to be a float
        raise DomainError("fundamental system has a dual basis beyond the float range")
    return duals


def weyl_strata(fundamental_roots):
    """All 2^|F| strata of the closed chamber of a fundamental system F.

    The stratum for a subset keeps its roots positive and kills the rest;
    its dimension is rank - |F \\ subset|.
    """
    duals = _dual_basis(fundamental_roots)
    rank = len(duals)
    strata = []
    for mask in range(1 << rank):
        active = tuple(i for i in range(rank) if mask & (1 << i))
        rep = duals[:, list(active)].sum(axis=1) if active else np.zeros(rank)
        strata.append(WeylStratum(active, len(active), tuple(rep.tolist())))
    return strata


def isolated_directions(fundamental_roots):
    """Unit representatives of the one-dimensional strata (|active| = 1):
    the dual-basis vectors, normalized."""
    out = []
    for rep in _dual_basis(fundamental_roots).T:
        rep = np.ldexp(rep, -np.frexp(np.abs(rep).max())[1])  # exact, before squaring
        out.append(rep / np.linalg.norm(rep))
    return out


def stratum_membership(roots, w, active) -> bool:
    """Does w lie in the stratum where exactly ``active`` roots are positive
    (beyond STRATUM_TOL, and the others vanish to within it)?"""
    vals = np.asarray(roots, dtype=float) @ np.asarray(w, dtype=float)
    on = np.isin(np.arange(len(vals)), list(active))
    return bool((vals[on] > STRATUM_TOL).all() and (np.abs(vals[~on]) <= STRATUM_TOL).all())


# ---------------------------------------------------------------------------
# The codimension-two SO(9) orbit
# ---------------------------------------------------------------------------


def so9_conjugation_matrix() -> np.ndarray:
    """The orthogonal 9x9 block matrix aligning the subgroup pair."""
    root2, root3 = math.sqrt(2.0), math.sqrt(3.0)
    blocks = np.array([[root2, root3, 1.0], [root2, -root3, 1.0], [root2, 0.0, -2.0]])
    return np.kron(blocks, np.eye(3)) / math.sqrt(6.0)


def so9_normal_matrix(x: float, y: float) -> np.ndarray:
    """Skew matrix of the two-parameter normal family of the orbit."""
    out = np.zeros((9, 9))
    out[0, 3] = -2.0 * x
    out[0, 6] = -x - y
    out[3, 6] = x - y
    return out - out.T


def so9_swap_matrix(i: int, j: int) -> np.ndarray:
    """Orthogonal matrix swapping 3x3 coordinate blocks i and j (1-based)."""
    if not (1 <= i < j <= 3):
        raise DomainError(f"block indices must satisfy 1 <= i < j <= 3, got ({i}, {j})")
    perm = np.eye(3)
    perm[[i - 1, j - 1]] = perm[[j - 1, i - 1]]
    return np.kron(perm, np.eye(3))


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

    # First subalgebra: three diagonal so(3) blocks, the E_ij with i, j in
    # one 3x3 block.
    rows, cols = np.triu_indices(9, 1)
    kp = np.eye(alg.dim)[rows // 3 == cols // 3]
    # Second subalgebra: conjugated copy of the E_ij with zero first row,
    # the basis after the 8 E_0j.
    kk = alg.from_matrix(q @ alg.basis[8:] @ q.T)

    h_basis = gram_schmidt(alg, np.vstack([kp, kk]))
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
    coords = alg.from_matrix(conj @ alg.to_matrices(basis_rows) @ conj.T)
    resid = coords - alg.inner(coords, basis_rows) @ basis_rows
    return float(alg.norm(resid).max(initial=0.0))


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

    angles = [2.0 * math.pi * idx / grid_size for idx in range(grid_size)]
    points = [(math.cos(ang), math.sin(ang)) for ang in angles]
    xis = alg.from_matrix(np.stack([so9_normal_matrix(x, y) for x, y in points]))
    samples = []
    all_ok = True
    for (x, y), xi in zip(points, xis):
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
