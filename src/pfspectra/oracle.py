"""Independent numerical routes to the principal-curvature spectrum.

Three cross-checks live here, each avoiding the closed-form eigenvalue
formulas they are meant to validate:

* truncated operator blocks on sqrt(2)-normalized sine/cosine modes, whose
  eigenvalues converge to the mu families as the cutoff grows;
* raw shape-operator application on a time grid (bracket + quadrature),
  compared in grid-L2 against the closed-form images of each basis label
  (each label carries its (x, y) pair; the closed forms take the ad-kernel
  as the frequency-0 block);
* a finite group-level assembly on k + TN from raw brackets, eigensolved
  and matched against the predicted {0, lambda, kappa_pm} multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .adspec import AdEigenstructure, paired_bases
from .errors import DimensionError, DomainError, StructureError
from .liecore import Subspace, build_so, cartan_decompose, gram_schmidt
from .spectra import (
    PrincipalSpectrum,
    SubmanifoldSpectralData,
    assemble_group_spectrum,
    mu,
    mu_eigenfunction_coeffs,
)

SYMMETRY_TOL = 1e-12
TANGENT_TOL = 1e-8
BLOCK_MEMBERSHIP_TOL = 1e-8
BOUNDARY_TOL = 1e-8  # |Q| at the endpoints, relative to max(1, max |Q|)
PERP_LABEL = "perp"
# Largest mu-block cutoff (and mu/harmonic window).  The sparse block has
# 4 cutoff + 1 entries, but a window wide enough to take the dense route
# (see DENSE_SHARE) solves all (2 cutoff + 1)^2 entries: 32 MB at the limit,
# where that `oracle --mode mu` run takes about 1 s and peaks near 190 MB.
MAX_MU_CUTOFF = 1000
# eigenvalues(count) solves densely once DENSE_SHARE * count > size.  At
# size 2001 (Xeon, one BLAS thread) ARPACK took 0.21 s for 255 eigenvalues
# and 0.83 s for 511, against 0.53 s for the dense solve of all 2001.
DENSE_SHARE = 8
# compare_spectra trusts a top-of-spectrum solve only for targets of at
# least this share of the largest eigenvalue magnitude (its absolute error
# is about eps times that magnitude, so 2e-13 relative at the share).
RESOLVED_SHARE = 1e-3
# `oracle --mode forms` holds a dozen (nodes, dim) arrays per label, one
# label at a time, and computes nodes * dim entries for each of its labels.
# Xeon, one BLAS thread: --l 6 --grid 2048 (2.8e6 entries) takes 0.10 s,
# --l 4 --grid 65536 (2.1e7 entries, 6.6e5 per label) 1.3 s.
MAX_FORMS_LABEL_ENTRIES = 1_000_000
MAX_FORMS_ENTRIES = 50_000_000
# `oracle --mode group` work: per sample, the dim^2 entries of its group
# matrix plus GROUP_SAMPLE_SETUP for building the pair.  Xeon, one BLAS
# thread: a sample takes 1.9 ms at --l 2 (dim 3), 35 ms at --l 20 (dim 210)
# and 0.93 s at --l 39 (dim 780), so the limit is about 2 s of work.
GROUP_SAMPLE_SETUP = 2000
MAX_GROUP_WORK = 2_000_000
# scipy.sparse and scipy.sparse.linalg are imported at first use: at module
# level they made the benchmark's set-up snippet (`from pfspectra import
# cli` and one parse) 21 ms slower, 0.241 -> 0.262 s (median of 15 fresh
# processes each).


@dataclass(frozen=True)
class FourierBasisLabel:
    """Identifier of one tangent basis path.

    kind is one of 'k0_sin', 'm_const', 'm_cos', 'k_nu_sin', 'm_nu_const',
    'm_nu_cos'.  ``lam`` is a float for tangent directions or the string
    'perp' for normal-block partners; ``mode`` is the positive Fourier index
    n (absent for constants).  Sine and cosine modes carry the sqrt(2)
    factor that makes the basis orthonormal in path L2.

    Labels from ``CurvatureAdaptedData.fourier_labels`` carry the path's
    coordinate pair: ``x`` its k part, ``y`` its m part, zero where the path
    has none.  The kind names only describe the label; its ``profile`` in
    time is the kind's suffix, 'sin', 'const' or 'cos'.
    """

    kind: str
    index: int
    nu: float | None = None
    lam: object = None
    mode: int | None = None
    x: np.ndarray | None = field(default=None, compare=False, repr=False)
    y: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def profile(self) -> str:
        return self.kind.rsplit("_", 1)[1]

    def describe(self) -> str:
        parts = [self.kind, f"i={self.index}"]
        if self.nu is not None:
            parts.append(f"nu={self.nu:.6g}")
        if self.lam is not None:
            parts.append("perp" if self.lam == PERP_LABEL else f"lam={self.lam:.6g}")
        if self.mode is not None:
            parts.append(f"n={self.mode}")
        return " ".join(parts)


@dataclass(frozen=True)
class TruncatedOperator:
    """A finite symmetric matrix block of the path-space shape operator.

    The block is kept as a ``scipy.sparse.csr_array`` whatever it is given.
    """

    labels: tuple
    matrix: object
    cutoff: int

    def __post_init__(self):
        from scipy.sparse import csr_array

        mat = csr_array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != len(self.labels):
            raise DimensionError("matrix shape does not match label count")
        asym = abs(mat - mat.T).max() if mat.nnz else 0.0
        if asym > SYMMETRY_TOL:
            raise StructureError(f"assembled block is not symmetric (deviation {asym:.3e})")
        for part in (mat.data, mat.indices, mat.indptr):
            part.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        """Ascending eigenvalues: all of them, or the ``count`` of largest
        magnitude.

        A ``count`` that is a sizeable share of the size (DENSE_SHARE) gets
        all of them from the dense solve.  ARPACK starts from a fixed
        vector, so repeated calls agree bit for bit.
        """
        size = self.matrix.shape[0]
        if count is None or DENSE_SHARE * count > size:
            return np.linalg.eigvalsh(self.matrix.toarray())
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import ArpackError, eigsh

        # ARPACK's convergence test turns absolute below eps**(2/3), about
        # 4e-11, so it solves the block scaled (exactly, by a power of two)
        # to unit size.
        mat = self.matrix
        exp = math.frexp(np.abs(mat.data).max(initial=0.0))[1]
        unit = csr_array((np.ldexp(mat.data, -exp), mat.indices, mat.indptr), shape=mat.shape)
        try:
            vals = eigsh(unit, k=count, which="LM", v0=np.ones(size), return_eigenvectors=False)
        except ArpackError:  # e.g. a block whose entries all underflow to 0
            return np.linalg.eigvalsh(mat.toarray())
        return np.sort(np.ldexp(vals, exp))


def build_mu_block(nu: float, lam: float, cutoff: int) -> TruncatedOperator:
    """Truncated block on {y} + {sqrt2 x sin n pi t} + {sqrt2 y cos n pi t}.

    The constant direction couples to each sine mode with sqrt(2)*nu/(n*pi);
    sine and cosine modes of equal n couple with -nu/(n*pi); the only
    diagonal entry is lambda on the constant.  Eigenvalues approximate the
    mu(nu, lam, m) family as the cutoff grows.
    """
    if nu <= 0:
        raise DomainError(f"frequency must be positive, got {nu}")
    if not 1 <= cutoff <= MAX_MU_CUTOFF:
        raise DomainError(f"cutoff must be between 1 and {MAX_MU_CUTOFF}, got {cutoff}")
    from scipy.sparse import csr_array

    size = 2 * cutoff + 1
    modes = np.arange(1, cutoff + 1)
    coupling = nu / (modes * math.pi)
    sin, cos = modes, cutoff + modes
    const = np.zeros(cutoff, dtype=int)
    root2c = math.sqrt(2.0) * coupling
    rows = np.concatenate(([0], const, sin, sin, cos))
    cols = np.concatenate(([0], sin, const, cos, sin))
    vals = np.concatenate(([lam], root2c, root2c, -coupling, -coupling))
    mat = csr_array((vals, (rows, cols)), shape=(size, size))
    labels = [FourierBasisLabel("m_nu_const", 0, nu, lam)]
    labels += [FourierBasisLabel("k_nu_sin", 0, nu, lam, int(n)) for n in modes]
    labels += [FourierBasisLabel("m_nu_cos", 0, nu, lam, int(n)) for n in modes]
    return TruncatedOperator(tuple(labels), mat, cutoff)


def build_harmonic_block(nu: float, n: int) -> TruncatedOperator:
    """Exact 2x2 block of a normal-frequency mode pair: eigenvalues +-nu/(n*pi)."""
    if nu <= 0:
        raise DomainError(f"frequency must be positive, got {nu}")
    if n < 1:
        raise DomainError("mode index must be a positive integer")
    c = nu / (n * math.pi)
    mat = np.array([[0.0, -c], [-c, 0.0]])
    labels = (
        FourierBasisLabel("k_nu_sin", 0, nu, PERP_LABEL, n),
        FourierBasisLabel("m_nu_cos", 0, nu, PERP_LABEL, n),
    )
    return TruncatedOperator(labels, mat, n)


def mu_block_residual(op: TruncatedOperator, m: int) -> float:
    """Relative residual |A v - mu v| / |v| of the predicted eigenvector.

    ``op`` is a ``build_mu_block`` block A, and v is the truncated
    coefficient vector of the mu(nu, lam, m) eigenfunction for its nu and
    lam, rescaled to the orthonormal mode basis.
    """
    nu, lam = op.labels[0].nu, op.labels[0].lam
    c, a, b = mu_eigenfunction_coeffs(nu, lam, m, op.cutoff)
    v = np.concatenate(([c], a / math.sqrt(2.0), b / math.sqrt(2.0)))
    val = mu(nu, lam, m)
    resid = op.matrix @ v - val * v
    with np.errstate(over="ignore"):  # an overflow reaches the report as inf
        return float(np.linalg.norm(resid) / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Curvature-adapted geometry container
# ---------------------------------------------------------------------------


class CurvatureAdaptedData:
    """Base-submanifold data aligned with the frequency blocks of ad(xi).

    ``tangent0`` lists (lambda, ys) inside the ad-kernel of m; ``tangent``
    lists (nu, lambda, ys) with each row of ys in the frequency block m_nu.
    Each ys is a (k, dim) array of orthonormal rows.  The remaining
    directions of every block are normal.  The x-partner of each tangent or
    normal y is (1/nu)[xi, y], which lands in k_nu.
    """

    def __init__(self, ad: AdEigenstructure, tangent0, tangent):
        self.ad = ad
        self.cd = ad.cd
        alg = self.cd.algebra
        xi = ad.xi

        def rows(frames):
            """One (k, dim) array of the rows of every frame."""
            return np.concatenate([np.zeros((0, alg.dim)), *frames])

        self.tangent0 = [(float(lam), np.reshape(ys, (len(ys), alg.dim))) for lam, ys in tangent0]
        self.tangent = [
            (float(nu), float(lam), np.reshape(ys, (len(ys), alg.dim))) for nu, lam, ys in tangent
        ]

        tangent0_rows = rows(ys for _, ys in self.tangent0)
        all_tangent = rows([tangent0_rows, *(ys for _, _, ys in self.tangent)])
        self._tangent_space = Subspace(alg, all_tangent)  # raises unless orthonormal

        m0_span = Subspace(alg, ad.m0_basis)
        for lam, ys in self.tangent0:
            if not all(m0_span.contains(y, BLOCK_MEMBERSHIP_TOL) for y in ys):
                raise StructureError(f"kernel tangent vector for lambda={lam:.6g} is not in m_0")
            if np.abs(alg.inner(ys, xi)).max(initial=0.0) > TANGENT_TOL * alg.norm(xi):
                raise DomainError("tangent vectors must be orthogonal to xi")

        block_spans = {b.nu: Subspace(alg, b.y_basis) for b in ad.blocks}
        for nu, lam, ys in self.tangent:
            span = block_spans.get(nu)
            if span is None:
                raise DomainError(f"no frequency block at nu={nu:.6g}")
            if not all(span.contains(y, BLOCK_MEMBERSHIP_TOL) for y in ys):
                raise StructureError(
                    f"tangent vector for (nu={nu:.6g}, lambda={lam:.6g}) "
                    "does not lie in its frequency block"
                )

        # Per-block normal complements (within m_0 and within each m_nu).
        # The unit tangent vectors go first, so gram_schmidt's drop tolerance
        # (relative to the largest input) discards the roundoff left in a
        # block they fill.
        def complement(block_ys, tangent_ys):
            return gram_schmidt(alg, rows([tangent_ys, block_ys]))[len(tangent_ys):]

        self.perp0 = complement(ad.m0_basis, tangent0_rows)
        self.perp = [
            (b.nu, complement(b.y_basis, rows(ys for nu, _, ys in self.tangent if nu == b.nu)))
            for b in ad.blocks
        ]

        self._xi = xi
        self._normal_space = Subspace(alg, rows([self.perp0, *(ys for _, ys in self.perp)]))
        if self._tangent_space.dim + self._normal_space.dim != self.cd.m.dim:
            raise StructureError("tangent and normal spaces do not fill m")

    @property
    def xi(self) -> np.ndarray:
        return self._xi

    @property
    def tangent_space(self) -> Subspace:
        return self._tangent_space

    def x_partner(self, nu: float, y: np.ndarray) -> np.ndarray:
        return self.cd.algebra.bracket(self._xi, y) / nu

    def perp_project(self, coords: np.ndarray) -> np.ndarray:
        return self._normal_space.project_coords(coords)

    def base_shape_apply(self, y: np.ndarray) -> np.ndarray:
        """Shape operator of the base submanifold: lambda on each block."""
        alg = self.cd.algebra
        out = np.zeros(alg.dim)
        recon = np.zeros(alg.dim)
        for lam, ys in [*self.tangent0, *((lam, ys) for _, lam, ys in self.tangent)]:
            for e in ys:
                w = alg.inner(e, y)
                out += lam * w * e
                recon += w * e
        leak = alg.norm(y - recon)
        if leak > TANGENT_TOL * max(1.0, alg.norm(y)):
            raise DomainError(f"vector is not tangent (normal residual {leak:.3e})")
        return out

    def spectral_data(self) -> SubmanifoldSpectralData:
        freq_mult = self.ad.frequency_multiplicities()
        mult0 = [(lam, len(ys)) for lam, ys in self.tangent0 if len(ys)]
        mult = [(nu, lam, len(ys)) for nu, lam, ys in self.tangent if len(ys)]
        perp = [(0.0, len(self.perp0))]
        perp += [(nu, len(ys)) for nu, ys in self.perp]
        return SubmanifoldSpectralData.from_maps(
            freq_mult, mult0, mult, perp, self.ad.dim_m0, self.ad.dim_k0
        )

    # -- tangent Fourier labels and their decomposed paths ------------------------

    def fourier_labels(self, n_max: int):
        """Every tangent basis label with Fourier modes up to n_max.

        Each label carries its (x, y) pair.  A frequency-block y has the
        partner x = (1/nu)[xi, y]; kernel labels have x or y zero.
        """
        zero = np.zeros(self.cd.algebra.dim)
        modes = range(1, n_max + 1)
        labels = []
        for i, x in enumerate(self.ad.k0_basis):
            labels += [FourierBasisLabel("k0_sin", i, mode=n, x=x, y=zero) for n in modes]
        kernel = [(lam, y) for lam, ys in self.tangent0 for y in ys]
        kernel += [(PERP_LABEL, y) for y in self.perp0]
        for j, (lam, y) in enumerate(kernel):
            if lam != PERP_LABEL:
                labels.append(FourierBasisLabel("m_const", j, lam=lam, x=zero, y=y))
            labels += [FourierBasisLabel("m_cos", j, lam=lam, mode=n, x=zero, y=y) for n in modes]
        blocks = [*self.tangent, *((nu, PERP_LABEL, ys) for nu, ys in self.perp)]
        for nu, lam, ys in blocks:
            for i, y in enumerate(ys):
                x = self.x_partner(nu, y)
                if lam != PERP_LABEL:
                    labels.append(FourierBasisLabel("m_nu_const", i, nu, lam, x=x, y=y))
                for n in modes:
                    labels.append(FourierBasisLabel("k_nu_sin", i, nu, lam, n, x, y))
                    labels.append(FourierBasisLabel("m_nu_cos", i, nu, lam, n, x, y))
        return labels


@dataclass(frozen=True)
class DecomposedPath:
    """A tangent path split as -Q' + constant x + constant y.

    ``q`` holds the primitive Q per node (coefficient vectors) and must
    vanish at both endpoints; x is a constant k-direction and y a constant
    tangent direction of the base submanifold.
    """

    q: np.ndarray  # (grid, dim)
    x: np.ndarray  # (dim,)
    y: np.ndarray  # (dim,)

    @property
    def grid(self) -> int:
        return self.q.shape[0]


def label_decomposed_path(
    data: CurvatureAdaptedData, label: FourierBasisLabel, grid: int
) -> DecomposedPath:
    """Realize a Fourier basis label as a decomposed grid path.

    Sine labels use the primitive Z = (sqrt2/(n pi)) x (cos(n pi t) - 1),
    split as Q = Z - t Z(1) with constant part -Z(1); cosine labels are pure
    -Q' with Q = -(sqrt2/(n pi)) y sin(n pi t); constants are pure y.
    """
    dim = data.cd.algebra.dim
    t = np.linspace(0.0, 1.0, grid)
    zero = np.zeros(dim)
    if label.profile == "const":
        return DecomposedPath(np.zeros((grid, dim)), zero, label.y)
    n = label.mode
    scale = math.sqrt(2.0) / (n * math.pi)
    if label.profile == "sin":
        z = scale * np.outer(np.cos(n * math.pi * t) - 1.0, label.x)
        z1 = scale * (((-1.0) ** n) - 1.0) * label.x
        return DecomposedPath(z - np.outer(t, z1), -z1, zero)
    return DecomposedPath(-scale * np.outer(np.sin(n * math.pi * t), label.y), zero, zero)


def label_closed_form(
    data: CurvatureAdaptedData, label: FourierBasisLabel, grid: int
) -> np.ndarray:
    """Grid image of a basis label under the path-space shape operator.

    One closed form per profile, mixing the label's (x, y) pair through
    sine/cosine factors with weight nu/(n*pi).  The ad-kernel is the
    frequency-0 block: kernel sines and cosines map to zero, and kernel
    constants scale by lambda.
    """
    t = np.linspace(0.0, 1.0, grid)
    nu = label.nu or 0.0
    if label.profile == "const":
        return np.outer(np.ones(grid), label.lam * label.y) + nu * np.outer(1.0 - t, label.x)
    n = label.mode
    coef = -nu / (n * math.pi) * math.sqrt(2.0)
    if label.profile == "sin":
        shift = 0.0 if label.lam == PERP_LABEL else 1.0
        return coef * np.outer(np.cos(n * math.pi * t) - shift, label.y)
    return coef * np.outer(np.sin(n * math.pi * t), label.x)


def shape_apply_raw(data: CurvatureAdaptedData, path: DecomposedPath) -> np.ndarray:
    """Apply the path-space shape operator from its raw block formulas.

    For a decomposed path -Q' + x + y the image is

        [xi, Q(t)] - perp([xi, int Q])
        + (1/2) perp([xi, x]) - t [xi, x]
        + A_base(y) + (1 - t) [xi, y]

    with perp the projection onto the normal space of the base submanifold
    inside m.  The integral uses trapezoid quadrature on the given grid.
    """
    alg = data.cd.algebra
    grid = path.grid
    if grid < 2:
        raise DimensionError("grid must have at least 2 nodes")
    if path.q.shape != (grid, alg.dim):
        raise DimensionError("q has the wrong shape")
    qn = np.linalg.norm(path.q, axis=1)
    scale = max(1.0, qn.max() if qn.size else 0.0)
    if max(np.linalg.norm(path.q[0]), np.linalg.norm(path.q[-1])) > BOUNDARY_TOL * scale:
        raise DomainError("primitive Q must vanish at both endpoints")
    leak = alg.norm(path.x - data.cd.k.project_coords(path.x))
    if leak > TANGENT_TOL * max(1.0, alg.norm(path.x)):
        raise DomainError("constant part x must lie in k")
    # base_shape_apply rejects y with a normal component.
    ay = data.base_shape_apply(path.y)

    t = np.linspace(0.0, 1.0, grid)
    admat = alg.ad_matrix(data.xi)
    bracket_q = path.q @ admat.T
    q_int = np.trapezoid(path.q, t, axis=0)
    perp_int = data.perp_project(admat @ q_int)

    bx = admat @ path.x
    by = admat @ path.y
    out = bracket_q - perp_int[None, :]
    out += 0.5 * data.perp_project(bx)[None, :] - np.outer(t, bx)
    out += ay[None, :] + np.outer(1.0 - t, by)
    return out


def grid_l2_norm(values: np.ndarray, alg) -> float:
    """Trapezoid L2 norm of a grid path of coefficient vectors."""
    t = np.linspace(0.0, 1.0, values.shape[0])
    return float(math.sqrt(max(np.trapezoid(alg.norm(values) ** 2, t), 0.0)))


# ---------------------------------------------------------------------------
# Finite group-level oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultisetMatch:
    predicted: float
    predicted_mult: int
    computed: tuple
    max_abs_err: float
    ok: bool


@dataclass(frozen=True)
class OracleReport:
    matches: tuple
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "detail": self.detail,
            "matches": [
                {
                    "predicted": m.predicted,
                    "mult": m.predicted_mult,
                    "computed": list(m.computed),
                    "max_abs_err": m.max_abs_err,
                    "ok": m.ok,
                }
                for m in self.matches
            ],
        }


def group_shape_matrix(data: CurvatureAdaptedData) -> np.ndarray:
    """Shape operator of the group-level preimage on k + TN, from brackets.

    Columns: for u in k, -(1/2) P_TN([xi, u]); for tangent y, the base image
    plus (1/2) P_k([xi, y]).  The assembled matrix is symmetric because the
    inner product is ad-invariant.
    """
    alg = data.cd.algebra
    k_rows = data.cd.k.basis
    t_rows = data.tangent_space.basis
    basis = np.vstack([k_rows, t_rows]) if t_rows.size else k_rows
    dim_k = k_rows.shape[0]
    admat = alg.ad_matrix(data.xi)

    images = []
    for i, row in enumerate(basis):
        br = admat @ row
        if i < dim_k:
            img = -0.5 * data.tangent_space.project_coords(br)
        else:
            img = data.base_shape_apply(row) + 0.5 * data.cd.k.project_coords(br)
        images.append(img)
    mat = alg.inner(basis, np.array(images))  # mat[a, b] = <e_a, A e_b>
    asym = np.abs(mat - mat.T).max() if mat.size else 0.0
    if asym > 1e-9:
        raise StructureError(f"group-level assembly is not symmetric ({asym:.3e})")
    return 0.5 * (mat + mat.T)


def _nearest_unused(computed: np.ndarray, targets):
    """Greedy matching: each target in turn takes the nearest computed value
    not taken yet (ties go to the lower index).

    Returns one index into ``computed`` per target, None once every value is
    taken, and the mask of taken values.
    """
    used = np.zeros(len(computed), dtype=bool)
    picks = []
    for value in targets:
        cand = np.flatnonzero(~used)
        best = cand[np.argmin(np.abs(computed[cand] - value))] if cand.size else None
        if best is not None:
            used[best] = True
        picks.append(best)
    return picks, used


def match_multisets(computed: np.ndarray, expected, tol: float) -> OracleReport:
    """Greedily match computed eigenvalues against (value, mult) predictions."""
    comp = np.sort(computed)
    expected = sorted(expected, key=lambda vm: (-abs(vm[0]), vm[0]))
    picks, used = _nearest_unused(comp, [v for v, mult in expected for _ in range(mult)])
    matches = []
    ok_all = True
    rest = iter(picks)
    for value, mult in expected:
        mine = list(islice(rest, mult))
        taken = tuple(float(comp[i]) for i in mine if i is not None)
        worst = math.inf if None in mine else max((abs(t - value) for t in taken), default=0.0)
        ok = bool(worst <= tol)
        ok_all &= ok
        matches.append(MultisetMatch(value, mult, taken, worst, ok))
    if used.size and not used.all():
        ok_all = False
        detail = f"{int((~used).sum())} computed eigenvalue(s) unaccounted for"
    else:
        detail = ""
    return OracleReport(tuple(matches), bool(ok_all), detail)


def finite_group_oracle(data: CurvatureAdaptedData, tol: float = 1e-8) -> OracleReport:
    """Eigensolve the raw group-level assembly and match the predicted multiset."""
    mat = group_shape_matrix(data)
    computed = np.linalg.eigvalsh(mat)
    predicted = assemble_group_spectrum(data.spectral_data()).entries
    return match_multisets(computed, predicted, tol)


# ---------------------------------------------------------------------------
# Spectrum comparison for truncated blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralWindow:
    m_max: int = 2
    n_max: int = 3
    tol_abs: float = 1e-10
    tol_rel: float = 1e-2

    def __post_init__(self):
        if not (0 <= self.m_max <= MAX_MU_CUTOFF and 0 <= self.n_max <= MAX_MU_CUTOFF):
            raise DomainError(
                f"window m_max and n_max must be between 0 and {MAX_MU_CUTOFF}, "
                f"got {self.m_max} and {self.n_max}"
            )


@dataclass(frozen=True)
class MatchEntry:
    descriptor: str
    predicted: float
    computed: float
    abs_err: float
    rel_err: float
    ok: bool


@dataclass(frozen=True)
class MatchReport:
    block: str
    entries: tuple
    passed: bool

    def to_json(self) -> dict:
        return {
            "block": self.block,
            "passed": self.passed,
            "entries": [
                {
                    "descriptor": e.descriptor,
                    "predicted": e.predicted,
                    "computed": e.computed,
                    "abs_err": e.abs_err,
                    "rel_err": e.rel_err,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def compare_spectra(
    op: TruncatedOperator, spectrum: PrincipalSpectrum, window: SpectralWindow
) -> MatchReport:
    """Match a truncated block's eigenvalues against the predicted family.

    Predicted values come from the spectrum family matching the block's
    labels (mu families over |m| <= m_max, harmonic pairs at the block's
    mode).  Matching is greedy from the largest |predicted| down, each
    computed eigenvalue consumed at most once, ties resolved toward the
    smaller index.  Only the eigenvalues of largest magnitude are computed,
    as many as it takes to certify that the picks are those over the whole
    spectrum.  Mu entries pass at tol_rel relative error, exact families at
    tol_abs absolute error.
    """
    first = op.labels[0]
    predicted = []
    if first.lam == PERP_LABEL:
        n = first.mode
        nus = [
            nu
            for nu, _ in spectrum.harmonics
            if abs(nu - first.nu) <= 1e-9 * max(1.0, first.nu)
        ]
        if not nus:
            raise DomainError("spectrum has no harmonic family at this block's nu")
        for sign in (1, -1):
            predicted.append((f"harmonic n={sign * n}", nus[0] / (sign * n * math.pi), True))
        block = f"harmonic nu={first.nu:.6g} n={n}"
    else:
        rows = [
            (nu, lam)
            for nu, lam, _ in spectrum.mus
            if abs(nu - first.nu) <= 1e-9 * max(1.0, first.nu)
            and abs(lam - first.lam) <= 1e-9 * max(1.0, abs(first.lam))
        ]
        if not rows:
            raise DomainError("spectrum has no mu family at this block's (nu, lambda)")
        for m in range(-window.m_max, window.m_max + 1):
            predicted.append((f"mu m={m}", mu(*rows[0], m), False))
        block = f"mu nu={first.nu:.6g} lambda={first.lam:.6g}"

    predicted.sort(key=lambda p: -abs(p[1]))
    targets = [value for _, value, _ in predicted]
    # Every eigenvalue left out has |e| <= floor, the smallest computed
    # magnitude, so it is farther than the pick from any target t with
    # |t| - floor > |t - pick|: then the picks equal those over the whole
    # spectrum.  Until that holds, compute twice as many.  A top-of-spectrum
    # value is only accurate to about eps times the largest magnitude, so a
    # target below RESOLVED_SHARE of it sends the block to the dense solve.
    count = len(targets) + 2
    while True:
        computed = op.eigenvalues(count)
        picks, _ = _nearest_unused(computed, targets)
        if len(computed) == len(op.labels):
            break
        magnitude = np.abs(computed)
        if min(map(abs, targets)) < RESOLVED_SHARE * magnitude.max():
            count = len(op.labels)
        elif all(abs(t) - magnitude.min() > abs(t - computed[i]) for t, i in zip(targets, picks)):
            break
        else:
            count *= 2
    entries = []
    ok_all = True
    for (desc, value, exact), best in zip(predicted, picks):
        if best is None:
            entries.append(MatchEntry(desc, value, math.nan, math.inf, math.inf, False))
            ok_all = False
            continue
        got = float(computed[best])
        abs_err = abs(got - value)
        rel_err = abs_err / max(abs(value), 1e-300)
        ok = abs_err <= window.tol_abs if exact else rel_err <= window.tol_rel
        ok_all &= ok
        entries.append(MatchEntry(desc, value, got, abs_err, rel_err, ok))
    return MatchReport(block, tuple(entries), bool(ok_all))


# ---------------------------------------------------------------------------
# Random sphere-type geometry (rank-one symmetric pair)
# ---------------------------------------------------------------------------


def sphere_pair(l: int):
    """The pair (so(l+1), so(l)) with the last coordinate axis flipped."""
    return split_pair(l, 1)


def random_m_direction(cd, rng: np.random.Generator) -> np.ndarray:
    """A random unit vector of m: a standard-normal combination of the m
    basis, normalized."""
    raw = rng.standard_normal(cd.m.dim) @ cd.m.basis
    return (1.0 / cd.algebra.norm(raw)) * raw


def sphere_geometry(l: int, lam_mults, rng: np.random.Generator) -> CurvatureAdaptedData:
    """Random curvature-adapted data on the rank-one pair (so(l+1), so(l)).

    Draws a random unit normal direction xi and a random orthonormal
    tangent frame orthogonal to xi, assigning ``lam_mults`` = [(lambda,
    mult), ...] eigenvalues of the base shape operator.  The total tangent
    dimension must be at most l - 1.
    """
    cd = sphere_pair(l)
    dims = sum(m for _, m in lam_mults)
    if dims > l - 1:
        raise DomainError(f"tangent dimension {dims} exceeds l - 1 = {l - 1}")
    ad = paired_bases(cd, random_m_direction(cd, rng))
    if len(ad.blocks) != 1:
        raise StructureError("rank-one pair should produce exactly one frequency")
    block = ad.blocks[0]

    # Random orthonormal tangent frame inside the block's y-span.
    mix = rng.standard_normal((block.mult, block.mult))
    qmat, _ = np.linalg.qr(mix)
    frame = qmat[:dims] @ block.y_basis
    tangent = []
    pos = 0
    for lam, m in lam_mults:
        tangent.append((block.nu, lam, frame[pos:pos + m]))
        pos += m
    return CurvatureAdaptedData(ad, tangent0=[], tangent=tangent)


def split_pair(p: int, q: int):
    """The pair (so(p+q), so(p) + so(q)) from flipping the last q axes."""
    alg = build_so(p + q)
    refl = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    return cartan_decompose(alg, refl)


def split_geometry(
    p: int,
    q: int,
    rng: np.random.Generator,
    tangent0_lams=(),
    block_lams=(),
) -> CurvatureAdaptedData:
    """Random curvature-adapted data on the rank-min(p,q) split pair.

    A generic unit normal direction xi has an ad-kernel of dimension min(p, q)
    inside m, so kernel tangent directions exist as soon as min(p, q) >= 2.
    ``tangent0_lams`` assigns one base eigenvalue per kernel direction
    (at most min(p,q) - 1 of them, keeping xi normal); ``block_lams``
    assigns one eigenvalue to a single direction of each of the first
    len(block_lams) frequency blocks.  Everything unassigned is normal.
    """
    cd = split_pair(p, q)
    alg = cd.algebra
    xi = random_m_direction(cd, rng)
    ad = paired_bases(cd, xi)

    if len(tangent0_lams) > ad.dim_m0 - 1:
        raise DomainError(
            f"at most {ad.dim_m0 - 1} kernel tangent directions exist, "
            f"got {len(tangent0_lams)}"
        )
    if len(block_lams) > len(ad.blocks):
        raise DomainError(
            f"only {len(ad.blocks)} frequency blocks exist, got {len(block_lams)}"
        )

    tangent0 = []
    if tangent0_lams:
        unit = (1.0 / alg.norm(xi)) * xi
        onb = gram_schmidt(alg, ad.m0_basis - np.outer(alg.inner(ad.m0_basis, unit), unit))
        mix = rng.standard_normal((len(onb), len(onb)))
        qmat, _ = np.linalg.qr(mix)
        frame = qmat @ onb
        for i, lam in enumerate(tangent0_lams):
            tangent0.append((lam, frame[i:i + 1]))

    tangent = []
    for lam, block in zip(block_lams, ad.blocks):
        vec = rng.standard_normal(block.mult) @ block.y_basis
        tangent.append((block.nu, lam, ((1.0 / alg.norm(vec)) * vec)[None]))
    return CurvatureAdaptedData(ad, tangent0=tangent0, tangent=tangent)
