"""Independent numerical routes to the principal-curvature spectrum.

Three cross-checks live here, each avoiding the closed-form eigenvalue
formulas they are meant to validate:

* truncated operator blocks on sqrt(2)-normalized sine/cosine modes, each
  kept as its (nu, lambda, cutoff), whose eigenvalues converge to the mu
  families as the cutoff grows (a mu block's are the roots of its secular
  equation, bisected bracket by bracket);
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
from functools import cached_property
from itertools import islice

import numpy as np

from .adspec import AdEigenstructure, paired_bases
from .errors import DimensionError, DomainError, StructureError
from .liecore import Subspace, build_so, cartan_decompose, gram_schmidt
from .spectra import (
    SubmanifoldSpectralData,
    assemble_group_spectrum,
    mu,
    mu_eigenfunction_coeffs,
)

TANGENT_TOL = 1e-8
BLOCK_MEMBERSHIP_TOL = 1e-8
BOUNDARY_TOL = 1e-8  # |Q| at the endpoints, relative to max(1, max |Q|)
PERP_LABEL = "perp"
# Largest mu-block cutoff, m_max and `oracle --mode mu --n-max`.  At the limit
# `oracle --cutoff 1000 --m-max 1000` takes 1.4-1.6 s, most of it solving all
# 2001 secular roots, and peaks at 34 MB resident, 29 MB of it the imports
# (Xeon, one BLAS thread).
MAX_MU_CUTOFF = 1000
SECULAR_CHUNK = 64  # brackets bisected together: 0.5 MB temporaries at the limit
# `oracle --mode forms` holds four (nodes, dim) arrays (three buffers for
# the whole run and one temporary), whatever the label count, and makes
# about nine passes over nodes * dim entries per label.  Xeon, one BLAS
# thread: --l 6 --grid 2048 (2.8e6 entries) takes 0.03 s, --l 4 --grid
# 65536 (2.1e7 entries, 6.6e5 per label) 0.44 s.
MAX_FORMS_LABEL_ENTRIES = 1_000_000
MAX_FORMS_ENTRIES = 50_000_000
# `oracle --mode group` work: per sample, the dim^2 entries of its group
# matrix plus GROUP_SAMPLE_SETUP for building the pair.  Xeon, one BLAS
# thread: a sample takes 1.7 ms at --l 2 (dim 3), 18 ms at --l 20 (dim 210)
# and 0.45 s at --l 39 (dim 780), so the limit (three samples at --l 39)
# is about 1.4 s of work.
GROUP_SAMPLE_SETUP = 2000
MAX_GROUP_WORK = 2_000_000


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
    """A block of the path-space shape operator: a mu block of head ``lam``
    on the modes n = 1..cutoff, or the harmonic pair (``lam`` None) of mode
    n = cutoff.  ``couplings`` holds the read-only c_n = nu/(n pi)."""

    nu: float
    lam: float | None
    cutoff: int
    couplings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cutoff < 1:
            raise DimensionError(f"a block needs a cutoff of at least 1, got {self.cutoff}")
        modes = np.arange(1, self.cutoff + 1) if self.lam is not None else np.array([self.cutoff])
        c = self.nu / (modes * math.pi)
        if not (np.isfinite(c).all() and math.isfinite(self.lam or 0.0)):
            raise DomainError("block entries must be finite")
        if self.nu <= 0:
            raise DomainError(f"frequency must be positive, got {self.nu}")
        c.setflags(write=False)
        object.__setattr__(self, "couplings", c)

    @property
    def labels(self) -> tuple:
        """The basis label of each row, built when read."""
        nu, lam, n = self.nu, self.lam, self.cutoff
        if lam is None:
            return (FourierBasisLabel("k_nu_sin", 0, nu, PERP_LABEL, n),
                    FourierBasisLabel("m_nu_cos", 0, nu, PERP_LABEL, n))
        modes = range(1, n + 1)
        return (FourierBasisLabel("m_nu_const", 0, nu, lam),
                *(FourierBasisLabel("k_nu_sin", 0, nu, lam, m) for m in modes),
                *(FourierBasisLabel("m_nu_cos", 0, nu, lam, m) for m in modes))

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        """Ascending eigenvalues: all of them, or the ``count`` of largest
        magnitude.  A harmonic pair has +-c; a mu block solves only the
        ceil(count / 2) outermost brackets of each side (``_secular_roots``).
        """
        c, sides = self.couplings, None if count is None else (count + 1) // 2
        vals = np.concatenate((-c, c)) if self.lam is None else _secular_roots(self.lam, c, sides)
        if count is not None and count < vals.size:
            vals = vals[np.argsort(-np.abs(vals), kind="stable")[:count]]
        return np.sort(vals)


def _secular_roots(lam: float, c: np.ndarray, sides: int | None) -> np.ndarray:
    """Eigenvalues of a mu block: the roots of all 2N + 1 brackets, or of
    the ``sides`` outermost of each side (the 2 * sides of largest magnitude).

    The block is an arrowhead matrix (turn each (sin, cos) pair onto its
    eigenvectors: diagonal (lambda, +-c_n), arrow entries c_n), so they are
    the roots of f(x) = lambda - x - sum_n 2 x c_n^2 / (c_n^2 - x^2) (Bunch,
    Nielsen and Sorensen 1978), one in each bracket: beyond each outermost
    pole +-c_1, between neighbouring poles, and (-c_N, c_N).  At unit scale
    (lambda and c times one power of two) the brackets are bisected
    together until each midpoint equals an endpoint or is a root.
    ``c`` holds the block's couplings as it builds them: c_1 >= ... >= c_N,
    all positive but where nu/(n pi) underflows.
    """
    exp = math.frexp(max(abs(lam), c[0]))[1]
    lam, c = math.ldexp(lam, -exp), np.ldexp(c, -exp)
    whole = sides is None or sides > c.size
    # bracket ends, outermost first: every eigenvalue lies within
    # max |diagonal| + |arrow| of 0, then come the poles
    ends = np.concatenate(([max(abs(lam), c[0]) + math.sqrt(2.0 * (c @ c))], c[:sides]))
    lo_all = np.concatenate((ends[1:], -ends[:-1], [-c[-1]] if whole else []))
    hi_all = np.concatenate((ends[:-1], -ends[1:], [c[-1]] if whole else []))
    roots = np.empty(lo_all.size)
    for start in range(0, roots.size, SECULAR_CHUNK):
        live = np.arange(start, min(start + SECULAR_CHUNK, roots.size))
        lo, hi = lo_all[live], hi_all[live]
        while live.size:
            x = 0.5 * (lo + hi)
            done = (x == lo) | (x == hi)
            roots[live[done]] = x[done]
            live, lo, hi, x = live[~done], lo[~done], hi[~done], x[~done]
            # f(x) = lambda - x g(x), each c_n^2 / (c_n^2 - x^2) in g as two
            # ratios, which neither overflow nor lose a small x against c_n
            col = x[:, None]
            g = 1.0 + 2.0 * np.einsum("ij,ij->i", c / (c - col), c / (c + col))
            # f(x) > 0: the root lies above x; f(x) == 0: x is the root, so
            # the bracket closes onto x and ends at the next midpoint
            xg = x * g
            lo, hi = np.where(lam >= xg, x, lo), np.where(lam > xg, hi, x)
    # an overflow reaches the report as inf, which the report refuses
    with np.errstate(over="ignore"):
        return np.ldexp(roots, exp)


def build_mu_block(nu: float, lam: float, cutoff: int) -> TruncatedOperator:
    """Truncated block on {y} + {sqrt2 x sin n pi t} + {sqrt2 y cos n pi t}.

    The constant direction couples to each sine mode with sqrt(2)*c_n,
    c_n = nu/(n*pi); sine and cosine modes of equal n couple with -c_n; the
    only diagonal entry is lambda on the constant.  Eigenvalues approximate
    the mu(nu, lam, m) family as the cutoff grows.
    """
    if not 1 <= cutoff <= MAX_MU_CUTOFF:
        raise DomainError(f"cutoff must be between 1 and {MAX_MU_CUTOFF}, got {cutoff}")
    return TruncatedOperator(nu, lam, cutoff)


def build_harmonic_block(nu: float, n: int) -> TruncatedOperator:
    """Exact 2x2 block [[0, -c], [-c, 0]], c = nu/(n*pi), of a normal-frequency
    mode pair: eigenvalues +-c."""
    if n < 1:
        raise DomainError("mode index must be a positive integer")
    return TruncatedOperator(nu, None, n)


def mu_block_residual(op: TruncatedOperator, m: int) -> float:
    """Relative residual |A v - mu v| / |v| of the predicted eigenvector.

    ``op`` is a mu block A, applied to v in O(N) from its lambda and c_n,
    and v is the truncated coefficient vector of its mu(nu, lam, m)
    eigenfunction, rescaled to the orthonormal mode basis.
    """
    nu, lam, c = op.nu, op.lam, op.couplings
    if lam is None:
        raise DomainError(f"mu_block_residual needs a mu block, got harmonic n={op.cutoff}")
    # an overflow reaches the report as inf or nan, which the report refuses
    with np.errstate(over="ignore", invalid="ignore"):
        const, a, b = mu_eigenfunction_coeffs(nu, lam, m, op.cutoff)
        v = np.concatenate(([const], a / math.sqrt(2.0), b / math.sqrt(2.0)))
        sin, cos, root2c = v[1:c.size + 1], v[c.size + 1:], math.sqrt(2.0) * c
        image = [[lam * const + root2c @ sin], root2c * const - c * cos, -c * sin]
        resid = np.concatenate(image) - mu(nu, lam, m) * v
        return float(np.linalg.norm(resid) / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Curvature-adapted geometry container
# ---------------------------------------------------------------------------


class CurvatureAdaptedData:
    """Base-submanifold data aligned with the frequency blocks of ad(xi).

    The ad-kernel m_0 of m is the block nu = 0.  ``tangent`` lists
    (nu, lambda, ys) with each row of ys in the block m_nu, orthogonal to
    xi; ``perp`` lists (nu, ys) for the remaining, normal directions of
    every block, m_0 first.  Each ys is a (k, dim) array of orthonormal
    rows.  The x-partner of a y in a frequency block is (1/nu)[xi, y],
    which lands in k_nu.
    """

    def __init__(self, ad: AdEigenstructure, tangent):
        self.ad = ad
        self.cd = ad.cd
        self.xi = ad.xi
        alg = self.cd.algebra

        def rows(frames):
            """One (k, dim) array of the rows of every frame."""
            return np.concatenate([np.zeros((0, alg.dim)), *frames])

        self.tangent = [
            (float(nu), float(lam), np.reshape(ys, (len(ys), alg.dim))) for nu, lam, ys in tangent
        ]
        # Subspace checks orthonormality.
        self.tangent_space = Subspace(alg, rows(ys for _, _, ys in self.tangent))
        # The base eigenvalue of each tangent_space row.
        self._tangent_lams = np.array([lam for _, lam, ys in self.tangent for _ in ys])

        blocks = {0.0: ad.m0_basis, **{b.nu: b.y_basis for b in ad.blocks}}
        spans = {nu: Subspace(alg, basis) for nu, basis in blocks.items()}
        for nu, lam, ys in self.tangent:
            if nu not in spans:
                raise DomainError(f"no frequency block at nu={nu:.6g}")
            if not spans[nu].contains(ys, BLOCK_MEMBERSHIP_TOL):
                raise StructureError(
                    f"tangent vector for (nu={nu:.6g}, lambda={lam:.6g}) "
                    "does not lie in its frequency block"
                )
            if np.abs(alg.inner(ys, self.xi)).max(initial=0.0) > TANGENT_TOL * alg.norm(self.xi):
                raise DomainError("tangent vectors must be orthogonal to xi")

        # The normal complement within each block.  The unit tangent vectors
        # go first, so gram_schmidt's drop tolerance (relative to the largest
        # input) discards the roundoff left in a block they fill.
        def complement(nu, basis):
            tangent_ys = rows(ys for n, _, ys in self.tangent if n == nu)
            return gram_schmidt(alg, rows([tangent_ys, basis]))[len(tangent_ys):]

        self.perp = [(nu, complement(nu, basis)) for nu, basis in blocks.items()]

        self._normal_space = Subspace(alg, rows(ys for _, ys in self.perp))
        if self.tangent_space.dim + self._normal_space.dim != self.cd.m.dim:
            raise StructureError("tangent and normal spaces do not fill m")

    @cached_property
    def xi_brackets(self) -> np.ndarray:
        """Read-only (dim, dim) array whose row a is [xi, e_a], so that
        v @ xi_brackets = [xi, v] for a vector or each row of a stack."""
        alg = self.cd.algebra
        rows = np.ascontiguousarray(alg.bracket(self.xi, np.eye(alg.dim)))
        rows.setflags(write=False)
        return rows

    def perp_project(self, coords: np.ndarray) -> np.ndarray:
        return self._normal_space.project_coords(coords)

    def base_shape_apply(self, y: np.ndarray) -> np.ndarray:
        """Shape operator of the base submanifold, lambda on each block, on a
        tangent vector or on each row of a stack of them."""
        alg, basis = self.cd.algebra, self.tangent_space.basis
        w = alg.inner(y, basis)
        leak = alg.norm(y - w @ basis)
        bad = leak > TANGENT_TOL * np.maximum(1.0, alg.norm(y))
        if bad.any():
            worst = np.max(leak, where=bad, initial=0.0)
            raise DomainError(f"vector is not tangent (normal residual {worst:.3e})")
        return (w * self._tangent_lams) @ basis

    def spectral_data(self) -> SubmanifoldSpectralData:
        mult = [(nu, lam, len(ys)) for nu, lam, ys in self.tangent if len(ys)]
        return SubmanifoldSpectralData.from_maps(
            self.ad.frequency_multiplicities(),
            [(lam, m) for nu, lam, m in mult if nu == 0.0],
            [(nu, lam, m) for nu, lam, m in mult if nu != 0.0],
            [(nu, len(ys)) for nu, ys in self.perp],
            self.ad.dim_m0,
            self.ad.dim_k0,
        )

    # -- tangent Fourier labels and their decomposed paths ------------------------

    def fourier_labels(self, n_max: int):
        """Every tangent basis label with Fourier modes up to n_max.

        Each label carries its (x, y) pair.  A frequency-block y has the
        partner x = (1/nu)[xi, y]; kernel labels have x or y zero.
        """
        alg = self.cd.algebra
        zero = np.zeros(alg.dim)
        modes = range(1, n_max + 1)
        labels = []
        for i, x in enumerate(self.ad.k0_basis):
            labels += [FourierBasisLabel("k0_sin", i, mode=n, x=x, y=zero) for n in modes]
        rows = [*self.tangent, *((nu, PERP_LABEL, ys) for nu, ys in self.perp)]
        kernel = [(lam, y) for nu, lam, ys in rows if nu == 0.0 for y in ys]
        for j, (lam, y) in enumerate(kernel):
            if lam != PERP_LABEL:
                labels.append(FourierBasisLabel("m_const", j, lam=lam, x=zero, y=y))
            labels += [FourierBasisLabel("m_cos", j, lam=lam, mode=n, x=zero, y=y) for n in modes]
        for nu, lam, ys in (row for row in rows if row[0] != 0.0):
            for i, y in enumerate(ys):
                x = alg.bracket(self.xi, y) / nu
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
    tangent direction of the base submanifold.  ``times`` is the TimeGrid
    of the nodes; when None, shape_apply_raw builds one for q's node count.
    """

    q: np.ndarray  # (grid, dim)
    x: np.ndarray  # (dim,)
    y: np.ndarray  # (dim,)
    times: TimeGrid | None = None

    @property
    def grid(self) -> int:
        return self.q.shape[0]


class TimeGrid:
    """Uniform nodes t on [0, 1] and what every path on them shares.

    ``w`` holds the trapezoid weights, so ``w @ f`` integrates nodal values
    f, and ``affine`` is the read-only (nodes, 2) stack [1, t].
    ``waves(n)`` is the read-only (nodes, 4) stack [1, t, cos(n pi t),
    sin(n pi t)]; every forms path and closed form is that stack times a
    (4, dim) coefficient block, so one matrix product per (nodes, dim)
    array.  Only the last mode's stack is kept, which bounds the memory
    whatever the modes: callers that go mode by mode build each once.
    """

    def __init__(self, nodes: int):
        if nodes < 2:
            raise DimensionError("grid must have at least 2 nodes")
        self.t = np.linspace(0.0, 1.0, nodes)
        half = np.diff(self.t) / 2.0
        self.w = np.concatenate(([0.0], half)) + np.concatenate((half, [0.0]))
        self.affine = np.stack([np.ones(nodes), self.t], axis=1)
        for arr in (self.t, self.w, self.affine):
            arr.setflags(write=False)
        self._waves = (None, None)

    def waves(self, n: int) -> np.ndarray:
        if self._waves[0] != n:
            arg = n * math.pi * self.t
            stack = np.column_stack([self.affine, np.cos(arg), np.sin(arg)])
            stack.setflags(write=False)
            self._waves = (n, stack)
        return self._waves[1]


def _time_grid(grid) -> TimeGrid:
    return grid if isinstance(grid, TimeGrid) else TimeGrid(grid)


# label_decomposed_path, label_closed_form and shape_apply_raw write their
# (grid, dim) result into ``out`` when it is given, so the forms check
# reuses one buffer set for every label.


def label_decomposed_path(
    data: CurvatureAdaptedData, label: FourierBasisLabel, grid, out=None
) -> DecomposedPath:
    """Realize a Fourier basis label as a decomposed grid path.

    ``grid`` is a node count or a TimeGrid.  Sine labels use the primitive
    Z = (sqrt2/(n pi)) x (cos(n pi t) - 1), split as Q = Z - t Z(1) with
    constant part -Z(1); cosine labels are pure -Q' with
    Q = -(sqrt2/(n pi)) y sin(n pi t); constants are pure y.  The returned
    path's q is ``out`` when given.
    """
    times = _time_grid(grid)
    zero = np.zeros(data.cd.algebra.dim)
    coef = np.zeros((4, zero.size))  # on [1, t, cos, sin]
    x, y = zero, label.y
    if label.profile != "const":
        scale = math.sqrt(2.0) / (label.mode * math.pi)
        if label.profile == "sin":
            z1 = scale * (((-1.0) ** label.mode) - 1.0) * label.x
            coef[0], coef[1], coef[2] = -scale * label.x, -z1, scale * label.x
            x, y = -z1, zero
        else:
            coef[3] = -scale * label.y
            y = zero
    q = np.matmul(times.waves(label.mode or 0), coef, out=out)
    return DecomposedPath(q, x, y, times)


def label_closed_form(
    data: CurvatureAdaptedData, label: FourierBasisLabel, grid, out=None
) -> np.ndarray:
    """Grid image of a basis label under the path-space shape operator.

    ``grid`` is a node count or a TimeGrid.  One closed form per profile,
    mixing the label's (x, y) pair through sine/cosine factors with weight
    nu/(n*pi).  The ad-kernel is the frequency-0 block: kernel sines and
    cosines map to zero, and kernel constants scale by lambda.
    """
    times = _time_grid(grid)
    nu = label.nu or 0.0
    coef = np.zeros((4, data.cd.algebra.dim))  # on [1, t, cos, sin]
    if label.profile == "const":
        # nu (1 - t) x + lambda y
        coef[0], coef[1] = nu * label.x + label.lam * label.y, -nu * label.x
    else:
        c = -nu / (label.mode * math.pi) * math.sqrt(2.0)
        if label.profile == "sin":
            coef[2] = c * label.y
            if label.lam != PERP_LABEL:
                coef[0] = -coef[2]
        else:
            coef[3] = c * label.x
    return np.matmul(times.waves(label.mode or 0), coef, out=out)


def shape_apply_raw(data: CurvatureAdaptedData, path: DecomposedPath, out=None) -> np.ndarray:
    """Apply the path-space shape operator from its raw block formulas.

    For a decomposed path -Q' + x + y the image is

        [xi, Q(t)] - perp([xi, int Q])
        + (1/2) perp([xi, x]) - t [xi, x]
        + A_base(y) + (1 - t) [xi, y]

    with perp the projection onto the normal space of the base submanifold
    inside m.  The integral uses trapezoid quadrature on the path's grid.
    It is evaluated as [xi, Q(t)] plus one update [1, t] x [c, u], with
    c = A_base(y) + [xi, y] + perp((1/2)[xi, x] - [xi, int Q]) and
    u = -[xi, x] - [xi, y].  ``out`` must not share memory with ``path.q``.
    """
    alg = data.cd.algebra
    q = path.q
    if path.grid < 2:
        raise DimensionError("grid must have at least 2 nodes")
    if q.shape != (path.grid, alg.dim):
        raise DimensionError("q has the wrong shape")
    times = TimeGrid(path.grid) if path.times is None else path.times
    if times.t.size != path.grid:
        raise DimensionError("q and its times have different node counts")
    # |Q| at the endpoints against max(1, max |Q|): the maximum is needed
    # only when the endpoints exceed the tolerance at scale 1.
    ends = max(np.linalg.norm(q[0]), np.linalg.norm(q[-1]))
    if ends > BOUNDARY_TOL and ends > BOUNDARY_TOL * math.sqrt(np.vecdot(q, q).max()):
        raise DomainError("primitive Q must vanish at both endpoints")
    if not data.cd.k.contains(path.x, TANGENT_TOL):
        raise DomainError("constant part x must lie in k")
    # base_shape_apply rejects y with a normal component.
    ay = data.base_shape_apply(path.y)

    bx, by, bint = np.stack([path.x, path.y, times.w @ q]) @ data.xi_brackets
    c = ay + by + data.perp_project(0.5 * bx - bint)
    out = np.matmul(q, data.xi_brackets, out=out)
    out += times.affine @ np.stack([c, -bx - by])
    return out


def grid_l2_norm(values: np.ndarray, alg, times: TimeGrid | None = None) -> float:
    """Trapezoid L2 norm of a grid path of coefficient vectors, on ``times``
    (the uniform grid when None)."""
    times = TimeGrid(values.shape[0]) if times is None else times
    return float(math.sqrt(times.w @ alg.norm(values) ** 2))


# ---------------------------------------------------------------------------
# Finite group-level oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultisetMatch:
    predicted: float
    mult: int
    computed: tuple
    max_abs_err: float
    ok: bool


@dataclass(frozen=True)
class OracleReport:
    matches: tuple
    passed: bool
    detail: str = ""


def group_shape_matrix(data: CurvatureAdaptedData) -> np.ndarray:
    """Shape operator of the group-level preimage on k + TN, from brackets.

    Columns: for u in k, -(1/2) P_TN([xi, u]); for tangent y, the base image
    plus (1/2) P_k([xi, y]).  The assembled matrix is symmetric because the
    inner product is ad-invariant.
    """
    alg, k, tn = data.cd.algebra, data.cd.k, data.tangent_space
    basis = np.vstack([k.basis, tn.basis])
    br = alg.bracket(data.xi, basis)  # row a: [xi, e_a]
    images = np.vstack([
        -0.5 * tn.project_coords(br[:k.dim]),
        data.base_shape_apply(tn.basis) + 0.5 * k.project_coords(br[k.dim:]),
    ])
    mat = alg.inner(basis, images)  # mat[a, b] = <e_a, A e_b>
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
    # values near the float limit give inf or nan distances, and the report
    # refuses what they lead to
    with np.errstate(over="ignore", invalid="ignore"):
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


def compare_spectra(
    op: TruncatedOperator, m_max: int, tol_abs: float, tol_rel: float
) -> MatchReport:
    """Match a truncated block's eigenvalues against the family it approximates.

    The block's numbers name the family: a harmonic pair +-nu/(n pi) at its
    mode n = cutoff, or mu(nu, lam, m) over |m| <= m_max.  Matching is greedy
    from the largest |predicted| down, each computed eigenvalue consumed at
    most once, ties resolved toward the smaller index.  Only the eigenvalues
    of largest magnitude are computed, as many as it takes to certify that
    the picks are those over the whole spectrum.  Mu entries pass at
    tol_rel relative error, exact families at tol_abs absolute error.
    """
    if not 0 <= m_max <= MAX_MU_CUTOFF:
        raise DomainError(f"m_max must be between 0 and {MAX_MU_CUTOFF}, got {m_max}")
    nu, lam, n = op.nu, op.lam, op.cutoff
    if lam is None:
        predicted = [(f"harmonic n={s * n}", nu / (s * n * math.pi), True) for s in (1, -1)]
        block = f"harmonic nu={nu:.6g} n={n}"
    else:
        predicted = [(f"mu m={m}", mu(nu, lam, m), False) for m in range(-m_max, m_max + 1)]
        block = f"mu nu={nu:.6g} lambda={lam:.6g}"
    size = 2 * op.couplings.size + (lam is not None)

    predicted.sort(key=lambda p: -abs(p[1]))
    targets = [value for _, value, _ in predicted]
    # Every eigenvalue left out has |e| <= floor, the smallest computed
    # magnitude, so it is farther than the pick from any target t with
    # |t| - floor > |t - pick|: then the picks equal those over the whole
    # spectrum.  Until that holds, compute twice as many.
    count = len(targets) + 2
    while True:
        computed = op.eigenvalues(count)
        picks, _ = _nearest_unused(computed, targets)
        if len(computed) == size or not np.isfinite(computed).all():
            break  # the whole spectrum, or an overflow that the report refuses
        floor = np.abs(computed).min()
        if all(abs(t) - floor > abs(t - computed[i]) for t, i in zip(targets, picks)):
            break
        count *= 2
    entries = []
    for (desc, value, exact), best in zip(predicted, picks):
        if best is None:
            entries.append(MatchEntry(desc, value, math.nan, math.inf, math.inf, False))
            continue
        got = float(computed[best])
        abs_err = abs(got - value)
        rel_err = abs_err / max(abs(value), 1e-300)
        ok = abs_err <= tol_abs if exact else rel_err <= tol_rel
        entries.append(MatchEntry(desc, value, got, abs_err, rel_err, ok))
    return MatchReport(block, tuple(entries), all(e.ok for e in entries))


# ---------------------------------------------------------------------------
# Random sphere-type geometry (rank-one symmetric pair)
# ---------------------------------------------------------------------------


def sphere_pair(l: int):
    """The pair (so(l+1), so(l)) with the last coordinate axis flipped."""
    return split_pair(l, 1)


def random_m_direction(cd, rng: np.random.Generator) -> np.ndarray:
    """A random unit vector of m: a standard-normal combination of the m
    basis, normalized."""
    if cd.m.dim == 0:
        raise DomainError("m is {0} (the involution is +-I), so it has no unit direction xi")
    raw = rng.standard_normal(cd.m.dim) @ cd.m.basis
    return (1.0 / cd.algebra.norm(raw)) * raw


def sphere_geometry(l: int, lam_mults, rng: np.random.Generator) -> CurvatureAdaptedData:
    """Random curvature-adapted data on the rank-one pair (so(l+1), so(l)).

    ``lam_mults`` = [(lambda, mult), ...] assigns base eigenvalues to
    directions of the one frequency block, which has l - 1 of them.
    """
    data = _adapted_geometry(sphere_pair(l), rng, (), [lam_mults])
    if len(data.ad.blocks) != 1:
        raise StructureError("rank-one pair should produce exactly one frequency")
    return data


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
    blocks = [[(lam, 1)] for lam in block_lams]
    return _adapted_geometry(split_pair(p, q), rng, tangent0_lams, blocks)


def _adapted_geometry(cd, rng: np.random.Generator, kernel_lams, block_lams):
    """Random curvature-adapted data on a Cartan pair.

    Draws a random unit normal direction xi, then one random orthonormal
    frame (a QR-mixed basis) per block it assigns to: the dim m_0 - 1
    directions of m_0 orthogonal to xi, which take one ``kernel_lams`` entry
    each, and the i-th frequency block, whose directions take the
    ``block_lams[i]`` = [(lambda, mult), ...] entries in turn.  A block
    asked for more directions than it has is refused.  Everything
    unassigned is normal.
    """
    ad = paired_bases(cd, random_m_direction(cd, rng))
    if len(block_lams) > len(ad.blocks):
        raise DomainError(f"only {len(ad.blocks)} frequency blocks exist, got {len(block_lams)}")
    frames = [(b.nu, lam_mults, b.y_basis) for lam_mults, b in zip(block_lams, ad.blocks)]
    if kernel_lams:  # xi is a unit vector
        alg, xi = cd.algebra, ad.xi
        kernel = gram_schmidt(alg, ad.m0_basis - np.outer(alg.inner(ad.m0_basis, xi), xi))
        frames.insert(0, (0.0, [(lam, 1) for lam in kernel_lams], kernel))
    tangent = []
    for nu, lam_mults, basis in frames:
        dims = sum(m for _, m in lam_mults)
        if dims > len(basis):
            raise DomainError(
                f"tangent dimension {dims} exceeds the dimension {len(basis)} of block nu={nu:.6g}"
            )
        qmat, _ = np.linalg.qr(rng.standard_normal((len(basis), len(basis))))
        frame = qmat[:dims] @ basis
        ends = np.cumsum([m for _, m in lam_mults], dtype=int)
        tangent += [(nu, lam, frame[end - m:end]) for (lam, m), end in zip(lam_mults, ends)]
    return CurvatureAdaptedData(ad, tangent)
