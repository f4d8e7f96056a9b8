"""Discretized paths in an orthogonal group and its Lie algebra.

Paths on [0, 1] are sampled at uniform nodes, one path as a (nodes, n, n)
array or a stack of paths on a common grid as (paths, nodes, n, n).  The
central objects are the frame ODE E' = E u (solved by classical RK4 for a
whole stack at once: each step is a right factor, its step propagator,
that is polar-projected onto the orthogonal group; the factors of a block
of steps are multiplied by a pairwise product tree, and the frames are
re-projected once per block), its endpoint map u -> E(1), and the gauge
action

    (g, u) -> g u g^{-1} - g' g^{-1}

under which the endpoint transforms by left/right translation.  Group
values live in O(n), so inverses are transposes throughout.  Stencils,
products and checks act on the last three axes, so every function that
takes a path also takes a stack.

Coset charts: given a decomposition g = k (+) m into the +1/-1
eigenspaces of conjugation by P, group elements near the identity factor
as exp(xi) * (element of exp(k)) with xi in m; the m-logarithm xi serves
as a coordinate on the quotient by the subgroup.  The Cartan embedding
a -> a P a^T P maps such an element to exp(2 xi), so the chart is half a
principal logarithm, in closed form.

Exponentials are Taylor polynomials with scaling and squaring, batched
over a stack and free of linear solves; the logarithm comes from the
Cayley transform and one Hermitian eigendecomposition.  Neither needs
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, DimensionError, DomainError
from .liecore import MAX_SO_N, CartanDecomposition

GRID_VALUE_TOL = 1e-8
BOUNDARY_TOL = 1e-10
MIN_TRANSPORT_NODES = 16
MAX_TRANSPORT_N = MAX_SO_N  # matrix size; the fiber check builds so(n)
MAX_TRANSPORT_ENTRIES = 4_000_000  # matrix entries of one stack of paths
MAX_TRANSPORT_STEPS = 250_000  # RK4 steps, one per path and interval
FIBER_EPS = 1e-5

_MID_INTERIOR = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_RIGHT = _MID_LEFT[::-1].copy()

# The solver interpolates midpoints and checks frames for this many steps
# at a time, so it never holds a second copy of a whole stack.
_STEP_BLOCK = 64

_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _max_abs(residual: np.ndarray) -> float:
    """Entrywise max norm, computed in place in a scratch residual."""
    return float(np.abs(residual, out=residual).max())


def _transposed(x: np.ndarray) -> np.ndarray:
    """Contiguous copy of the transpose of a matrix or of each matrix of a
    stack.  NumPy computes x.mT @ x by a symmetric rank-k update per
    matrix, which on stacks of small matrices takes about twice as long as
    the product with this copy; at the sizes the tests check the two give
    the same bits."""
    return np.ascontiguousarray(x.mT)


def _orthogonality_drift(frames: np.ndarray) -> float:
    """max |E^T E - I| over a matrix or a stack of matrices."""
    gram = _transposed(frames) @ frames
    gram -= np.eye(frames.shape[-1])
    return _max_abs(gram)


@dataclass(frozen=True)
class PathGrid:
    """Uniformly sampled matrix path on [0, 1], or a stack of such paths.

    values is (nodes, n, n) for one path, (paths, nodes, n, n) for a stack
    on a common grid; ``nodes`` is always the node count.  kind "algebra"
    holds skew matrices (Lie-algebra values); kind "group" holds orthogonal
    matrices.  Every member is checked on construction to within 1e-8 in
    entrywise max norm.  The values are read-only: a read-only float array
    is kept as it is, anything else is copied once.
    """

    values: np.ndarray  # ([paths,] nodes, n, n)
    kind: str

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == float
                and not vals.flags.writeable):
            vals = np.array(vals, dtype=float)
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)
        if vals.ndim not in (3, 4) or vals.shape[-1] != vals.shape[-2]:
            raise DimensionError(
                f"path values must be ([paths,] nodes, n, n), got {vals.shape}"
            )
        if vals.shape[-3] < 2:
            raise DomainError("a path needs at least 2 nodes")
        # one path at a time, so the scratch residual is one path long
        paths = vals if vals.ndim == 4 else (vals,)
        if self.kind == "algebra":
            drift = np.max([_max_abs(path + path.mT) for path in paths])
            if not drift <= GRID_VALUE_TOL:
                raise DomainError(f"algebra path is not skew-symmetric (drift {drift:.3e})")
        elif self.kind == "group":
            drift = np.max([_orthogonality_drift(path) for path in paths])
            if not drift <= GRID_VALUE_TOL:
                raise DomainError(f"group path is not orthogonal (drift {drift:.3e})")
        else:
            raise DomainError(f"unknown path kind {self.kind!r}")

    @property
    def nodes(self) -> int:
        return self.values.shape[-3]

    @property
    def matrix_dim(self) -> int:
        return self.values.shape[-1]

    @property
    def step(self) -> float:
        return 1.0 / (self.nodes - 1)

    @classmethod
    def constant(cls, matrix: np.ndarray, nodes: int, kind: str) -> "PathGrid":
        mat = np.array(matrix, dtype=float)
        return cls(np.broadcast_to(mat, (nodes,) + mat.shape), kind)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so PathGrid keeps it uncopied."""
    arr.setflags(write=False)
    return arr


def check_transport_work(paths: int, nodes: int, n: int) -> None:
    """Refuse, before anything is allocated, transport of ``paths`` paths
    of ``nodes`` n x n matrices beyond the module limits."""
    if not 1 <= n <= MAX_TRANSPORT_N:
        raise DomainError(f"transport needs a matrix size 1 <= n <= {MAX_TRANSPORT_N}, got {n}")
    entries = paths * nodes * n * n
    if entries > MAX_TRANSPORT_ENTRIES:
        raise DomainError(f"transport asks for {entries:.3g} path entries, "
                          f"more than the limit of {MAX_TRANSPORT_ENTRIES}")
    steps = paths * (nodes - 1)
    if steps > MAX_TRANSPORT_STEPS:
        raise DomainError(f"transport asks for {steps:.3g} RK4 steps, "
                          f"more than the limit of {MAX_TRANSPORT_STEPS}")


def _require_same_grid(g: PathGrid, u: PathGrid) -> None:
    if g.nodes != u.nodes or g.matrix_dim != u.matrix_dim:
        raise DomainError(
            f"incompatible grids: {g.nodes}x{g.matrix_dim} vs {u.nodes}x{u.matrix_dim}"
        )


def _combine(weights: np.ndarray, terms, out: np.ndarray) -> np.ndarray:
    """out = sum_c weights[c] * terms[c], accumulated in term order."""
    np.multiply(weights[0], terms[0], out=out)
    for w, term in zip(weights[1:], terms[1:]):
        out += w * term
    return out


def differentiate_path(path: PathGrid) -> np.ndarray:
    """Nodewise derivative by 4th-order finite differences.

    Central five-point stencil inside, one-sided five-point stencils at the
    two nodes nearest each endpoint.  Each stencil is a weighted sum of
    shifted node slices, so a stack is differentiated without copies of it.
    """
    vals = path.values
    nodes = path.nodes
    if nodes < 5:
        raise DomainError("4th-order differentiation needs at least 5 nodes")
    out = np.empty(vals.shape)
    inner = nodes - 4
    _combine(_D1_CENTRAL, [vals[..., c:c + inner, :, :] for c in range(5)],
             out[..., 2:-2, :, :])
    head = [vals[..., c, :, :] for c in range(5)]
    tail = [vals[..., -1 - c, :, :] for c in range(5)]
    _combine(_D1_EDGE0, head, out[..., 0, :, :])
    _combine(_D1_EDGE1, head, out[..., 1, :, :])
    _combine(_D1_EDGE1, tail, out[..., -2, :, :])
    _combine(_D1_EDGE0, tail, out[..., -1, :, :])
    np.negative(out[..., -2:, :, :], out=out[..., -2:, :, :])
    out /= path.step
    return out


def gauge_act(g: PathGrid, u: PathGrid) -> PathGrid:
    """Nodewise g u g^T - g' g^T, skew-symmetrized against drift."""
    if g.kind != "group" or u.kind != "algebra":
        raise DomainError("gauge_act needs a group path acting on an algebra path")
    _require_same_grid(g, u)
    gp = differentiate_path(g)
    gt = _transposed(g.values)
    out = g.values @ u.values @ gt - gp @ gt
    out = 0.5 * (out - out.mT)
    return PathGrid(_frozen(out), "algebra")


def _newton_polar(x: np.ndarray, eye15: np.ndarray) -> np.ndarray:
    """Two Newton steps toward the orthogonal polar factor of x (or of
    each matrix of a stack); eye15 is 1.5 times the identity."""
    for _ in range(2):
        t = _transposed(x) @ x
        t *= -0.5
        t += eye15
        x = x @ t
    return x


def _midpoint_samples(vals: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Cubic interpolation of node values to the midpoints of the intervals
    start..stop-1; the node axis comes first in vals and in the result.

    Four-point stencils keep RK4's fourth order when the driving path is
    known only at the nodes.
    """
    count = len(vals) - 1
    mids = np.empty((stop - start,) + vals.shape[1:])
    lo, hi = max(start, 1), min(stop, count - 1)
    if lo < hi:
        _combine(_MID_INTERIOR, [vals[lo - 1 + c:hi - 1 + c] for c in range(4)],
                 mids[lo - start:hi - start])
    if start == 0:
        _combine(_MID_LEFT, vals[:4], mids[0])
    if stop == count:
        _combine(_MID_RIGHT, vals[-4:], mids[-1])
    return mids


def _step_propagators(vals: np.ndarray, start: int, stop: int, h: float) -> np.ndarray:
    """RK4 step propagators P of E' = E u for the steps start..stop-1, with
    E -> E P the RK4 step; the node axis comes first in vals and in P.

    With a, m, b the values of u at a step's start, midpoint and end, the
    RK4 stages are E times K1 = a, K2 = m + (h/2) a m, K3 = m + (h/2) K2 m
    and K4 = b + h K3 b, so P = I + (h/6) (K1 + 2 K2 + 2 K3 + K4).
    """
    a, b = vals[start:stop], vals[start + 1:stop + 1]
    m = _midpoint_samples(vals, start, stop)
    k2 = a @ m
    k2 *= 0.5 * h
    k2 += m
    k3 = k2 @ m
    k3 *= 0.5 * h
    k3 += m
    k4 = k3 @ b
    k4 *= h
    k4 += b
    p = k2  # accumulates 2 (K2 + K3) + K1 + K4
    p += k3
    p *= 2.0
    p += a
    p += k4
    p *= h / 6.0
    p += np.eye(vals.shape[-1])
    return p


def _tree_product(q: np.ndarray) -> np.ndarray:
    """Ordered product q[0] q[1] ... q[-1] over the first axis, by a
    pairwise tree: each level multiplies neighbouring factors, and an odd
    last factor moves up a level unchanged.  Log-depth in the factor count,
    one batched product per level."""
    while len(q) > 1:
        pairs = q[0:len(q) - 1:2] @ q[1::2]
        q = np.concatenate((pairs, q[-1:])) if len(q) % 2 else pairs
    return q[0]


@dataclass(frozen=True)
class TransportSolution:
    """Endpoint E(1) of the frame ODE E' = E u, E(0) = I, for one path or
    for each path of a stack, with the worst frame drift max |E^T E - I|
    over the frames at the end of each block of steps."""

    endpoint: np.ndarray  # ([paths,] n, n)
    drift: float


def solve_transport(u: PathGrid) -> TransportSolution:
    """Integrate the frame ODE E' = E u(t) by classical RK4.

    For this linear ODE an RK4 step is E -> E P with a step propagator P
    that depends on u alone, and the polar factor of E P is E times the
    polar factor of P when E is orthogonal.  So each block of steps builds
    the propagators of every step and every path of a stack at once,
    projects each one onto the orthogonal group by Newton polar steps, and
    multiplies them by a pairwise product tree, one batched product per
    level; the frames times that block product are checked for drift from
    the group and projected once more before the next block starts from
    them.  Midpoint values of u come from cubic interpolation.  Midpoints
    and propagators are held for one block of steps only.  A drift above
    1e-8 raises a DomainError.  E(0) is the identity exactly.
    """
    if u.kind != "algebra":
        raise DomainError("transport integrates algebra-valued paths")
    if u.nodes < MIN_TRANSPORT_NODES:
        raise DomainError(
            f"transport needs at least {MIN_TRANSPORT_NODES} nodes, got {u.nodes}"
        )
    h = u.step
    steps = u.nodes - 1
    vals = np.moveaxis(u.values, -3, 0)  # node-major views: vals[i] is node i of every path
    eye15 = 1.5 * np.eye(u.matrix_dim)
    cur = np.broadcast_to(np.eye(u.matrix_dim), vals.shape[1:])
    drifts = []
    for start in range(0, steps, _STEP_BLOCK):
        stop = min(start + _STEP_BLOCK, steps)
        q = _newton_polar(_step_propagators(vals, start, stop, h), eye15)
        frame = cur @ _tree_product(q)
        drifts.append(_orthogonality_drift(frame))
        cur = _newton_polar(frame, eye15)
    drift = float(np.max(drifts))
    if not drift <= GRID_VALUE_TOL:
        raise DomainError(f"transported frames are not orthogonal (drift {drift:.3e})")
    return TransportSolution(cur, drift)


def transport_endpoint(u: PathGrid) -> np.ndarray:
    return solve_transport(u).endpoint


def equivariance_residuals(draw, count: int) -> list:
    """equivariance_residual of each of ``count`` pairs (g, u) = draw().

    The pairs share one grid.  Each gauged path and each plain path is
    written into one stack, of each g only g(0) and g(1) are kept, and the
    stack is solved in one transport call.
    """
    stack = None
    ends = []
    for s in range(count):
        g, u = draw()
        acted = gauge_act(g, u)
        if stack is None:
            stack = np.empty((2 * count,) + u.values.shape)
        stack[s] = acted.values
        stack[count + s] = u.values
        ends.append((g.values[0].copy(), g.values[-1].copy()))
    endpoint = transport_endpoint(PathGrid(_frozen(stack), "algebra"))
    return [
        float(np.linalg.norm(endpoint[s] - g0 @ endpoint[count + s] @ g1.T))
        for s, (g0, g1) in enumerate(ends)
    ]


def equivariance_residual(g: PathGrid, u: PathGrid) -> float:
    """Frobenius gap between the endpoint of the gauged path and the
    translated endpoint: endpoint(g*u) vs g(0) endpoint(u) g(1)^T, for one
    pair of paths."""
    return equivariance_residuals(lambda: (g, u), 1)[0]


# ---------------------------------------------------------------------------
# Coset chart and fiber tangency
# ---------------------------------------------------------------------------


def _skew_log(a: np.ndarray) -> np.ndarray:
    """Principal logarithm of a near-identity orthogonal matrix.

    The Cayley transform C = (a - I)(a + I)^-1 is skew, with eigenvalues
    i tan(angle/2) over the rotation angles of a.  One Hermitian eigh of
    -iC gives those tangents and unitary eigenvectors V, and the logarithm
    is V diag(i angle) V^H with angle = 2 arctan(tangent).  The identity
    maps to zero exactly.
    """
    eye = np.eye(len(a))
    try:
        cayley = np.linalg.solve(a + eye, a - eye)  # a - I and a + I commute
        tangents, vecs = np.linalg.eigh(0.5j * (cayley.T - cayley))
        angles = 2.0 * np.arctan(tangents)
    except np.linalg.LinAlgError:  # a + I is singular: an angle of exactly pi
        angles = np.array([math.pi])
    if not np.abs(angles).max() <= math.pi - 1e-6:
        raise ChartError("group element has a rotation angle at the logarithm cut")
    log = -((vecs * angles) @ vecs.conj().T).imag
    return 0.5 * (log - log.T)


def coset_log(cd: CartanDecomposition, a: np.ndarray) -> np.ndarray:
    """Chart coordinate xi in m with exp(-xi) a in the subgroup of k.

    For a = exp(xi) k with k in the subgroup, a P a^T P = exp(2 xi), so xi
    is half the m-part of the principal logarithm of a P a^T P.  The
    logarithm refuses a rotation angle at its cut, which bounds the angles
    of xi by (pi - 1e-6)/2.  Then exp(-xi) a commutes with P; it lies in
    the subgroup only if it keeps the orientation of the -1 eigenspace of
    P (a subgroup element may still rotate by pi), else the chart raises.
    """
    alg = cd.algebra
    p = cd.p_matrix
    a = np.asarray(a, dtype=float)
    xi = 0.5 * cd.m.project_coords(alg.from_matrix(_skew_log(a @ p @ a.T @ p)))
    rest = _expm_stack(alg.to_matrices(-xi)[None])[0] @ a
    flip = 0.5 * (np.eye(alg.n) - p)  # projection onto the -1 eigenspace
    if not np.linalg.det(rest @ flip + np.eye(alg.n) - flip) > 0.0:
        raise ChartError("group element is outside the coset chart: its subgroup "
                         "factor reverses the -1 eigenspace of the involution")
    return xi


def phi_k(u: PathGrid, cd: CartanDecomposition) -> np.ndarray:
    """Chart coordinate (in m) of the endpoint of the frame ODE, that is,
    the endpoint reduced modulo the subgroup of k; for a stack of paths,
    one row per path."""
    ends = transport_endpoint(u)
    if ends.ndim == 2:
        return coset_log(cd, ends)
    return np.array([coset_log(cd, end) for end in ends])


def fiber_tangent_residuals(z: PathGrid, cd: CartanDecomposition,
                            enforce_boundary) -> list:
    """fiber_tangent_residual of each path of a stack z, with
    enforce_boundary[s] for path s.  The directions -z' of the whole stack
    are integrated in one transport call."""
    if z.kind != "algebra":
        raise DomainError("fiber directions are algebra-valued paths")
    if z.values.ndim != 4:
        raise DimensionError(f"expected a (paths, nodes, n, n) stack, got {z.values.shape}")
    alg = cd.algebra
    for path, enforce in zip(z.values, enforce_boundary, strict=True):
        start_drift = np.abs(path[0]).max()
        if start_drift > BOUNDARY_TOL:
            raise DomainError(f"path must start at zero (drift {start_drift:.3e})")
        if enforce:
            leak = alg.norm(cd.m.project_coords(alg.from_matrix(path[-1])))
            if leak > BOUNDARY_TOL:
                raise DomainError(
                    f"path must end inside the k factor (m-component {leak:.3e})"
                )
    scaled = PathGrid(_frozen(-FIBER_EPS * differentiate_path(z)), "algebra")
    return (alg.norm(phi_k(scaled, cd)) / FIBER_EPS).tolist()


def fiber_tangent_residual(z: PathGrid, cd: CartanDecomposition,
                           enforce_boundary: bool = True) -> float:
    """First-order drift of the coset chart along the direction -z'.

    z must vanish at t = 0 and end inside k at t = 1 (within 1e-10);
    directions of that form are tangent to the fiber through the zero
    path, so the chart coordinate of the endpoint of eps * (-z'), with
    eps = FIBER_EPS, is O(eps^2) and the returned ratio is small.  With
    enforce_boundary off the endpoint condition is skipped, which turns the
    ratio into a negative control: non-fiber directions give order-one
    values.
    """
    return fiber_tangent_residuals(PathGrid(z.values[None], z.kind), cd,
                                   [enforce_boundary])[0]


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


def _random_skew(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw - raw.T)


def _random_cubic(n: int, nodes: int, rng: np.random.Generator, scale: float,
                  first: int = 0) -> np.ndarray:
    """Values sum_d t^d c_d, d = first..3, of a random skew polynomial at
    uniform node times t, with c_d drawn in the order of d.  The path is
    one (nodes, degrees) @ (degrees, n^2) product of the power table t^d
    with the stacked coefficients."""
    coeffs = np.array([_random_skew(n, rng, scale) for _ in range(first, 4)])
    powers = np.linspace(0.0, 1.0, nodes)[:, None] ** np.arange(first, 4)
    return (powers @ coeffs.reshape(len(coeffs), -1)).reshape(nodes, n, n)


def random_algebra_path(n: int, nodes: int, rng: np.random.Generator,
                        scale: float = 1.0) -> PathGrid:
    """Cubic polynomial path of skew matrices, smooth by construction."""
    return PathGrid(_frozen(_random_cubic(n, nodes, rng, scale)), "algebra")


# Taylor coefficients 1/k!, k = 0..19, in Paterson-Stockmeyer blocks: row j
# holds those of x^(4j) .. x^(4j+3), and the rows are summed by Horner's rule
# in x^4.  For a 1-norm at most _TAYLOR_THETA the terms left out sum to at
# most theta^20/20! / (1 - theta/21) = 8.3e-17 in norm, before squaring.
_TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(20)]).reshape(5, 4)
_TAYLOR_THETA = 1.3
# Nodes per block of the batched exponential, so its temporaries stay small.
_EXPM_BLOCK = 128


def _expm_stack(acc: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix of a (count, n, n) stack, in place.

    Scaling and squaring with the degree-19 Taylor polynomial, evaluated
    by Paterson-Stockmeyer in 7 products and no solve, with one scaling
    2^-s for the whole stack, set by its largest 1-norm.  A zero matrix
    maps to the identity exactly.
    """
    norm = float(np.abs(acc).sum(axis=-2).max())
    s = math.ceil(math.log2(norm / _TAYLOR_THETA)) if norm > _TAYLOR_THETA else 0
    rows = len(_TAYLOR_BLOCKS)
    for lo in range(0, len(acc), _EXPM_BLOCK):
        x = acc[lo:lo + _EXPM_BLOCK]
        x *= 2.0 ** -s
        powers = np.empty((4,) + x.shape)  # x^0 .. x^3
        powers[0] = np.eye(x.shape[-1])
        powers[1] = x
        np.matmul(x, x, out=powers[2])
        np.matmul(powers[2], x, out=powers[3])
        x4 = powers[2] @ powers[2]
        blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape((rows,) + x.shape)
        r = blocks[-1]
        for block in blocks[-2::-1]:
            r = r @ x4
            r += block
        for _ in range(s):
            r = r @ r
        x[...] = r
    return acc


def random_group_path(n: int, nodes: int, rng: np.random.Generator,
                      scale: float = 0.5, based: bool = False) -> PathGrid:
    """Exponential of a random cubic polynomial skew path, t -> expm(sum_d
    t^d c_d), with one batched exponential over the node stack.

    With ``based`` the polynomial has no constant term, so the path starts
    at the identity.  The polynomial is one matrix product over the nodes,
    so its values can differ from a per-degree sum in the last bits.
    """
    acc = _random_cubic(n, nodes, rng, scale, first=1 if based else 0)
    return PathGrid(_frozen(_expm_stack(acc)), "group")
