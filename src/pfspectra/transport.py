"""Discretized paths in an orthogonal group and its Lie algebra.

Paths on [0, 1] are sampled at uniform nodes.  The central objects are the
frame ODE E' = E u (solved by classical RK4 with per-step polar
re-orthogonalization), its endpoint map u -> E(1), and the gauge action

    (g, u) -> g u g^{-1} - g' g^{-1}

under which the endpoint transforms by left/right translation.  Group
values live in O(n), so inverses are transposes throughout.

Coset charts: given a decomposition g = k (+) m, group elements near the
identity factor as exp(xi) * (element of exp(k)) with xi in m; the
m-logarithm xi serves as a coordinate on the quotient by the subgroup.
A fixed-point iteration computes it, guarded by an injectivity radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from .errors import ChartError, DimensionError, DomainError
from .liecore import CartanDecomposition, MatrixLieAlgebra

GRID_VALUE_TOL = 1e-8
BOUNDARY_TOL = 1e-10
MIN_TRANSPORT_NODES = 16
CHART_RADIUS = math.pi / 2.0
FIBER_EPS = 1e-5

_MID_INTERIOR = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_RIGHT = _MID_LEFT[::-1].copy()

_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@dataclass(frozen=True)
class PathGrid:
    """Uniformly sampled matrix path on [0, 1].

    kind "algebra" holds skew matrices (Lie-algebra values); kind "group"
    holds orthogonal matrices.  Both are checked on construction to within
    1e-8 in entrywise max norm.
    """

    values: np.ndarray  # (nodes, n, n)
    kind: str

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise DimensionError(f"path values must be (nodes, n, n), got {vals.shape}")
        if vals.shape[0] < 2:
            raise DomainError("a path needs at least 2 nodes")
        if self.kind == "algebra":
            drift = np.abs(vals + np.swapaxes(vals, 1, 2)).max()
            if drift > GRID_VALUE_TOL:
                raise DomainError(f"algebra path is not skew-symmetric (drift {drift:.3e})")
        elif self.kind == "group":
            eye = np.eye(vals.shape[1])
            drift = np.abs(np.swapaxes(vals, 1, 2) @ vals - eye).max()
            if drift > GRID_VALUE_TOL:
                raise DomainError(f"group path is not orthogonal (drift {drift:.3e})")
        else:
            raise DomainError(f"unknown path kind {self.kind!r}")

    @property
    def nodes(self) -> int:
        return self.values.shape[0]

    @property
    def matrix_dim(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return 1.0 / (self.nodes - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes)

    @classmethod
    def sample(cls, fn, nodes: int, kind: str) -> "PathGrid":
        """Evaluate a matrix-valued callable at the uniform nodes."""
        ts = np.linspace(0.0, 1.0, nodes)
        return cls(np.array([fn(t) for t in ts]), kind)

    @classmethod
    def constant(cls, matrix: np.ndarray, nodes: int, kind: str) -> "PathGrid":
        mat = np.asarray(matrix, dtype=float)
        return cls(np.broadcast_to(mat, (nodes,) + mat.shape).copy(), kind)


def _require_same_grid(g: PathGrid, u: PathGrid) -> None:
    if g.nodes != u.nodes or g.matrix_dim != u.matrix_dim:
        raise DomainError(
            f"incompatible grids: {g.nodes}x{g.matrix_dim} vs {u.nodes}x{u.matrix_dim}"
        )


def differentiate_path(path: PathGrid) -> np.ndarray:
    """Nodewise derivative by 4th-order finite differences.

    Central five-point stencil inside, one-sided five-point stencils at the
    two nodes nearest each endpoint.
    """
    vals = path.values
    nodes = path.nodes
    if nodes < 5:
        raise DomainError("4th-order differentiation needs at least 5 nodes")
    h = path.step
    out = np.empty_like(vals)
    out[2:-2] = (
        np.einsum("c,cnij->nij", _D1_CENTRAL, np.stack(
            [vals[0:-4], vals[1:-3], vals[2:-2], vals[3:-1], vals[4:]]))
    ) / h
    out[0] = np.einsum("c,cij->ij", _D1_EDGE0, vals[0:5]) / h
    out[1] = np.einsum("c,cij->ij", _D1_EDGE1, vals[0:5]) / h
    out[-2] = -np.einsum("c,cij->ij", _D1_EDGE1, vals[-1:-6:-1]) / h
    out[-1] = -np.einsum("c,cij->ij", _D1_EDGE0, vals[-1:-6:-1]) / h
    return out


def gauge_act(g: PathGrid, u: PathGrid) -> PathGrid:
    """Nodewise g u g^T - g' g^T, skew-symmetrized against drift."""
    if g.kind != "group" or u.kind != "algebra":
        raise DomainError("gauge_act needs a group path acting on an algebra path")
    _require_same_grid(g, u)
    gp = differentiate_path(g)
    gt = np.swapaxes(g.values, 1, 2)
    out = g.values @ u.values @ gt - gp @ gt
    out = 0.5 * (out - np.swapaxes(out, 1, 2))
    return PathGrid(out, "algebra")


def compose_group_paths(g: PathGrid, h: PathGrid) -> PathGrid:
    """Pointwise product path t -> g(t) h(t)."""
    if g.kind != "group" or h.kind != "group":
        raise DomainError("both factors must be group paths")
    _require_same_grid(g, h)
    return PathGrid(g.values @ h.values, "group")


def polar_project(x: np.ndarray) -> np.ndarray:
    """Two Newton steps toward the orthogonal polar factor of x."""
    eye = np.eye(x.shape[-1])
    for _ in range(2):
        x = x @ (1.5 * eye - 0.5 * (x.T @ x))
    return x


def _midpoint_samples(vals: np.ndarray) -> np.ndarray:
    """Cubic interpolation of node values to interval midpoints.

    Four-point stencils keep RK4's fourth order when the driving path is
    known only at the nodes.
    """
    count = vals.shape[0] - 1
    mids = np.empty((count,) + vals.shape[1:])
    mids[0] = np.einsum("c,cij->ij", _MID_LEFT, vals[0:4])
    mids[-1] = np.einsum("c,cij->ij", _MID_RIGHT, vals[-4:])
    if count > 2:
        stack = np.stack([vals[0:-3], vals[1:-2], vals[2:-1], vals[3:]])
        mids[1:-1] = np.einsum("c,cnij->nij", _MID_INTERIOR, stack)
    return mids


@dataclass(frozen=True)
class TransportSolution:
    """Frame path solving E' = E u with E(0) = I, plus its endpoint."""

    frames: PathGrid

    @property
    def endpoint(self) -> np.ndarray:
        return self.frames.values[-1]


def solve_transport(u: PathGrid) -> TransportSolution:
    """Integrate the frame ODE E' = E u(t) by classical RK4.

    Midpoint values of u come from cubic interpolation; every step ends
    with a polar projection pinning the frame to the orthogonal group.
    E(0) is the identity exactly.
    """
    if u.kind != "algebra":
        raise DomainError("transport integrates algebra-valued paths")
    if u.nodes < MIN_TRANSPORT_NODES:
        raise DomainError(
            f"transport needs at least {MIN_TRANSPORT_NODES} nodes, got {u.nodes}"
        )
    h = u.step
    vals = u.values
    mids = _midpoint_samples(vals)
    frames = np.empty_like(vals)
    frames[0] = np.eye(u.matrix_dim)
    cur = frames[0]
    for i in range(u.nodes - 1):
        k1 = cur @ vals[i]
        k2 = (cur + 0.5 * h * k1) @ mids[i]
        k3 = (cur + 0.5 * h * k2) @ mids[i]
        k4 = (cur + h * k3) @ vals[i + 1]
        cur = polar_project(cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        frames[i + 1] = cur
    return TransportSolution(PathGrid(frames, "group"))


def transport_endpoint(u: PathGrid) -> np.ndarray:
    return solve_transport(u).endpoint


def equivariance_residual(g: PathGrid, u: PathGrid) -> float:
    """Frobenius gap between the endpoint of the gauged path and the
    translated endpoint: endpoint(g*u) vs g(0) endpoint(u) g(1)^T."""
    left = transport_endpoint(gauge_act(g, u))
    right = g.values[0] @ transport_endpoint(u) @ g.values[-1].T
    return float(np.linalg.norm(left - right))


# ---------------------------------------------------------------------------
# Coset chart and fiber tangency
# ---------------------------------------------------------------------------


def _skew_log(a: np.ndarray) -> np.ndarray:
    """Principal logarithm of a near-identity orthogonal matrix."""
    angles = np.abs(np.angle(np.linalg.eigvals(a)))
    if angles.max() > math.pi - 1e-6:
        raise ChartError("group element has a rotation angle at the logarithm cut")
    log = logm(a)
    log = np.real(log)
    return 0.5 * (log - log.T)


def coset_log(cd: CartanDecomposition, a: np.ndarray,
              radius: float = CHART_RADIUS, max_iter: int = 60,
              tol: float = 1e-13) -> np.ndarray:
    """Chart coordinate xi in m with exp(-xi) a in the subgroup of k.

    Fixed-point iteration xi <- xi + P_m(log(exp(-xi) a)).  Raises a chart
    error when the iterate leaves the injectivity ball of the given radius
    (measured by the largest rotation angle of xi) or fails to converge.
    """
    alg = cd.algebra
    a = np.asarray(a, dtype=float)
    xi = np.zeros(alg.dim)
    for _ in range(max_iter):
        rem = _skew_log(expm(-alg.to_matrices(xi)) @ a)
        corr = cd.m.project_coords(alg.from_matrix(rem))
        xi = xi + corr
        angle = float(np.abs(np.linalg.eigvals(alg.to_matrices(xi)).imag).max())
        if angle > radius:
            raise ChartError(
                f"coset chart left its injectivity ball (angle {angle:.3f} > {radius:.3f})"
            )
        if alg.norm(corr) <= tol:
            return xi
    raise ChartError("coset chart iteration did not converge")


@dataclass(frozen=True)
class CosetPoint:
    """A group element with its chart coordinate modulo the subgroup."""

    group_point: np.ndarray
    m_log: np.ndarray  # coordinates in m
    algebra: MatrixLieAlgebra

    @property
    def chart_distance(self) -> float:
        """Distance to the base coset in the chart (norm of the coordinate)."""
        return float(self.algebra.norm(self.m_log))

    def subgroup_factor(self) -> np.ndarray:
        return expm(-self.algebra.to_matrices(self.m_log)) @ self.group_point


def phi_k(u: PathGrid, cd: CartanDecomposition,
          radius: float = CHART_RADIUS) -> CosetPoint:
    """Endpoint of the frame ODE, reduced modulo the subgroup of k."""
    endpoint = transport_endpoint(u)
    return CosetPoint(endpoint, coset_log(cd, endpoint, radius), cd.algebra)


def fiber_tangent_residual(z: PathGrid, cd: CartanDecomposition,
                           eps: float = FIBER_EPS,
                           enforce_boundary: bool = True) -> float:
    """First-order drift of the coset chart along the direction -z'.

    z must vanish at t = 0 and end inside k at t = 1 (within 1e-10);
    directions of that form are tangent to the fiber through the zero
    path, so the chart coordinate of the endpoint of eps * (-z') is
    O(eps^2) and the returned ratio is small.  With enforce_boundary off
    the endpoint condition is skipped, which turns the ratio into a
    negative control: non-fiber directions give order-one values.
    """
    if z.kind != "algebra":
        raise DomainError("fiber directions are algebra-valued paths")
    alg = cd.algebra
    start_drift = np.abs(z.values[0]).max()
    if start_drift > BOUNDARY_TOL:
        raise DomainError(f"path must start at zero (drift {start_drift:.3e})")
    if enforce_boundary:
        leak = alg.norm(cd.m.project_coords(alg.from_matrix(z.values[-1])))
        if leak > BOUNDARY_TOL:
            raise DomainError(
                f"path must end inside the k factor (m-component {leak:.3e})"
            )
    direction = PathGrid(-differentiate_path(z), "algebra")
    scaled = PathGrid(eps * direction.values, "algebra")
    return phi_k(scaled, cd).chart_distance / eps


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


def _random_skew(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw - raw.T)


def random_algebra_path(n: int, nodes: int, rng: np.random.Generator,
                        degree: int = 3, scale: float = 1.0) -> PathGrid:
    """Polynomial path of skew matrices, smooth by construction."""
    coeffs = [_random_skew(n, rng, scale) for _ in range(degree + 1)]
    ts = np.linspace(0.0, 1.0, nodes)
    vals = np.zeros((nodes, n, n))
    for d, c in enumerate(coeffs):
        vals += np.power(ts, d)[:, None, None] * c
    return PathGrid(vals, "algebra")


def random_group_path(n: int, nodes: int, rng: np.random.Generator,
                      degree: int = 3, scale: float = 0.5,
                      based: bool = False) -> PathGrid:
    """Exponential of a random polynomial skew path.

    With ``based`` the polynomial has no constant term, so the path starts
    at the identity.
    """
    start = 1 if based else 0
    coeffs = {d: _random_skew(n, rng, scale) for d in range(start, degree + 1)}

    def point(t: float) -> np.ndarray:
        acc = np.zeros((n, n))
        for d, c in coeffs.items():
            acc += (t ** d) * c
        return expm(acc)

    return PathGrid.sample(point, nodes, "group")


def random_fiber_group_path(cd: CartanDecomposition, nodes: int,
                            rng: np.random.Generator, degree: int = 3,
                            scale: float = 0.5) -> PathGrid:
    """Group path with g(0) = identity and g(1) in the subgroup of k."""
    alg = cd.algebra
    n = alg.n
    coeffs = {d: _random_skew(n, rng, scale) for d in range(1, degree + 1)}
    total = sum(coeffs.values())
    leak = alg.to_matrices(cd.m.project_coords(alg.from_matrix(total)))
    coeffs[degree] = coeffs[degree] - leak  # now the t=1 value lies in k

    def point(t: float) -> np.ndarray:
        acc = np.zeros((n, n))
        for d, c in coeffs.items():
            acc += (t ** d) * c
        return expm(acc)

    return PathGrid.sample(point, nodes, "group")
