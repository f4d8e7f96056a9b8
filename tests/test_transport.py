"""Discretized path-space tests: gauge action, frame ODE, chart identities."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from pfspectra import transport
from pfspectra import (
    ChartError,
    DimensionError,
    DomainError,
    PathGrid,
    build_so,
    check_transport_work,
    cartan_decompose,
    coset_log,
    differentiate_path,
    equivariance_residual,
    equivariance_residuals,
    fiber_tangent_residual,
    fiber_tangent_residuals,
    gauge_act,
    phi_k,
    random_algebra_path,
    random_group_path,
    solve_transport,
    split_pair,
    transport_endpoint,
)

NODES = 257
CONST_TOL = 1e-8
CHART_TOL = 1e-6


def pair_index(n, i, j):
    """Index of E_ij (i < j) in the build_so(n) basis: row-major upper triangle."""
    return list(zip(*np.triu_indices(n, 1))).index((i, j))


def skew(rng, n):
    raw = rng.standard_normal((n, n))
    return 0.5 * (raw - raw.T)


def so3_cd():
    alg = build_so(3)
    return alg, cartan_decompose(alg, np.diag([1.0, -1.0, -1.0]))


def so4_cd():
    alg = build_so(4)
    return alg, cartan_decompose(alg, np.diag([1.0, -1.0, -1.0, -1.0]))


def random_fiber_group_path(cd, nodes, rng):
    """Group path t -> expm(sum_d t^d c_d), d = 1..3, by scipy per node:
    it starts at the identity, and the c_3 correction puts g(1) in the
    subgroup of k."""
    alg = cd.algebra
    coeffs = [0.5 * skew(rng, alg.n) for _ in range(3)]
    coeffs[2] = coeffs[2] - alg.to_matrices(cd.m.project_coords(alg.from_matrix(sum(coeffs))))
    return PathGrid(
        [expm(sum(t ** (d + 1) * c for d, c in enumerate(coeffs)))
         for t in np.linspace(0.0, 1.0, nodes)], "group"
    )


# ---------------------------------------------------------------- PathGrid


def test_path_grid_validation():
    with pytest.raises(DimensionError):
        PathGrid(np.zeros((4, 3)), "algebra")
    with pytest.raises(DomainError, match="at least 2"):
        PathGrid(np.zeros((1, 3, 3)), "algebra")
    with pytest.raises(DomainError, match="skew"):
        PathGrid(np.ones((4, 3, 3)), "algebra")
    with pytest.raises(DomainError, match="orthogonal"):
        PathGrid(np.zeros((4, 3, 3)), "group")
    with pytest.raises(DomainError, match="kind"):
        PathGrid(np.zeros((4, 3, 3)), "scalar")


def test_path_grid_geometry_helpers():
    grid = PathGrid.constant(np.zeros((3, 3)), 5, "algebra")
    assert grid.nodes == 5
    assert grid.matrix_dim == 3
    assert grid.step == pytest.approx(0.25)


def test_path_grid_values_are_read_only():
    grid = PathGrid.constant(np.zeros((3, 3)), 4, "algebra")
    with pytest.raises(ValueError):
        grid.values[0, 0, 1] = 1.0


# ---------------------------------------------------------- differentiation


def test_differentiation_is_exact_on_quartics():
    t = np.linspace(0.0, 1.0, 33)
    base = skew(np.random.default_rng(1), 3)
    poly = (2.0 * t**4 - t**3 + 0.5 * t - 1.0)[:, None, None] * base
    dpoly = (8.0 * t**3 - 3.0 * t**2 + 0.5)[:, None, None] * base
    grid = PathGrid(poly, "algebra")
    np.testing.assert_allclose(differentiate_path(grid), dpoly, atol=1e-10)


def test_differentiation_fourth_order_on_waves():
    base = skew(np.random.default_rng(2), 3)
    errs = []
    for nodes in (33, 65):
        t = np.linspace(0.0, 1.0, nodes)
        grid = PathGrid(np.sin(2.0 * np.pi * t)[:, None, None] * base, "algebra")
        ref = 2.0 * np.pi * np.cos(2.0 * np.pi * t)[:, None, None] * base
        errs.append(np.abs(differentiate_path(grid) - ref).max())
    assert errs[0] / errs[1] > 10.0  # halving h gains ~16x


def test_differentiation_needs_five_nodes():
    with pytest.raises(DomainError, match="at least 5"):
        differentiate_path(PathGrid(np.zeros((4, 3, 3)), "algebra"))


# ------------------------------------------------------------- gauge action


def test_gauge_action_by_constant_rotation_is_conjugation():
    rng = np.random.default_rng(3)
    u = random_algebra_path(3, NODES, rng)
    b = expm(0.3 * skew(rng, 3))
    g = PathGrid.constant(b, NODES, "group")
    acted = gauge_act(g, u)
    np.testing.assert_allclose(acted.values, b @ u.values @ b.T, atol=1e-9)


def test_gauge_action_on_zero_path_gives_log_derivative():
    rng = np.random.default_rng(4)
    g = random_group_path(3, NODES, rng)
    zero = PathGrid.constant(np.zeros((3, 3)), NODES, "algebra")
    acted = gauge_act(g, zero)
    gp = differentiate_path(g)
    np.testing.assert_allclose(
        acted.values, -gp @ np.swapaxes(g.values, 1, 2), atol=1e-6
    )


def test_gauge_action_requires_matching_grids():
    rng = np.random.default_rng(5)
    g = random_group_path(3, 65, rng)
    u = random_algebra_path(3, 129, rng)
    with pytest.raises(DomainError, match="incompatible"):
        gauge_act(g, u)
    with pytest.raises(DomainError):
        gauge_act(u, u)


def test_gauge_action_composes_like_a_group_action():
    rng = np.random.default_rng(6)
    g = random_group_path(3, NODES, rng)
    h = random_group_path(3, NODES, rng)
    u = random_algebra_path(3, NODES, rng)
    lhs = gauge_act(PathGrid(g.values @ h.values, "group"), u)
    rhs = gauge_act(g, gauge_act(h, u))
    assert np.abs(lhs.values - rhs.values).max() <= 1e-6


def test_compose_requires_group_paths():
    # the pointwise product of two group paths is a group path; that of
    # two algebra paths is refused as one
    rng = np.random.default_rng(7)
    g, h = random_group_path(3, 65, rng), random_group_path(3, 65, rng)
    assert PathGrid(g.values @ h.values, "group").nodes == 65
    u = random_algebra_path(3, 65, rng)
    with pytest.raises(DomainError, match="orthogonal"):
        PathGrid(u.values @ u.values, "group")


# -------------------------------------------------------------- frame ODE


def test_transport_of_zero_path_is_identity():
    u = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    sol = solve_transport(u)
    np.testing.assert_allclose(sol.endpoint, np.eye(4), atol=1e-14)


def test_transport_of_constant_path_matches_exponential():
    rng = np.random.default_rng(8)
    x = skew(rng, 4)
    u = PathGrid.constant(x, NODES, "algebra")
    err = np.linalg.norm(transport_endpoint(u) - expm(x))
    assert err <= CONST_TOL


def test_transport_frames_stay_orthogonal_and_start_at_identity():
    # The solver keeps only the current frames: E(0) = I shows as an exact
    # identity endpoint of the zero path, and the recorded drift is the
    # worst |E^T E - I| over the frames at the end of each block of steps,
    # before their re-projection.
    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    np.testing.assert_array_equal(solve_transport(zero).endpoint, np.eye(4))
    rng = np.random.default_rng(9)
    u = random_algebra_path(4, NODES, rng, scale=2.0)
    sol = solve_transport(u)
    assert sol.drift <= 1e-12
    end = sol.endpoint
    assert np.abs(end @ end.T - np.eye(4)).max() <= 1e-12
    np.testing.assert_array_equal(sol.endpoint, transport_endpoint(u))


def test_transport_requires_enough_nodes_and_algebra_kind():
    with pytest.raises(DomainError, match="at least 16"):
        solve_transport(PathGrid.constant(np.zeros((3, 3)), 8, "algebra"))
    with pytest.raises(DomainError, match="algebra"):
        solve_transport(PathGrid.constant(np.eye(3), 32, "group"))


# ------------------------------------------------ stacks against references


def stencil_reference(weights, terms):
    """The stencil as an einsum over stacked shifted copies."""
    return np.einsum("c,c...->...", weights, np.stack(terms))


def transport_reference(vals):
    """Per-path RK4 loop with einsum midpoints and per-step polar steps."""
    mid_in = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
    mid_left = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    count = vals.shape[0] - 1
    mids = np.empty((count,) + vals.shape[1:])
    mids[0] = stencil_reference(mid_left, list(vals[0:4]))
    mids[-1] = stencil_reference(mid_left[::-1], list(vals[-4:]))
    mids[1:-1] = stencil_reference(mid_in, [vals[0:-3], vals[1:-2], vals[2:-1], vals[3:]])
    h = 1.0 / count
    cur = np.eye(vals.shape[1])
    for i in range(count):
        k1 = cur @ vals[i]
        k2 = (cur + 0.5 * h * k1) @ mids[i]
        k3 = (cur + 0.5 * h * k2) @ mids[i]
        k4 = (cur + h * k3) @ vals[i + 1]
        cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for _ in range(2):
            cur = cur @ (1.5 * np.eye(len(cur)) - 0.5 * (cur.T @ cur))
    return cur


def test_stacked_transport_equals_single_path_references():
    rng = np.random.default_rng(19)
    paths = [random_algebra_path(4, 769, rng, scale=1.5) for _ in range(3)]
    stack = PathGrid(np.stack([p.values for p in paths]), "algebra")
    assert stack.nodes == 769
    sol = solve_transport(stack)
    assert sol.endpoint.shape == (3, 4, 4) and sol.drift <= 1e-12
    for path, end in zip(paths, sol.endpoint):
        # the solver polar-projects step propagators, the reference the
        # frames after every step: the two agree to roundoff, not bitwise
        assert np.abs(end - transport_reference(path.values)).max() <= 1e-13
        np.testing.assert_array_equal(end, transport_endpoint(path))


@pytest.mark.parametrize("steps", [15, 65, 100])
def test_block_products_for_step_counts_off_the_block_and_the_tree(steps):
    # Blocks of 15 and of 36 (the last of 100 steps) carry an odd factor up
    # some levels of the product tree; the last block of 65 steps is one
    # factor.
    rng = np.random.default_rng(steps)
    paths = [random_algebra_path(4, steps + 1, rng, scale=1.5) for _ in range(2)]
    sol = solve_transport(PathGrid(np.stack([p.values for p in paths]), "algebra"))
    for path, end in zip(paths, sol.endpoint):
        assert np.abs(end - transport_reference(path.values)).max() <= 1e-13
        np.testing.assert_array_equal(end, transport_endpoint(path))


def test_drift_check_refuses_a_path_too_coarse_for_its_size():
    # 16 steps of a path at scale 10: two Newton steps leave the step
    # propagators off the group, and the block-end frame drifts by 1.4e-3.
    u = random_algebra_path(4, 17, np.random.default_rng(1), scale=10.0)
    with pytest.raises(DomainError, match="transported frames are not orthogonal"):
        solve_transport(u)


def test_algebra_path_equals_the_per_degree_sum():
    nodes = 257
    path = random_algebra_path(5, nodes, np.random.default_rng(22))
    rng = np.random.default_rng(22)  # the path's draws: degree 3, scale 1
    coeffs = [0.5 * (r - r.T) for r in (rng.standard_normal((5, 5)) for _ in range(4))]
    ref = np.zeros((nodes, 5, 5))
    for d, c in enumerate(coeffs):
        ref += np.linspace(0.0, 1.0, nodes)[:, None, None] ** d * c
    assert np.abs(path.values - ref).max() <= 1e-15


def test_stacked_differentiation_equals_einsum_reference():
    rng = np.random.default_rng(20)
    stack = PathGrid(np.stack([random_algebra_path(3, 65, rng).values for _ in range(2)]),
                     "algebra")
    central = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    edge0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    edge1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    h = stack.step
    for vals, got in zip(stack.values, differentiate_path(stack)):
        ref = np.empty_like(vals)
        ref[2:-2] = stencil_reference(central, [vals[c:len(vals) - 4 + c] for c in range(5)]) / h
        ref[0] = stencil_reference(edge0, list(vals[0:5])) / h
        ref[1] = stencil_reference(edge1, list(vals[0:5])) / h
        ref[-2] = -stencil_reference(edge1, list(vals[-1:-6:-1])) / h
        ref[-1] = -stencil_reference(edge0, list(vals[-1:-6:-1])) / h
        np.testing.assert_array_equal(got, ref)


def test_group_path_equals_per_node_exponentials():
    nodes = 769
    path = random_group_path(3, nodes, np.random.default_rng(21))
    rng = np.random.default_rng(21)  # the path's draws: degree 3, scale 0.5
    coeffs = [0.5 * 0.5 * (r - r.T) for r in (rng.standard_normal((3, 3)) for _ in range(4))]
    for t, value in zip(np.linspace(0.0, 1.0, nodes).tolist(), path.values):
        acc = np.zeros((3, 3))
        for d, c in enumerate(coeffs):
            acc += (t ** d) * c
        assert np.abs(value - expm(acc)).max() <= 1e-13
    based = random_group_path(4, 65, np.random.default_rng(21), based=True)
    np.testing.assert_array_equal(based.values[0], np.eye(4))


def test_long_path_frames_keep_roundoff_drift():
    # 59 999 steps: the frames are re-projected once per block of steps,
    # so chained products of step propagators do not accumulate drift.
    u = random_algebra_path(8, 60_000, np.random.default_rng(24), scale=3.0)
    sol = solve_transport(u)
    assert sol.drift <= 1e-13
    assert np.abs(sol.endpoint.T @ sol.endpoint - np.eye(8)).max() <= 1e-13


def test_batched_exponential_agrees_with_scipy():
    rng = np.random.default_rng(25)

    def skews(count, n, scale):
        return scale * np.stack([skew(rng, n) for _ in range(count)])

    big = skews(40, 4, 20.0)
    assert np.abs(big).sum(axis=-2).max() > 8.0 * transport._TAYLOR_THETA  # s >= 3
    for stack in (big, skews(40, 3, 0.5), skews(7, 1, 3.0), skews(7, 2, 3.0)):
        got = transport._expm_stack(stack.copy())
        assert np.abs(got - expm(stack)).max() <= 1e-12
    # unscaled 1 x 1 inputs up to the threshold: a positive one attains the
    # truncation bound, which skew inputs of the same 1-norm stay far below
    xs = np.linspace(-transport._TAYLOR_THETA, transport._TAYLOR_THETA, 27)
    got = transport._expm_stack(xs[:, None, None].copy())[:, 0, 0]
    assert np.max(np.abs(got - np.exp(xs)) / np.exp(xs)) <= 1e-15
    zeros = transport._expm_stack(np.zeros((3, 5, 5)))
    np.testing.assert_array_equal(zeros, np.broadcast_to(np.eye(5), (3, 5, 5)))
    # a zero slice stays exactly the identity beside a large one
    mixed = np.concatenate([np.zeros((1, 4, 4)), big[:1]])
    np.testing.assert_array_equal(transport._expm_stack(mixed)[0], np.eye(4))


def test_path_grid_checks_every_member_of_a_stack():
    rng = np.random.default_rng(22)
    skews = np.stack([skew(rng, 3) for _ in range(3)])
    stack = np.broadcast_to(skews[:, None], (3, 16, 3, 3)).copy()
    assert PathGrid(stack, "algebra").nodes == 16
    stack[1, 7, 0, 1] += 1e-6
    with pytest.raises(DomainError, match="skew"):
        PathGrid(stack, "algebra")
    rotations = np.broadcast_to(expm(skews)[:, None], (3, 16, 3, 3)).copy()
    assert PathGrid(rotations, "group").matrix_dim == 3
    rotations[2, 15] *= 1.0 + 1e-6
    with pytest.raises(DomainError, match="orthogonal"):
        PathGrid(rotations, "group")


def test_path_grid_keeps_read_only_stacks_uncopied():
    stack = np.zeros((2, 16, 3, 3))
    stack.setflags(write=False)
    assert PathGrid(stack, "algebra").values is stack
    writable = np.zeros((16, 3, 3))
    grid = PathGrid(writable, "algebra")
    assert grid.values is not writable and writable.flags.writeable


def test_equivariance_residuals_batch_equals_single_pairs():
    draws = np.random.default_rng(23)
    batched = equivariance_residuals(
        lambda: (random_group_path(3, 129, draws), random_algebra_path(3, 129, draws)), 4
    )
    rng = np.random.default_rng(23)
    single = []
    for _ in range(4):
        g = random_group_path(3, 129, rng)
        single.append(equivariance_residual(g, random_algebra_path(3, 129, rng)))
    assert batched == single and max(batched) <= 1e-6


def test_transport_work_is_bounded_before_allocation():
    check_transport_work(2 * 5, 1025, 6)  # largest benchmark stacks stay accepted
    check_transport_work(2 * 3, 1025, 8)
    check_transport_work(2 * 20, 4097, 4)
    with pytest.raises(DomainError, match="matrix size"):
        check_transport_work(2, 16, 3000)
    with pytest.raises(DomainError, match="path entries"):
        check_transport_work(2 * 10, 10_000_001, 4)
    with pytest.raises(DomainError, match="RK4 steps"):
        check_transport_work(2, 200_001, 1)


@pytest.mark.parametrize("shape", [(3, 3), (40, 1, 1), (64, 2, 5, 5), (64, 10, 8, 8),
                                   (1025, 8, 8)])
def test_contiguous_transposes_keep_the_bits_of_the_strided_products(shape):
    # x.mT @ x goes to a symmetric rank-k update, a product with the
    # contiguous copy to a general one; at these sizes their sums agree
    rng = np.random.default_rng(27)
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    xt = transport._transposed(x)
    assert xt.flags.c_contiguous
    np.testing.assert_array_equal(xt @ x, x.mT @ x)
    np.testing.assert_array_equal(y @ xt, y @ x.mT)


def test_polar_projection_restores_orthogonality():
    rng = np.random.default_rng(10)
    q = transport._newton_polar(np.eye(4) + 1e-4 * rng.standard_normal((4, 4)),
                                1.5 * np.eye(4))
    np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)


# ------------------------------------------------------------ equivariance


def test_equivariance_for_constant_pair():
    rng = np.random.default_rng(11)
    b = expm(0.4 * skew(rng, 3))
    g = PathGrid.constant(b, NODES, "group")
    u = PathGrid.constant(skew(rng, 3), NODES, "algebra")
    assert equivariance_residual(g, u) <= CONST_TOL


def test_equivariance_for_identity_gauge():
    rng = np.random.default_rng(12)
    u = random_algebra_path(3, NODES, rng)
    g = PathGrid.constant(np.eye(3), NODES, "group")
    assert equivariance_residual(g, u) <= 1e-10


def test_equivariance_residual_is_fourth_order():
    rng = np.random.default_rng(13)
    errs = []
    for nodes in (65, 129):
        r = np.random.default_rng(13)
        g = random_group_path(3, nodes, r)
        u = random_algebra_path(3, nodes, r)
        errs.append(equivariance_residual(g, u))
    ratio = errs[0] / errs[1]
    assert 10.0 <= ratio <= 25.0


# ------------------------------------------------------------ coset charts


def test_coset_log_recovers_small_normal_coordinates():
    alg, cd = so4_cd()
    rng = np.random.default_rng(14)
    x = 0.2 * (rng.standard_normal(cd.m.dim) @ cd.m.basis)
    rec = coset_log(cd, expm(alg.to_matrices(x)))
    np.testing.assert_allclose(rec, x, atol=1e-12)


def test_coset_log_kills_subgroup_factors():
    alg, cd = so4_cd()
    rng = np.random.default_rng(15)
    x = 0.2 * (rng.standard_normal(cd.m.dim) @ cd.m.basis)
    k = 0.7 * (rng.standard_normal(cd.k.dim) @ cd.k.basis)
    rec = coset_log(cd, expm(alg.to_matrices(x)) @ expm(alg.to_matrices(k)))
    np.testing.assert_allclose(rec, x, atol=1e-10)


def test_coset_log_guards_its_injectivity_ball():
    alg, cd = so3_cd()
    xm = alg.to_matrices(cd.m.basis[0])
    with pytest.raises(ChartError):
        coset_log(cd, expm(2.0 * xm))


@pytest.mark.parametrize("pq", [(3, 1), (4, 1), (6, 1), (2, 2), (3, 3), (2, 4), (5, 3)])
def test_coset_log_inverts_exp_x_times_subgroup_factor(pq):
    cd = split_pair(*pq)
    alg = cd.algebra
    rng = np.random.default_rng(10 * pq[0] + pq[1])
    for _ in range(20):
        x = rng.standard_normal(cd.m.dim) @ cd.m.basis
        x *= rng.uniform(0.0, 0.6) / alg.norm(x)
        k = rng.standard_normal(cd.k.dim) @ cd.k.basis
        a = expm(alg.to_matrices(x)) @ expm(alg.to_matrices(k))
        np.testing.assert_allclose(coset_log(cd, a), x, rtol=0.0, atol=1e-12)


def test_coset_log_accepts_subgroup_rotations_by_pi():
    # the subgroup factor has eigenvalues -1 but keeps both orientations
    cd = split_pair(2, 2)
    alg = cd.algebra
    half_turns = np.zeros(alg.dim)
    half_turns[[pair_index(4, 0, 1), pair_index(4, 2, 3)]] = np.pi
    x = 0.3 * cd.m.basis[0]
    a = expm(alg.to_matrices(x)) @ expm(alg.to_matrices(half_turns))
    np.testing.assert_allclose(coset_log(cd, a), x, rtol=0.0, atol=1e-12)


def test_skew_log_agrees_with_scipy_logm():
    # orthogonal q diag(rotations) q^T with angles up to pi - 1e-3: the
    # logarithm's conditioning grows like 1/(pi - angle), which sets the
    # bound against logm; the exact logarithm q diag(angles) q^T is closer
    rng = np.random.default_rng(28)
    top = np.pi - 1e-3
    for n in range(2, 13):
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            exact = np.zeros((n, n))
            for k, angle in enumerate([top, *rng.uniform(-top, top, n // 2 - 1)]):
                exact[2 * k + 1, 2 * k], exact[2 * k, 2 * k + 1] = angle, -angle
            exact = q @ exact @ q.T
            a = expm(exact)
            got = transport._skew_log(a)
            assert np.abs(got - np.real(logm(a))).max() <= 1e-11
            assert np.abs(got - exact).max() <= 1e-12
            assert np.abs(got + got.T).max() == 0.0
        np.testing.assert_array_equal(transport._skew_log(np.eye(n)), np.zeros((n, n)))


@pytest.mark.parametrize("angle", [None, np.pi, np.pi - 1e-7])
def test_skew_log_refuses_angles_at_the_cut(angle):
    if angle is None:  # an exact eigenvalue -1: a + I is singular
        a = np.diag([-1.0, -1.0, 1.0])
    else:
        c, s = np.cos(angle), np.sin(angle)
        a = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ChartError, match="logarithm cut"):
        transport._skew_log(a)


def test_coset_log_refuses_a_rank_two_point_past_the_chart():
    # rotation angles (2.0, 0.3) in two commuting planes of m: the first
    # is past pi/2, so no xi in the chart reaches the point
    cd = split_pair(2, 2)
    alg = cd.algebra
    xi = np.zeros(alg.dim)
    xi[[pair_index(4, 0, 2), pair_index(4, 1, 3)]] = (2.0, 0.3)
    assert cd.m.contains(xi)
    with pytest.raises(ChartError, match="outside the coset chart"):
        coset_log(cd, expm(alg.to_matrices(xi)))


def test_phi_k_trivial_and_fiber_directions():
    alg, cd = so4_cd()
    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    assert alg.norm(phi_k(zero, cd)) <= 1e-12
    xk = alg.to_matrices(cd.k.basis[0])
    fiber = PathGrid.constant(xk, NODES, "algebra")
    assert alg.norm(phi_k(fiber, cd)) <= 1e-9


def test_phi_k_of_small_normal_direction_is_first_order_exact():
    alg, cd = so4_cd()
    x = 0.05 * cd.m.basis[1]
    u = PathGrid.constant(alg.to_matrices(x), NODES, "algebra")
    xi = phi_k(u, cd)
    np.testing.assert_allclose(xi, x, atol=1e-8)
    # representative factorization: endpoint = exp(xi) * subgroup factor
    subgroup_factor = expm(-alg.to_matrices(xi)) @ transport_endpoint(u)
    p = cd.p_matrix
    np.testing.assert_allclose(p @ subgroup_factor @ p, subgroup_factor, atol=1e-10)


# ---------------------------------------------------------- fiber tangency


def test_fiber_controls():
    alg, cd = so4_cd()
    t = np.linspace(0.0, 1.0, NODES)
    xk1, xk2 = alg.to_matrices(cd.k.basis[:2])
    xm = alg.to_matrices(cd.m.basis[0])

    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    assert fiber_tangent_residual(zero, cd) == 0.0

    single = PathGrid(np.sin(np.pi * t)[:, None, None] * xk1, "algebra")
    assert fiber_tangent_residual(single, cd) <= 1e-4

    mixed = PathGrid(
        np.sin(np.pi * t)[:, None, None] * xk1
        + (1.0 - np.cos(2.0 * np.pi * t))[:, None, None] * xk2,
        "algebra",
    )
    assert fiber_tangent_residual(mixed, cd) <= 1e-4

    ramp = PathGrid(t[:, None, None] * xk1, "algebra")
    assert fiber_tangent_residual(ramp, cd) <= 1e-4


def test_fiber_negative_control_is_bounded_away_from_zero():
    alg, cd = so4_cd()
    t = np.linspace(0.0, 1.0, NODES)
    xm = alg.to_matrices(cd.m.basis[0])
    bad = PathGrid(t[:, None, None] * xm, "algebra")
    with pytest.raises(DomainError, match="end inside the k factor"):
        fiber_tangent_residual(bad, cd)
    assert fiber_tangent_residual(bad, cd, enforce_boundary=False) >= 0.5


def test_fiber_path_must_start_at_zero():
    alg, cd = so4_cd()
    xk = alg.to_matrices(cd.k.basis[0])
    shifted = PathGrid.constant(xk, NODES, "algebra")
    with pytest.raises(DomainError, match="start at zero"):
        fiber_tangent_residual(shifted, cd)


def test_fiber_stack_equals_single_path_solves():
    alg, cd = so4_cd()
    t = np.linspace(0.0, 1.0, NODES)
    z = np.sin(np.pi * t)[:, None, None] * alg.to_matrices(cd.k.basis[0])
    control = t[:, None, None] * alg.to_matrices(cd.m.basis[0])
    stack = PathGrid(np.stack([z, control]), "algebra")
    eps = transport.FIBER_EPS
    singles = [
        float(alg.norm(phi_k(PathGrid(-eps * differentiate_path(PathGrid(path, "algebra")),
                                      "algebra"), cd))) / eps
        for path in (z, control)
    ]
    assert fiber_tangent_residuals(stack, cd, [True, False]) == singles
    assert fiber_tangent_residual(PathGrid(z, "algebra"), cd) == singles[0]
    with pytest.raises(DomainError, match="end inside the k factor"):
        fiber_tangent_residuals(stack, cd, [True, True])
    with pytest.raises(DimensionError):
        fiber_tangent_residuals(PathGrid(z, "algebra"), cd, [True])


# ----------------------------------------------------- orbit-level identities


def test_gauge_orbit_of_zero_stays_in_the_fiber():
    alg, cd = so4_cd()
    rng = np.random.default_rng(16)
    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    for _ in range(3):
        g = random_fiber_group_path(cd, NODES, rng)
        moved = gauge_act(g, zero)
        assert alg.norm(phi_k(moved, cd)) <= CHART_TOL


def test_fiber_group_paths_have_the_right_boundary():
    alg, cd = so4_cd()
    rng = np.random.default_rng(17)
    g = random_fiber_group_path(cd, NODES, rng)
    np.testing.assert_allclose(g.values[0], np.eye(4), atol=1e-12)
    end_log = coset_log(cd, g.values[-1])
    assert alg.norm(end_log) <= 1e-9


def test_projection_intertwines_based_gauge_transformations():
    # For gauge paths with g(1) = identity, moving u and then projecting
    # equals left-translating the projection by g(0).
    alg, cd = so4_cd()
    rng = np.random.default_rng(18)
    g_rev = random_group_path(4, NODES, rng, scale=0.3, based=True)
    g = PathGrid(g_rev.values[::-1], "group")  # now g(1) = identity
    u = random_algebra_path(4, NODES, rng, scale=0.3)
    lhs = coset_log(cd, transport_endpoint(gauge_act(g, u)))
    rhs = coset_log(cd, g.values[0] @ transport_endpoint(u))
    assert alg.norm(lhs - rhs) <= CHART_TOL
