"""Discretized path-space tests: gauge action, frame ODE, chart identities."""

import numpy as np
import pytest
from scipy.linalg import expm

from pfspectra import (
    ChartError,
    DimensionError,
    DomainError,
    PathGrid,
    build_so,
    cartan_decompose,
    compose_group_paths,
    coset_log,
    differentiate_path,
    equivariance_residual,
    fiber_tangent_residual,
    gauge_act,
    phi_k,
    polar_project,
    random_algebra_path,
    random_fiber_group_path,
    random_group_path,
    solve_transport,
    transport_endpoint,
)

NODES = 257
CONST_TOL = 1e-8
CHART_TOL = 1e-6


def skew(rng, n):
    raw = rng.standard_normal((n, n))
    return 0.5 * (raw - raw.T)


def so3_cd():
    alg = build_so(3)
    return alg, cartan_decompose(alg, np.diag([1.0, -1.0, -1.0]))


def so4_cd():
    alg = build_so(4)
    return alg, cartan_decompose(alg, np.diag([1.0, -1.0, -1.0, -1.0]))


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
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_path_grid_sample():
    x = skew(np.random.default_rng(0), 3)
    grid = PathGrid.sample(lambda t: np.sin(t) * x, 9, "algebra")
    assert grid.kind == "algebra" and grid.nodes == 9
    for t, value in zip(grid.times, grid.values):
        np.testing.assert_array_equal(value, np.sin(t) * x)


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
    lhs = gauge_act(compose_group_paths(g, h), u)
    rhs = gauge_act(g, gauge_act(h, u))
    assert np.abs(lhs.values - rhs.values).max() <= 1e-6


def test_compose_requires_group_paths():
    rng = np.random.default_rng(7)
    u = random_algebra_path(3, 65, rng)
    with pytest.raises(DomainError):
        compose_group_paths(u, u)


# -------------------------------------------------------------- frame ODE


def test_transport_of_zero_path_is_identity():
    u = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    sol = solve_transport(u)
    np.testing.assert_allclose(sol.frames.values[-1], np.eye(4), atol=1e-14)


def test_transport_of_constant_path_matches_exponential():
    rng = np.random.default_rng(8)
    x = skew(rng, 4)
    u = PathGrid.constant(x, NODES, "algebra")
    err = np.linalg.norm(transport_endpoint(u) - expm(x))
    assert err <= CONST_TOL


def test_transport_frames_stay_orthogonal_and_start_at_identity():
    rng = np.random.default_rng(9)
    u = random_algebra_path(4, NODES, rng, scale=2.0)
    sol = solve_transport(u)
    frames = sol.frames.values
    np.testing.assert_array_equal(frames[0], np.eye(4))
    drift = np.abs(frames @ np.swapaxes(frames, 1, 2) - np.eye(4)).max()
    assert drift <= 1e-12
    np.testing.assert_array_equal(sol.endpoint, frames[-1])


def test_transport_requires_enough_nodes_and_algebra_kind():
    with pytest.raises(DomainError, match="at least 16"):
        solve_transport(PathGrid.constant(np.zeros((3, 3)), 8, "algebra"))
    with pytest.raises(DomainError, match="algebra"):
        solve_transport(PathGrid.constant(np.eye(3), 32, "group"))


def test_polar_projection_restores_orthogonality():
    rng = np.random.default_rng(10)
    q = polar_project(np.eye(4) + 1e-4 * rng.standard_normal((4, 4)))
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


def test_phi_k_trivial_and_fiber_directions():
    alg, cd = so4_cd()
    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    assert phi_k(zero, cd).chart_distance <= 1e-12
    xk = alg.to_matrices(cd.k.basis[0])
    fiber = PathGrid.constant(xk, NODES, "algebra")
    assert phi_k(fiber, cd).chart_distance <= 1e-9


def test_phi_k_of_small_normal_direction_is_first_order_exact():
    alg, cd = so4_cd()
    x = 0.05 * cd.m.basis[1]
    point = phi_k(PathGrid.constant(alg.to_matrices(x), NODES, "algebra"), cd)
    np.testing.assert_allclose(point.m_log, x, atol=1e-8)
    # representative factorization: group_point = exp(m_log) * subgroup factor
    recon = expm(alg.to_matrices(point.m_log)) @ point.subgroup_factor()
    np.testing.assert_allclose(recon, point.group_point, atol=1e-10)


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


# ----------------------------------------------------- orbit-level identities


def test_gauge_orbit_of_zero_stays_in_the_fiber():
    alg, cd = so4_cd()
    rng = np.random.default_rng(16)
    zero = PathGrid.constant(np.zeros((4, 4)), NODES, "algebra")
    for _ in range(3):
        g = random_fiber_group_path(cd, NODES, rng)
        moved = gauge_act(g, zero)
        assert phi_k(moved, cd).chart_distance <= CHART_TOL


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
