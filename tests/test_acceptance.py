"""Acceptance suite: one test per shipping criterion.

Every test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s``); the verbose test id itself doubles as the pass/fail
record in plain ``pytest -v`` runs.  Tolerances are pinned here on purpose
— do not relax them to make a failure go away.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from pfspectra import (
    DomainError,
    EigenMultiset,
    PERP_LABEL,
    PathGrid,
    SubmanifoldSpectralData,
    assemble_group_spectrum,
    assemble_pf_spectrum,
    austere_check_finite,
    austere_check_pf,
    build_harmonic_block,
    build_mu_block,
    build_so,
    cartan_decompose,
    cot_series,
    enumerate_rows,
    equivariance_residual,
    extrapolate_to_one,
    fiber_tangent_residual,
    finite_group_oracle,
    grid_l2_norm,
    group_shape_matrix,
    isolated_directions,
    label_closed_form,
    label_decomposed_path,
    mu,
    mu_block_residual,
    product_sphere_austere,
    r_trace,
    random_algebra_path,
    random_group_path,
    shape_apply_raw,
    so9_arid_verify,
    so9_build,
    so9_normal_matrix,
    sphere_geometry,
    split_geometry,
    stratum_membership,
    subspace_preserved,
    transport_endpoint,
    weyl_strata,
    zeta_trace,
    BUILTIN_ROOT_SYSTEMS,
    Subspace,
)

SPECTRUM_PAIRS = [(1.0, 0.0), (2.0, 1.0), (math.pi, -1.0)]
TRACE_PAIRS = [(1.0, 1.0), (2.0, -3.0), (math.pi, 0.0)]


def test_criterion_01_truncated_blocks_reproduce_closed_forms():
    for nu, lam in SPECTRUM_PAIRS:
        eigs = build_mu_block(nu, lam, 400).eigenvalues()
        for m in range(-2, 3):
            target = mu(nu, lam, m)
            best = min(abs(e - target) for e in eigs)
            assert best <= 1e-2 * abs(target), (nu, lam, m)
        # strict error decrease for the extremal value m = 0
        target0 = mu(nu, lam, 0)
        errs = [
            min(abs(e - target0) for e in build_mu_block(nu, lam, cut).eigenvalues())
            for cut in (50, 100, 200, 400)
        ]
        assert all(errs[i] > errs[i + 1] for i in range(3)), (nu, lam, errs)
        # harmonic blocks are exact to near machine precision
        for n in (1, 2, 3):
            got = sorted(build_harmonic_block(nu, n).eigenvalues())
            c = nu / (n * math.pi)
            assert max(abs(g - e) for g, e in zip(got, [-c, c])) <= 1e-12
    print("criterion 1: PASS — truncated blocks match closed-form values")


def test_criterion_02_raw_formula_equivalence_on_every_label():
    rng = np.random.default_rng(42)
    geometries = [
        sphere_geometry(4, [(0.7, 1), (-0.3, 1)], rng),
        split_geometry(3, 3, rng, tangent0_lams=[0.4], block_lams=[0.9, -0.5]),
    ]
    grid = 1025  # 1024 intervals
    worst = 0.0
    covered = set()
    for geo in geometries:
        alg = geo.cd.algebra
        for label in geo.fourier_labels(3):
            mode = label.lam == PERP_LABEL if label.kind == "m_cos" else None
            covered.add((label.kind, mode))
            path = label_decomposed_path(geo, label, grid)
            raw = shape_apply_raw(geo, path)
            closed = label_closed_form(geo, label, grid)
            resid = grid_l2_norm(raw - closed, alg)
            assert resid <= 1e-6, (label.describe(), resid)
            worst = max(worst, resid)
        mat = group_shape_matrix(geo)
        assert np.abs(mat - mat.T).max() <= 1e-12
    kinds = {k for k, _ in covered}
    assert kinds == {
        "k0_sin", "k_nu_sin", "m_const", "m_cos", "m_nu_const", "m_nu_cos",
    }
    assert ("m_cos", True) in covered and ("m_cos", False) in covered
    print(f"criterion 2: PASS — all labels agree (worst grid-L2 {worst:.2e})")


def test_criterion_03_eigenfunction_residuals():
    for nu, lam in SPECTRUM_PAIRS:
        block = build_mu_block(nu, lam, 400)
        for m in (-1, 0, 1):
            resid = mu_block_residual(block, m)
            assert resid <= 5e-3, (nu, lam, m, resid)
    print("criterion 3: PASS — eigenfunction residuals under 5e-3 at cutoff 400")


def test_criterion_04_finite_group_oracle_randomized():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lam_mults = []
        budget = 5  # leave at least one normal direction in the block
        for _ in range(int(rng.integers(0, 4))):
            if budget <= 0:
                break
            mult = int(rng.integers(1, min(2, budget) + 1))
            lam_mults.append((float(rng.uniform(-2.0, 2.0)), mult))
            budget -= mult
        geo = sphere_geometry(7, lam_mults, rng)
        report = finite_group_oracle(geo, tol=1e-8)
        assert report.passed, (seed, report.detail)
    print("criterion 4: PASS — 20 randomized seeds match the group spectrum")


def test_criterion_05_trace_identities():
    probes = (1.1, 1.01, 1.001)
    for nu, lam in TRACE_PAIRS:
        data = SubmanifoldSpectralData.sphere_like(nu, [(lam, 1)], 2, 0)
        spec = assemble_pf_spectrum(data)
        est, exact = r_trace(spec, 10000)
        assert exact == pytest.approx(lam, abs=1e-15)
        assert abs(est - exact) <= 1e-3, (nu, lam)
        limit = extrapolate_to_one(probes, zeta_trace(spec, probes))
        assert abs(limit - lam) <= 1e-3, (nu, lam)
    n_terms = 100000
    partial, closed = cot_series(0.5, n_terms)
    assert closed == 2.0
    assert 0.0 < closed - partial <= 1.0 / (n_terms + 0.5) + 1e-12
    print("criterion 5: PASS — paired, zeta, and cotangent traces agree")


def test_criterion_06_austerity_routes_agree_on_random_multisets():
    rng = np.random.default_rng(20260814)
    outcomes = {True: 0, False: 0}
    for i in range(100):
        count = int(rng.integers(1, 4))
        lam_mults = [
            (float(rng.uniform(-3.0, 3.0)), int(rng.integers(1, 5)))
            for _ in range(count)
        ]
        if i % 2 == 0:  # make roughly half the samples austere by mirroring
            lam_mults += [(-lam, m) for lam, m in lam_mults]
        data = SubmanifoldSpectralData.sphere_like(
            float(rng.uniform(0.5, 3.0)),
            lam_mults,
            int(rng.integers(1, 4)),
            int(rng.integers(0, 4)),
        )
        spectrum = assemble_pf_spectrum(data)
        finite_route = austere_check_finite(EigenMultiset.from_pairs(lam_mults))
        window_rows = [
            (row.value, row.mult)
            for row in enumerate_rows(spectrum, n_max=50, m_max=50)
            if row.family != "zero"
        ]
        window_route = austere_check_finite(EigenMultiset.from_pairs(window_rows))
        family_route = austere_check_pf(spectrum)
        group_route = austere_check_finite(
            EigenMultiset.from_pairs(assemble_group_spectrum(data).entries)
        )
        assert finite_route == window_route == family_route == group_route, (
            i, lam_mults, finite_route, window_route, family_route, group_route,
        )
        outcomes[finite_route] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes
    print(
        "criterion 6: PASS — four austerity routes agree on 100 multisets "
        f"({outcomes[True]} austere / {outcomes[False]} not)"
    )


def test_criterion_07_product_spheres():
    for m, n in [(2, 2), (2, 3)]:
        ok, _ = product_sphere_austere(
            m, n, samples=32, rng=np.random.default_rng(10 * m + n)
        )
        assert ok, (m, n)
    for m, n in [(3, 2), (3, 3)]:
        ok, details = product_sphere_austere(
            m, n, samples=32, rng=np.random.default_rng(10 * m + n)
        )
        assert not ok, (m, n)
        witnesses = [d for d in details if not d["austere"]]
        assert witnesses, (m, n)
    print("criterion 7: PASS — two-factor products austere, three-factor not")


def test_criterion_08_so9_orbit_is_arid():
    example = so9_build()
    alg = build_so(9)
    assert example.normal_basis.shape == (2, alg.dim)
    normal = Subspace(alg, example.normal_basis)
    for x, y in [(1.0, 0.0), (0.0, 1.0), (0.8, -0.6)]:
        vec = alg.from_matrix(so9_normal_matrix(x, y))
        resid = vec - normal.project_coords(vec)
        assert alg.norm(resid) <= 1e-9 * max(1.0, alg.norm(vec))
    for swap in example.swaps:
        assert subspace_preserved(alg, example.h_basis, swap) <= 1e-9
    report = so9_arid_verify(grid_size=64)
    assert report["passed"]
    assert all(sample["ok"] for sample in report["samples"])
    assert max(report["subalgebra_preservation_residuals"]) <= 1e-9
    print("criterion 8: PASS — 64-point circle of normals all moved by a swap")


def test_criterion_09_transport_convergence_equivariance_and_fiber():
    # order-4 convergence against the matrix exponential
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((4, 4))
    x = 0.5 * (raw - raw.T)
    x *= math.pi / np.abs(np.linalg.eigvals(x).imag).max()
    reference = expm(x)
    errors = [
        np.linalg.norm(
            transport_endpoint(PathGrid.constant(x, intervals + 1, "algebra"))
            - reference
        )
        for intervals in (32, 64, 128)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 13.0 <= coarse / fine <= 19.0, errors

    # gauge equivariance at grid 512
    worst = 0.0
    for _ in range(10):
        g = random_group_path(4, 513, rng)
        u = random_algebra_path(4, 513, rng)
        worst = max(worst, equivariance_residual(g, u))
    assert worst <= 1e-6

    # fiber tangency controls
    alg = build_so(4)
    cd = cartan_decompose(alg, np.diag([1.0, -1.0, -1.0, -1.0]))
    t = np.linspace(0.0, 1.0, 513)
    xk = alg.to_matrices(cd.k.basis[0])
    xm = alg.to_matrices(cd.m.basis[0])
    positive = PathGrid(np.sin(math.pi * t)[:, None, None] * xk, "algebra")
    assert fiber_tangent_residual(positive, cd) <= 1e-4
    zero = PathGrid.constant(np.zeros((4, 4)), 513, "algebra")
    assert fiber_tangent_residual(zero, cd) == 0.0
    negative = PathGrid(t[:, None, None] * xm, "algebra")
    with pytest.raises(DomainError):
        fiber_tangent_residual(negative, cd)
    assert fiber_tangent_residual(negative, cd, enforce_boundary=False) >= 0.5
    print(f"criterion 9: PASS — order-4 ODE, equivariance {worst:.2e}, fiber controls")


def test_criterion_10_weyl_strata():
    for name in ("A2", "B2"):
        roots = BUILTIN_ROOT_SYSTEMS[name]
        strata = weyl_strata(roots)
        assert len(strata) == 4  # 2^|F|
        rank = len(roots)
        for stratum in strata:
            assert stratum.dim == rank - (rank - len(stratum.active))
            if stratum.dim > 0:
                assert stratum_membership(roots, stratum.representative, stratum.active)
        iso = isolated_directions(roots)
        assert len(iso) == rank
        one_dim = [s for s in strata if s.dim == 1]
        assert len(one_dim) == rank
        for v in iso:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert any(
                stratum_membership(roots, v, s.active) for s in one_dim
            )
    print("criterion 10: PASS — strata counts, dimensions, isolated directions")
