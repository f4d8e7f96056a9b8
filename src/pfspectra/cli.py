"""Command-line driver for reproducible verification runs.

Every command prints one report (JSON by default, CSV or a fixed-width
table where enumeration makes sense) and exits 0 when its verification
passed, 1 when a check failed, and 2 on malformed input.  All randomness
flows from --seed, so identical invocations produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
from scipy.linalg import expm

from . import formats, oracle, spectra, symmetrycheck, transport
from .adspec import paired_bases
from .errors import DomainError, FormatError, GeometryError
from .liecore import build_so, cartan_decompose

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _emit(report: dict, fmt: str, rows_fn=None) -> None:
    """Print a report as JSON, or as CSV/table when rows are available."""
    if fmt == "json" or rows_fn is None:
        sys.stdout.write(formats.canonical_json(report))
        return
    header, rows = rows_fn()
    if fmt == "csv":
        sys.stdout.write(formats.csv_table(header, rows))
    else:
        sys.stdout.write(formats.text_table(header, rows))


def _add_format(parser, choices=("json", "csv", "table")) -> None:
    parser.add_argument("--format", choices=list(choices), default="json")


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    if args.input:
        doc = formats.load_document(args.input, "decompose_input")
        n = doc["n"]
        alg = build_so(n, doc.get("ip_scale", 0.5))
        if "p" in doc:
            p = np.array(doc["p"], dtype=float)
        else:
            p = np.diag([1.0] * (n - 1) + [-1.0])
        cd = cartan_decompose(alg, p)
        if "xi" in doc:
            xi = alg.from_matrix(np.array(doc["xi"], dtype=float))
        else:
            xi = _random_m_direction(cd, np.random.default_rng(args.seed))
    else:
        n = args.n
        cd = oracle.sphere_pair(n - 1)
        xi = _random_m_direction(cd, np.random.default_rng(args.seed))
    ad = paired_bases(cd, xi)
    report = {
        "n": n,
        "xi_norm": xi.norm(),
        "frequencies": [[nu, m] for nu, m in ad.frequency_multiplicities()],
        "dim_k0": ad.dim_k0,
        "dim_m0": ad.dim_m0,
    }
    _emit(report, args.format, lambda: (
        ["frequency", "multiplicity"], [(nu, m) for nu, m in report["frequencies"]]
    ))
    return PASS


def _random_m_direction(cd, rng):
    alg = cd.algebra
    raw = rng.standard_normal(cd.m.dim) @ cd.m.basis
    xi = alg.element(raw)
    return (1.0 / xi.norm()) * xi


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    doc = formats.load_document(args.data, "spectral_data")
    data = spectra.SubmanifoldSpectralData.from_json(doc)
    if args.group:
        group = spectra.assemble_group_spectrum(data)
        report = {"kind": "group", "spectrum": group.to_json()}
        rows_fn = lambda: (
            ["value", "multiplicity"],
            [(v, m) for v, m in group.entries],
        )
    else:
        spec = spectra.assemble_pf_spectrum(data)
        rows = spectra.enumerate_rows(spec, args.n_max, args.m_max)
        report = {
            "kind": "path_space",
            "spectrum": spec.to_json(),
            "window": {"n_max": args.n_max, "m_max": args.m_max},
        }
        rows_fn = lambda: (
            ["family", "index", "value", "multiplicity"],
            [(r.family, r.index, r.value, r.mult) for r in rows],
        )
    _emit(report, args.format, rows_fn)
    return PASS


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    if args.mode == "mu":
        return _oracle_mu(args)
    if args.mode == "group":
        return _oracle_group(args)
    return _oracle_forms(args)


def _oracle_mu(args) -> int:
    fams = (
        spectra.ZeroFamily(),
        spectra.MuFamily(args.nu, args.lam, 1),
        spectra.HarmonicFamily(args.nu, 1),
    )
    spectrum = spectra.PrincipalSpectrum(fams)
    window = oracle.SpectralWindow(
        m_max=args.m_max, n_max=args.n_max, tol_abs=args.tol_abs, tol_rel=args.tol_rel
    )
    reports = [
        oracle.compare_spectra(
            oracle.build_mu_block(args.nu, args.lam, args.cutoff), spectrum, window
        )
    ]
    for n in range(1, args.n_max + 1):
        reports.append(
            oracle.compare_spectra(
                oracle.build_harmonic_block(args.nu, n), spectrum, window
            )
        )
    residuals = {
        str(m): oracle.mu_block_residual(args.nu, args.lam, m, args.cutoff)
        for m in range(-1, 2)
    }
    passed = all(r.passed for r in reports) and all(
        v <= args.residual_tol for v in residuals.values()
    )
    report = {
        "mode": "mu",
        "nu": args.nu,
        "lambda": args.lam,
        "cutoff": args.cutoff,
        "blocks": [r.to_json() for r in reports],
        "eigenfunction_residuals": residuals,
        "residual_tol": args.residual_tol,
        "passed": bool(passed),
    }
    _emit(report, args.format, lambda: (
        ["block", "descriptor", "predicted", "computed", "ok"],
        [
            (r.block, e.descriptor, e.predicted, e.computed, e.ok)
            for r in reports
            for e in r.entries
        ],
    ))
    return PASS if passed else FAIL


def _oracle_group(args) -> int:
    rng = np.random.default_rng(args.seed)
    runs = []
    passed = True
    for _ in range(args.samples):
        lam_mults = _random_lam_mults(rng, max_vals=2, max_mult=2, max_dims=args.l - 1)
        data = oracle.sphere_geometry(args.l, lam_mults, rng)
        rep = oracle.finite_group_oracle(data, tol=args.tol_abs)
        passed &= rep.passed
        runs.append(rep.to_json())
    report = {
        "mode": "group",
        "l": args.l,
        "samples": args.samples,
        "runs": runs,
        "passed": bool(passed),
    }
    _emit(report, args.format)
    return PASS if passed else FAIL


def _oracle_forms(args) -> int:
    rng = np.random.default_rng(args.seed)
    lam_mults = _random_lam_mults(rng, max_vals=2, max_mult=2, max_dims=args.l - 2)
    data = oracle.sphere_geometry(args.l, lam_mults, rng)
    grid = args.grid + 1
    worst = 0.0
    rows = []
    for label in data.fourier_labels(args.n_max):
        path = oracle.label_decomposed_path(data, label, grid)
        raw = oracle.shape_apply_raw(data, path)
        closed = oracle.label_closed_form(data, label, grid)
        err = oracle.grid_l2_norm(raw - closed, data.cd.algebra)
        scale = max(oracle.grid_l2_norm(closed, data.cd.algebra), 1.0)
        rel = err / scale
        worst = max(worst, rel)
        rows.append((label.describe(), rel))
    passed = worst <= args.tol_abs
    report = {
        "mode": "forms",
        "l": args.l,
        "grid": args.grid,
        "worst_residual": worst,
        "tolerance": args.tol_abs,
        "labels": [{"label": d, "residual": r} for d, r in rows],
        "passed": bool(passed),
    }
    _emit(report, args.format, lambda: (["label", "residual"], rows))
    return PASS if passed else FAIL


def _random_lam_mults(rng, max_vals: int, max_mult: int, max_dims: int):
    count = int(rng.integers(1, max_vals + 1))
    out = []
    budget = max_dims
    for _ in range(count):
        if budget <= 0:
            break
        mult = int(rng.integers(1, min(max_mult, budget) + 1))
        out.append((float(rng.uniform(-2.0, 2.0)), mult))
        budget -= mult
    return out


# ---------------------------------------------------------------------------
# austere / trace
# ---------------------------------------------------------------------------


def _cmd_austere(args) -> int:
    doc = formats.load_document(args.data, "spectral_data")
    data = spectra.SubmanifoldSpectralData.from_json(doc)
    spec = spectra.assemble_pf_spectrum(data)
    group = spectra.assemble_group_spectrum(data)
    by_family = symmetrycheck.austere_check_pf(spec)
    by_floor = symmetrycheck.austere_check_enumerated(spec, args.value_floor)
    group_ms = symmetrycheck.EigenMultiset.from_pairs(group.entries)
    by_group = symmetrycheck.austere_check_finite(group_ms)
    report = {
        "family_rule": by_family,
        "enumeration": by_floor,
        "group_multiset": by_group,
        "value_floor": args.value_floor,
        "austere": bool(by_family),
    }
    _emit(report, args.format)
    return PASS if by_family else FAIL


def _cmd_trace(args) -> int:
    doc = formats.load_document(args.data, "spectral_data")
    data = spectra.SubmanifoldSpectralData.from_json(doc)
    spec = spectra.assemble_pf_spectrum(data)
    partial, limit = spectra.r_trace(spec, args.m_cut)
    probes = list(args.probes)
    values = spectra.zeta_trace(spec, probes)
    extrap = spectra.extrapolate_to_one(probes, values)
    pair_err = abs(partial - limit)
    zeta_err = abs(extrap - limit)
    passed = pair_err <= args.tol and zeta_err <= args.tol
    report = {
        "paired_partial": partial,
        "analytic_limit": limit,
        "paired_error": pair_err,
        "zeta_probes": {formats.format_real(s): v for s, v in zip(probes, values)},
        "zeta_extrapolated": extrap,
        "zeta_error": zeta_err,
        "m_cut": args.m_cut,
        "tolerance": args.tol,
        "passed": bool(passed),
    }
    _emit(report, args.format)
    return PASS if passed else FAIL


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


# Smallest matrix size each transport check can run at: the order check
# needs a nonzero so(n) element, the fiber check a nonzero k in so(n-1).
_TRANSPORT_MIN_N = {"equivariance": 1, "order": 2, "fiber": 3}


def _cmd_transport(args) -> int:
    min_n = _TRANSPORT_MIN_N[args.check]
    if args.n < min_n:
        raise DomainError(f"transport --check {args.check} needs --n >= {min_n}, got {args.n}")
    rng = np.random.default_rng(args.seed)
    nodes = args.grid + 1
    if args.check == "order":
        raw = rng.standard_normal((args.n, args.n))
        x = 0.5 * (raw - raw.T)
        x *= math.pi / max(np.abs(np.linalg.eigvals(x).imag).max(), 1e-12)
        target = expm(x)
        errs = []
        for intervals in (32, 64, 128):
            path = transport.PathGrid.constant(x, intervals + 1, "algebra")
            errs.append(
                float(np.linalg.norm(transport.transport_endpoint(path) - target))
            )
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        passed = all(13.0 <= r <= 19.0 for r in ratios)
        report = {
            "check": "order",
            "errors": errs,
            "ratios": ratios,
            "passed": bool(passed),
        }
    elif args.check == "equivariance":
        worst = 0.0
        for _ in range(args.samples):
            g = transport.random_group_path(args.n, nodes, rng)
            u = transport.random_algebra_path(args.n, nodes, rng)
            worst = max(worst, transport.equivariance_residual(g, u))
        passed = worst <= args.tol
        report = {
            "check": "equivariance",
            "grid": args.grid,
            "samples": args.samples,
            "worst_residual": worst,
            "tolerance": args.tol,
            "passed": bool(passed),
        }
    else:  # fiber
        cd = oracle.sphere_pair(args.n - 1)
        alg = cd.algebra
        raw = rng.standard_normal(cd.k.dim) @ cd.k.basis
        xk = alg.element(raw)
        xk = (1.0 / xk.norm()) * xk

        def z_path(t):
            return math.sin(math.pi * t) * xk.matrix

        z = transport.PathGrid.sample(z_path, nodes, "algebra")
        positive = transport.fiber_tangent_residual(z, cd)

        xm = _random_m_direction(cd, rng)

        def bad_path(t):
            return t * xm.matrix

        bad = transport.PathGrid.sample(bad_path, nodes, "algebra")
        negative = transport.fiber_tangent_residual(bad, cd, enforce_boundary=False)
        passed = positive <= args.tol and negative >= 100.0 * args.tol
        report = {
            "check": "fiber",
            "grid": args.grid,
            "tangent_residual": positive,
            "control_residual": negative,
            "tolerance": args.tol,
            "passed": bool(passed),
        }
    _emit(report, args.format)
    return PASS if report["passed"] else FAIL


# ---------------------------------------------------------------------------
# weyl / so9 / product-sphere
# ---------------------------------------------------------------------------


def _cmd_weyl(args) -> int:
    if args.roots_file:
        doc = formats.load_document(args.roots_file, "weyl_roots")
        roots = doc["roots"]
        name = args.roots_file
    else:
        roots = symmetrycheck.BUILTIN_ROOT_SYSTEMS[args.system]
        name = args.system
    strata = symmetrycheck.weyl_strata(roots)
    isolated = symmetrycheck.isolated_directions(roots)
    report = {
        "system": name,
        "count": len(strata),
        "strata": [st.to_json() for st in strata],
        "isolated_directions": [list(v) for v in isolated],
    }
    _emit(report, args.format, lambda: (
        ["active", "dim", "representative"],
        [
            ("+".join(map(str, st.active)) or "-", st.dim,
             " ".join(formats.format_real(v) for v in st.representative))
            for st in strata
        ],
    ))
    return PASS


def _cmd_so9(args) -> int:
    result = symmetrycheck.so9_arid_verify(args.grid)
    _emit(result, args.format, lambda: (
        ["x", "y", "swap", "ok"],
        [(s["x"], s["y"], s["swap"] or "-", s["ok"]) for s in result["samples"]],
    ))
    return PASS if result["passed"] else FAIL


def _parse_normal(text: str) -> np.ndarray:
    try:
        normal = np.array([float(v) for v in text.split(",")])
    except ValueError:
        normal = None
    if normal is None or not np.isfinite(normal).all():
        raise FormatError(f"--normal needs comma-separated finite numbers, got {text!r}")
    return normal


def _cmd_product_sphere(args) -> int:
    normals = [_parse_normal(args.normal)] if args.normal else None
    austere, details = symmetrycheck.product_sphere_austere(
        args.m, args.n, normals=normals, samples=args.samples,
        rng=np.random.default_rng(args.seed),
    )
    report = {
        "m": args.m,
        "n": args.n,
        "austere": bool(austere),
        "samples": details,
    }
    _emit(report, args.format, lambda: (
        ["austere", "eigenvalues"],
        [
            (d["austere"], " ".join(formats.format_real(v) for v in d["eigenvalues"]))
            for d in details
        ],
    ))
    return PASS if austere else FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfspectra",
        description="Principal curvature spectra of parallel-transport "
        "preimages: assembly, oracles, and symmetry checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="frequency decomposition of ad(xi)")
    p.add_argument("--input", help="JSON input (schema decompose_input)")
    p.add_argument("--n", type=int, default=5, help="orthogonal algebra size")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("spectrum", help="assemble eigenvalue families from data")
    p.add_argument("--data", required=True, help="JSON input (schema spectral_data)")
    p.add_argument("--group", action="store_true", help="group-level spectrum")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--m-max", type=int, default=2)
    _add_format(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("oracle", help="independent numerical cross-checks")
    p.add_argument("--mode", choices=["mu", "group", "forms"], default="mu")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--cutoff", type=int, default=400)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--tol-rel", type=float, default=1e-2)
    p.add_argument("--tol-abs", type=float, default=None)
    p.add_argument("--residual-tol", type=float, default=5e-3)
    p.add_argument("--l", type=int, default=4, help="sphere size for group/forms")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("austere", help="negation-invariance of a spectrum")
    p.add_argument("--data", required=True)
    p.add_argument("--value-floor", type=float, default=0.05)
    _add_format(p, ("json",))
    p.set_defaults(fn=_cmd_austere)

    p = sub.add_parser("trace", help="regularized trace identities")
    p.add_argument("--data", required=True)
    p.add_argument("--m-cut", type=int, default=10000)
    p.add_argument("--probes", type=float, nargs="+", default=[1.1, 1.01, 1.001])
    p.add_argument("--tol", type=float, default=1e-3)
    _add_format(p, ("json",))
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("transport", help="frame ODE and gauge-action checks")
    p.add_argument("--check", choices=["equivariance", "fiber", "order"],
                   required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--n", type=int, default=4, help="matrix size")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=7)
    _add_format(p, ("json",))
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("weyl", help="chamber strata of a root system")
    p.add_argument("--system", choices=sorted(symmetrycheck.BUILTIN_ROOT_SYSTEMS),
                   default="A2")
    p.add_argument("--roots-file", help="JSON input (schema weyl_roots)")
    _add_format(p)
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("so9", help="aridity of the codimension-two SO(9) orbit")
    p.add_argument("--grid", type=int, default=64)
    _add_format(p)
    p.set_defaults(fn=_cmd_so9)

    p = sub.add_parser("product-sphere", help="austerity of sphere products")
    p.add_argument("--m", type=int, default=2, help="number of factors")
    p.add_argument("--n", type=int, default=2, help="ambient factor dimension")
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normal", help="comma-separated coefficients of one normal")
    _add_format(p)
    p.set_defaults(fn=_cmd_product_sphere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol_abs", 0) is None:
        # exact families and the group oracle are absolute; the raw-form
        # route carries quadrature error and gets a looser default
        args.tol_abs = {"mu": 1e-12, "group": 1e-8, "forms": 1e-6}[args.mode]
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except GeometryError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
