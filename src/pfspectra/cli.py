"""Command-line driver for reproducible verification runs.

Every command returns one report, which ``main`` prints (JSON by default,
CSV or a fixed-width table where enumeration makes sense).  It exits 1
when the report's verdict (``passed``, or ``austere``) is false, 2 on
malformed input, and 0 otherwise.  All randomness flows from --seed, so
identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np
from scipy.linalg import expm

from . import formats, oracle, spectra, symmetrycheck, transport
from .adspec import paired_bases
from .errors import DomainError, FormatError, GeometryError
from .liecore import MAX_SO_N, build_so, cartan_decompose

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _emit(report: dict, fmt: str, rows_fn) -> None:
    """Print a report as JSON, or as CSV/table when rows are available.

    A report that carries a non-finite number (inputs that overflow, or a
    window with no eigenvalue left to match) is refused.
    """
    where = _non_finite(report, "report")
    if where:
        raise DomainError(f"{where} is not a finite number, so no report is given")
    if fmt == "json" or rows_fn is None:
        sys.stdout.write(formats.canonical_json(report))
        return
    header, rows = rows_fn()
    if fmt == "csv":
        sys.stdout.write(formats.csv_table(header, rows))
    else:
        sys.stdout.write(formats.text_table(header, rows))


def _non_finite(obj, path: str):
    """Path of the first non-finite number in a report, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        where = _non_finite(value, f"{path}[{key!r}]")
        if where:
            return where
    return None


def _add_format(parser, choices=("json", "csv", "table")) -> None:
    parser.add_argument("--format", choices=list(choices), default="json")


def _real(flag: str, positive: bool = False):
    """argparse type of a float flag: a finite number, positive if asked.

    It raises FormatError rather than ValueError, so argparse lets it
    through and main reports it as a one-line input error.
    """
    need = "a positive finite number" if positive else "a finite number"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise FormatError(f"{flag} needs {need}, got {text!r}")
        return value

    return parse


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _cmd_decompose(args):
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
            xi = oracle.random_m_direction(cd, np.random.default_rng(args.seed))
    else:
        n = args.n
        cd = oracle.sphere_pair(n - 1)
        xi = oracle.random_m_direction(cd, np.random.default_rng(args.seed))
    ad = paired_bases(cd, xi)
    report = {
        "n": n,
        "xi_norm": float(cd.algebra.norm(xi)),
        "frequencies": [[nu, m] for nu, m in ad.frequency_multiplicities()],
        "dim_k0": ad.dim_k0,
        "dim_m0": ad.dim_m0,
    }
    return report, lambda: (
        ["frequency", "multiplicity"], [(nu, m) for nu, m in report["frequencies"]]
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args):
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
    return report, rows_fn


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args):
    if args.mode == "mu":
        return _oracle_mu(args)
    if args.l < 2:  # the sphere S^l needs a rank-one pair so(l+1), so(l)
        raise DomainError(f"oracle --mode {args.mode} needs --l >= 2, got {args.l}")
    if args.l > MAX_SO_N - 1:  # so(l+1) must be at most so(MAX_SO_N)
        raise DomainError(f"oracle --mode {args.mode} needs --l <= {MAX_SO_N - 1}, got {args.l}")
    if args.mode == "group":
        return _oracle_group(args)
    return _oracle_forms(args)


def _oracle_mu(args):
    spectrum = spectra.PrincipalSpectrum(
        harmonics=((args.nu, 1),), mus=((args.nu, args.lam, 1),)
    )
    window = oracle.SpectralWindow(
        m_max=args.m_max, n_max=args.n_max, tol_abs=args.tol_abs, tol_rel=args.tol_rel
    )
    mu_block = oracle.build_mu_block(args.nu, args.lam, args.cutoff)
    reports = [oracle.compare_spectra(mu_block, spectrum, window)]
    for n in range(1, args.n_max + 1):
        reports.append(
            oracle.compare_spectra(
                oracle.build_harmonic_block(args.nu, n), spectrum, window
            )
        )
    residuals = {
        str(m): oracle.mu_block_residual(mu_block, m) for m in range(-1, 2)
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
    return report, lambda: (
        ["block", "descriptor", "predicted", "computed", "ok"],
        [
            (r.block, e.descriptor, e.predicted, e.computed, e.ok)
            for r in reports
            for e in r.entries
        ],
    )


def _oracle_group(args):
    dim = (args.l + 1) * args.l // 2  # of so(l+1)
    work = args.samples * (dim * dim + oracle.GROUP_SAMPLE_SETUP)
    spectra.check_work("the group oracle", work, oracle.MAX_GROUP_WORK)
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
    return report, None


def _oracle_forms(args):
    rng = np.random.default_rng(args.seed)
    lam_mults = _random_lam_mults(rng, max_vals=2, max_mult=2, max_dims=args.l - 2)
    data = oracle.sphere_geometry(args.l, lam_mults, rng)
    if args.grid < 1:
        raise DomainError(f"the forms check needs --grid >= 1, got {args.grid}")
    if args.n_max < 0:
        raise DomainError(f"the forms check needs --n-max >= 0, got {args.n_max}")
    grid = args.grid + 1
    # fourier_labels gives n_max labels per algebra direction, one more per
    # tangent direction; each label path has grid * dim entries.
    dim = data.cd.algebra.dim
    spectra.check_work("a forms label path", grid * dim, oracle.MAX_FORMS_LABEL_ENTRIES)
    labels = args.n_max * dim + data.tangent_space.dim
    spectra.check_work("the forms check", labels * grid * dim, oracle.MAX_FORMS_ENTRIES)
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
    return report, lambda: (["label", "residual"], rows)


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


def _cmd_austere(args):
    doc = formats.load_document(args.data, "spectral_data")
    data = spectra.SubmanifoldSpectralData.from_json(doc)
    spec = spectra.assemble_pf_spectrum(data)
    group = spectra.assemble_group_spectrum(data)
    by_family = symmetrycheck.austere_check_pf(spec)
    by_floor = symmetrycheck.austere_check_enumerated(spec, args.value_floor)
    group_ms = spectra.EigenMultiset.from_pairs(group.entries, spectra.CLUSTER_TOL)
    by_group = symmetrycheck.austere_check_finite(group_ms)
    report = {
        "family_rule": by_family,
        "enumeration": by_floor,
        "group_multiset": by_group,
        "value_floor": args.value_floor,
        "austere": bool(by_family),
    }
    return report, None


def _cmd_trace(args):
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
    return report, None


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


# Smallest matrix size each transport check can run at: the order check
# needs a nonzero so(n) element, the fiber check a nonzero k in so(n-1).
_TRANSPORT_MIN_N = {"equivariance": 1, "order": 2, "fiber": 3}
# The order check runs its own grids, one constant path on each.
_ORDER_INTERVALS = (32, 64, 128)
# The size flags each check reads, with their defaults; it refuses the others.
_TRANSPORT_FLAGS = {"order": {}, "equivariance": {"grid": 256, "samples": 10},
                    "fiber": {"grid": 256}}


def _transport_sizes(args) -> None:
    """Validate the size flags of a transport check, fill in the defaults
    of the flags it reads, refuse the flags it ignores, and refuse work
    beyond the module limits before anything is allocated."""
    min_n = _TRANSPORT_MIN_N[args.check]
    if args.n < min_n:
        raise DomainError(f"transport --check {args.check} needs --n >= {min_n}, got {args.n}")
    min_grid = transport.MIN_TRANSPORT_NODES - 1
    if args.grid is not None and args.grid < min_grid:
        raise DomainError(f"transport needs --grid >= {min_grid}, got {args.grid}")
    reads = _TRANSPORT_FLAGS[args.check]
    for flag in ("grid", "samples"):
        if getattr(args, flag) is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise DomainError(f"transport --check {args.check} takes no --{flag}")
    # every path the check integrates: order one per grid (counted at the
    # largest), equivariance a gauged and a plain path per sample, fiber two
    if args.check == "order":
        transport.check_transport_work(len(_ORDER_INTERVALS), _ORDER_INTERVALS[-1] + 1, args.n)
    else:
        paths = 2 * args.samples if args.check == "equivariance" else 2
        transport.check_transport_work(paths, args.grid + 1, args.n)


def _cmd_transport(args):
    _transport_sizes(args)
    rng = np.random.default_rng(args.seed)
    if args.check == "order":
        raw = rng.standard_normal((args.n, args.n))
        x = 0.5 * (raw - raw.T)
        x *= math.pi / max(np.abs(np.linalg.eigvals(x).imag).max(), 1e-12)
        target = expm(x)
        errs = []
        for intervals in _ORDER_INTERVALS:
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
        nodes = args.grid + 1

        def draw():
            g = transport.random_group_path(args.n, nodes, rng)
            return g, transport.random_algebra_path(args.n, nodes, rng)

        worst = max(transport.equivariance_residuals(draw, args.samples))
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
        nodes = args.grid + 1
        cd = oracle.sphere_pair(args.n - 1)
        alg = cd.algebra
        raw = rng.standard_normal(cd.k.dim) @ cd.k.basis
        xk = alg.to_matrices((1.0 / alg.norm(raw)) * raw)

        def z_path(t):
            return math.sin(math.pi * t) * xk

        z = transport.PathGrid.sample(z_path, nodes, "algebra")
        positive = transport.fiber_tangent_residual(z, cd)

        xm = alg.to_matrices(oracle.random_m_direction(cd, rng))

        def bad_path(t):
            return t * xm

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
    return report, None


# ---------------------------------------------------------------------------
# weyl / so9 / product-sphere
# ---------------------------------------------------------------------------


def _cmd_weyl(args):
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
    return report, lambda: (
        ["active", "dim", "representative"],
        [
            ("+".join(map(str, st.active)) or "-", st.dim,
             " ".join(formats.format_real(v) for v in st.representative))
            for st in strata
        ],
    )


def _cmd_so9(args):
    result = symmetrycheck.so9_arid_verify(args.grid)
    return result, lambda: (
        ["x", "y", "swap", "ok"],
        [(s["x"], s["y"], s["swap"] or "-", s["ok"]) for s in result["samples"]],
    )


def _parse_normal(text: str) -> np.ndarray:
    try:
        normal = np.array([float(v) for v in text.split(",")])
    except ValueError:
        normal = None
    if normal is None or not np.isfinite(normal).all():
        raise FormatError(f"--normal needs comma-separated finite numbers, got {text!r}")
    return normal


def _cmd_product_sphere(args):
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
    return report, lambda: (
        ["austere", "eigenvalues"],
        [
            (d["austere"], " ".join(formats.format_real(v) for v in d["eigenvalues"]))
            for d in details
        ],
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
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
    p.add_argument("--nu", type=_real("--nu"), default=1.0)
    p.add_argument("--lambda", dest="lam", type=_real("--lambda"), default=0.0)
    p.add_argument("--cutoff", type=int, default=400)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--tol-rel", type=_real("--tol-rel", positive=True), default=1e-2)
    p.add_argument("--tol-abs", type=_real("--tol-abs", positive=True), default=None)
    p.add_argument("--residual-tol", type=_real("--residual-tol", positive=True),
                   default=5e-3)
    p.add_argument("--l", type=int, default=4, help="sphere size for group/forms")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("austere", help="negation-invariance of a spectrum")
    p.add_argument("--data", required=True)
    p.add_argument("--value-floor", type=_real("--value-floor", positive=True), default=0.05)
    _add_format(p, ("json",))
    p.set_defaults(fn=_cmd_austere)

    p = sub.add_parser("trace", help="regularized trace identities")
    p.add_argument("--data", required=True)
    p.add_argument("--m-cut", type=int, default=10000)
    p.add_argument("--probes", type=_real("--probes"), nargs="+", default=(1.1, 1.01, 1.001))
    p.add_argument("--tol", type=_real("--tol", positive=True), default=1e-3)
    _add_format(p, ("json",))
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("transport", help="frame ODE and gauge-action checks")
    p.add_argument("--check", choices=["equivariance", "fiber", "order"],
                   required=True)
    p.add_argument("--grid", type=int, help="intervals (equivariance, fiber; default 256)")
    p.add_argument("--n", type=int, default=4, help="matrix size")
    p.add_argument("--samples", type=int, help="path pairs (equivariance; default 10)")
    p.add_argument("--tol", type=_real("--tol", positive=True), default=1e-6)
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
    try:
        args = parser.parse_args(argv)
        if getattr(args, "tol_abs", 0) is None:
            # exact families and the group oracle are absolute; the raw-form
            # route carries quadrature error and gets a looser default
            args.tol_abs = {"mu": 1e-12, "group": 1e-8, "forms": 1e-6}[args.mode]
        samples = getattr(args, "samples", None)
        if samples is not None and samples < 1:
            raise DomainError(f"--samples must be at least 1, got {samples}")
        report, rows_fn = args.fn(args)
        _emit(report, args.format, rows_fn)
    except GeometryError as exc:  # FormatError included
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    return PASS if report.get("passed", report.get("austere", True)) else FAIL


if __name__ == "__main__":
    sys.exit(main())
