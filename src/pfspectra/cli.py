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
import os
import sys

import numpy as np

from . import formats, oracle, spectra, symmetrycheck, transport
from .adspec import paired_bases
from .errors import DomainError, FormatError, GeometryError
from .liecore import MAX_SO_N, build_so, cartan_decompose

PASS, FAIL, INPUT_ERROR = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through ``parser_class`` its subparsers,
    whose parse errors are one-line input errors rather than usage text."""

    def error(self, message):
        raise FormatError(message)


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
    elif hasattr(obj, "__dataclass_fields__"):  # a record: its fields, as canonical_json
        items = vars(obj).items()
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


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's generators
    need; anything else is a FormatError, as in ``_real``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise FormatError(f"--seed needs a non-negative integer, got {text!r}")
    return value


# For each subcommand with several checks: the flag that picks the check,
# and the flags each check reads with their defaults.  A check refuses the
# other flags of its table; flags every check reads are not listed.
_CHECK_FLAGS = {
    "oracle": ("mode", {
        # exact families and the group oracle are absolute; the raw-form
        # route carries quadrature error and gets a looser default
        "mu": {"nu": 1.0, "lam": 0.0, "cutoff": 400, "m_max": 2, "n_max": 3,
               "tol_rel": 1e-2, "tol_abs": 1e-12, "residual_tol": 5e-3},
        "group": {"l": 4, "samples": 20, "seed": 0, "tol_abs": 1e-8},
        "forms": {"l": 4, "grid": 1024, "n_max": 3, "seed": 0, "tol_abs": 1e-6},
    }),
    "transport": ("check", {
        "order": {},
        "equivariance": {"grid": 256, "samples": 10, "tol": 1e-6},
        "fiber": {"grid": 256, "tol": 1e-6},
    }),
}


def _fill_check_flags(args) -> None:
    """Fill in the defaults of the flags the chosen check reads; refuse the
    flags of the table that it ignores."""
    picker, table = _CHECK_FLAGS[args.command]
    check = getattr(args, picker)
    for flag in dict.fromkeys(f for reads in table.values() for f in reads):
        if getattr(args, flag) is None:
            setattr(args, flag, table[check].get(flag))
        elif flag not in table[check]:
            name = "lambda" if flag == "lam" else flag.replace("_", "-")
            raise DomainError(f"{args.command} --{picker} {check} takes no --{name}")


def _matrix(doc: dict, field: str) -> np.ndarray:
    """A matrix field of a document; rows of unequal length are refused."""
    if len({len(row) for row in doc[field]}) > 1:
        raise FormatError(f"{field} has rows of unequal length")
    return np.array(doc[field], dtype=float)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _cmd_decompose(args):
    if args.input:
        doc = formats.load_document(args.input, "decompose_input")
        n = doc["n"]
        alg = build_so(n, doc.get("ip_scale", 0.5))
        if "p" in doc:
            p = _matrix(doc, "p")
        else:
            p = np.diag([1.0] * (n - 1) + [-1.0])
        cd = cartan_decompose(alg, p)
        if "xi" in doc:
            xi = alg.from_matrix(_matrix(doc, "xi"))
        else:
            xi = oracle.random_m_direction(cd, np.random.default_rng(args.seed))
    else:
        n = args.n
        cd = oracle.sphere_pair(n - 1)
        xi = oracle.random_m_direction(cd, np.random.default_rng(args.seed))
    ad = paired_bases(cd, xi)
    report = {
        "n": n,
        "xi_norm": ad.xi_norm,
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
    data = spectra.SubmanifoldSpectralData.from_maps(**doc)
    if args.group:
        group = spectra.assemble_group_spectrum(data)
        report = {"kind": "group", "spectrum": group}
        rows_fn = lambda: (["value", "multiplicity"], group.entries)
    else:
        spec = spectra.assemble_pf_spectrum(data)
        rows = spectra.enumerate_rows(spec, args.n_max, args.m_max)
        report = {
            "kind": "path_space",
            "spectrum": spec.to_json(),
            "window": {"n_max": args.n_max, "m_max": args.m_max},
        }

        def rows_fn():
            # The report lists families only; a mu value past the float
            # range is inf in the rows alone.
            bad = np.flatnonzero(~np.isfinite([row.value for row in rows]))
            if bad.size:
                raise DomainError(f"rows[{bad[0]}][2] is not a finite number, "
                                  "so no report is given")
            return ["family", "index", "value", "multiplicity"], rows
    return report, rows_fn


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args):
    _fill_check_flags(args)
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
    if not 0 <= args.n_max <= oracle.MAX_MU_CUTOFF:
        raise DomainError(
            f"oracle --mode mu needs 0 <= --n-max <= {oracle.MAX_MU_CUTOFF}, got {args.n_max}"
        )
    window = (args.m_max, args.tol_abs, args.tol_rel)
    mu_block = oracle.build_mu_block(args.nu, args.lam, args.cutoff)
    reports = [oracle.compare_spectra(mu_block, *window)]
    for n in range(1, args.n_max + 1):
        reports.append(oracle.compare_spectra(oracle.build_harmonic_block(args.nu, n), *window))
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
        "blocks": reports,
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
        runs.append(rep)
    report = {
        "mode": "group",
        "l": args.l,
        "samples": args.samples,
        "runs": runs,
        "passed": bool(passed),
    }
    return report, None


def _oracle_forms(args):
    if args.grid < 1:
        raise DomainError(f"the forms check needs --grid >= 1, got {args.grid}")
    if args.n_max < 0:
        raise DomainError(f"the forms check needs --n-max >= 0, got {args.n_max}")
    grid = args.grid + 1
    # fourier_labels gives n_max labels per algebra direction, one more per
    # tangent direction; each label path has grid * dim entries.
    dim = (args.l + 1) * args.l // 2  # of so(l+1)
    spectra.check_work("a forms label path", grid * dim, oracle.MAX_FORMS_LABEL_ENTRIES)
    rng = np.random.default_rng(args.seed)
    lam_mults = _random_lam_mults(rng, max_vals=2, max_mult=2, max_dims=args.l - 2)
    data = oracle.sphere_geometry(args.l, lam_mults, rng)
    count = args.n_max * dim + data.tangent_space.dim
    spectra.check_work("the forms check", count * grid * dim, oracle.MAX_FORMS_ENTRIES)
    labels = data.fourier_labels(args.n_max)
    rows = [None] * len(labels)
    alg, times = data.cd.algebra, oracle.TimeGrid(grid)
    q, raw, closed = np.empty((3, grid, dim))
    # Mode by mode, so that times builds each mode's waves once.
    for i in sorted(range(len(labels)), key=lambda j: labels[j].mode or 0):
        label = labels[i]
        path = oracle.label_decomposed_path(data, label, times, out=q)
        oracle.shape_apply_raw(data, path, out=raw)
        oracle.label_closed_form(data, label, times, out=closed)
        err = oracle.grid_l2_norm(np.subtract(raw, closed, out=raw), alg, times)
        scale = max(oracle.grid_l2_norm(closed, alg, times), 1.0)
        rows[i] = (label.describe(), err / scale)
    worst = max([0.0, *(rel for _, rel in rows)])
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
    data = spectra.SubmanifoldSpectralData.from_maps(**doc)
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
    data = spectra.SubmanifoldSpectralData.from_maps(**doc)
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
    _fill_check_flags(args)
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
        # scipy's expm is the independent reference for the RK4 integrator.
        from scipy.linalg import expm

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
        xm = alg.to_matrices(oracle.random_m_direction(cd, rng))
        # z(t) = sin(pi t) xk ends inside k; the control t xm does not
        ts = np.linspace(0.0, 1.0, nodes)
        sines = np.array([math.sin(math.pi * t) for t in ts.tolist()])
        z = np.stack([sines[:, None, None] * xk, ts[:, None, None] * xm])
        z.setflags(write=False)  # PathGrid keeps a read-only stack uncopied
        positive, negative = transport.fiber_tangent_residuals(
            transport.PathGrid(z, "algebra"), cd, [True, False])
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
        roots = _matrix(doc, "roots")
        name = os.path.basename(args.roots_file)  # stdout must not depend on the directory
    else:
        roots = symmetrycheck.BUILTIN_ROOT_SYSTEMS[args.system]
        name = args.system
    strata = symmetrycheck.weyl_strata(roots)
    isolated = symmetrycheck.isolated_directions(roots)
    report = {
        "system": name,
        "count": len(strata),
        "strata": strata,
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
    parser = _Parser(
        prog="pfspectra",
        description="Principal curvature spectra of parallel-transport "
        "preimages: assembly, oracles, and symmetry checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="frequency decomposition of ad(xi)")
    p.add_argument("--input", help="JSON input (schema decompose_input)")
    p.add_argument("--n", type=int, default=5, help="orthogonal algebra size")
    p.add_argument("--seed", type=_seed, default=0)
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
    # Defaults by mode in _CHECK_FLAGS.
    p.add_argument("--nu", type=_real("--nu"))
    p.add_argument("--lambda", dest="lam", type=_real("--lambda"))
    p.add_argument("--cutoff", type=int)
    p.add_argument("--m-max", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--tol-rel", type=_real("--tol-rel", positive=True))
    p.add_argument("--tol-abs", type=_real("--tol-abs", positive=True))
    p.add_argument("--residual-tol", type=_real("--residual-tol", positive=True))
    p.add_argument("--l", type=int, help="sphere size for group/forms")
    p.add_argument("--grid", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=_seed)
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
    p.add_argument("--tol", type=_real("--tol", positive=True),
                   help="(equivariance, fiber; default 1e-6)")
    p.add_argument("--seed", type=_seed, default=7)
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--normal", help="comma-separated coefficients of one normal")
    _add_format(p)
    p.set_defaults(fn=_cmd_product_sphere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
