"""Document schemas, serialization helpers, and the command-line surface."""

import copy
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfspectra import FormatError, SubmanifoldSpectralData, oracle
from pfspectra.cli import main
from pfspectra.formats import (
    SCHEMAS,
    canonical_json,
    csv_table,
    format_real,
    load_document,
    text_table,
    validate_document,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = "{data}"  # stands for a spectral_data file written by the test


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sphere_doc(nu=1.0, lam_mults=(), codim=3, dim_k0=3):
    data = SubmanifoldSpectralData.sphere_like(nu, list(lam_mults), codim, dim_k0)
    return json.loads(canonical_json(data))


# ------------------------------------------------------------------ formats


def test_schema_files_match_the_module():
    for kind, schema in SCHEMAS.items():
        path = REPO_ROOT / "schemas" / f"{kind}.schema.json"
        assert path.exists(), path
        assert json.loads(path.read_text()) == schema
        assert path.read_text() == canonical_json(schema)


def test_validate_document_passes_and_fails():
    validate_document("spectral_data", sphere_doc())
    with pytest.raises(FormatError, match="freq_mult"):
        validate_document("spectral_data", {"mult": []})
    with pytest.raises(FormatError, match="unknown schema"):
        validate_document("nope", {})


_NUMBER = st.one_of(st.integers(-10, 10), st.floats(-1e3, 1e3, allow_nan=False))
_MATRIX_DOC = st.lists(st.lists(_NUMBER, min_size=1, max_size=3), min_size=1, max_size=3)
VALID_DOCS = {
    "spectral_data": st.fixed_dictionaries({
        "freq_mult": st.lists(st.tuples(_NUMBER, st.integers(0, 4)).map(list), max_size=3),
        "mult0": st.lists(st.tuples(_NUMBER, st.integers(0, 4)).map(list), max_size=3),
        "mult": st.lists(st.tuples(_NUMBER, _NUMBER, st.integers(0, 4)).map(list), max_size=3),
        "perp": st.lists(st.tuples(_NUMBER, st.integers(0, 4)).map(list), max_size=3),
        "dim_m0": st.integers(0, 5),
        "dim_k0": st.integers(0, 5),
    }),
    "decompose_input": st.fixed_dictionaries(
        {"n": st.integers(2, 9)},
        optional={"ip_scale": st.floats(1e-3, 1e3), "p": _MATRIX_DOC, "xi": _MATRIX_DOC},
    ),
    "weyl_roots": st.fixed_dictionaries({"roots": _MATRIX_DOC}),
}
# Values a mutation puts in: wrong types, bools, integral floats, values at
# each schema minimum (0, 2, exclusive 0) and just below it.
ODD_VALUES = st.one_of(
    st.sampled_from([True, False, None, "x", 0, -1, 1, 2, 1.0, 2.0, -1.0, 0.0, -0.0, 1.5,
                     1.999, 5e-324, -5e-324, [], {}, [1.0], [[1.0]], [1.0, 2], [1.0, 1.0, 2],
                     [1.0, 2, 3], [1.0, 2.0, 3, 4], {"n": 2}]).map(copy.deepcopy),
    _NUMBER,
)
KEYS = st.sampled_from(["freq_mult", "mult0", "mult", "perp", "dim_m0", "dim_k0", "n",
                        "ip_scale", "p", "xi", "roots", "extra", "z"])


def _mutate(draw, doc):
    """Delete, add or retype one key or item somewhere in doc, in place."""
    containers, stack = [], [doc]
    while stack:
        node = stack.pop()
        containers.append(node)
        children = node.values() if isinstance(node, dict) else node
        stack += [c for c in children if isinstance(c, (dict, list))]
    node = draw(st.sampled_from(containers))
    op = draw(st.sampled_from(["delete", "add", "retype"]))
    if isinstance(node, dict):
        if op == "add" or not node:
            node[draw(KEYS)] = draw(ODD_VALUES)
        elif op == "delete":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[draw(st.sampled_from(sorted(node)))] = draw(ODD_VALUES)
    elif op == "add" or not node:
        node.insert(draw(st.integers(0, len(node))), draw(ODD_VALUES))
    elif op == "delete":
        del node[draw(st.integers(0, len(node) - 1))]
    else:
        node[draw(st.integers(0, len(node) - 1))] = draw(ODD_VALUES)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_validate_document_agrees_with_jsonschema(kind, data):
    # jsonschema is the reference: the same verdict, the same first error by
    # JSON path and the same wording, on valid documents and their mutations.
    import jsonschema

    doc = data.draw(VALID_DOCS[kind])
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data.draw, doc)
    errors = sorted(jsonschema.Draft202012Validator(SCHEMAS[kind]).iter_errors(doc),
                    key=lambda e: e.json_path)
    expected = f"{kind}: {errors[0].json_path}: {errors[0].message}" if errors else None
    try:
        validate_document(kind, doc)
        got = None
    except FormatError as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.parametrize("where", ["top", "nested"])
def test_validate_document_refuses_an_unimplemented_keyword(monkeypatch, where):
    schema = json.loads(json.dumps(SCHEMAS["spectral_data"]))
    (schema if where == "top" else schema["properties"]["dim_m0"])["pattern"] = "^x"
    monkeypatch.setitem(SCHEMAS, "spectral_data", schema)
    with pytest.raises(NotImplementedError, match="'pattern'"):
        validate_document("spectral_data", sphere_doc())


def test_load_document_diagnostics(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_document(str(tmp_path / "missing.json"), "spectral_data")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError, match="bad.json:1:"):
        load_document(str(bad), "spectral_data")


def test_canonical_json_is_deterministic_and_strict():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    b = canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_format_real_round_trips_doubles(x):
    assert float(format_real(x)) == x


def test_tables_have_header_and_rows():
    csv = csv_table(["a", "b"], [[1.0, 2.0]])
    lines = csv.strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 2
    txt = text_table(["a", "b"], [[1.0, 2.0]])
    assert "a" in txt.splitlines()[0]


# ---------------------------------------------------------------- CLI runs


def run_cli(capsys, *argv):
    # capsys does not see Python warnings, so record them here: a command
    # prints its report or its one-line error and nothing else.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert not caught, [str(w.message) for w in caught]
    return code, captured.out, captured.err


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # Two commands in a row go through the one cached parser; each report
    # must equal the one a fresh process prints.
    data = write_json(tmp_path, "data.json", sphere_doc(1.0, [(0.5, 1)], 2, 0))
    runs = [("trace", "--data", data, "--m-cut", "200"),
            ("oracle", "--cutoff", "60", "--m-max", "1")]
    in_process = [run_cli(capsys, *argv) for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for argv, (code, out, _) in zip(runs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "pfspectra.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        assert out


def test_commands_import_scipy_and_jsonschema_only_where_they_run(tmp_path):
    # Start-up cost: building the parser, decompose and the forms check run
    # without scipy.linalg, scipy.special and scipy.sparse; so do the austere
    # check, the CSV spectrum, the sphere-product check and the fiber and
    # equivariance transport checks.  jsonschema is the test suite's
    # reference validator only: no command loads it, the ones that read
    # documents (austere, spectrum, trace, decompose --input) included.
    data = write_json(tmp_path, "data.json", sphere_doc(1.0, [(0.5, 1), (-0.5, 1)], 2, 0))
    decompose = write_json(tmp_path, "decompose.json", {"n": 5})
    probe = f"""
import contextlib, io, sys
from pfspectra import cli
cli.build_parser()
heavy = ("scipy.linalg", "scipy.special", "scipy.sparse", "jsonschema")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["decompose", "--n", "6"]),
             cli.main(["oracle", "--mode", "forms", "--l", "3", "--grid", "32", "--n-max", "1"])]
print(codes, [name for name in heavy if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["austere", "--data", {str(data)!r}, "--value-floor", "1e-2"]),
             cli.main(["spectrum", "--data", {str(data)!r}, "--format", "csv"]),
             cli.main(["product-sphere", "--m", "2", "--n", "3", "--samples", "2"])]
print(codes, [name for name in heavy if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["transport", "--check", "fiber", "--n", "4", "--grid", "64"]),
             cli.main(["transport", "--check", "equivariance", "--n", "3", "--grid", "64",
                       "--samples", "1"])]
print(codes, [name for name in heavy if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["trace", "--data", {str(data)!r}]),
             cli.main(["decompose", "--input", {str(decompose)!r}])]
print(codes, "jsonschema" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == ["[0, 0] []", "[0, 0, 0] []", "[0, 0] []",
                                           "[0, 0] False"]


def test_spectrum_window_frozen_values(tmp_path, capsys):
    # Normal-only data: the window holds exactly the harmonic pairs nu/(n pi).
    path = write_json(tmp_path, "point.json", sphere_doc(1.0, (), 3, 3))
    code, out, err = run_cli(
        capsys, "spectrum", "--data", path, "--n-max", "3", "--format", "csv"
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    finite = sorted(float(r[2]) for r in rows if r[0] == "harmonic")
    expected = sorted(
        s / (n * math.pi) for n in (1, 2, 3) for s in (1.0, -1.0)
    )
    assert finite == pytest.approx(expected, abs=1e-15)
    assert all(r[3] == "2" for r in rows if r[0] == "harmonic")


@pytest.mark.parametrize("flag, doc", [
    # codim 1: the only normal row is nu = 0, so there is no harmonic family
    ("--n-max", sphere_doc(1.0, [(0.5, 1)], 1, 0)),
    # ad-kernel eigenvalues only: no mu family
    ("--m-max", {"freq_mult": [], "mult0": [[0.5, 1]], "mult": [], "perp": [[0.0, 1]],
                 "dim_m0": 2, "dim_k0": 0}),
])
def test_spectrum_window_of_an_absent_family_costs_nothing(tmp_path, capsys, flag, doc):
    path = write_json(tmp_path, "data.json", doc)
    code, small, err = run_cli(capsys, "spectrum", "--data", path, flag, "1", "--format", "csv")
    assert code == 0, err
    code, out, err = run_cli(capsys, "spectrum", "--data", path, flag, str(10**20),
                             "--format", "csv")
    assert code == 0, err
    assert out == small


def test_spectrum_report_lists_every_family(tmp_path, capsys):
    # Zero first, then lambda, harmonic and mu families in sorted data order;
    # rows of multiplicity 0 and the nu = 0 normal row give no family.
    doc = {"freq_mult": [[2.0, 3], [1.0, 2]],
           "mult0": [[0.25, 2], [-0.5, 0]],
           "mult": [[2.0, 0.75, 3], [1.0, 0.5, 1], [1.0, -0.5, 0]],
           "perp": [[0.0, 1], [2.0, 0], [1.0, 1]],
           "dim_m0": 3, "dim_k0": 1}
    path = write_json(tmp_path, "data.json", doc)
    code, out, err = run_cli(capsys, "spectrum", "--data", path)
    assert code == 0, err
    report = json.loads(out)
    assert report["kind"] == "path_space"
    assert report["window"] == {"n_max": 3, "m_max": 2}
    assert report["spectrum"] == {"families": [
        {"kind": "zero"},
        {"kind": "lambda", "lambda": 0.25, "mult": 2},
        {"kind": "harmonic", "nu": 1.0, "mult": 1},
        {"kind": "mu", "nu": 1.0, "lambda": 0.5, "mult": 1},
        {"kind": "mu", "nu": 2.0, "lambda": 0.75, "mult": 3},
    ]}


def test_spectrum_group_mode(tmp_path, capsys):
    path = write_json(tmp_path, "data.json", sphere_doc(1.0, [(0.5, 1)], 2, 2))
    code, out, _ = run_cli(capsys, "spectrum", "--data", path, "--group")
    assert code == 0
    doc = json.loads(out)
    values = [e[0] for e in doc["spectrum"]["entries"]]
    plus = (0.5 + math.sqrt(0.25 + 1.0)) / 2.0
    assert any(abs(v - plus) < 1e-12 for v in values)
    assert any(v == 0.0 for v in values)


def test_spectrum_group_reports_a_kappa_pair_near_the_float_limit(tmp_path, capsys):
    # lambda + hypot(lambda, nu) overflows, but kappa_+ = 1.207e308 is finite
    path = write_json(tmp_path, "data.json", OVERFLOWING_TRACE_DOCS["mult_sum"])
    code, out, err = run_cli(capsys, "spectrum", "--data", path, "--group")
    assert code == 0 and err == ""
    assert json.loads(out)["spectrum"]["entries"] == [
        [-2.0710678118654756e307, 1], [1.2071067811865475e308, 1]
    ]


# nu = lambda = 1.5e308: hypot(lambda, nu) overflows, and kappa_+ = 1.81e308
# and the m = 0 mu value 1.91e308 lie past the largest float.
PAST_FLOAT_RANGE_DOC = {"freq_mult": [[1.5e308, 1]], "mult0": [], "mult": [[1.5e308, 1.5e308, 1]],
                        "perp": [[0.0, 1]], "dim_m0": 1, "dim_k0": 0}


def test_spectrum_of_a_block_past_the_float_range_is_warning_free(tmp_path, capsys):
    # The JSON report lists families only, so it is given; the rows, the
    # group spectrum and the floor enumeration would need the values past the
    # float range, and each is one input-error line.  No numpy warning in any.
    path = write_json(tmp_path, "data.json", PAST_FLOAT_RANGE_DOC)
    code, out, err = run_cli(capsys, "spectrum", "--data", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == "path_space"
    for argv, message in [
        (("spectrum", "--format", "csv"), "rows[0][2] is not a finite number, so no report is given"),
        (("spectrum", "--group"),
         "report['spectrum']['entries'][1][0] is not a finite number, so no report is given"),
        (("austere",), "value floor asks for inf entries, more than the limit of 200000"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--data", path)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


# Report records are written as the JSON objects of their fields, so a field
# rename changes the wire format.  These layouts pin it.
WIRE_DOC = {"freq_mult": [[2.0, 3], [1.0, 2]], "mult0": [[0.25, 2]],
            "mult": [[2.0, 0.75, 2], [1.0, -0.5, 1]],
            "perp": [[0.0, 1], [2.0, 1], [1.0, 1]], "dim_m0": 3, "dim_k0": 1}


def _key_paths(obj, path=""):
    if isinstance(obj, dict):
        return set().union(*({f"{path}.{k}"} | _key_paths(v, f"{path}.{k}")
                             for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(set(), *(_key_paths(v, f"{path}[]") for v in obj))
    return set()


def test_report_wire_formats_are_pinned(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "weyl", "--system", "B2")
    assert code == 0
    assert out == canonical_json({
        "count": 4,
        "isolated_directions": [[1.0, 0.0], [0.7071067811865475, 0.7071067811865475]],
        "strata": [
            {"active": [], "dim": 0, "representative": [0.0, 0.0]},
            {"active": [0], "dim": 1, "representative": [1.0, 0.0]},
            {"active": [1], "dim": 1, "representative": [1.0, 1.0]},
            {"active": [0, 1], "dim": 2, "representative": [2.0, 1.0]},
        ],
        "system": "B2",
    })
    path = write_json(tmp_path, "data.json", WIRE_DOC)
    code, out, _ = run_cli(capsys, "spectrum", "--data", path, "--group")
    assert code == 0
    assert out == canonical_json({"kind": "group", "spectrum": {"entries": [
        [-0.8090169943749475, 1], [-0.6930004681646913, 2], [0.0, 3], [0.25, 2],
        [0.30901699437494745, 1], [1.4430004681646913, 2],
    ]}})
    entry = ("abs_err", "computed", "descriptor", "ok", "predicted", "rel_err")
    code, out, _ = run_cli(capsys, "oracle", "--mode", "mu", "--cutoff", "50",
                           "--n-max", "1", "--m-max", "1")
    assert code == 0
    assert _key_paths(json.loads(out)) == {
        ".blocks", ".blocks[].block", ".blocks[].entries", ".blocks[].passed",
        *(f".blocks[].entries[].{k}" for k in entry),
        ".cutoff", ".eigenfunction_residuals", ".eigenfunction_residuals.-1",
        ".eigenfunction_residuals.0", ".eigenfunction_residuals.1",
        ".lambda", ".mode", ".nu", ".passed", ".residual_tol",
    }
    match = ("computed", "max_abs_err", "mult", "ok", "predicted")
    code, out, _ = run_cli(capsys, "oracle", "--mode", "group", "--l", "2", "--samples", "1")
    assert code == 0
    assert _key_paths(json.loads(out)) == {
        ".l", ".mode", ".passed", ".samples", ".runs", ".runs[].detail", ".runs[].matches",
        ".runs[].passed", *(f".runs[].matches[].{k}" for k in match),
    }


def test_spectrum_csv_has_full_precision(tmp_path, capsys):
    path = write_json(tmp_path, "data.json", sphere_doc(1.0, (), 2, 0))
    code, out, _ = run_cli(
        capsys, "spectrum", "--data", path, "--n-max", "1", "--format", "csv"
    )
    assert code == 0
    value_cells = [
        line.split(",")[2] for line in out.strip().splitlines()[1:]
    ]
    numeric = [float(c) for c in value_cells if c not in ("0", "0.0")]
    assert any(abs(abs(v) - 1.0 / math.pi) < 1e-16 for v in numeric)


def test_decompose_accepts_explicit_input(tmp_path, capsys):
    p = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ]
    path = write_json(tmp_path, "dec.json", {"n": 4, "p": p})
    code, out, _ = run_cli(capsys, "decompose", "--input", path, "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 4
    assert rep["frequencies"]
    for nu, mult in rep["frequencies"]:
        assert nu > 0 and mult >= 1
    assert rep["dim_k0"] >= 0 and rep["dim_m0"] >= 0
    code2, out2, _ = run_cli(capsys, "decompose", "--n", "5", "--seed", "1")
    assert code2 == 0


@pytest.mark.parametrize("n", [6, 8])
def test_decompose_input_at_unit_scale(tmp_path, capsys, n):
    p = [[(1.0 if i < 2 else -1.0) if i == j else 0.0 for j in range(n)] for i in range(n)]
    path = write_json(tmp_path, "dec.json", {"n": n, "ip_scale": 1.0, "p": p})
    code, out, err = run_cli(capsys, "decompose", "--input", path, "--seed", "4")
    assert code == 0, err
    assert json.loads(out)["frequencies"]


def test_decompose_input_with_a_rotated_involution(tmp_path, capsys):
    # P = Q diag(1^10, -1^10) Q^T for a random orthogonal Q: the split has
    # dim k = 2 * C(10, 2) and dim m = 100, and a generic xi in m has a
    # 10-dimensional kernel in m.
    q_mat, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 20)))
    p = q_mat @ np.diag([1.0] * 10 + [-1.0] * 10) @ q_mat.T
    path = write_json(tmp_path, "dec.json", {"n": 20, "p": (0.5 * (p + p.T)).tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path, "--seed", "0")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["dim_m0"] == 10
    assert sum(mult for _, mult in rep["frequencies"]) + rep["dim_m0"] == 100


# Frequencies shrink as 1 / sqrt(2 ip_scale).  A cluster tolerance absolute
# below 1 merged two distinct frequencies of these splits ("pairing failed");
# relative to the largest one, the blocks are the same at every ip_scale.
@pytest.mark.parametrize("n, ip_scale, seed", [(34, 0.5, "3"), (20, 1e4, "1"), (20, 1e4, "2")])
def test_decompose_keeps_close_frequencies_apart(tmp_path, capsys, n, ip_scale, seed):
    p = np.diag([1.0] * (n - n // 2) + [-1.0] * (n // 2)).tolist()
    reports = []
    for scale in (ip_scale, 1e-9):
        path = write_json(tmp_path, "dec.json", {"n": n, "ip_scale": scale, "p": p})
        code, out, err = run_cli(capsys, "decompose", "--input", path, "--seed", seed)
        assert code == 0, err
        reports.append(json.loads(out))
    got, ref = reports
    assert [m for _, m in got["frequencies"]] == [m for _, m in ref["frequencies"]]
    np.testing.assert_allclose([nu for nu, _ in got["frequencies"]],
                               [nu * math.sqrt(1e-9 / ip_scale) for nu, _ in ref["frequencies"]],
                               rtol=1e-9)
    assert (got["dim_k0"], got["dim_m0"]) == (ref["dim_k0"], ref["dim_m0"])


def test_decompose_refuses_an_involution_whose_square_overflows(tmp_path, capsys):
    p = np.diag([1.0, 1.0, -1.0, -1.0])
    p[0, 0] = 1e200
    path = write_json(tmp_path, "dec.json", {"n": 4, "p": p.tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 2 and out == ""
    assert err == "input error: involution matrix must square to the identity\n"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_decompose_refuses_an_involution_without_m(tmp_path, capsys, sign):
    # P = +-I fixes the whole algebra, so m = {0} holds no direction xi.
    path = write_json(tmp_path, "dec.json", {"n": 4, "p": (sign * np.eye(4)).tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "m is {0}" in err


def test_decompose_reports_a_tiny_xi_at_its_own_scale(tmp_path, capsys):
    # The squared norms of this xi are subnormal; the report's frequency and
    # xi_norm still read its norm.
    unit = np.zeros((5, 5))
    unit[0, 4], unit[1, 4], unit[2, 4] = 0.6, 0.0, 0.8  # norm 1 at ip_scale 0.5
    path = write_json(tmp_path, "dec.json", {"n": 5, "xi": (3e-160 * (unit - unit.T)).tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 0, err
    rep = json.loads(out)
    [(nu, mult)] = rep["frequencies"]
    assert mult == 3 and nu == pytest.approx(3e-160, rel=1e-14)
    assert rep["xi_norm"] == pytest.approx(3e-160, rel=1e-14)


def test_decompose_scales_frequencies_with_xi(tmp_path, capsys):
    # The squared norm of xi * 2**530 overflows and that of xi * 2**-540
    # underflows; both are pre-scaled by a power of two, so the frequencies
    # of the split so(5) pair scale by exactly 2**k.
    p = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
    xi = np.zeros((5, 5))
    xi[0, 3], xi[1, 4], xi[2, 3] = 0.9, -0.4, 0.3
    freqs = {}
    for k in (-540, 0, 530):
        doc = {"n": 5, "p": p.tolist(), "xi": np.ldexp(xi - xi.T, k).tolist()}
        path = write_json(tmp_path, "dec.json", doc)
        code, out, err = run_cli(capsys, "decompose", "--input", path)
        assert code == 0, err
        freqs[k] = json.loads(out)["frequencies"]
    assert len(freqs[0]) == 4
    for k in (-540, 530):
        assert [m for _, m in freqs[k]] == [m for _, m in freqs[0]]
        assert [nu for nu, _ in freqs[k]] == [math.ldexp(nu, k) for nu, _ in freqs[0]]


def test_decompose_takes_an_xi_whose_squared_norm_underflows(tmp_path, capsys):
    # Entries of 1e-170 square to 0.  The frequencies and xi_norm scale like
    # those of the same direction at 3e-160.
    unit = np.zeros((5, 5))
    unit[0, 4], unit[1, 4], unit[2, 4] = 0.6, 0.0, 0.8  # norm 1 at ip_scale 0.5
    reports = []
    for size in (3e-160, 1e-170):
        path = write_json(tmp_path, "dec.json", {"n": 5, "xi": (size * (unit - unit.T)).tolist()})
        code, out, err = run_cli(capsys, "decompose", "--input", path)
        assert code == 0, err
        reports.append(json.loads(out))
    (nu_ref, mult_ref), = reports[0]["frequencies"]
    (nu, mult), = reports[1]["frequencies"]
    assert mult == mult_ref == 3
    assert nu / 1e-170 == pytest.approx(nu_ref / 3e-160, rel=1e-14)
    assert reports[1]["xi_norm"] == pytest.approx(1e-170, rel=1e-14)


def test_decompose_refuses_an_xi_whose_norm_overflows(tmp_path, capsys):
    # Each coordinate is finite, but the norm itself (not only its square)
    # is beyond the float range: sqrt(5) * 8.9e307.
    xi = np.zeros((6, 6))
    xi[:5, 5] = 8.9e307
    path = write_json(tmp_path, "dec.json", {"n": 6, "xi": (xi - xi.T).tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "finite nonzero norm" in err
    assert len(err.strip().splitlines()) == 1


def test_decompose_reads_an_xi_entry_near_the_float_limit(tmp_path, capsys):
    # so(4) xi with entry (0, 3) = 1.5e308: its norm is finite, and its
    # coordinates are read without an overflow in between.
    xi = np.zeros((4, 4))
    xi[0, 3] = 1.5e308
    path = write_json(tmp_path, "dec.json", {"n": 4, "xi": (xi - xi.T).tolist()})
    code, out, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 0 and err == ""
    assert json.loads(out)["xi_norm"] == 1.5e308


@pytest.mark.parametrize("command, doc, field", [
    ("decompose", {"n": 3, "p": [[1, 0, 0], [0, 1], [0, 0, -1]]}, "p"),
    ("decompose", {"n": 3, "xi": [[0, 0, 1], [0, 0], [-1, 0, 0]]}, "xi"),
    ("weyl", {"roots": [[1, 0], [0]]}, "roots"),
])
def test_ragged_matrices_are_input_errors(tmp_path, capsys, command, doc, field):
    path = write_json(tmp_path, "doc.json", doc)
    flag = "--input" if command == "decompose" else "--roots-file"
    code, out, err = run_cli(capsys, command, flag, path)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and f"{field} has rows of unequal length" in err
    assert len(err.strip().splitlines()) == 1


def test_decompose_refuses_ip_scale_outside_its_range(tmp_path, capsys):
    from pfspectra.liecore import IP_SCALE_RANGE

    lo, hi = IP_SCALE_RANGE
    # so(2) has no frequency; on the other rank-one pairs nu = 1/sqrt(2 ip_scale).
    for n, scale in ((2, lo), (3, lo), (40, lo), (2, hi), (3, hi), (40, hi), (4, 1e-8), (4, 1e4)):
        path = write_json(tmp_path, "dec.json", {"n": n, "ip_scale": scale})
        code, out, err = run_cli(capsys, "decompose", "--input", path)
        assert code == 0, err
        want = [[pytest.approx(1.0 / math.sqrt(2.0 * scale), rel=1e-9), n - 2]] if n > 2 else []
        assert json.loads(out)["frequencies"] == want
    for scale in (1e-300, 1e-20, lo / 2.0, 2.0 * hi, 1e8, 1e300):
        path = write_json(tmp_path, "dec.json", {"n": 4, "ip_scale": scale})
        code, out, err = run_cli(capsys, "decompose", "--input", path)
        assert code == 2 and out == ""
        assert err.startswith("input error: ip_scale") and len(err.strip().splitlines()) == 1


def test_product_sphere_takes_a_normal_of_any_size(capsys):
    code, out, _ = run_cli(capsys, "product-sphere", "--normal", "1,-1", "--format", "table")
    assert code == 0
    assert run_cli(capsys, "product-sphere", "--normal=1e200,-1e200", "--format", "table") == (
        0, out, "")
    code, out, err = run_cli(capsys, "product-sphere", "--normal", "0,0")
    assert code == 2 and "normal direction is zero" in err


@pytest.mark.parametrize("argv", [
    ("--nu", "1.0", "--lambda", "0.5", "--cutoff", "100", "--m-max", "1", "--n-max", "1"),
    # extreme scales, which the secular solve takes to unit scale and back
    ("--nu", "1e-300"),
    ("--nu", "1", "--lambda=1e-320"),
    ("--n-max", "1000", "--nu", "1e-310"),
])
def test_oracle_mu_mode_quick(capsys, argv):
    code, out, _ = run_cli(capsys, "oracle", "--mode", "mu", *argv)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_mu_oracle_runs_without_scipy_sparse():
    # The mu oracle has one eigen-route, the secular equation of its block,
    # for the top of the spectrum (first run) and the whole of it (second).
    probe = """
import contextlib, io, sys
from pfspectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["oracle", "--mode", "mu", "--m-max", "40", "--n-max", "3"]),
             cli.main(["oracle", "--mode", "mu", "--cutoff", "50", "--m-max", "50"])]
print(codes, "scipy.sparse" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1] False\n"


def test_austere_exit_codes(tmp_path, capsys):
    sym = write_json(
        tmp_path, "sym.json", sphere_doc(1.0, [(0.5, 1), (-0.5, 1)], 2, 0)
    )
    asym = write_json(tmp_path, "asym.json", sphere_doc(1.0, [(0.5, 1)], 2, 0))
    code_sym, out_sym, _ = run_cli(capsys, "austere", "--data", sym)
    code_asym, out_asym, _ = run_cli(capsys, "austere", "--data", asym)
    assert code_sym == 0 and json.loads(out_sym)["austere"] is True
    assert code_asym == 1 and json.loads(out_asym)["austere"] is False


def test_trace_command(tmp_path, capsys):
    path = write_json(tmp_path, "t.json", sphere_doc(1.0, [(1.0, 1)], 2, 0))
    code, out, _ = run_cli(capsys, "trace", "--data", path, "--m-cut", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


# lambda = 1e300 as an ad-kernel eigenvalue, and as a mu family at nu = 1e300:
# (1e300)**1.1 overflows a float in either family's term.
OVERFLOWING_TRACE_DOCS = {
    "mult0": {"freq_mult": [], "mult0": [[1e300, 1]], "mult": [], "perp": [[0.0, 1]],
              "dim_m0": 2, "dim_k0": 0},
    "mult": {"freq_mult": [[1e300, 1]], "mult0": [], "mult": [[1e300, 1e300, 1]],
             "perp": [[0.0, 1]], "dim_m0": 1, "dim_k0": 0},
    # the r_trace partial sum overflows before the zeta probe does
    "mult_sum": {"freq_mult": [[1e308, 1]], "mult0": [], "mult": [[1e308, 1e308, 1]],
                 "perp": [[0.0, 1]], "dim_m0": 1, "dim_k0": 0},
}


@pytest.mark.parametrize("field", sorted(OVERFLOWING_TRACE_DOCS))
def test_trace_refuses_a_probe_that_overflows(tmp_path, capsys, field):
    path = write_json(tmp_path, "data.json", OVERFLOWING_TRACE_DOCS[field])
    code, out, err = run_cli(capsys, "trace", "--data", path)
    assert code == 2
    assert out == ""
    assert err == "input error: zeta trace probe s=1.1 overflows a float\n"


def test_transport_checks(capsys):
    code, out, _ = run_cli(capsys, "transport", "--check", "order")
    assert code == 0
    doc = json.loads(out)
    assert all(13.0 <= r <= 19.0 for r in doc["ratios"])
    code, out, _ = run_cli(
        capsys, "transport", "--check", "fiber", "--grid", "64", "--n", "3"
    )
    assert code == 0


def test_weyl_builtin_and_table(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--system", "B2", "--format", "table")
    assert code == 0
    assert "0,1" in out or "dim" in out
    code_json, out_json, _ = run_cli(capsys, "weyl", "--system", "G2")
    assert code_json == 0
    assert len(json.loads(out_json)["strata"]) == 4


def test_weyl_roots_file(tmp_path, capsys):
    path = write_json(tmp_path, "roots.json", {"roots": [[1.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run_cli(capsys, "weyl", "--roots-file", path)
    assert code == 0


@pytest.mark.parametrize("roots", [[[1e308, 0.0], [0.0, 1e308]], [[1e200, 0.0], [0.0, 1e-200]]])
def test_weyl_roots_at_extreme_scales(tmp_path, capsys, roots):
    # independence is judged on the root directions, so neither root length
    # overflows or underflows on the way to the report
    path = write_json(tmp_path, "roots.json", {"roots": roots})
    code, out, _ = run_cli(capsys, "weyl", "--roots-file", path)
    assert code == 0
    assert json.loads(out)["isolated_directions"] == [[1.0, 0.0], [0.0, 1.0]]


def test_weyl_refuses_a_dual_basis_beyond_the_float_range(tmp_path, capsys):
    # 1 / 5e-324 overflows; the refusal comes before any division by a norm,
    # so it is the only line (run_cli fails on any warning).
    path = write_json(tmp_path, "roots.json", {"roots": [[5e-324]]})
    code, out, err = run_cli(capsys, "weyl", "--roots-file", path)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "dual basis beyond the float range" in err
    assert len(err.strip().splitlines()) == 1


def test_weyl_report_names_the_roots_file_without_its_directory(tmp_path, capsys, monkeypatch):
    write_json(tmp_path, "b.json", {"roots": [[1.0, 0.0], [0.5, 2.0]]})
    monkeypatch.chdir(tmp_path)
    outs = [run_cli(capsys, "weyl", "--roots-file", spelling)[1]
            for spelling in ("b.json", "./b.json", str(tmp_path / "b.json"))]
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["system"] == "b.json"


def test_weyl_refuses_a_rank_above_the_limit(tmp_path, capsys):
    path = write_json(tmp_path, "roots.json", {"roots": np.eye(13).tolist()})
    code, out, err = run_cli(capsys, "weyl", "--roots-file", path)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "at most 12 simple roots" in err
    assert len(err.strip().splitlines()) == 1


def test_so9_command(capsys):
    code, out, _ = run_cli(capsys, "so9", "--grid", "8")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_product_sphere_exit_codes(capsys):
    code2, out2, _ = run_cli(
        capsys, "product-sphere", "--m", "2", "--n", "2", "--samples", "4"
    )
    assert code2 == 0
    code3, out3, _ = run_cli(
        capsys, "product-sphere", "--m", "3", "--n", "2", "--samples", "4"
    )
    assert code3 == 1
    code_n, out_n, _ = run_cli(
        capsys, "product-sphere", "--m", "2", "--n", "3", "--normal", "1,-1"
    )
    assert code_n == 0


def test_input_error_exit_code_and_diagnostics(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--data", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert "input error" in err
    bad = write_json(tmp_path, "bad.json", {"mult": []})
    code, out, err = run_cli(capsys, "spectrum", "--data", bad)
    assert code == 2
    assert "freq_mult" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("transport", "--check", "fiber", "--n", "2"), "needs --n >= 3"),
        (("transport", "--check", "order", "--n", "1"), "needs --n >= 2"),
        (("product-sphere", "--normal", "1,x"), "comma-separated finite numbers"),
        (("product-sphere", "--m", "0"), "need m >= 2"),
        (("product-sphere", "--m", "1"), "need m >= 2"),
        (("product-sphere", "--samples", "0"), "--samples must be at least 1"),
        (("oracle", "--mode", "group", "--samples", "0"), "--samples must be at least 1"),
        (("transport", "--check", "equivariance", "--samples", "0"),
         "--samples must be at least 1"),
        (("transport", "--check", "order", "--grid", "0"), "needs --grid >= 15"),
        (("spectrum", "--data", DATA, "--n-max", "100000000"), "enumeration window asks for"),
        (("austere", "--data", DATA, "--value-floor", "1e-9"), "value floor asks for"),
        (("so9", "--grid", "100000000"), "between 4 and 10000 samples"),
        (("trace", "--data", DATA, "--m-cut", "1000000000"), "trace sum asks for"),
        (("oracle", "--cutoff", "100000"), "cutoff must be between 1 and 1000"),
        (("oracle", "--m-max", "-1"), "m_max must be between 0 and 1000"),
        (("decompose", "--n", "41"), "so(n) needs 2 <= n <= 40"),
        (("transport", "--check", "equivariance", "--tol", "nan"),
         "--tol needs a positive finite number"),
        (("transport", "--check", "fiber", "--tol", "inf"), "--tol needs a positive finite number"),
        (("transport", "--check", "equivariance", "--tol", "-1"),
         "--tol needs a positive finite number"),
        (("oracle", "--nu", "nan"), "--nu needs a finite number"),
        (("oracle", "--nu", "inf"), "--nu needs a finite number"),
        (("oracle", "--lambda", "nan"), "--lambda needs a finite number"),
        (("oracle", "--tol-rel", "nan"), "--tol-rel needs a positive finite number"),
        (("oracle", "--tol-rel", "-1"), "--tol-rel needs a positive finite number"),
        (("oracle", "--residual-tol", "nan"), "--residual-tol needs a positive finite number"),
        (("trace", "--data", DATA, "--tol", "nan"), "--tol needs a positive finite number"),
        (("trace", "--data", DATA, "--probes", "nan"), "--probes needs a finite number"),
        (("transport", "--check", "equivariance", "--n", "3000"), "matrix size 1 <= n <= 40"),
        (("transport", "--check", "equivariance", "--grid", "10000000"), "path entries"),
        (("transport", "--check", "equivariance", "--samples", "100000000"), "path entries"),
        (("transport", "--check", "order", "--grid", "100000000"), "takes no --grid"),
        (("transport", "--check", "order", "--samples", "3"), "takes no --samples"),
        (("transport", "--check", "fiber", "--samples", "3"), "takes no --samples"),
        (("oracle", "--nu", "1e300"), "residuals']['-1'] is not a finite number"),
        (("oracle", "--cutoff", "1"), "[3]['computed'] is not a finite number"),
        (("oracle", "--nu", "5e-324"), "underflows to 0"),
        (("oracle", "--mode", "forms", "--grid", "100000000"), "a forms label path asks for"),
        (("oracle", "--mode", "forms", "--n-max", "100000000"), "the forms check asks for"),
        (("oracle", "--mode", "forms", "--grid", "-5"), "the forms check needs --grid >= 1"),
        (("oracle", "--mode", "group", "--samples", "100000000"), "the group oracle asks for"),
        (("product-sphere", "--m", "100000"), "the sphere-product check asks for"),
        (("product-sphere", "--n", "100000"), "the sphere-product check asks for"),
        (("product-sphere", "--samples", "100000000"), "the sphere-product check asks for"),
        (("oracle", "--mode", "forms", "--n-max", "-3"), "the forms check needs --n-max >= 0"),
        (("oracle", "--mode", "group", "--l", "1"), "oracle --mode group needs --l >= 2"),
        (("oracle", "--mode", "forms", "--l", "1"), "oracle --mode forms needs --l >= 2"),
        (("oracle", "--mode", "forms", "--l", "1000"), "oracle --mode forms needs --l <= 39"),
        (("oracle", "--mode", "group", "--l", "40", "--samples", "1"),
         "oracle --mode group needs --l <= 39"),
        (("transport", "--check", "order", "--tol", "1e-3"),
         "transport --check order takes no --tol"),
        (("oracle", "--mode", "mu", "--l", "7"), "oracle --mode mu takes no --l"),
        (("oracle", "--mode", "mu", "--seed", "3"), "oracle --mode mu takes no --seed"),
        (("oracle", "--mode", "group", "--nu", "-1"), "oracle --mode group takes no --nu"),
        (("oracle", "--mode", "group", "--lambda", "0.5"), "oracle --mode group takes no --lambda"),
        (("oracle", "--mode", "group", "--grid", "0"), "oracle --mode group takes no --grid"),
        (("oracle", "--mode", "forms", "--samples", "5"), "oracle --mode forms takes no --samples"),
        (("oracle", "--mode", "forms", "--tol-rel", "0.1"),
         "oracle --mode forms takes no --tol-rel"),
        (("decompose", "--seed", "-1"), "--seed needs a non-negative integer, got '-1'"),
        (("decompose", "--seed", "x"), "--seed needs a non-negative integer, got 'x'"),
        (("oracle", "--mode", "group", "--l", "3", "--seed", "-2"),
         "--seed needs a non-negative integer"),
        (("oracle", "--mode", "forms", "--seed", "-2"), "--seed needs a non-negative integer"),
        (("transport", "--check", "order", "--seed", "-3"), "--seed needs a non-negative integer"),
        (("transport", "--check", "equivariance", "--seed", "-3"),
         "--seed needs a non-negative integer"),
        (("transport", "--check", "fiber", "--seed", "-3"), "--seed needs a non-negative integer"),
        (("product-sphere", "--seed", "-5"), "--seed needs a non-negative integer"),
        (("trace", "--data", DATA, "--probes", "1.5", "1.5"),
         "trace probes s=1.5 and s=1.5 give the same s - 1"),
        # distinct probes, but s - 1 rounds to the same float above 2**53
        (("trace", "--data", DATA, "--probes", "9007199254740996", "9007199254740998"),
         "s=9007199254740996.0 and s=9007199254740998.0 give the same s - 1"),
        (("oracle", "--n-max", "1001"), "oracle --mode mu needs 0 <= --n-max <= 1000"),
        # pi * mu(nu, lambda, 0) overflows at 1e308, but r = nu / (pi * mu) is 1/4
        (("oracle", "--nu", "1e307", "--lambda", "1e307"),
         "residuals']['-1'] is not a finite number"),
        (("oracle", "--nu", "1e308", "--lambda", "1e308"),
         "residuals']['-1'] is not a finite number"),
        (("trace", "--data", DATA, "--probes", *(repr(1.001 + 1e-4 * k) for k in range(3000))),
         "trace takes at most 1000 probes, got 3000"),
        # -lambda behaves as its mirror +lambda (last case): both resonate
        (("oracle", "--lambda=-1e20"), "resonant index r = -1.0 (integer)"),
        (("oracle", "--nu", "5e-324", "--lambda", "1e10"), "arctan(nu/lambda) is not in (0, pi)"),
        (("oracle", "--lambda=1e20"), "resonant index r = -1.0 (integer)"),
        # a window wider than the block: the targets left over get no value
        (("oracle", "--cutoff", "1", "--m-max", "5"), "['computed'] is not a finite number"),
    ],
)
def test_degenerate_inputs_are_input_errors(tmp_path, capsys, argv, message):
    data = write_json(tmp_path, "data.json", sphere_doc(1.0, [(0.5, 1)], 2, 0))
    code, out, err = run_cli(capsys, *(data if a == DATA else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decompose", "--n", "x"), "argument --n: invalid int value: 'x'"),
        (("oracle", "--mode", "bogus"), "argument --mode: invalid choice: 'bogus'"),
        (("transport",), "the following arguments are required: --check"),
        (("oracle", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        (("oracle", "--lambda", "-1e308"), "argument --lambda: expected one argument"),
        (("nosuchcommand",), "argument command: invalid choice: 'nosuchcommand'"),
        ((), "the following arguments are required: command"),
    ],
)
def test_argparse_failures_are_one_line_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [("weyl", "--help"), ("--help",)])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("lam", ["1.7e308", "1"])
def test_mu_oracle_near_the_float_limit_prints_only_its_refusal(capsys, lam):
    # run_cli fails on any warning, and the suite turns warnings into errors
    code, out, err = run_cli(capsys, "oracle", "--nu", "1.7e308", "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--grid", "0"), "the forms check needs --grid >= 1"),
        (("--n-max", "-1"), "the forms check needs --n-max >= 0"),
        (("--grid", "100000"), "a forms label path asks for"),
    ],
)
def test_forms_refusals_come_before_the_geometry_is_built(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("the geometry was built")

    monkeypatch.setattr(oracle, "sphere_pair", never)
    monkeypatch.setattr(oracle, "_adapted_geometry", never)
    code, out, err = run_cli(capsys, "oracle", "--mode", "forms", "--l", "39", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


def test_forms_report_lists_labels_in_basis_order(capsys):
    # nu and lambda are seeded draws; the kinds, indices, perp flags and
    # modes are pinned.
    code, out, _ = run_cli(capsys, "oracle", "--mode", "forms", "--l", "3", "--grid", "64",
                           "--n-max", "1")
    assert code == 0
    got = [" ".join(p for p in row["label"].split() if not p.startswith(("nu=", "lam=")))
           for row in json.loads(out)["labels"]]
    assert got == [
        "k0_sin i=0 n=1", "m_cos i=0 perp n=1", "m_nu_const i=0", "k_nu_sin i=0 n=1",
        "m_nu_cos i=0 n=1", "k_nu_sin i=0 perp n=1", "m_nu_cos i=0 perp n=1",
    ]


def test_forms_check_without_labels_passes_with_zero_residual(capsys):
    # S^2 has no room for a tangent direction beside xi, and --n-max 0 asks
    # for no Fourier mode, so there is no label to check.
    code, out, _ = run_cli(capsys, "oracle", "--mode", "forms", "--l", "2", "--n-max", "0")
    assert code == 0
    report = json.loads(out)
    assert report["labels"] == [] and report["worst_residual"] == 0.0 and report["passed"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, token):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(sphere_doc(1.0, [(0.5, 1)], 2, 0)).replace("0.5", token, 1))
    code, out, err = run_cli(capsys, "austere", "--data", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and f"non-finite number {token}" in err
    assert len(err.strip().splitlines()) == 1


# A repeated frequency would be read once by the block-total check but twice
# by the assembly: three directions in a block whose m(nu) is 2.
REPEATED_FREQUENCY_DOCS = {
    "perp": {"freq_mult": [[1.0, 2]], "mult0": [], "mult": [[1.0, 0.5, 1]],
             "perp": [[0.0, 1], [1.0, 1], [1.0, 1]], "dim_m0": 1, "dim_k0": 0},
    "freq_mult": {"freq_mult": [[1.0, 3], [1.0, 2]], "mult0": [], "mult": [[1.0, 0.5, 1]],
                  "perp": [[0.0, 1], [1.0, 1]], "dim_m0": 1, "dim_k0": 0},
}


@pytest.mark.parametrize("field", sorted(REPEATED_FREQUENCY_DOCS))
def test_repeated_frequencies_are_input_errors(tmp_path, capsys, field):
    path = write_json(tmp_path, "data.json", REPEATED_FREQUENCY_DOCS[field])
    code, out, err = run_cli(capsys, "spectrum", "--data", path)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and f"{field} lists frequency nu=1 more than once" in err
    assert len(err.strip().splitlines()) == 1


def test_austere_does_not_expand_multiplicities(tmp_path, capsys):
    # 2e12 + 1 directions: expanding them into floats would exhaust memory.
    big = 10**12
    doc = {"freq_mult": [], "mult0": [[0.5, big], [-0.5, big]], "mult": [],
           "perp": [[0.0, 1]], "dim_m0": 2 * big + 1, "dim_k0": 0}
    path = write_json(tmp_path, "data.json", doc)
    code, out, err = run_cli(capsys, "austere", "--data", path)
    assert code == 0, err
    report = json.loads(out)
    assert report["austere"] and report["enumeration"] and report["group_multiset"]


def test_integers_too_large_for_a_float_are_input_errors(tmp_path, capsys):
    # A 401-digit integer passes the schema as a number but overflows float().
    path = tmp_path / "data.json"
    doc = sphere_doc(1.0, [(0.5, 1)], 2, 0)
    path.write_text(json.dumps(doc).replace("0.5", "1" + "0" * 400, 1))
    code, out, err = run_cli(capsys, "austere", "--data", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "integer of 401 digits is too large" in err
    assert len(err.strip().splitlines()) == 1


def test_readme_quick_start_runs(capsys):
    # The README's python example is executed as written, so it cannot go stale.
    blocks = re.findall(r"```python\n(.*?)```", (REPO_ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README quick start>", "exec"), {})
    assert "mu" in capsys.readouterr().out


def test_reports_are_deterministic(tmp_path, capsys):
    argv = ["oracle", "--mode", "group", "--samples", "3", "--seed", "5", "--l", "5"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
