"""Document schemas, serialization helpers, and the command-line surface."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfspectra import FormatError, SubmanifoldSpectralData
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


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sphere_doc(nu=1.0, lam_mults=(), codim=3, dim_k0=3):
    data = SubmanifoldSpectralData.sphere_like(nu, list(lam_mults), codim, dim_k0)
    return data.to_json()


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
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_spectrum_group_mode(tmp_path, capsys):
    path = write_json(tmp_path, "data.json", sphere_doc(1.0, [(0.5, 1)], 2, 2))
    code, out, _ = run_cli(capsys, "spectrum", "--data", path, "--group")
    assert code == 0
    doc = json.loads(out)
    values = [e[0] for e in doc["spectrum"]["entries"]]
    plus = (0.5 + math.sqrt(0.25 + 1.0)) / 2.0
    assert any(abs(v - plus) < 1e-12 for v in values)
    assert any(v == 0.0 for v in values)


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


def test_oracle_mu_mode_quick(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "--mode", "mu", "--nu", "1.0", "--lambda", "0.5",
        "--cutoff", "100", "--m-max", "1", "--n-max", "1",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


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
    ],
)
def test_degenerate_inputs_are_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_reports_are_deterministic(tmp_path, capsys):
    argv = ["oracle", "--mode", "group", "--samples", "3", "--seed", "5", "--l", "5"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
