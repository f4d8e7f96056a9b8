"""Canonical JSON schemas, deterministic serialization, and CSV output.

The schema dictionaries below are the source of truth; the copies shipped
under /schemas are generated from them (a test keeps the two in sync).
All JSON output is sorted and newline-terminated so identical runs yield
byte-identical reports; CSV reals carry 17 significant digits for
bit-faithful round trips.
"""

from __future__ import annotations

import io
import json
import csv
import math

from .errors import FormatError

_NUM_INT_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "integer", "minimum": 0}],
    "minItems": 2,
    "maxItems": 2,
    "items": False,
}

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

SPECTRAL_DATA_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "pfspectra/spectral_data",
    "title": "Submanifold spectral data",
    "description": "Frequency and shape-eigenvalue multiplicities of a "
                   "curvature-adapted submanifold.",
    "type": "object",
    "required": ["freq_mult", "mult0", "mult", "perp", "dim_m0", "dim_k0"],
    "additionalProperties": False,
    "properties": {
        "freq_mult": {"type": "array", "items": _NUM_INT_PAIR},
        "mult0": {"type": "array", "items": _NUM_INT_PAIR},
        "mult": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "number"},
                    {"type": "number"},
                    {"type": "integer", "minimum": 0},
                ],
                "minItems": 3,
                "maxItems": 3,
                "items": False,
            },
        },
        "perp": {"type": "array", "items": _NUM_INT_PAIR},
        "dim_m0": {"type": "integer", "minimum": 0},
        "dim_k0": {"type": "integer", "minimum": 0},
    },
}

DECOMPOSE_INPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "pfspectra/decompose_input",
    "title": "Frequency decomposition input",
    "description": "Orthogonal algebra size with optional involution matrix "
                   "and normal direction; omitted fields fall back to the "
                   "last-axis reflection and a seeded random direction.",
    "type": "object",
    "required": ["n"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "ip_scale": {"type": "number", "exclusiveMinimum": 0},
        "p": _MATRIX,
        "xi": _MATRIX,
    },
}

WEYL_ROOTS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "pfspectra/weyl_roots",
    "title": "Fundamental root system",
    "description": "Square list of simple-root row vectors.",
    "type": "object",
    "required": ["roots"],
    "additionalProperties": False,
    "properties": {"roots": _MATRIX},
}

SCHEMAS = {
    "spectral_data": SPECTRAL_DATA_SCHEMA,
    "decompose_input": DECOMPOSE_INPUT_SCHEMA,
    "weyl_roots": WEYL_ROOTS_SCHEMA,
}


def validate_document(kind: str, document) -> None:
    """Validate a parsed JSON document against a named schema.

    Raises FormatError carrying the JSON path of the offending field.
    """
    if kind not in SCHEMAS:
        raise FormatError(f"unknown schema {kind!r} (have {sorted(SCHEMAS)})")
    import jsonschema

    validator = jsonschema.Draft202012Validator(SCHEMAS[kind])
    errors = sorted(validator.iter_errors(document), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise FormatError(f"{kind}: {first.json_path}: {first.message}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer of {len(text)} digits is too large for a float") from None
    return value


def load_document(path: str, kind: str):
    """Read a JSON file and validate it against a named schema.

    NaN, Infinity, float literals that overflow to infinity and integers
    too large for a float are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh, parse_float=_finite_float, parse_int=_float_sized_int,
                                 parse_constant=_finite_float)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    validate_document(kind, document)
    return document


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline end.

    A dataclass record is written as the JSON object of its fields.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=vars) + "\n"


def format_real(x: float) -> str:
    """Locale-free decimal with 17 significant digits."""
    return format(float(x), ".17g")


def csv_table(header, rows) -> str:
    """CSV text with reals rendered by format_real."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_real(v) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def text_table(header, rows) -> str:
    """Fixed-width table for terminal reading."""
    cells = [[str(h) for h in header]]
    for row in rows:
        cells.append([format_real(v) if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
