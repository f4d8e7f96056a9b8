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


_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema's types: a bool is not a number, and 1.0 is an integer.
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}


def _schema_errors(schema: dict, value, path: str):
    """Yield (json_path, message) for each keyword of ``schema`` that
    ``value`` breaks, keyword by keyword in the schema's order and depth
    first, with jsonschema's paths and wording.  A keyword outside the few
    the schemas above use raises, so a schema edit cannot pass unchecked."""
    is_array, is_object = isinstance(value, list), isinstance(value, dict)
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "minimum":
            if _is_number(value) and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum":
            if _is_number(value) and value <= rule:
                yield path, f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif key == "required":
            for name in rule if is_object else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            if rule is not False:
                raise NotImplementedError(f"additionalProperties {rule!r}")
            known = schema.get("properties", {})
            extras = sorted(value.keys() - known, key=str) if is_object else ()
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "properties":
            for name, sub in rule.items() if is_object else ():
                if name in value:
                    yield from _schema_errors(sub, value[name], f"{path}.{name}")
        elif key == "prefixItems":
            for i, (item, sub) in enumerate(zip(value if is_array else (), rule)):
                yield from _schema_errors(sub, item, f"{path}[{i}]")
        elif key == "items":
            prefix = len(schema.get("prefixItems", ()))
            rest = value[prefix:] if is_array else []
            if rest and rule is False:
                shown = rest if len(rest) != 1 else rest[0]
                noun = "items" if prefix != 1 else "item"
                yield path, (f"Expected at most {prefix} {noun} but found {len(rest)} "
                             f"extra: {shown!r}")
            elif rest:
                for i, item in enumerate(rest, prefix):
                    yield from _schema_errors(rule, item, f"{path}[{i}]")
        elif key == "minItems":
            if is_array and len(value) < rule:
                yield path, f"{value!r} {'is too short' if rule != 1 else 'should be non-empty'}"
        elif key == "maxItems":
            if is_array and len(value) > rule:
                yield path, f"{value!r} {'is too long' if rule != 0 else 'is expected to be empty'}"
        else:
            raise NotImplementedError(f"schema keyword {key!r} is not implemented")


def validate_document(kind: str, document) -> None:
    """Validate a parsed JSON document against a named schema.

    Raises FormatError with the first error by JSON path, as JSON Schema
    (draft 2020-12) words it: ``kind: $.path: message``.
    """
    if kind not in SCHEMAS:
        raise FormatError(f"unknown schema {kind!r} (have {sorted(SCHEMAS)})")
    first = min(_schema_errors(SCHEMAS[kind], document, "$"), key=lambda e: e[0], default=None)
    if first:
        raise FormatError(f"{kind}: {first[0]}: {first[1]}")


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
