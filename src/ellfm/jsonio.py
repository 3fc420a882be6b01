"""Serialization for the documented JSON schemas.

Rationals travel as strings: "p/q", or just "p" when integral.  Integer
fields stay native JSON integers.  Input is checked against the schema
before use: objects must be JSON objects, vectors JSON lists, and integer
fields JSON integers (never booleans, and floats are refused rather than
truncated); a violation, or a missing required field, is a ValueError naming
the field.
"""

from __future__ import annotations

from fractions import Fraction

from .base_geometry import BaseClass, BaseSurface, make_base
from .dt_invariants import InvariantTable
from .errors import require_int
from .stability import Dim1Chern, Dim2Chern, K3Invariants


def parse_frac(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():  # "1e999999999" would expand to a billion digits
            raise ValueError(f"rational {value!r:.40} must be p, p/q or a decimal, "
                             "without an exponent")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r:.40} has a zero denominator") from None
    raise ValueError(f"cannot parse rational from {value!r}")


def frac_str(value) -> str:
    return str(Fraction(value))  # "p/q", or "p" when integral


def json_object(data, label: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a JSON object, got {data!r:.40}")
    return data


def json_list(data, label: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{label} must be a JSON list, got {data!r:.40}")
    return data


def required_field(data: dict, key: str, label: str):
    """data[key]; a missing key is a ValueError naming the field and the object."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{label}: missing field {key!r}") from None


def int_field(data: dict, key: str, label: str) -> int:
    return require_int(required_field(data, key, label), f"field {key!r}")


def int_vector(values, label: str) -> tuple[int, ...]:
    return tuple(require_int(v, f"{label} entry") for v in json_list(values, label))


# -- base surfaces -------------------------------------------------------------

def base_to_json(B: BaseSurface) -> dict:
    return {
        "name": B.name,
        "gram": [list(row) for row in B.gram],
        "canonical": list(B.canonical.coords),
        "effective": [list(g.coords) for g in B.effective_generators],
    }


def base_from_json(data: dict) -> BaseSurface:
    label = "base"
    data = json_object(data, label)
    gram, effective = ([int_vector(row, key)
                        for row in json_list(required_field(data, key, label), key)]
                       for key in ("gram", "effective"))
    canonical = int_vector(required_field(data, "canonical", label), "canonical")
    return make_base(gram, canonical, effective, name=data.get("name", "custom"))


# -- Chern data -------------------------------------------------------------

def dim2_from_json(data: dict) -> Dim2Chern:
    label = "two-dimensional invariants"
    data = json_object(data, label)
    C = BaseClass(int_vector(required_field(data, "C", label), "C"))
    alpha = BaseClass(int_vector(data.get("alpha", [0] * len(C)), "alpha"))
    return Dim2Chern(C=C, alpha=alpha, k2=int_field(data, "k2", label),
                     n=int_field(data, "n", label))


def dim2_to_json(gamma: Dim2Chern) -> dict:
    return {"C": list(gamma.C.coords), "alpha": list(gamma.alpha.coords),
            "k2": gamma.k2, "n": gamma.n}


def dim1_from_json(data: dict) -> Dim1Chern:
    label = "one-dimensional invariants"
    data = json_object(data, label)
    return Dim1Chern(C=BaseClass(int_vector(required_field(data, "C", label), "C")),
                     m=int_field(data, "m", label), chi=int_field(data, "chi", label))


def dim1_to_json(gammahat: Dim1Chern) -> dict:
    return {"C": list(gammahat.C.coords), "m": gammahat.m, "chi": gammahat.chi}


def k3_from_json(data: dict) -> K3Invariants:
    label = "K3 invariants"
    data = json_object(data, label)
    return K3Invariants(*(int_field(data, key, label) for key in ("r", "m", "l", "n")))


def k3_to_json(v: K3Invariants) -> dict:
    return {"r": v.r, "m": v.m, "l": v.l, "n": v.n}


# -- invariant tables -----------------------------------------------------------

def table_to_json(table: InvariantTable) -> dict:
    return {
        "kind": table.kind,
        "entries": [
            {"r": r, "n": n, "k": k, "value": frac_str(v)}
            for (r, n, k), v in sorted(table.entries.items())
        ],
        **({"note": table.note} if table.note else {}),
    }


def table_from_json(data: dict) -> InvariantTable:
    data = json_object(data, "table")
    label = "table entry"
    rows = [json_object(e, label)
            for e in json_list(required_field(data, "entries", "table"), "entries")]
    entries = {}
    for e in rows:
        key = (int_field(e, "r", label), int_field(e, "n", label), int_field(e, "k", label))
        if key in entries:
            raise ValueError(f"table: duplicate entry for (r, n, k) = {key}")
        entries[key] = parse_frac(required_field(e, "value", label))
    kind, note = required_field(data, "kind", "table"), data.get("note", "")
    if not isinstance(note, str):
        raise ValueError(f"table: field 'note' must be a string, got {note!r:.40}")
    return InvariantTable(kind, entries, note=note)


# -- series -------------------------------------------------------------------

def series_to_json(series) -> dict:
    """Window and coefficients: exponent = offset + exp."""
    return {
        "offset": frac_str(series.offset),
        "order": series.order,
        "coeffs": [{"exp": i, "value": frac_str(c)}
                   for i, c in enumerate(series.coeffs)],
    }
