"""Serialization for the documented JSON schemas.

Rationals travel as strings: "p/q", or just "p" when integral.  Integer
fields stay native JSON integers.  Input is checked against the schema
before use: objects must be JSON objects, vectors JSON lists, and integer
fields JSON integers (never booleans, and floats are refused rather than
truncated); a violation is a ValueError naming the field.
"""

from __future__ import annotations

from fractions import Fraction

from .base_geometry import BaseClass
from .stability import Dim1Chern, Dim2Chern, K3Invariants
from .weierstrass import CurveX, DivisorX


def parse_frac(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ValueError(f"cannot parse rational from {value!r}")


def frac_str(value) -> str:
    return str(Fraction(value))  # "p/q", or "p" when integral


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_object(data, label: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a JSON object, got {data!r:.40}")
    return data


def json_list(data, label: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{label} must be a JSON list, got {data!r:.40}")
    return data


def int_field(data: dict, key: str) -> int:
    value = data[key]
    if not _is_int(value):
        raise ValueError(f"field {key!r} must be a JSON integer, got {value!r:.40}")
    return value


def int_vector(values, label: str) -> tuple[int, ...]:
    if not all(map(_is_int, json_list(values, label))):
        raise ValueError(f"{label} must be a vector of integers")
    return tuple(values)


def _rat_vector(values, label: str) -> tuple[Fraction, ...]:
    return tuple(parse_frac(v) for v in json_list(values, label))


# -- Chern data -------------------------------------------------------------

def dim2_from_json(data: dict) -> Dim2Chern:
    data = json_object(data, "two-dimensional invariants")
    C = BaseClass(int_vector(data["C"], "C"))
    alpha = BaseClass(int_vector(data.get("alpha", [0] * len(C)), "alpha"))
    return Dim2Chern(C=C, alpha=alpha, k2=int_field(data, "k2"), n=int_field(data, "n"))


def dim2_to_json(gamma: Dim2Chern) -> dict:
    return {"C": list(gamma.C.coords), "alpha": list(gamma.alpha.coords),
            "k2": gamma.k2, "n": gamma.n}


def dim1_from_json(data: dict) -> Dim1Chern:
    data = json_object(data, "one-dimensional invariants")
    return Dim1Chern(C=BaseClass(int_vector(data["C"], "C")),
                     m=int_field(data, "m"), chi=int_field(data, "chi"))


def dim1_to_json(gammahat: Dim1Chern) -> dict:
    return {"C": list(gammahat.C.coords), "m": gammahat.m, "chi": gammahat.chi}


def k3_from_json(data: dict) -> K3Invariants:
    data = json_object(data, "K3 invariants")
    return K3Invariants(r=int_field(data, "r"), m=int_field(data, "m"),
                        l=int_field(data, "l"), n=int_field(data, "n"))


def k3_to_json(v: K3Invariants) -> dict:
    return {"r": v.r, "m": v.m, "l": v.l, "n": v.n}


# -- classes on the threefold ------------------------------------------------

def divisor_from_json(data: dict, B) -> DivisorX:
    data = json_object(data, "divisor")
    return DivisorX(theta=parse_frac(data["theta"]),
                    pullback=BaseClass(_rat_vector(data["pullback"], "pullback")), over=B)


def divisor_to_json(D: DivisorX) -> dict:
    return {"theta": frac_str(D.theta),
            "pullback": [frac_str(c) for c in D.pullback.coords]}


def curve_from_json(data: dict, B) -> CurveX:
    data = json_object(data, "curve")
    return CurveX(fiber=parse_frac(data["fiber"]),
                  section_push=BaseClass(_rat_vector(data["section"], "section")), over=B)


def curve_to_json(S: CurveX) -> dict:
    return {"fiber": frac_str(S.fiber),
            "section": [frac_str(c) for c in S.section_push.coords]}


# -- series -------------------------------------------------------------------

def series_to_json(series) -> dict:
    """Window and coefficients: exponent = offset + exp."""
    return {
        "offset": frac_str(series.offset),
        "order": series.order,
        "coeffs": [{"exp": i, "value": frac_str(c)}
                   for i, c in enumerate(series.coeffs)],
    }
