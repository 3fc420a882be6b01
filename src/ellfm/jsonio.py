"""Serialization for the documented JSON schemas.

Rationals travel as strings: "p/q", or just "p" when integral.  Integer
fields stay native JSON integers.
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


def _int_vector(values, label: str) -> tuple[int, ...]:
    out = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{label} must be a vector of integers")
        out.append(v)
    return tuple(out)


def _rat_vector(values) -> tuple[Fraction, ...]:
    return tuple(parse_frac(v) for v in values)


# -- Chern data -------------------------------------------------------------

def dim2_from_json(data: dict) -> Dim2Chern:
    C = BaseClass(_int_vector(data["C"], "C"))
    alpha = BaseClass(_int_vector(data.get("alpha", [0] * len(C)), "alpha"))
    return Dim2Chern(C=C, alpha=alpha, k2=int(data["k2"]), n=int(data["n"]))


def dim2_to_json(gamma: Dim2Chern) -> dict:
    return {"C": list(gamma.C.coords), "alpha": list(gamma.alpha.coords),
            "k2": gamma.k2, "n": gamma.n}


def dim1_from_json(data: dict) -> Dim1Chern:
    return Dim1Chern(C=BaseClass(_int_vector(data["C"], "C")),
                     m=int(data["m"]), chi=int(data["chi"]))


def dim1_to_json(gammahat: Dim1Chern) -> dict:
    return {"C": list(gammahat.C.coords), "m": gammahat.m, "chi": gammahat.chi}


def k3_from_json(data: dict) -> K3Invariants:
    return K3Invariants(r=int(data["r"]), m=int(data["m"]),
                        l=int(data["l"]), n=int(data["n"]))


def k3_to_json(v: K3Invariants) -> dict:
    return {"r": v.r, "m": v.m, "l": v.l, "n": v.n}


# -- classes on the threefold ------------------------------------------------

def divisor_from_json(data: dict, B) -> DivisorX:
    return DivisorX(theta=parse_frac(data["theta"]),
                    pullback=BaseClass(_rat_vector(data["pullback"])), over=B)


def divisor_to_json(D: DivisorX) -> dict:
    return {"theta": frac_str(D.theta),
            "pullback": [frac_str(c) for c in D.pullback.coords]}


def curve_from_json(data: dict, B) -> CurveX:
    return CurveX(fiber=parse_frac(data["fiber"]),
                  section_push=BaseClass(_rat_vector(data["section"])), over=B)


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
