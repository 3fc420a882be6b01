"""Intersection ring of a smooth Weierstrass model X -> B (and its dual).

Divisor classes are written t*Theta + p^*eta with Theta the canonical
section and p^*eta pulled back from the base; curve classes are a*f +
sigma_*C with f the elliptic fiber.  Coefficients are integers, so the ring
is evaluated on ints; a rational polarization is rescaled to an integral
one by its caller (stability.slope_dim2).  The whole ring is encoded by the
relations

    Theta . f = 1,            Theta . sigma_*C = K_B . C,
    p^*eta . f = 0,           p^*eta . sigma_*C = eta . C,
    Theta^2 = sigma_*(K_B),   Theta . p^*eta = sigma_*(eta),
    p^*eta . p^*eta' = (eta . eta') f.

The quadratic relation Theta^2 = sigma_*(K_B) is adjunction along the
section; it is the single place this constant enters, and the slope
closed-form reproduction in the test suite pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_geometry import (BaseClass, BaseSurface, basis_class, int_det, is_effective_base,
                            pair_base, require_k3_pencil, zero_class)
from .errors import InvariantViolation, require_int


@dataclass(frozen=True)
class DivisorX:
    """theta*Theta + p^*(pullback) on X, with integer theta."""

    theta: int
    pullback: BaseClass
    over: BaseSurface

    def __post_init__(self):
        require_int(self.theta, "theta coefficient")
        if len(self.pullback) != self.over.rank:
            raise ValueError("pullback class length does not match base rank")

    def __add__(self, other: "DivisorX") -> "DivisorX":
        _same_base(self, other)
        return DivisorX(self.theta + other.theta, self.pullback + other.pullback, self.over)

    def __neg__(self) -> "DivisorX":
        return DivisorX(-self.theta, -self.pullback, self.over)

    def __sub__(self, other: "DivisorX") -> "DivisorX":
        return self + (-other)

    def __rmul__(self, c: int) -> "DivisorX":
        return DivisorX(c * self.theta, c * self.pullback, self.over)


@dataclass(frozen=True)
class CurveX:
    """fiber*f + sigma_*(section_push) on X, with integer fiber."""

    fiber: int
    section_push: BaseClass
    over: BaseSurface

    def __post_init__(self):
        require_int(self.fiber, "fiber coefficient")
        if len(self.section_push) != self.over.rank:
            raise ValueError("section class length does not match base rank")

    def __add__(self, other: "CurveX") -> "CurveX":
        _same_base(self, other)
        return CurveX(self.fiber + other.fiber, self.section_push + other.section_push, self.over)

    def __neg__(self) -> "CurveX":
        return CurveX(-self.fiber, -self.section_push, self.over)

    def __rmul__(self, c: int) -> "CurveX":
        return CurveX(c * self.fiber, c * self.section_push, self.over)


def _same_base(a, b):
    if a.over != b.over:
        raise ValueError("classes live over different bases")


def theta(B: BaseSurface) -> DivisorX:
    return DivisorX(1, zero_class(B.rank), B)


def pullback(B: BaseSurface, eta: BaseClass) -> DivisorX:
    return DivisorX(0, eta, B)


def fiber(B: BaseSurface) -> CurveX:
    return CurveX(1, zero_class(B.rank), B)


def section_push(B: BaseSurface, C: BaseClass) -> CurveX:
    return CurveX(0, C, B)


def polarization(B: BaseSurface, t: int, s: int) -> DivisorX:
    """omega = t*Theta - s*p^*K_B, for integers t and s."""
    return DivisorX(t, (-s) * B.canonical, B)


def mult_div_div(D1: DivisorX, D2: DivisorX) -> CurveX:
    """Product of two divisor classes, as a curve class."""
    _same_base(D1, D2)
    B = D1.over
    t1, e1 = D1.theta, D1.pullback
    t2, e2 = D2.theta, D2.pullback
    section = (t1 * t2) * B.canonical + t1 * e2 + t2 * e1
    return CurveX(pair_base(B, e1, e2), section, B)


def pair_div_curve(D: DivisorX, S: CurveX) -> int:
    """Intersection number of a divisor with a curve class."""
    _same_base(D, S)
    B = D.over
    return (D.theta * S.fiber
            + D.theta * pair_base(B, B.canonical, S.section_push)
            + pair_base(B, D.pullback, S.section_push))


def triple(D1: DivisorX, D2: DivisorX, D3: DivisorX) -> int:
    return pair_div_curve(D3, mult_div_div(D1, D2))


def intersection_matrix_X(B: BaseSurface) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Pairing matrix between {Theta, p^*C_i} and {f, sigma_*C_j}.

    Returns (matrix, determinant) and checks |det| = 1.
    """
    divisors = [theta(B)] + [pullback(B, basis_class(B, i)) for i in range(B.rank)]
    curves = [fiber(B)] + [section_push(B, basis_class(B, j)) for j in range(B.rank)]
    matrix = tuple(tuple(pair_div_curve(D, S) for S in curves) for D in divisors)
    det = int_det(matrix)
    if abs(det) != 1:
        raise InvariantViolation(f"|det(I_X)| = {abs(det)} != 1 for base {B.name}")
    return matrix, det


def is_effective_curve_X(S: CurveX) -> bool:
    """Effectivity criterion: base part effective and fiber coefficient >= 0."""
    return S.fiber >= 0 and is_effective_base(S.over, S.section_push)


def k3_pencil_relations(B: BaseSurface) -> list[dict]:
    """Verify the intersection relations of the K3 fiber divisor D = p^*Xi.

    Needs a base whose basis is (C0, Xi) for a K3 pencil (see
    has_k3_pencil).  Returns one record per relation with the computed
    value; raises InvariantViolation on mismatch.
    """
    require_k3_pencil(B)
    xi = basis_class(B, 1)
    c0 = basis_class(B, 0)
    D = pullback(B, xi)
    D0 = pullback(B, c0)
    f = fiber(B)
    checks = [
        ("D0.D", mult_div_div(D0, D), f),
        ("D.D", mult_div_div(D, D), CurveX(0, zero_class(B.rank), B)),
        ("Theta.D", mult_div_div(theta(B), D), section_push(B, xi)),
        ("C0.D", pair_div_curve(D, section_push(B, c0)), 1),
        ("Xi.D", pair_div_curve(D, section_push(B, xi)), 0),
        ("f.D", pair_div_curve(D, f), 0),
    ]
    out = []
    for label, got, want in checks:
        if got != want:
            raise InvariantViolation(f"pencil relation {label} failed on {B.name}: "
                                     f"{got!r} != {want!r}")
        if isinstance(got, CurveX):
            rendered = {"fiber": got.fiber, "section": list(got.section_push.coords)}
        else:
            rendered = got
        out.append({"relation": label, "value": rendered})
    return out
