"""The relative Fourier-Mukai transform on numerical invariants.

The dual fibration is canonically identified with the original one over the
same base, so a single BaseSurface serves as the context for both sides.

Two levels are tracked.  The complex level is the map on Chern characters of
the transformed complex; composing the two directions gives minus the
identity.  The sheaf level applies the degree shift of the relevant WIT
convention (the transform of a one-dimensional sheaf of positive slope is a
sheaf in degree 0; the transform of a vertical two-dimensional sheaf sits in
degree 1, which negates the Chern character).  Composing the two directions
at sheaf level is the identity.

In coordinates, with chi = k - K_B.C/2:

    to X:     (C, m, chi)   |->  (C, k2 = 2 chi + K_B.C, n = m)
    to dual:  (C, k2, n)    |->  (C, m = n, chi)          [sheaf level]
                            |->  -(C, n, chi)             [complex level]
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_geometry import BaseClass, BaseSurface, pair_base, require_k3_pencil, zero_class
from .errors import InvariantViolation
from .stability import Dim1Chern, Dim2Chern, K3Invariants
from .weierstrass import CurveX, is_effective_curve_X


def phi_map(B: BaseSurface, gammahat: Dim1Chern) -> Dim2Chern:
    """Invariant map (C, m, chi) -> (C, chi + K_B.C/2, m), in doubled form
    k2 = 2 chi + K_B.C.  Bijective; see phi_inverse."""
    kc = pair_base(B, B.canonical, gammahat.C)
    gamma = Dim2Chern(C=gammahat.C, alpha=zero_class(B.rank),
                      k2=2 * gammahat.chi + kc, n=gammahat.m)
    gamma.validate(B)
    return gamma


def phi_inverse(B: BaseSurface, gamma: Dim2Chern) -> Dim1Chern:
    if not gamma.vertical():
        raise ValueError("inverse invariant map needs vertical input")
    kc = pair_base(B, B.canonical, gamma.C)
    if (gamma.k2 - kc) % 2 != 0:
        raise ValueError("parity violated: k2 - K_B.C must be even")
    return Dim1Chern(C=gamma.C, m=gamma.n, chi=(gamma.k2 - kc) // 2)


@dataclass(frozen=True)
class ToXResult:
    """Transform of one-dimensional invariants; WIT_0, so the sheaf-level
    reading equals the complex level."""

    complex_level: Dim2Chern
    sheaf_level: Dim2Chern


@dataclass(frozen=True)
class ToDualResult:
    """Transform of vertical two-dimensional invariants; WIT_1, so the sheaf
    level is the complex level negated.  image_effective records whether the
    image curve class sigma_*C + n f is effective (it must be whenever the
    input comes from an actual sheaf, forcing n >= 0)."""

    complex_level: Dim1Chern
    sheaf_level: Dim1Chern
    image_effective: bool


def fm_dim1_to_dim2(B: BaseSurface, gammahat: Dim1Chern) -> ToXResult:
    """Chern character of the transform of a one-dimensional sheaf:
    (0, p^*C, (chi + K_B.C/2) f, -m [point])."""
    gamma = phi_map(B, gammahat)
    return ToXResult(complex_level=gamma, sheaf_level=gamma)


def fm_dim2_to_dim1(B: BaseSurface, gamma: Dim2Chern) -> ToDualResult:
    """Chern character of the transform of a vertical two-dimensional sheaf:
    ch2 = -sigma_*C - n f, ch3 = (-k + K_B.C/2) [point] at complex level;
    the underlying degree-one sheaf has (C, m = n, chi = k - K_B.C/2)."""
    gamma.validate(B)
    if not gamma.vertical():
        raise ValueError("transform to the dual side needs vertical input")
    sheaf = phi_inverse(B, gamma)
    return ToDualResult(complex_level=-sheaf, sheaf_level=sheaf,
                        image_effective=is_effective_curve_X(CurveX(gamma.n, gamma.C, B)))


def roundtrip_check(B: BaseSurface, invariants) -> bool:
    """Composing the two directions negates the complex level and fixes the
    sheaf level.  Accepts either Dim1Chern or vertical Dim2Chern.

    The complex-level maps are phi_map (WIT_0) and -phi_inverse (WIT_1)."""
    if isinstance(invariants, Dim1Chern):
        there = fm_dim1_to_dim2(B, invariants).complex_level
        back = fm_dim2_to_dim1(B, there)
        return back.sheaf_level == invariants and back.complex_level == -invariants
    if isinstance(invariants, Dim2Chern):
        there = fm_dim2_to_dim1(B, invariants)
        return (phi_map(B, there.sheaf_level) == invariants
                and fm_dim1_to_dim2(B, there.complex_level).complex_level == -invariants)
    raise TypeError(f"unsupported invariant type {type(invariants).__name__}")


def pencil_invariants(B: BaseSurface, r: int, n: int, k: int) -> Dim2Chern:
    """Vertical invariants (r Xi, k2 = 2(k - r), n) of the transform of
    (r Xi, n, k) over a base with a K3 pencil; checked against the invariant
    map."""
    require_k3_pencil(B)
    if r < 1 or k < 1 or n < 0:
        raise ValueError("need r, k >= 1 and n >= 0")
    xi = BaseClass((0, 1))
    gamma = Dim2Chern(C=r * xi, alpha=zero_class(2), k2=2 * (k - r), n=n)
    via_phi = phi_map(B, Dim1Chern(C=r * xi, m=n, chi=k))
    if gamma != via_phi:
        raise InvariantViolation(f"pencil invariants {gamma} disagree with "
                                 f"invariant map {via_phi}")
    return gamma


def k3_view(B: BaseSurface, gamma: Dim2Chern) -> K3Invariants:
    """Read (r, m, l, n) off invariants supported on K3 fibers (C = r Xi,
    alpha = m Xi)."""
    require_k3_pencil(B)
    gamma.validate(B)
    c0, r = gamma.C.coords
    am, axi = gamma.alpha.coords
    if c0 != 0 or r < 1:
        raise ValueError("support class must be a positive multiple of the pencil fiber Xi")
    if am != 0:
        raise ValueError("ch2 must be a combination of Xi and f on the pencil")
    if gamma.k2 % 2 != 0:
        raise ValueError("k2 must be even for K3-fiber support")
    return K3Invariants(r=r, m=axi, l=gamma.k2 // 2, n=gamma.n)


def tensor_shift(B: BaseSurface, gamma: Dim2Chern) -> Dim2Chern:
    """Twist by the pullback of O_B(-C0): maps l to l - r on vertical
    invariants supported on K3 fibers, fixing m and n."""
    view = k3_view(B, gamma)
    if view.m != 0:
        raise ValueError("tensor shift is defined on vertical invariants (m = 0)")
    return Dim2Chern(C=gamma.C, alpha=gamma.alpha, k2=gamma.k2 - 2 * view.r, n=gamma.n)
