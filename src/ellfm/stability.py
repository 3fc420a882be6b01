"""Slope and Gieseker numerics for torsion sheaves on the threefold.

Conventions for a two-dimensional sheaf with ch1 = p^*C:

    ch2 = sigma_*(alpha) + (k2/2) f      (k2 doubled so arithmetic stays in ZZ)
    ch3 = -n * [point]

and for a one-dimensional sheaf on the dual:

    ch2 = sigma_*(C) + m f,   chi as recorded.

Slopes are computed twice wherever a closed form exists: once through the
intersection ring and once through the closed form, with exact agreement
enforced.  For omega = t*Theta - s*p^*K_B and effective nonzero C this is

    mu = [2(t-s) K_B.alpha + t k2] / [t (2s-t) |K_B.C|]
    nu = 2 chi / [t (2s-t) |K_B.C|]

The ring route runs on ints: with D the lcm of the denominators of t and s,
D omega is integral, and mu and nu have degree -1 and -2 in omega, so
mu = D mu(D omega) and nu = D^2 nu(D omega); the closed form stays on the
rational t and s.

The destabilizer bookkeeping (sets S and S', the function f_s, and the
threshold s1) and the K3-pencil quantities (discriminant delta, wall
bounds, Gamma compositions, t2, wall functions eta) follow the same
exact-rational discipline.  Each enumeration is generated directly
from its defining bounds (S and S' from the l-range of each sub-effective
class, Gamma by stars and bars, t2 over the set of parts of Gamma), and its
size is computed first and refused above errors.MAX_ENUMERATION.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .base_geometry import (
    BaseClass,
    BaseSurface,
    enumerate_subeffective,
    is_effective_base,
    pair_base,
    subeffective_combinations,
)
from .errors import (MAX_ENUMERATION, InvariantViolation, check_enumeration_size, require_int,
                     require_rational)
from .weierstrass import CurveX, mult_div_div, pair_div_curve, polarization, pullback

Rat = int | Fraction


@dataclass(frozen=True)
class Dim2Chern:
    """Numerical invariants (C, alpha, k2, n) of a two-dimensional sheaf."""

    C: BaseClass
    alpha: BaseClass
    k2: int
    n: int

    def __post_init__(self):
        require_int(self.k2, "k2")
        require_int(self.n, "n")

    def __neg__(self) -> "Dim2Chern":
        return Dim2Chern(-self.C, -self.alpha, -self.k2, -self.n)

    def vertical(self) -> bool:
        return self.alpha.is_zero()

    def validate(self, B: BaseSurface) -> None:
        if len(self.C) != B.rank or len(self.alpha) != B.rank:
            raise ValueError("class length does not match base rank")
        if self.vertical() and (self.k2 - pair_base(B, B.canonical, self.C)) % 2 != 0:
            raise ValueError("parity violated: k2 must be congruent to K_B.C mod 2 "
                             "for a vertical class")


@dataclass(frozen=True)
class Dim1Chern:
    """Numerical invariants (C, m, chi) of a one-dimensional sheaf."""

    C: BaseClass
    m: int
    chi: int

    def __post_init__(self):
        require_int(self.m, "m")
        require_int(self.chi, "chi")

    def __neg__(self) -> "Dim1Chern":
        return Dim1Chern(-self.C, -self.m, -self.chi)


@dataclass(frozen=True)
class KahlerParams:
    """Polarization omega = t*Theta - s*p^*K_B; valid for s > t > 0."""

    t: Fraction
    s: Fraction

    def __init__(self, t, s):
        t, s = require_rational(t, "t"), require_rational(s, "s")
        if not s > t > 0:
            raise ValueError(f"polarization needs s > t > 0, got t={t}, s={s}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class SElement:
    Cprime: BaseClass
    l: int
    m: int


@dataclass(frozen=True)
class K3Invariants:
    """Invariants (r, m, l, n) of a sheaf on a union of K3 fibers:
    ch1 = r D, ch2 = m Xi + l f, ch3 = -n [point]."""

    r: int
    m: int
    l: int
    n: int

    def __post_init__(self):
        for name in ("r", "m", "l", "n"):
            require_int(getattr(self, name), name)
        if self.r < 1:
            raise ValueError("K3 invariants need r >= 1")


# ---------------------------------------------------------------------------
# slopes


def _abs_kc(B: BaseSurface, C: BaseClass) -> int:
    """|K_B.C| for effective nonzero C (where K_B.C < 0 on a Fano base)."""
    return abs(pair_base(B, B.canonical, C))


def _require_effective_nonzero(B: BaseSurface, C: BaseClass) -> None:
    if C.is_zero():
        raise ValueError("support class C must be nonzero")
    if not is_effective_base(B, C):
        raise ValueError(f"support class {C.coords} is not effective on {B.name}")


def _integral_polarization(B: BaseSurface, gamma: Dim2Chern, omega: KahlerParams):
    """(D, D omega, (D omega)^2 . ch1) through the intersection ring, with D
    the lcm of the denominators of t and s, so that D omega is integral."""
    t, s = omega.t, omega.s
    D = math.lcm(t.denominator, s.denominator)
    w = polarization(B, t.numerator * (D // t.denominator), s.numerator * (D // s.denominator))
    return D, w, pair_div_curve(pullback(B, gamma.C), mult_div_div(w, w))


def slope_dim2(B: BaseSurface, gamma: Dim2Chern, omega: KahlerParams) -> Fraction:
    """mu = (omega . ch2) / (omega^2 . ch1 / 2), exact.

    Evaluated through the ring and through the closed form; the two must
    agree.
    """
    gamma.validate(B)
    _require_effective_nonzero(B, gamma.C)
    D, w, area = _integral_polarization(B, gamma, omega)
    ring = Fraction(D * pair_div_curve(w, CurveX(gamma.k2, 2 * gamma.alpha, B)), area)

    t, s = omega.t, omega.s
    ka = pair_base(B, B.canonical, gamma.alpha)
    closed = Fraction(2 * (t - s) * ka + t * gamma.k2,
                      t * (2 * s - t) * _abs_kc(B, gamma.C))
    if ring != closed:
        raise InvariantViolation(f"slope mismatch: ring {ring} vs closed form {closed}")
    return ring


def nu_dim2(B: BaseSurface, gamma: Dim2Chern, omega: KahlerParams,
            chi: Rat | None = None) -> Fraction:
    """nu = chi / (omega^2 . ch1 / 2); chi defaults to chi_dim2."""
    gamma.validate(B)
    _require_effective_nonzero(B, gamma.C)
    chi = chi_dim2(B, gamma) if chi is None else require_rational(chi, "chi")
    D, _, area = _integral_polarization(B, gamma, omega)
    return Fraction(2 * D * D * chi, area)


def chi_dim2(B: BaseSurface, gamma: Dim2Chern) -> int:
    """Euler characteristic -n + c1(B).C.

    Derived convention: Riemann-Roch with the standard Weierstrass second
    Chern class, for which c2(X).p^*C = 12 c1(B).C.  Comparison results that
    take chi as input are independent of this choice.
    """
    return -gamma.n - pair_base(B, B.canonical, gamma.C)


# ---------------------------------------------------------------------------
# destabilizer sets and the threshold s1


def _checked_context_chi2(B: BaseSurface, C: BaseClass, k2: int, n: int) -> int:
    """2 chi = k2 - K_B.C of a context (C, k, n) with integers k2 and n,
    C effective nonzero, chi >= 1 and n >= 0; twice chi, so that the bounds
    stay integral."""
    require_int(k2, "k2")
    require_int(n, "n")
    _require_effective_nonzero(B, C)
    chi2 = k2 - pair_base(B, B.canonical, C)
    if chi2 < 2:
        raise ValueError(f"context requires chi >= 1, got chi = {Fraction(chi2, 2)}")
    if n < 0:
        raise ValueError("context requires n >= 0")
    return chi2


def _destabilizers(B: BaseSurface, C: BaseClass, k2: int, n: int, slack: int,
                   label: str) -> list[SElement]:
    """Elements (C', l, m) with C' and C - C' effective, 0 <= m <= n and
    0 <= l <= floor((|K_B.C'| chi - slack) / |K_B.C|), in lexicographic
    order.  The size, (n + 1) times the sum of the l-range lengths, is
    checked against the cap before any element is built."""
    chi2 = _checked_context_chi2(B, C, k2, n)
    kc2 = 2 * _abs_kc(B, C)  # |K_B.C| >= 1 on a Fano base
    bounds = [(Cp, (_abs_kc(B, Cp) * chi2 - 2 * slack) // kc2)
              for Cp in enumerate_subeffective(B, C)]
    check_enumeration_size(f"{label}(C = {C.coords}, k2 = {k2}, n = {n})",
                           (n + 1) * sum(lmax + 1 for _, lmax in bounds))
    return [SElement(Cp, l, m) for Cp, lmax in bounds
            for l in range(lmax + 1) for m in range(n + 1)]


def enumerate_S(B: BaseSurface, C: BaseClass, k2: int, n: int) -> list[SElement]:
    """The finite set S(C, k, n) of candidate destabilizer invariants.

    Elements (C', l, m) with C' and C - C' effective, l >= 0,
    |K_B.C| l - |K_B.C'| chi <= 0 and 0 <= m <= n, where
    chi = k - K_B.C/2 >= 1.
    """
    return _destabilizers(B, C, k2, n, 0, "S")


def enumerate_Sprime(B: BaseSurface, C: BaseClass, k2: int, n: int) -> list[SElement]:
    """The subset of S(C, k, n) with |K_B.C| l - |K_B.C'| chi <= -1,
    generated directly from the bound l <= floor((|K_B.C'| chi - 1) / |K_B.C|)."""
    return _destabilizers(B, C, k2, n, 1, "S'")


def f_s_value(B: BaseSurface, s: Rat, e: SElement, C: BaseClass, k2: int, n: int) -> Fraction:
    """f_s(C', l, m) = (s-1)(|K_B.C| l - |K_B.C'| chi) + (n l - m chi).

    Membership of e in S' is decided by the defining inequalities, without
    enumerating S: the cone checks on C, C' and C - C' are three integer
    matrix-vector products.
    """
    s = require_rational(s, "s")
    chi2 = _checked_context_chi2(B, C, k2, n)
    require_int(e.l, "l")
    require_int(e.m, "m")
    member = (e.l >= 0 and 0 <= e.m <= n
              and is_effective_base(B, e.Cprime) and is_effective_base(B, C - e.Cprime))
    d1x2 = 2 * _abs_kc(B, C) * e.l - _abs_kc(B, e.Cprime) * chi2  # 2 d1
    if not member or d1x2 > -2:
        raise ValueError(f"element {e} is not in S'(C, k, n)")
    return ((s - 1) * d1x2 + (2 * n * e.l - e.m * chi2)) / 2


def compute_s1(B: BaseSurface, C: BaseClass, k2: int, n: int) -> Fraction:
    """Threshold s1 >= 1 with f_s < 0 on all of S' for every s > s1.

    Returned as an exact infimum; callers must take s strictly larger.
    Equals 1 when S' is empty or every element has n l - m chi <= 0.

    f_s < 0 on S' means s > 1 + d2 / (-d1) with d1 = |K_B.C| l - |K_B.C'| chi
    <= -1 and d2 = n l - m chi.  For fixed C' that ratio is largest at
    m = 0 and at the largest l of S', where d2 is largest and -d1 smallest,
    so one term per sub-effective class C' suffices.  In terms of 2 chi
    that term is 2 n l / (|K_B.C'| 2chi - 2 |K_B.C| l); the maximum is kept
    as an integer pair and compared by cross-multiplication.
    """
    chi2 = _checked_context_chi2(B, C, k2, n)
    kc2 = 2 * _abs_kc(B, C)
    weights = [_abs_kc(B, g) for g in B.effective_generators]  # |K_B.C'| is linear
    num, den = 0, 1
    for combo in subeffective_combinations(B, C):
        kcp_chi2 = sum(c * w for c, w in zip(combo, weights)) * chi2
        l = (kcp_chi2 - 2) // kc2
        if l >= 0 and 2 * n * l * den > num * (kcp_chi2 - kc2 * l):
            num, den = 2 * n * l, kcp_chi2 - kc2 * l
    return 1 + Fraction(num, den)


# ---------------------------------------------------------------------------
# K3-pencil discriminants, walls, thresholds


def delta_discriminant(v: K3Invariants) -> Fraction:
    """delta = n - m(m - l)/r."""
    return Fraction(v.n) - Fraction(v.m * (v.m - v.l), v.r)


def wall_bound_ts(r: int, delta: Rat) -> Fraction:
    """Lower bound 2 / (1 + r^3 delta) on t/s at a wall for rank r and
    discriminant delta."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    delta = require_rational(delta, "delta")
    if delta < 0:
        raise ValueError("wall bound needs delta >= 0")
    return Fraction(2) / (1 + r ** 3 * delta)


def _compositions(total: int, parts: int):
    """Compositions of total into the given number of positive parts, in
    lexicographic order: stars and bars, one cut set per composition."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in itertools.pairwise((0, *cuts, total)))


def _check_gamma_args(n: int, r: int) -> None:
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")


def enumerate_Gamma(n: int, r: int) -> list[tuple[tuple[int, int], ...]]:
    """Ordered decompositions ((n_1, r_1), ..., (n_j, r_j)) with r_i >= 1,
    n_i >= 0, sum r_i = r, sum n_i = n, 1 <= j <= r.

    Built from the compositions of r (parts >= 1) and of n (parts >= 0,
    those of n + j shifted down by one), ordered by j, then by the r-tuple,
    then by the n-tuple, each lexicographically.  Their number,
    sum_j C(r - 1, j - 1) C(n + j - 1, j - 1), is checked against the cap
    first; the sum stops once it passes the cap, so a huge r costs only a
    few terms.
    """
    _check_gamma_args(n, r)
    size = 0
    for j in range(1, r + 1):
        size += math.comb(r - 1, j - 1) * math.comb(n + j - 1, j - 1)
        if size > MAX_ENUMERATION:
            break
    check_enumeration_size(f"Gamma(n = {n}, r = {r})", size, exact=j == r)
    out = []
    for j in range(1, r + 1):
        ns = [tuple(p - 1 for p in c) for c in _compositions(n + j, j)]
        for rtuple in _compositions(r, j):
            out += [tuple(zip(ntuple, rtuple)) for ntuple in ns]
    return out


def gamma_parts(n: int, r: int) -> set[tuple[int, int]]:
    """The parts (n_i, r_i) occurring in the elements of Gamma(n, r):
    (n, r) itself (j = 1) and every (n_i, r_i) with 1 <= r_i < r and
    0 <= n_i <= n (j >= 2, the other parts absorbing the rest).  Their
    number, (r - 1)(n + 1) + 1, is checked against the cap first."""
    _check_gamma_args(n, r)
    check_enumeration_size(f"the part set of Gamma(n = {n}, r = {r})", (r - 1) * (n + 1) + 1)
    return {(n, r)} | {(ni, ri) for ri in range(1, r) for ni in range(n + 1)}


def compute_t2(r: int, n: int, s: Rat) -> Fraction:
    """Largest t with t/s < 2/(1 + r_i^3 n_i) for every part of every
    element of Gamma(n, r).

    Computed by enumerating the part set of Gamma(n, r) (``gamma_parts``),
    where the bound is smallest at the part with the largest r_i^3 n_i, and
    checked against the closed form 2s/(1 + r^3 n); the minimizing part is
    (n, r) itself.
    """
    s = require_rational(s, "s")
    if s <= 0:
        raise ValueError("need s > 0")
    bound = Fraction(2, 1 + max(ri ** 3 * ni for ni, ri in gamma_parts(n, r)))
    t2 = s * bound
    closed = Fraction(2) * s / (1 + r ** 3 * n)
    if t2 != closed:
        raise InvariantViolation(f"t2 enumeration {t2} disagrees with closed form {closed}")
    return t2


@dataclass(frozen=True)
class EtaWall:
    """The linear wall function eta(t'') = intercept + coeff * t'' attached
    to candidate invariants gamma'."""

    coeff: Fraction
    intercept: Fraction

    @property
    def identically_zero(self) -> bool:
        return self.coeff == 0 and self.intercept == 0

    @property
    def root(self) -> Fraction | None:
        if self.coeff == 0:
            return None
        return -self.intercept / self.coeff


def eta_wall(gamma_prime: K3Invariants, gamma: K3Invariants, s: Rat) -> EtaWall:
    """eta(t'') = (2m'/r') s - ((2m'-l')/r' + l/r) t''.

    Its root is the polarization parameter where the slopes of gamma' and
    gamma cross.
    """
    s = require_rational(s, "s")
    intercept = Fraction(2 * gamma_prime.m, gamma_prime.r) * s
    coeff = -(Fraction(2 * gamma_prime.m - gamma_prime.l, gamma_prime.r)
              + Fraction(gamma.l, gamma.r))
    return EtaWall(coeff=coeff, intercept=intercept)


def delta_additivity_deficit(g1: K3Invariants, g2: K3Invariants) -> Fraction:
    """delta(E) - delta(E_1) - delta(E_2) for an extension with the given
    invariants; computed both from the discriminants and from the closed
    form (r1 m2 - r2 m1)[(r1 m2 - r2 m1) - (r1 l2 - r2 l1)] / (r1 r2 (r1+r2))."""
    total = K3Invariants(g1.r + g2.r, g1.m + g2.m, g1.l + g2.l, g1.n + g2.n)
    direct = (delta_discriminant(total) - delta_discriminant(g1)
              - delta_discriminant(g2))
    a = g1.r * g2.m - g2.r * g1.m
    b = g1.r * g2.l - g2.r * g1.l
    closed = Fraction(a * (a - b), g1.r * g2.r * (g1.r + g2.r))
    if direct != closed:
        raise InvariantViolation(f"additivity deficit mismatch: {direct} vs {closed}")
    return direct
