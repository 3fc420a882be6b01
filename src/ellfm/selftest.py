"""The acceptance criteria, as one registry.

Each criterion has a number, a description, a time budget and a body.  The
body runs a fixed, seeded sweep in exact arithmetic (tolerance zero),
returns a one-line detail, and raises InvariantViolation when a check
fails.  ``ellfm selftest`` and the acceptance tests both run this registry.
The lower threshold t1 is not constructive; the criteria exercise its
computable substitutes s1, t2 and the wall bounds.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import base_geometry as bg
from . import dt_invariants as dt
from . import fourier_mukai as fm
from . import modular
from . import qseries as qs
from . import stability as st
from . import weierstrass as wx
from .errors import InvariantViolation


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    description: str
    budget: float
    body: Callable[[], str]

    @property
    def label(self) -> str:
        return f"criterion {self.number}: {self.description}"

    def run(self) -> str:
        """Run the body within its budget and return the report line.
        Raises when a check fails or the budget is spent."""
        start = time.perf_counter()
        detail = self.body()
        elapsed = time.perf_counter() - start
        if elapsed >= self.budget:
            raise InvariantViolation(f"took {elapsed:.2f}s, over the budget of {self.budget}s")
        return f"{self.label} ({detail}; {elapsed:.2f}s, budget {self.budget}s)"


CRITERIA: list[Criterion] = []


def criterion(number: int, description: str, budget: float):
    """Register the decorated body as acceptance criterion ``number``."""
    def register(body: Callable[[], str]) -> Callable[[], str]:
        CRITERIA.append(Criterion(number, body.__name__, description, budget, body))
        return body
    return register


def check(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def _random_effective(B, rng, top=4):
    while True:
        coeffs = [rng.randint(0, top) for _ in B.effective_generators]
        if any(coeffs):
            cls = bg.zero_class(B.rank)
            for c, g in zip(coeffs, B.effective_generators):
                cls = cls + c * g
            return cls


def contexts(B):
    """The destabilizer contexts of criteria 4 and 5: all (C, k2, n, chi)
    with C effective nonzero, |K_B.C| <= 6, 1 <= chi <= 4 and 0 <= n <= 4."""
    for C in bg.enumerate_subeffective(B, 6 * B.minus_canonical):
        kc = bg.pair_base(B, B.canonical, C)
        if C.is_zero() or -kc > 6:
            continue
        for chi in range(1, 5):
            for n in range(0, 5):
                yield C, 2 * chi + kc, n, chi


@criterion(1, "lattice unimodularity |det(I_X)| = 1", 1.0)
def lattice_unimodularity() -> str:
    for name in bg.preset_names():
        B = bg.make_base(name)
        _, det = wx.intersection_matrix_X(B)
        check(abs(det) == 1, f"|det(I_X)| = {abs(det)} on {name}")
        if bg.has_k3_pencil(B):
            wx.k3_pencil_relations(B)  # raises on a failed relation
    return "P2, F0, F1; pencil relations on F0, F1"


@criterion(2, "slope ring route equals closed form exactly", 5.0)
def slope_reproduction() -> str:
    rng = random.Random(2024)
    total = 0
    for name in bg.preset_names():
        B = bg.make_base(name)
        K = B.canonical
        for _ in range(1000):
            C = _random_effective(B, rng)
            alpha = bg.zero_class(B.rank)
            if rng.random() >= 0.5:
                alpha = bg.BaseClass(tuple(rng.randint(-5, 5) for _ in range(B.rank)))
            if alpha.is_zero():
                k2 = 2 * rng.randint(-8, 8) + bg.pair_base(B, K, C)
            else:
                k2 = rng.randint(-16, 16)
            gamma = st.Dim2Chern(C, alpha, k2, rng.randint(-5, 5))
            t = Fraction(rng.randint(1, 20), rng.randint(1, 10))
            s = t + Fraction(rng.randint(1, 20), rng.randint(1, 10))
            # slope_dim2 computes the ring route and the closed form and
            # raises unless they agree exactly
            st.slope_dim2(B, gamma, st.KahlerParams(t, s))
            total += 1
    return f"{total} random (gamma, omega) pairs"


@criterion(3, "transform round trip: complex -Id, sheaf Id", 1.0)
def fm_round_trip() -> str:
    rng = random.Random(3)
    total = 0
    for name in bg.preset_names():
        B = bg.make_base(name)
        for _ in range(500):
            gh = st.Dim1Chern(bg.BaseClass(tuple(rng.randint(-8, 8) for _ in range(B.rank))),
                              rng.randint(-8, 8), rng.randint(-8, 8))
            check(fm.roundtrip_check(B, gh), f"round trip failed on {name} at {gh}")
            gamma = fm.phi_map(B, gh)
            check(fm.roundtrip_check(B, gamma), f"round trip failed on {name} at {gamma}")
            total += 2
    return f"{total} invariant vectors"


@criterion(4, "S-set bounds 0 <= l <= chi and |nl - m chi| <= n chi", 10.0)
def s_set_bounds() -> str:
    total = 0
    for name in ("F1", "P2"):
        B = bg.make_base(name)
        for C, k2, n, chi in contexts(B):
            for e in st.enumerate_S(B, C, k2, n):
                check(0 <= e.l <= chi and abs(n * e.l - e.m * chi) <= n * chi,
                      f"bound violated at {e} on {name}, C = {C.coords}, chi = {chi}, n = {n}")
            total += 1
    return f"{total} contexts"


@criterion(5, "s1 soundness: f_s < 0 on all of S'", 5.0)
def s1_soundness() -> str:
    total = 0
    for name in ("F1", "P2"):
        B = bg.make_base(name)
        for C, k2, n, _ in contexts(B):
            s1 = st.compute_s1(B, C, k2, n)
            for e in st.enumerate_Sprime(B, C, k2, n):
                check(st.f_s_value(B, s1 + 1, e, C, k2, n) < 0,
                      f"f_s >= 0 at s1 + 1 for {e} on {name}, C = {C.coords}")
            total += 1
    return f"{total} contexts at s = s1 + 1"


@criterion(6, "t2 enumeration over Gamma(n, r) equals 2s/(1 + r^3 n)", 5.0)
def t2_closed_form() -> str:
    total = 0
    for r in range(1, 5):
        for n in range(0, 7):
            parts = {part for element in st.enumerate_Gamma(n, r) for part in element}
            for s in (Fraction(2), Fraction(3), Fraction(7, 2)):
                by_enumeration = s * min(Fraction(2, 1 + ri ** 3 * ni) for (ni, ri) in parts)
                check(by_enumeration == Fraction(2) * s / (1 + r ** 3 * n),
                      f"t2 enumeration disagrees with 2s/(1 + r^3 n) at {(r, n, s)}")
                # compute_t2 takes the minimum over gamma_parts(n, r), the
                # part set without Gamma itself, and raises on any mismatch
                # with the closed form
                check(st.compute_t2(r, n, s) == by_enumeration,
                      f"compute_t2 disagrees with the enumeration at {(r, n, s)}")
                total += 1
    return f"{total} (r, n, s) triples"


def brute_force_eta24(order: int) -> list[int]:
    """Coefficients of q^(1 + i), i < order, in q prod (1 - q^n)^24, expanded
    term by term: an oracle independent of the sigma_1 recurrence."""
    coeffs = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(24):
            for i in range(order - 1, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def brute_force_inv_eta24(order: int) -> list[int]:
    """Coefficients of q^(-1 + i), i <= order + 1, in q^-1 prod (1 - q^n)^-24,
    by geometric-series passes: an oracle independent of the sigma_1
    recurrence."""
    coeffs = [1] + [0] * (order + 1)
    for n in range(1, order + 2):
        for _ in range(24):
            for i in range(n, order + 2):
                coeffs[i] += coeffs[i - n]
    return coeffs


def trial_division_sigma(power: int, n: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


@criterion(7, "series oracles against brute-force expansions", 30.0)
def series_oracles() -> str:
    order = 500
    e = modular.eta24(order)
    check([e.coefficient(1 + i) for i in range(order)] == brute_force_eta24(order),
          "eta^24 disagrees with the product expansion")
    inv = modular.inv_eta24(order)
    check([inv.coefficient(-1 + i) for i in range(order + 2)] == brute_force_inv_eta24(order),
          "eta^-24 disagrees with the product expansion")

    product = modular.eisenstein(4, 200) * modular.eisenstein(6, 200)
    check(product.coeffs == modular.eisenstein(10, 200).coeffs, "E4 * E6 != E10")

    table = modular.sigma_table(9, 500)
    for n in range(1, 501):
        check(table[n] == trial_division_sigma(9, n), f"sigma_9({n}) wrong")
    return "eta^24, eta^-24 to order 500; E10 = E4*E6 to 200; sigma_9 to 500"


@criterion(8, "sieve partition sum_k f_{r,k} = f", 5.0)
def sieve_partition() -> str:
    rng = random.Random(8)
    total = 0
    for _ in range(100):
        f = qs.QSeries(rng.randint(-6, 6), [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                            for _ in range(30)])
        for r in range(1, 13):
            acc = qs.sieve(f, r, 0)
            for k in range(1, r):
                acc = acc + qs.sieve(f, r, k)
            check(acc.offset == f.offset and acc.coeffs == f.coeffs,
                  f"sieves mod {r} do not add up to {f!r}")
            total += 1
    return f"{total} (series, modulus) pairs"


@criterion(9, "Z series consistency in both Delta conventions", 30.0)
def z_consistency() -> str:
    for convention, delta_inverse in (("cusp", modular.inv_eta24), ("paper", modular.eta24)):
        direct = (delta_inverse(104) * modular.eisenstein(10, 104)).scale(-2)
        for k in (1, 2):
            z = modular.z_series(1, k, 100, convention)
            check(qs.agree_through(z.series, direct, 100),
                  f"Z_(1,{k}) disagrees with the direct product ({convention})")
    for r in (1, 2, 3):
        for convention in ("cusp", "paper"):
            z = modular.z_series(r, 1, 60, convention)
            check(z.series.integral_coefficients(),
                  f"Z_({r},1) has non-integral coefficients ({convention})")
    return "rank one vs direct product to order 100; integrality to r = 3"


@criterion(10, "multicover sum and Mobius inversion are mutual inverses", 1.0)
def multicover_round_trip() -> str:
    rng = random.Random(10)
    total = 0
    for g in range(1, 13):
        for _ in range(10):
            raw = (rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4))
            d = math.gcd(math.gcd(raw[0], raw[1]), raw[2])
            base = tuple(x // d for x in raw)
            support = {tuple(x * m for x in base) for m in range(1, g + 1)}
            omega = dt.InvariantTable("Omega", {
                gamma: Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                for gamma in support
            })
            check(dt.omega_table_from_dt(dt.dt_table_from_omega(omega)).entries
                  == omega.entries, f"Omega -> DT -> Omega failed along {base}")
            dtab = dt.InvariantTable("DT", dict(omega.entries))
            check(dt.dt_table_from_omega(dt.omega_table_from_dt(dtab)).entries
                  == dtab.entries, f"DT -> Omega -> DT failed along {base}")
            total += 1
    return f"{total} tables with gcd up to 12"


@criterion(11, "wall bounds decrease in r and delta; additivity deficit >= 0", 5.0)
def wall_bounds() -> str:
    grid = [Fraction(j, 4) for j in range(0, 29)]
    for r in range(1, 7):
        for d1, d2 in itertools.pairwise(grid):
            check(st.wall_bound_ts(r, d2) < st.wall_bound_ts(r, d1),
                  f"wall bound not decreasing in delta at r = {r}, delta = {d2}")
    for delta in grid[1:]:
        for r in range(1, 6):
            check(st.wall_bound_ts(r + 1, delta) < st.wall_bound_ts(r, delta),
                  f"wall bound not decreasing in r at r = {r}, delta = {delta}")

    rng = random.Random(11)
    total = 0
    while total < 500:
        # slope equality on the pencil fiber forces b = 2a(1 - s/t),
        # so a and b have opposite signs for s > t
        a = rng.choice([x for x in range(-6, 7) if x != 0])
        b = -rng.randint(1, 9) if a > 0 else rng.randint(1, 9)
        r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
        m1, l1 = rng.randint(-4, 4), rng.randint(-4, 4)
        if (a + r2 * m1) % r1 or (b + r2 * l1) % r1:
            continue
        m2 = (a + r2 * m1) // r1
        l2 = (b + r2 * l1) // r1
        g1 = st.K3Invariants(r1, m1, l1, rng.randint(0, 5))
        g2 = st.K3Invariants(r2, m2, l2, rng.randint(0, 5))
        # raises on a mismatch with the closed form
        deficit = st.delta_additivity_deficit(g1, g2)
        check(deficit >= 0, f"negative additivity deficit for {g1}, {g2}")
        total += 1
    return f"grid of wall bounds; {total} constrained additivity samples"
