"""Rational counting invariants, their integral refinements, and the
dictionary between the two sides of the transform.

Tables map (r, n, k) triples to exact rationals and carry a kind tag
("DT", "Omega", "GV") so the multicover conversions cannot be applied to
the wrong side silently.  The multicover sum and its Mobius inversion are

    DT(g) = sum_{m | gcd(g)} Omega(g/m) / m^2
    Omega(g) = sum_{m | gcd(g)} mu(m) DT(g/m) / m^2

with gcd taken componentwise and zero entries ignored (gcd(r, 0, k) =
gcd(r, k)), which matters because n = 0 classes are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import check_enumeration_size, require_int, require_rational
from .modular import ZSeriesResult

Triple = tuple[int, int, int]

KINDS = ("DT", "Omega", "GV")


@dataclass(frozen=True)
class InvariantTable:
    kind: str
    entries: dict[Triple, Fraction]
    note: str = ""

    def __init__(self, kind: str, entries, note: str = ""):
        if kind not in KINDS:
            raise ValueError(f"unknown table kind {kind!r}; choose from {KINDS}")
        normalized = {}
        for key, value in dict(entries).items():
            if not (type(key) is tuple and len(key) == 3
                    and type(key[0]) is type(key[1]) is type(key[2]) is int):
                r, n, k = (require_int(x, "table key entry") for x in key)
                key = (r, n, k)
            normalized[key] = (value if type(value) is Fraction
                               else require_rational(value, "table value"))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", normalized)
        object.__setattr__(self, "note", note)

    def value(self, gamma: Triple) -> Fraction:
        key = tuple(gamma)
        if key not in self.entries:
            raise KeyError(f"table has no entry for {key}")
        return self.entries[key]

    def support(self) -> list[Triple]:
        return sorted(self.entries)


def _gcd3(gamma: Triple) -> int:
    g = math.gcd(math.gcd(abs(gamma[0]), abs(gamma[1])), abs(gamma[2]))
    if g == 0:
        raise ValueError("invariants (0, 0, 0) have no multicover expansion")
    return g


def _divisors(n: int) -> list[int]:
    """Divisors of n in increasing order, by trial division up to isqrt(n)."""
    root = math.isqrt(n)
    check_enumeration_size(f"the trial divisors of the gcd {n}", root)
    small = [d for d in range(1, root + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        else:
            p += 1
    if n > 1:
        mu = -mu
    return mu


def _divisor_sum(table: InvariantTable, kind: str, gamma: Triple, weight) -> Fraction:
    """sum over m | gcd(gamma) of weight(m) / m^2 * table(gamma / m), summed
    on ints over a running common denominator.  Every table(gamma / m) is
    looked up, also where weight(m) = 0, so a support that is not closed
    under division raises KeyError whatever the weights."""
    if table.kind != kind:
        raise ValueError(f"expected a table of kind {kind!r}, got kind {table.kind!r}")
    r, n, k = gamma
    num, den = 0, 1
    for m in _divisors(_gcd3(gamma)):
        value = table.value((r // m, n // m, k // m))
        w = weight(m)
        if w:
            d = value.denominator * m * m
            common = math.lcm(den, d)
            num = num * (common // den) + w * value.numerator * (common // d)
            den = common
    return Fraction(num, den)


def dt_from_omega(omega: InvariantTable, gamma: Triple) -> Fraction:
    """Multicover sum over divisors of gcd(gamma)."""
    return _divisor_sum(omega, "Omega", gamma, lambda m: 1)


def omega_from_dt(dt: InvariantTable, gamma: Triple) -> Fraction:
    """Mobius inversion of the multicover sum; exact round trip."""
    return _divisor_sum(dt, "DT", gamma, _moebius)


def dt_table_from_omega(omega: InvariantTable) -> InvariantTable:
    """Convert a whole table; the support must be closed under division by
    common factors."""
    return InvariantTable("DT", {g: dt_from_omega(omega, g) for g in omega.support()},
                          note=omega.note)


def omega_table_from_dt(dt: InvariantTable) -> InvariantTable:
    return InvariantTable("Omega", {g: omega_from_dt(dt, g) for g in dt.support()},
                          note=dt.note)


def gv_from_z(zres: ZSeriesResult) -> InvariantTable:
    """Genus-zero counts read off a Z series, relative to its declared
    normalization: slot n sits at exponent n0_exponent + n.  Entries are
    keyed (r, n, 1), matching the identification of the counts with the
    k = 1 integral invariants.  All values must be integers."""
    series = zres.series
    if zres.n0_exponent is None:
        return InvariantTable("GV", {}, note="empty series")
    entries = {}
    start = zres.n0_exponent
    skip = start - series.offset
    if skip.denominator != 1 or not 0 <= skip <= series.order:
        raise ValueError(f"slot n = 0 at exponent {start} is not in the series window")
    for n, value in enumerate(series.coeffs[int(skip):]):
        if value.denominator != 1:
            raise ValueError(f"non-integer count {value} at slot n = {n}")
        entries[(zres.r, n, 1)] = value
    note = (f"read from Z with convention {zres.convention}, slot n = 0 at "
            f"exponent {start}, grading shift {zres.grading_shift}")
    return InvariantTable("GV", entries, note=note)


def fm_relabel(table: InvariantTable) -> InvariantTable:
    """Index bijection (r, n, k) -> (r, k, n) between the two sides of the
    transform; the fiberwise twist absorbing the k - r offset is already
    folded in.  Involutive."""
    entries = {(r, k, n): v for (r, n, k), v in table.entries.items()}
    note = "indices relabeled (r, n, k) -> (r, k, n); twist by the pullback " \
           "line bundle absorbs the k - r shift"
    return InvariantTable(table.kind, entries, note=note)
