"""Rational counting invariants, their integral refinements, and the
dictionary between the two sides of the transform.

Tables map (r, n, k) triples to exact rationals and carry a kind tag
("DT", "Omega", "GV") so the multicover conversions cannot be applied to
the wrong side silently.  The multicover sum and its Mobius inversion are

    DT(g) = sum_{m | gcd(g)} Omega(g/m) / m^2
    Omega(g) = sum_{m | gcd(g)} mu(m) DT(g/m) / m^2

with gcd taken componentwise and zero entries ignored (gcd(r, 0, k) =
gcd(r, k)), which matters because n = 0 classes are allowed.  Both are
applied to whole tables only, in one pass over the sorted support that
computes the divisors of each distinct gcd and the Mobius function of each
divisor once.
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


def _convert(table: InvariantTable, kind: str, out_kind: str, mobius: bool) -> InvariantTable:
    """The table of sum over m | gcd(gamma) of w(m) / m^2 * table(gamma / m)
    for every gamma in the support, w = mu if mobius else 1, in one pass over
    the sorted support.  Each sum runs on ints over a running common
    denominator and gives one Fraction; the divisors of each gcd and mu of
    each divisor are computed once per call.  Every table(gamma / m) is
    looked up, also where w(m) = 0, so a support that is not closed under
    division raises KeyError whatever the weights."""
    if table.kind != kind:
        raise ValueError(f"expected a table of kind {kind!r}, got kind {table.kind!r}")
    parts = {key: (v.numerator, v.denominator) for key, v in table.entries.items()}
    mu: dict[int, int] = {}
    terms: dict[int, list[tuple[int, int, int]]] = {}  # gcd -> (m, m^2, w(m)) for m > 1
    out = {}
    for gamma in sorted(parts):
        r, n, k = gamma
        g = _gcd3(gamma)
        if g not in terms:
            divisors = _divisors(g)[1:]
            if mobius:
                for m in divisors:
                    if m not in mu:
                        mu[m] = _moebius(m)
            terms[g] = [(m, m * m, mu[m] if mobius else 1) for m in divisors]
        num, den = parts[gamma]  # the term m = 1, w(1) = 1
        for m, m2, w in terms[g]:
            key = (r // m, n // m, k // m)
            part = parts.get(key)
            if part is None:
                table.value(key)  # raises the KeyError naming the missing entry
            if w:
                d = part[1] * m2
                common = math.lcm(den, d)
                num = num * (common // den) + w * part[0] * (common // d)
                den = common
        out[gamma] = Fraction(num, den)
    return InvariantTable(out_kind, out, note=table.note)


def dt_table_from_omega(omega: InvariantTable) -> InvariantTable:
    """DT(g) = sum_{m | gcd(g)} Omega(g/m) / m^2 over a whole table; the
    support must be closed under division by common factors."""
    return _convert(omega, "Omega", "DT", mobius=False)


def omega_table_from_dt(dt: InvariantTable) -> InvariantTable:
    """Omega(g) = sum_{m | gcd(g)} mu(m) DT(g/m) / m^2, the Mobius inversion
    of dt_table_from_omega; exact round trip."""
    return _convert(dt, "DT", "Omega", mobius=True)


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
