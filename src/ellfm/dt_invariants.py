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
            r, n, k = (int(x) for x in key)
            normalized[(r, n, k)] = Fraction(value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", normalized)
        object.__setattr__(self, "note", note)

    def value(self, gamma: Triple) -> Fraction:
        key = tuple(int(x) for x in gamma)
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
    return [d for d in range(1, n + 1) if n % d == 0]


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
    """sum over m | gcd(gamma) of weight(m) / m^2 * table(gamma / m)."""
    if table.kind != kind:
        raise ValueError(f"expected a table of kind {kind!r}, got kind {table.kind!r}")
    r, n, k = gamma
    total = Fraction(0)
    for m in _divisors(_gcd3(gamma)):
        total += Fraction(weight(m), m * m) * table.value((r // m, n // m, k // m))
    return total


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
    for n in range(int(series.last_exponent) - start + 1):
        value = series.coefficient(start + n)
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


def check_k_invariance(table: InvariantTable) -> bool:
    """Whether the recorded values depend on k at all for fixed (r, n).
    Exposed as a predicate; the invariance is conjectural and never assumed."""
    seen: dict[tuple[int, int], Fraction] = {}
    for (r, n, k), v in table.entries.items():
        key = (r, n)
        if key in seen and seen[key] != v:
            return False
        seen.setdefault(key, v)
    return True


def table_to_json(table: InvariantTable) -> dict:
    from .jsonio import frac_str

    return {
        "kind": table.kind,
        "entries": [
            {"r": r, "n": n, "k": k, "value": frac_str(v)}
            for (r, n, k), v in sorted(table.entries.items())
        ],
        **({"note": table.note} if table.note else {}),
    }


def table_from_json(data: dict) -> InvariantTable:
    from .jsonio import int_field, json_list, json_object, parse_frac

    data = json_object(data, "table")
    rows = [json_object(e, "table entry") for e in json_list(data["entries"], "entries")]
    entries = {(int_field(e, "r"), int_field(e, "n"), int_field(e, "k")): parse_frac(e["value"])
               for e in rows}
    return InvariantTable(data["kind"], entries, note=data.get("note", ""))
