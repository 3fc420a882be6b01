"""Eta products, Eisenstein series, and the sheaf-counting series Z_{r,k}.

The generating series for rank-r counts on an elliptic K3 pencil is defined
by arithmetic-progression sieves of 1/Delta and E_10 in a variable u, q = u^r:

    Z_{r,k}(q) = -2 * sum_{l=0}^{r-1} (1/Delta(u))_{r, l-1} * (E_10(u))_{r, 1-l}

The residue pairs (l - 1, 1 - l) run over all pairs summing to 0 mod r, so
Z_{r,k} = -2 U_r(E_10/Delta), i.e. Z_r[q^n] = Z_1[q^(rn)]: that is how it is
computed, on Python ints; the sieve formula is the definition and the test
oracle.  The right-hand side does not involve k; the label is kept because
the counts it packages are conjecturally independent of that index.

Two conventions for Delta are supported and recorded in every result:

* ``cusp``  - Delta = eta^24 (the standard cusp form), so 1/Delta has a
  simple pole; the sieve acts on all exponents including the polar one,
  otherwise the leading coefficient would be silently dropped;
* ``paper`` - the reciprocal normalization Delta = 1/eta^24, kept for
  comparison with references that state the formula that way.

The raw series lives on an integer exponent grid, while the counts are
graded by q^(n - r/2); the monomial matching the two is reported (lowest
nonzero coefficient = slot n = 0), never silently applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import InvariantViolation
from .qseries import QSeries, _convolve, _inverse, _power

DELTA_CONVENTIONS = ("cusp", "paper")

# Largest u-order r * (order + 1) + 2 that z_series accepts (about 2 s of work)
MAX_U_ORDER = 2000

# 1 - 2k/B_k for the supported weights: B_4 = -1/30, B_6 = 1/42, B_10 = 5/66
_EISENSTEIN_CONST = {4: 240, 6: -504, 10: -264}


def _eta24_body(order: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^24 for exponents 0..order, as the
    8th power of Jacobi's prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^(k(k+1)/2)."""
    cube = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return _power(cube, 8, order)


def eta24(order: int) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24 on the window [1, order]."""
    if order < 1:
        raise ValueError("need order >= 1")
    return QSeries(1, _eta24_body(order - 1))


def inv_eta24(order: int) -> QSeries:
    """q^-1 * prod (1 - q^n)^-24 on the window [-1, order]."""
    if order < -1:
        raise ValueError("need order >= -1")
    return eta24(order + 2).inverse()


def sigma_table(power: int, upto: int) -> list[int]:
    """Divisor power sums sigma_power(n) for n = 0..upto (slot 0 unused)."""
    sums = [0] * (upto + 1)
    for d in range(1, upto + 1):
        dp = d ** power
        for multiple in range(d, upto + 1, d):
            sums[multiple] += dp
    return sums


def _eisenstein_body(k: int, order: int) -> list[int]:
    sums = sigma_table(k - 1, order)
    return [1] + [_EISENSTEIN_CONST[k] * sums[n] for n in range(1, order + 1)]


def _e10(order: int) -> list[int]:
    """E_10 through q^order, checked against E_4 * E_6 (weight 10 is one-dimensional)."""
    e10 = _eisenstein_body(10, order)
    if _convolve(_eisenstein_body(4, order), _eisenstein_body(6, order), order) != e10:
        raise InvariantViolation("E_10 disagrees with E_4 * E_6")
    return e10


def eisenstein(k: int, order: int) -> QSeries:
    """Normalized Eisenstein series of weight k in {4, 6, 10}:
    1 + const * sum sigma_{k-1}(n) q^n; E_10 is checked against E_4 * E_6."""
    if k not in _EISENSTEIN_CONST:
        raise ValueError(f"unsupported Eisenstein weight {k}; supported: "
                         f"{sorted(_EISENSTEIN_CONST)}")
    if order < 0:
        raise ValueError("need order >= 0")
    return QSeries(0, _e10(order) if k == 10 else _eisenstein_body(k, order))


@dataclass(frozen=True)
class ZSeriesResult:
    """The assembled counting series plus its self-describing metadata."""

    series: QSeries
    r: int
    k: int
    convention: str
    n0_exponent: int | None
    grading_shift: Fraction | None
    notes: tuple[str, ...] = field(default=())


_NOTE_POLE = ("sieves act on every represented exponent, poles included; "
              "restricting to non-negative exponents would drop the leading term")
_NOTE_T1 = ("the series index k is a label: the assembled right-hand side "
            "depends on r only")


def z_series(r: int, k: int, order: int, convention: str = "cusp") -> ZSeriesResult:
    """Z_{r,k} through q-exponent ``order`` as -2 U_r(E_10/Delta); the
    u-order r * (order + 1) + 2 may not exceed ``MAX_U_ORDER``."""
    if r < 1:
        raise ValueError("need r >= 1")
    if order < 1:
        raise ValueError("need order >= 1")
    if convention not in DELTA_CONVENTIONS:
        raise ValueError(f"unknown Delta convention {convention!r}; choose from "
                         f"{DELTA_CONVENTIONS}")
    u_order = r * (order + 1) + 2
    if u_order > MAX_U_ORDER:
        raise ValueError(f"series too large: u-order r * (order + 1) + 2 = {u_order} "
                         f"exceeds the cap {MAX_U_ORDER}")
    # 1/Delta at u-exponents lo_u + j and E_10 at j, for j <= top: enough for u^(r * order)
    lo_u = -1 if convention == "cusp" else 1
    top = r * order - lo_u
    inv_delta = _eta24_body(top)
    if convention == "cusp":
        inv_delta = _inverse(inv_delta, top)
    e10 = _e10(top)
    lo = -(-lo_u // r)  # ceil(lo_u / r): the first multiple of r in the window
    z = QSeries(lo, [-2 * sum(map(mul, inv_delta[:j + 1], e10[j::-1]))
                     for j in range(r * lo - lo_u, top + 1, r)])

    lead = z.leading()
    if lead is None:
        n0_exponent, shift = None, None
    else:
        n0_exponent = int(lead[0])
        shift = Fraction(n0_exponent) + Fraction(r, 2)
    notes = (_NOTE_POLE, _NOTE_T1,
             f"Delta convention: {convention} "
             f"({'Delta = eta^24' if convention == 'cusp' else 'Delta = 1/eta^24'})",
             "grading q^(n - r/2): slot n = 0 inferred at the lowest nonzero "
             f"exponent; raw = q^shift * graded with shift = {shift}")
    return ZSeriesResult(series=z, r=r, k=k, convention=convention,
                         n0_exponent=n0_exponent, grading_shift=shift,
                         notes=notes)
