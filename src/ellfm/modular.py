"""Eta products, Eisenstein series, and the sheaf-counting series Z_{r,k}.

The generating series for rank-r counts on an elliptic K3 pencil is
assembled from arithmetic-progression sieves of 1/Delta and E_10 in an
auxiliary variable u with q = u^r:

    Z_{r,k}(q) = -2 * sum_{l=0}^{r-1} (1/Delta(u))_{r, l-1} * (E_10(u))_{r, 1-l}

The right-hand side does not involve k; the label is kept because the
counts it packages are conjecturally independent of that index.

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

from .errors import InvariantViolation
from .qseries import QSeries, _power, collapse, sieve

DELTA_CONVENTIONS = ("cusp", "paper")

# 1 - 2k/B_k for the supported weights: B_4 = -1/30, B_6 = 1/42, B_10 = 5/66
_EISENSTEIN_CONST = {4: 240, 6: -504, 10: -264}


def _euler_product(order: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) for exponents 0..order, by the
    pentagonal number expansion."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    j = 1
    while True:
        e1 = j * (3 * j - 1) // 2
        e2 = j * (3 * j + 1) // 2
        if e1 > order and e2 > order:
            break
        sign = -1 if j % 2 else 1
        if e1 <= order:
            coeffs[e1] = sign
        if e2 <= order:
            coeffs[e2] = sign
        j += 1
    return coeffs


def eta24(order: int) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24 on the window [1, order]."""
    if order < 1:
        raise ValueError("need order >= 1")
    body = _power(_euler_product(order - 1), 24, order - 1)
    return QSeries(1, body)


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


def eisenstein(k: int, order: int) -> QSeries:
    """Normalized Eisenstein series of weight k in {4, 6, 10}:
    1 + const * sum sigma_{k-1}(n) q^n.

    The weight-10 series is cross-checked against E_4 * E_6 through the
    requested order (the space of weight-10 forms is one dimensional).
    """
    if k not in _EISENSTEIN_CONST:
        raise ValueError(f"unsupported Eisenstein weight {k}; supported: "
                         f"{sorted(_EISENSTEIN_CONST)}")
    if order < 0:
        raise ValueError("need order >= 0")
    const = _EISENSTEIN_CONST[k]
    sums = sigma_table(k - 1, order)
    coeffs = [1] + [const * sums[n] for n in range(1, order + 1)]
    series = QSeries(0, coeffs)
    if k == 10 and order >= 1:
        product = eisenstein(4, order) * eisenstein(6, order)
        if product.coeffs != series.coeffs:
            raise InvariantViolation("E_10 disagrees with E_4 * E_6")
    return series


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
    """Assemble Z_{r,k} through q-exponent ``order``.

    Works in the u variable, sieves 1/Delta and E_10 by residues l-1 and
    1-l mod r, checks that every surviving u-exponent is divisible by r,
    and collapses u^r -> q.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if order < 1:
        raise ValueError("need order >= 1")
    if convention not in DELTA_CONVENTIONS:
        raise ValueError(f"unknown Delta convention {convention!r}; choose from "
                         f"{DELTA_CONVENTIONS}")
    u_order = r * (order + 1) + 2
    if convention == "cusp":
        inv_delta = inv_eta24(u_order)
    else:
        inv_delta = eta24(u_order)
    e10 = eisenstein(10, u_order)

    total = None
    for l in range(r):
        term = sieve(inv_delta, r, l - 1) * sieve(e10, r, 1 - l)
        total = term if total is None else total + term
    try:
        z = collapse(total, r).scale(-2)
    except ValueError as exc:  # a surviving u-exponent not divisible by r
        raise InvariantViolation(f"sieve assembly broken: {exc}") from None
    if z.last_exponent > order:
        z = z.truncate(order)

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
