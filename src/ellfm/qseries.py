"""Exact truncated Laurent series in q with a rational exponent offset.

A QSeries stores coefficients for the exponent window
[offset, offset + order] on the grid offset + ZZ:

    f = sum_i coeffs[i] * q^(offset + i) + O(q^(offset + order + 1)).

Exponents below the window are known to be zero; exponents above it are
unknown.  All arithmetic tracks the window conservatively, so a coefficient
can be read back only where every contributing term was known:

* addition requires the offsets to differ by an integer and keeps the
  window where both operands are known;
* multiplication adds offsets and keeps the smaller relative order;
* inversion requires a nonzero leading coefficient and keeps the relative
  order.

Offsets are rationals with denominator dividing 24 (enough for eta-quotient
weights and half-integral gradings).  Coefficients are exact rationals;
integral series are multiplied, powered and inverted on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

Rat = int | Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QSeries:
    offset: Fraction
    coeffs: tuple[Fraction, ...]

    def __init__(self, offset, coeffs):
        offset = _frac(offset)
        if 24 % offset.denominator != 0:
            raise ValueError(f"offset denominator must divide 24, got {offset}")
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least one tracked coefficient")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        """Relative truncation order: coefficients are tracked for
        exponents offset .. offset + order."""
        return len(self.coeffs) - 1

    @property
    def last_exponent(self) -> Fraction:
        return self.offset + self.order

    def coefficient(self, exponent: Rat) -> Fraction:
        """Coefficient at the given exponent; zero below the window or off
        the exponent grid, error above the tracked order."""
        e = _frac(exponent)
        if e > self.last_exponent:
            raise ValueError(f"exponent {e} beyond tracked order (last known "
                             f"{self.last_exponent})")
        rel = e - self.offset
        if rel.denominator != 1 or rel < 0:
            return Fraction(0)
        return self.coeffs[int(rel)]

    def support(self) -> list[tuple[Fraction, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in the window."""
        return [(self.offset + i, c) for i, c in enumerate(self.coeffs) if c != 0]

    def leading(self) -> tuple[Fraction, Fraction] | None:
        """Lowest nonzero (exponent, coefficient), or None for zero series."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return self.offset + i, c
        return None

    def __repr__(self):
        head = ", ".join(f"q^{e}: {c}" for e, c in self.support()[:4])
        return f"QSeries(window [{self.offset}, {self.last_exponent}]; {head}...)"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        shift = other.offset - self.offset
        if shift.denominator != 1:
            raise ValueError(f"incompatible offsets {self.offset} and {other.offset}: "
                             "difference must be an integer")
        lo = min(self.offset, other.offset)
        n = int(min(self.last_exponent, other.last_exponent) - lo)
        return QSeries(lo, [a + b for a, b in zip(_window(self, lo, n), _window(other, lo, n))])

    def __neg__(self) -> "QSeries":
        return QSeries(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c: Rat) -> "QSeries":
        c = _frac(c)
        return QSeries(self.offset, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = (_kernel_input(f.coeffs[:n + 1]) for f in (self, other))
        return QSeries(self.offset + other.offset, _convolve(a, b, n))

    def inverse(self) -> "QSeries":
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("cannot invert: zero leading coefficient "
                             "(window starts with 0)")
        unit = a[0] in (1, -1)  # then an integral series has an integral inverse
        return QSeries(-self.offset, _inverse(_kernel_input(a) if unit else a, self.order))

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            return self.inverse().pow(-e)
        return QSeries(e * self.offset, _power(_kernel_input(self.coeffs), e, self.order))

    def shift(self, delta: Rat) -> "QSeries":
        """Multiply by the monomial q^delta."""
        return QSeries(self.offset + _frac(delta), self.coeffs)

    def truncate(self, through_exponent: Rat) -> "QSeries":
        """Drop knowledge beyond the given exponent."""
        e = _frac(through_exponent)
        rel = e - self.offset
        if rel.denominator != 1 or rel < 0:
            raise ValueError(f"cannot truncate to exponent {e} (window starts "
                             f"at {self.offset})")
        n = min(int(rel), self.order)
        return QSeries(self.offset, self.coeffs[: n + 1])

    def integral_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def _kernel_input(coeffs) -> list:
    """The coefficients as ints when all are integral (early exit), else unchanged."""
    if all(c.denominator == 1 for c in coeffs):
        return [c.numerator for c in coeffs]
    return coeffs


def _convolve(a, b, order: int) -> list:
    """Coefficients 0..order of the product of two coefficient sequences,
    one dot product per output coefficient."""
    a, b = a[:order + 1], b[:order + 1]
    out = []
    for k in range(order + 1):
        lo = max(0, k + 1 - len(b))
        out.append(sum(map(mul, a[lo:k + 1], b[k - lo::-1])))
    return out


def _power(a, e: int, order: int) -> list:
    """Coefficients 0..order of a^e for e >= 0, by binary powering."""
    result = None
    while e:
        if e & 1:
            result = a[:order + 1] if result is None else _convolve(result, a, order)
        e >>= 1
        if e:
            a = _convolve(a, a, order)
    return [1] + [0] * order if result is None else result


def _inverse(a, order: int) -> list:
    """Coefficients 0..order of 1/a for a[0] != 0, by the recurrence
    sum_i a[i] b[k - i] = 0 for k >= 1; ints stay ints when a[0] = +-1."""
    inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
    b = [inv0]
    for k in range(1, order + 1):
        b.append(-inv0 * sum(map(mul, a[1:k + 1], reversed(b))))
    return b


def _window(f: QSeries, lo: Fraction, n: int) -> list[Fraction]:
    """Coefficients of f at exponents lo, lo + 1, ..., lo + n, for lo on f's
    grid with lo <= f.offset and lo + n <= f.last_exponent: zeros below f's
    window, then f's own coefficients."""
    pad = min(int(f.offset - lo), n + 1)
    return [Fraction(0)] * pad + list(f.coeffs[: n + 1 - pad])


def constant(value: Rat, order: int) -> QSeries:
    return QSeries(0, (_frac(value),) + (Fraction(0),) * order)


def monomial(exponent: Rat, value: Rat, order: int) -> QSeries:
    return QSeries(exponent, (_frac(value),) + (Fraction(0),) * order)


def from_coefficients(offset: Rat, values) -> QSeries:
    return QSeries(offset, [_frac(v) for v in values])


def agree_through(f: QSeries, g: QSeries, through_exponent: Rat) -> bool:
    """Exact coefficient agreement on the common grid up to the exponent."""
    e = _frac(through_exponent)
    if e > f.last_exponent or e > g.last_exponent:
        raise ValueError("comparison exponent beyond a tracked window")
    if (f.offset - g.offset).denominator != 1:
        return False
    lo = min(f.offset, g.offset)
    n = int(e - lo)
    return _window(f, lo, n) == _window(g, lo, n)


def sieve(f: QSeries, r: int, k: int) -> QSeries:
    """Keep the coefficients at exponents congruent to k mod r, over every
    represented exponent (poles included); zero the rest."""
    if r < 1:
        raise ValueError("sieve modulus must be >= 1")
    if f.offset.denominator != 1:
        raise ValueError("sieve needs an integral exponent grid "
                         f"(offset {f.offset} is fractional)")
    base = int(f.offset)
    residue = k % r
    out = tuple(c if (base + i) % r == residue else Fraction(0)
                for i, c in enumerate(f.coeffs))
    return QSeries(f.offset, out)


def collapse(f: QSeries, r: int) -> QSeries:
    """Substitute u^r -> q: divide every exponent by r.  All nonzero
    coefficients must sit at exponents divisible by r."""
    if r < 1:
        raise ValueError("collapse modulus must be >= 1")
    if f.offset.denominator != 1:
        raise ValueError("collapse needs an integral exponent grid")
    base = int(f.offset)
    for i, c in enumerate(f.coeffs):
        if c != 0 and (base + i) % r != 0:
            raise ValueError(f"stray coefficient at exponent {base + i}, "
                             f"not divisible by {r}")
    lo = -((-base) // r)          # ceil(base / r)
    hi = (base + f.order) // r    # floor
    if hi < lo:
        raise ValueError("window contains no multiple of the collapse modulus")
    out = [f.coeffs[lo * r + j * r - base] for j in range(hi - lo + 1)]
    return QSeries(lo, out)
