import random
from fractions import Fraction

import pytest

from ellfm.qseries import (
    QSeries,
    _convolve,
    _inverse,
    agree_through,
    collapse,
    constant,
    from_coefficients,
    monomial,
    sieve,
)


def geometric(order):
    return QSeries(0, [1] * (order + 1))


def test_geometric_inverse():
    one_minus_q = from_coefficients(0, [1, -1] + [0] * 38)
    product = one_minus_q * geometric(39)
    assert product.coefficient(0) == 1
    assert all(product.coefficient(i) == 0 for i in range(1, 39))
    assert one_minus_q.inverse().coeffs == geometric(39).coeffs


def test_offset_rules():
    f = QSeries(Fraction(1, 2), [1, 2, 3])
    g = QSeries(Fraction(3, 2), [5])
    total = f + g
    assert total.offset == Fraction(1, 2)
    assert total.coeffs == (Fraction(1), Fraction(7))  # window ends where g does
    with pytest.raises(ValueError):
        f + QSeries(0, [1])
    with pytest.raises(ValueError):
        QSeries(Fraction(1, 5), [1])  # denominator must divide 24


def test_mul_window_conservative():
    f = QSeries(0, [1, 1])          # known through q^1
    g = QSeries(0, [1, 1, 1, 1])    # known through q^3
    product = f * g
    assert product.order == 1
    assert product.coeffs == (Fraction(1), Fraction(2))


def test_mul_offsets_add():
    f = QSeries(-1, [2, 0, 1])
    g = QSeries(2, [3, 1, 0])
    product = f * g
    assert product.offset == 1
    assert product.coefficient(1) == 6
    assert product.coefficient(2) == 2


def test_inverse_contract():
    rng = random.Random(2)
    for _ in range(20):
        coeffs = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(30)]
        offset = rng.randint(-3, 3)
        f = from_coefficients(offset, coeffs)
        product = f * f.inverse()
        assert product.coefficient(0) == 1
        assert all(product.coefficient(i) == 0 for i in range(1, product.order + 1))
    with pytest.raises(ValueError):
        QSeries(0, [0, 1]).inverse()


def test_pow():
    f = from_coefficients(0, [1, 1, 0, 0, 0])
    assert f.pow(0).coeffs == (1, 0, 0, 0, 0)
    assert f.pow(2).coeffs == (1, 2, 1, 0, 0)
    assert f.pow(3).coeffs == (1, 3, 3, 1, 0)
    assert (f.pow(2) * f).coeffs == f.pow(3).coeffs
    inv2 = f.pow(-2)
    assert (inv2 * f.pow(2)).coefficient(0) == 1


def test_coefficient_semantics():
    f = QSeries(2, [7, 0, 5])
    assert f.coefficient(0) == 0          # below the window: known zero
    assert f.coefficient(Fraction(5, 2)) == 0  # off the grid
    assert f.coefficient(4) == 5
    with pytest.raises(ValueError):
        f.coefficient(5)                   # beyond the tracked order


def test_sieve_examples():
    f = geometric(10)
    evens = sieve(f, 2, 0)
    assert [int(e) for e, _ in evens.support()] == [0, 2, 4, 6, 8, 10]
    polar = from_coefficients(-1, [1, 24, 324])
    kept = sieve(polar, 2, 1)
    assert kept.support() == [(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(324))]
    with pytest.raises(ValueError):
        sieve(QSeries(Fraction(1, 2), [1]), 2, 0)


def test_sieve_partition_random():
    rng = random.Random(9)
    for _ in range(100):
        r = rng.randint(1, 12)
        f = from_coefficients(rng.randint(-5, 5),
                              [rng.randint(-9, 9) for _ in range(25)])
        acc = sieve(f, r, 0)
        for k in range(1, r):
            acc = acc + sieve(f, r, k)
        assert acc.coeffs == f.coeffs and acc.offset == f.offset


def test_collapse_examples():
    f = from_coefficients(2, [1, 0, 3])  # u^2 + 3 u^4
    g = collapse(f, 2)
    assert g.offset == 1 and g.coeffs == (Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        collapse(monomial(1, 1, 3), 2)
    h = from_coefficients(-2, [5, 1, 2, 0, 7])
    assert collapse(h, 1).coeffs == h.coeffs


def test_collapse_negative_exponents():
    f = from_coefficients(-4, [1, 0, 2, 0, 3])  # u^-4 + 2u^-2 + 3u^0
    g = collapse(f, 2)
    assert g.offset == -2
    assert g.coeffs == (Fraction(1), Fraction(2), Fraction(3))


def test_agree_through():
    f = from_coefficients(0, [0, 2, 3, 4])  # below g's window counts as zero
    g = from_coefficients(1, [2, 3, 9])
    assert agree_through(f, g, 2)
    assert not agree_through(f, g, 3)
    with pytest.raises(ValueError):
        agree_through(f, g, 10)


def test_shift_and_truncate():
    f = constant(1, 5).shift(Fraction(1, 2))
    assert f.offset == Fraction(1, 2)
    cut = f.truncate(Fraction(5, 2))
    assert cut.order == 2


def schoolbook_product(a, b, order):
    """Reference for the dot-product kernel: the plain double loop."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


def test_convolve_matches_schoolbook():
    rng = random.Random(31)
    for _ in range(50):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 12))]
        order = rng.randint(0, 14)  # shorter and longer than the operands
        assert _convolve(a, b, order) == schoolbook_product(a, b, order)
        assert _convolve(a, a, order) == schoolbook_product(a, a, order)


def integral_unit_series(rng, order=25):
    lead = rng.choice((1, -1))
    return from_coefficients(rng.randint(-4, 4), [lead] + [rng.randint(-9, 9) for _ in range(order)])


def is_one(f):
    return f.offset == 0 and f.coeffs == (1,) + (0,) * f.order


def test_integral_fast_path_inverse_and_pow():
    rng = random.Random(5)
    for _ in range(20):
        f = integral_unit_series(rng)
        inv = f.inverse()
        assert inv.offset == -f.offset and inv.integral_coefficients()
        assert is_one(f * inv)
        # the int kernel agrees with the same recurrence run on Fractions
        assert inv.coeffs == tuple(_inverse([Fraction(c) for c in f.coeffs], f.order))
        for e in (1, 2, 3):
            repeated = inv
            for _ in range(e - 1):
                repeated = repeated * inv
            assert f.pow(-e) == repeated
            assert is_one(f.pow(-e) * f.pow(e))


def test_fraction_path_stays_exact():
    two_minus_q = from_coefficients(0, [2, -1] + [0] * 10)  # non-unit leading coefficient
    assert two_minus_q.inverse().coeffs == tuple(Fraction(1, 2 ** (n + 1)) for n in range(12))
    half_q = from_coefficients(Fraction(1, 2), [1, Fraction(-1, 2)] + [0] * 10)  # fractional
    inv = half_q.inverse()
    assert inv.offset == Fraction(-1, 2)
    assert inv.coeffs == tuple(Fraction(1, 2 ** n) for n in range(12))
    assert is_one(half_q * inv)
    assert half_q.pow(-2).coeffs == tuple(Fraction(n + 1, 2 ** n) for n in range(12))


def test_kernel_results_are_fractions():
    rng = random.Random(6)
    f, g = integral_unit_series(rng), integral_unit_series(rng)
    h = from_coefficients(0, [Fraction(3, 2), 1, 2])
    results = [f * g, f.inverse(), f.pow(3), f.pow(-2), f.pow(0), h * h, h.inverse(), h.pow(-1)]
    for series in results:
        assert all(type(c) is Fraction for c in series.coeffs)
        assert type(series.offset) is Fraction
