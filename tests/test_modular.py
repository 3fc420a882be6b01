"""Oracles for the modular machinery.

Brute-force product expansions and trial-division divisor sums (shared with
acceptance criterion 7) are independent of the pentagonal/accumulation routes
used by the package; frozen well-known leading coefficients are asserted
directly.
"""

from fractions import Fraction

import pytest

from ellfm import (agree_through, collapse, eisenstein, eta24, gv_from_z, inv_eta24, sieve,
                   sigma_table, z_series)
from ellfm.modular import DELTA_CONVENTIONS, MAX_U_ORDER
from ellfm.selftest import brute_force_eta24, brute_force_inv_eta24, trial_division_sigma


def sieve_assembly(r, order, convention):
    """Z_{r,k} by its defining formula, -2 sum_l (1/Delta)_{r,l-1} (E_10)_{r,1-l}
    in u with q = u^r: the independent route z_series is checked against."""
    u_order = r * (order + 1) + 2
    inv_delta = inv_eta24(u_order) if convention == "cusp" else eta24(u_order)
    e10 = eisenstein(10, u_order)
    total = None
    for l in range(r):
        term = sieve(inv_delta, r, l - 1) * sieve(e10, r, 1 - l)
        total = term if total is None else total + term
    z = collapse(total, r).scale(-2)
    return z.truncate(order) if z.last_exponent > order else z


def test_eta24_known_values():
    e = eta24(12)
    known = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
             8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}
    for exp, val in known.items():
        assert e.coefficient(exp) == val


def test_eta24_brute_force(order=200):
    e = eta24(order)
    oracle = brute_force_eta24(order)
    assert [e.coefficient(1 + i) for i in range(order)] == oracle


def test_inv_eta24_brute_force(order=200):
    inv = inv_eta24(order)
    oracle = brute_force_inv_eta24(order)
    assert [inv.coefficient(-1 + i) for i in range(order + 2)] == oracle


def test_inverse_contract_order_500():
    e = eta24(500)
    product = e * inv_eta24(500)
    assert product.coefficient(0) == 1
    assert all(product.coefficient(i) == 0 for i in range(1, product.order))


def test_sigma_oracle():
    table9 = sigma_table(9, 200)
    table3 = sigma_table(3, 200)
    for n in range(1, 201):
        assert table9[n] == trial_division_sigma(9, n)
        assert table3[n] == trial_division_sigma(3, n)


def test_eisenstein_values():
    e10 = eisenstein(10, 4)
    assert e10.coefficient(0) == 1
    assert e10.coefficient(1) == -264
    assert e10.coefficient(2) == -264 * 513
    e4 = eisenstein(4, 3)
    assert e4.coefficient(1) == 240
    e6 = eisenstein(6, 3)
    assert e6.coefficient(1) == -504
    with pytest.raises(ValueError):
        eisenstein(8, 3)


def test_e10_is_e4_times_e6():
    order = 120
    product = eisenstein(4, order) * eisenstein(6, order)
    assert product.coeffs == eisenstein(10, order).coeffs


def test_z_series_rank_one_cusp():
    z = z_series(1, 1, 30, "cusp")
    assert z.series.coefficient(-1) == -2
    assert z.series.coefficient(0) == 480
    direct = (inv_eta24(32) * eisenstein(10, 32)).scale(-2)
    assert agree_through(z.series, direct, 30)
    assert z.n0_exponent == -1
    assert z.grading_shift == Fraction(-1, 2)


def test_z_series_rank_one_paper():
    z = z_series(1, 1, 30, "paper")
    direct = (eta24(33) * eisenstein(10, 33)).scale(-2)
    assert agree_through(z.series, direct, 30)
    assert z.series.coefficient(1) == -2
    assert z.n0_exponent == 1


def test_z_series_k_independent():
    a = z_series(2, 1, 12, "cusp")
    b = z_series(2, 5, 12, "cusp")
    assert a.series.coeffs == b.series.coeffs
    assert a.k == 1 and b.k == 5


def test_pipeline_integrality():
    assert inv_eta24(80).integral_coefficients()
    assert eisenstein(10, 80).integral_coefficients()
    for r in (1, 2, 3):
        for convention in ("cusp", "paper"):
            z = z_series(r, 1, 15, convention)
            assert z.series.integral_coefficients()


def test_z_series_sieve_residues_pair_up():
    """(l - 1) + (1 - l) = 0, so every surviving exponent is divisible by r
    and the collapse never errors."""
    for r in (2, 3, 4):
        z = z_series(r, 1, 8, "cusp")
        assert z.series.offset.denominator == 1


@pytest.mark.parametrize("convention", DELTA_CONVENTIONS)
@pytest.mark.parametrize("r", range(1, 6))
def test_z_series_matches_sieve_assembly(r, convention):
    for order in (1, 2, 9):
        z = z_series(r, 1, order, convention).series
        oracle = sieve_assembly(r, order, convention)
        assert (z.offset, z.order, z.coeffs) == (oracle.offset, oracle.order, oracle.coeffs)


@pytest.mark.parametrize("convention", DELTA_CONVENTIONS)
def test_z_series_is_u_r_of_rank_one(convention):
    """Z_r[n] = Z_1[rn]: Z_{r,k} = -2 U_r(E_10/Delta)."""
    order = 12
    z1 = z_series(1, 1, 7 * order, convention).series
    for r in range(1, 8):
        zr = z_series(r, 1, order, convention).series
        assert zr.last_exponent == order
        assert zr.offset == -(-z1.offset // r)  # the first multiple of r in Z_1's window
        assert all(zr.coefficient(n) == z1.coefficient(r * n)
                   for n in range(int(zr.offset), order + 1))


def test_z_series_size_cap():
    # u-order r * (order + 1) + 2 at the cap is accepted, one above it is not
    assert 999 * (1 + 1) + 2 == MAX_U_ORDER
    assert z_series(999, 1, 1).series.last_exponent == 1
    with pytest.raises(ValueError, match=f"= {MAX_U_ORDER + 1} exceeds the cap {MAX_U_ORDER}"):
        z_series(1, 1, MAX_U_ORDER - 2)


def test_z_series_rejects_bad_args():
    with pytest.raises(ValueError):
        z_series(0, 1, 10)
    with pytest.raises(ValueError):
        z_series(1, 1, 10, "other")


def test_gv_extraction_independent_of_order():
    short = gv_from_z(z_series(2, 1, 10, "cusp"))
    long = gv_from_z(z_series(2, 1, 20, "cusp"))
    for key, value in short.entries.items():
        assert long.entries[key] == value
