"""Oracles for the modular machinery.

The package computes eta^(+-24) by the sigma_1 recurrence of the logarithmic
derivative and divisor sums by accumulation.  Independent of both are the
brute-force product expansions and trial-division divisor sums (shared with
acceptance criterion 7) and the route through Jacobi's cube
prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^(k(k+1)/2), raised to the 8th
power and inverted; frozen well-known leading coefficients are asserted
directly.
"""

import random
from fractions import Fraction

import pytest

from ellfm import modular
from ellfm.dt_invariants import gv_from_z
from ellfm.errors import InvariantViolation
from ellfm.modular import (DELTA_CONVENTIONS, MAX_U_ORDER, _eta_power_body, eisenstein, eta24,
                           inv_eta24, sigma_table, z_series)
from ellfm.qseries import _inverse, _power, agree_through, collapse, sieve
from ellfm.selftest import brute_force_eta24, brute_force_inv_eta24, trial_division_sigma


def jacobi_cube_eta24(order):
    """prod (1 - q^n)^24 through q^order as the 8th power of Jacobi's cube."""
    cube = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return _power(cube, 8, order)


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


# z_series builds bodies through q^(MAX_U_ORDER - 2) at the size cap
@pytest.mark.parametrize("order", [0, 1, 2, 23] + random.Random(1998).sample(range(24, 1998), 3)
                         + [MAX_U_ORDER - 2])
def test_eta_power_body_matches_jacobi_cube(order):
    cube = jacobi_cube_eta24(order)
    assert _eta_power_body(1, order) == cube
    assert _eta_power_body(-1, order) == _inverse(cube, order)


def test_eta_power_body_guards_exact_division(monkeypatch):
    """A wrong sigma_1 table leaves a remainder in n f_n; it is refused."""
    def wrong_sigma_table(power, upto):
        table = sigma_table(power, upto)
        table[2] += 1
        return table

    monkeypatch.setattr(modular, "sigma_table", wrong_sigma_table)
    for sign in (1, -1):
        with pytest.raises(InvariantViolation, match="not integral"):
            _eta_power_body(sign, 10)
    # z_series on empty kept lists, as in a fresh process: the guard runs,
    # and the failed extension stores nothing
    cold = cold_prefixes()
    monkeypatch.setattr(modular, "_prefixes", cold)
    with pytest.raises(InvariantViolation):
        z_series(1, 1, 10)
    assert cold == cold_prefixes()


def cold_prefixes():
    return {1: [1], -1: [1], "E10": []}


def test_e10_extension_is_checked(monkeypatch):
    """Extending the kept E_10 list checks E_10 = E_4 * E_6 at the new
    exponents: a wrong E_10 constant is caught there, the kept list stays."""
    monkeypatch.setattr(modular, "_prefixes", cold_prefixes())
    z_series(1, 1, 3)
    kept = modular._prefixes["E10"]
    monkeypatch.setitem(modular._EISENSTEIN_CONST, 10, -263)
    with pytest.raises(InvariantViolation, match="E_10 disagrees with E_4 \\* E_6"):
        z_series(1, 1, 10)
    assert modular._prefixes["E10"] is kept


def test_z_series_kept_prefixes_grow_then_serve(monkeypatch):
    """One process, kept lists starting empty: a seeded sequence of calls
    whose order grows, then shrinks, for r = 1..5 and both conventions; each
    result equals the sieve assembly, and the shrinking calls reuse the
    lists the growing ones left."""
    monkeypatch.setattr(modular, "_prefixes", cold_prefixes())
    rng = random.Random(10)
    grow = sorted(rng.sample(range(1, 25), 4))
    shrink = sorted(rng.sample(range(1, grow[-1]), 3), reverse=True)

    def calls(orders):
        for order in orders:
            for r in range(1, 6):
                for convention in DELTA_CONVENTIONS:
                    z = z_series(r, 1, order, convention).series
                    oracle = sieve_assembly(r, order, convention)
                    assert (z.offset, z.order, z.coeffs) == (oracle.offset, oracle.order,
                                                             oracle.coeffs)

    calls(grow)
    kept = dict(modular._prefixes)
    calls(shrink)
    assert all(modular._prefixes[key] is kept[key] for key in kept)
    assert len(modular._prefixes["E10"]) == 5 * grow[-1] + 2


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
