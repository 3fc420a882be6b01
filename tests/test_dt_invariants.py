import math
import random
from fractions import Fraction

import pytest

from ellfm.dt_invariants import (
    InvariantTable,
    _convert,
    _divisors,
    _gcd3,
    _moebius,
    dt_table_from_omega,
    fm_relabel,
    gv_from_z,
    omega_table_from_dt,
)
from ellfm.errors import MAX_ENUMERATION
from ellfm.jsonio import table_from_json, table_to_json
from ellfm.modular import z_series


def closed_table(kind, values):
    return InvariantTable(kind, values)


def fraction_divisor_sum(table, gamma, weight):
    """The multicover sum for one entry with one Fraction operation per
    divisor: the reference the whole-table integer sums are checked against."""
    r, n, k = gamma
    total = Fraction(0)
    for m in _divisors(_gcd3(gamma)):
        total += Fraction(weight(m), m * m) * table.value((r // m, n // m, k // m))
    return total


def test_primitive_gamma_is_identity():
    omega = closed_table("Omega", {(3, 4, 5): Fraction(7, 2)})
    assert dt_table_from_omega(omega).entries == {(3, 4, 5): Fraction(7, 2)}
    dt = closed_table("DT", {(3, 4, 5): Fraction(7, 2)})
    assert omega_table_from_dt(dt).entries == {(3, 4, 5): Fraction(7, 2)}


def test_multicover_examples():
    omega = closed_table("Omega", {(2, 0, 2): 10, (1, 0, 1): 8})
    assert dt_table_from_omega(omega).entries[(2, 0, 2)] == 10 + Fraction(1, 4) * 8
    omega = closed_table("Omega", {(6, 0, 4): 3, (3, 0, 2): 5})
    assert dt_table_from_omega(omega).entries[(6, 0, 4)] == 3 + Fraction(5, 4)


def test_inversion_example():
    dt = closed_table("DT", {(4, 0, 2): Fraction(9), (2, 0, 1): Fraction(4)})
    assert omega_table_from_dt(dt).entries[(4, 0, 2)] == 9 - Fraction(1, 4) * 4


def test_kind_guards():
    dt = closed_table("DT", {(1, 0, 1): 1})
    with pytest.raises(ValueError, match="expected a table of kind 'Omega', got kind 'DT'"):
        dt_table_from_omega(dt)
    omega = closed_table("Omega", {(1, 0, 1): 1})
    with pytest.raises(ValueError, match="expected a table of kind 'DT', got kind 'Omega'"):
        omega_table_from_dt(omega)
    with pytest.raises(ValueError):
        InvariantTable("BPS", {})


def test_missing_entries_error():
    omega = closed_table("Omega", {(2, 0, 2): 1})
    with pytest.raises(KeyError, match=r"table has no entry for \(1, 0, 1\)"):
        dt_table_from_omega(omega)  # (2, 0, 2) needs (1, 0, 1) too


def test_missing_entry_at_moebius_zero_divisor_error():
    """(1, 0, 1) = (4, 0, 4) / 4 has weight mu(4) = 0 in the inversion, yet
    the support is not closed under division and the gap is reported.  In
    sorted order (-9, -9, -9) comes first, and its gap (-1, -1, -1), at
    mu(9) = 0, is the one reported, not the later gap (-4, -4, -4) of
    (-8, -8, -8) at mu(2) = -1."""
    dt = closed_table("DT", {(4, 0, 4): 3, (2, 0, 2): 5})
    with pytest.raises(KeyError, match=r"\(1, 0, 1\)"):
        omega_table_from_dt(dt)
    dt = closed_table("DT", {(-9, -9, -9): 3, (-8, -8, -8): 5, (-3, -3, -3): 7})
    with pytest.raises(KeyError, match=r"no entry for \(-1, -1, -1\)"):
        omega_table_from_dt(dt)


def random_closed_table(rng, kind):
    """Entries on two to four rays: each ray is the multiples m b, m | g, of a
    primitive b with n of any sign (n = 0 included), for a g of up to 60."""
    entries = {}
    for _ in range(rng.randint(2, 4)):
        raw = (rng.randint(1, 3), rng.choice([0, rng.randint(-3, 3)]), rng.randint(1, 3))
        d = math.gcd(math.gcd(raw[0], abs(raw[1])), raw[2])
        base = tuple(x // d for x in raw)
        for m in _divisors(rng.randint(1, 60)):
            entries[tuple(x * m for x in base)] = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                           rng.randint(1, 720))
    return closed_table(kind, entries)


def test_divisor_sum_matches_fraction_oracle():
    """Both whole-table conversions, entry by entry, against the per-entry
    Fraction sum; output keys in sorted order, values Fractions."""
    rng = random.Random(60)
    for _ in range(60):
        for kind, out_kind, mobius, weight in (("Omega", "DT", False, lambda m: 1),
                                               ("DT", "Omega", True, _moebius)):
            table = random_closed_table(rng, kind)
            public = dt_table_from_omega if kind == "Omega" else omega_table_from_dt
            got = public(table)
            assert got.kind == out_kind
            assert list(got.entries) == sorted(table.entries)
            assert all(type(v) is Fraction for v in got.entries.values())
            assert got.entries == {gamma: fraction_divisor_sum(table, gamma, weight)
                                   for gamma in table.entries}
            assert _convert(table, kind, out_kind, mobius).entries == got.entries


def test_zero_gamma_rejected():
    for kind, convert in (("Omega", dt_table_from_omega), ("DT", omega_table_from_dt)):
        table = closed_table(kind, {(1, 0, 1): 1, (0, 0, 0): 1})
        with pytest.raises(ValueError, match=r"\(0, 0, 0\) have no multicover expansion"):
            convert(table)


def test_round_trip_random_tables():
    rng = random.Random(12)
    for _ in range(60):
        g = rng.randint(1, 12)
        raw = (rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 3))
        d = math.gcd(math.gcd(raw[0], raw[1]), raw[2])
        base = tuple(x // d for x in raw)  # primitive direction
        # divisor-closed support: every multiple of the primitive vector
        support = {tuple(x * m for x in base) for m in range(1, g + 1)}
        omega = closed_table("Omega", {
            gamma: Fraction(rng.randint(-60, 60), rng.randint(1, 8))
            for gamma in support
        })
        assert omega_table_from_dt(dt_table_from_omega(omega)).entries == omega.entries
        dt = closed_table("DT", dict(omega.entries))
        assert dt_table_from_omega(omega_table_from_dt(dt)).entries == dt.entries


def test_gv_from_z_rank_one():
    table = gv_from_z(z_series(1, 1, 12, "cusp"))
    assert table.kind == "GV"
    assert table.entries[(1, 0, 1)] == -2   # lowest slot
    assert table.entries[(1, 1, 1)] == 480
    assert table.entries[(1, 2, 1)] == 282888
    assert all(v.denominator == 1 for v in table.entries.values())


def test_gv_from_z_empty():
    from ellfm.modular import ZSeriesResult
    from ellfm.qseries import QSeries

    empty = ZSeriesResult(series=QSeries(0, [0, 0, 0]), r=1, k=1,
                          convention="cusp", n0_exponent=None,
                          grading_shift=None)
    assert gv_from_z(empty).entries == {}


def test_gv_from_z_refuses_slot_outside_window():
    from ellfm.modular import ZSeriesResult
    from ellfm.qseries import QSeries

    for n0 in (-1, 3):
        bad = ZSeriesResult(series=QSeries(0, [1, 2, 3]), r=1, k=1, convention="cusp",
                            n0_exponent=n0, grading_shift=Fraction(n0) + Fraction(1, 2))
        with pytest.raises(ValueError, match=f"exponent {n0} is not in the series window"):
            gv_from_z(bad)


def test_relabel():
    table = closed_table("Omega", {(1, 5, 2): 11, (2, 3, 3): 7})
    swapped = fm_relabel(table)
    assert swapped.entries[(1, 2, 5)] == 11
    assert swapped.entries[(2, 3, 3)] == 7  # diagonal entries fixed
    assert fm_relabel(swapped).entries == table.entries


def test_table_json_round_trip(tmp_path):
    table = closed_table("Omega", {(1, 0, 1): Fraction(5, 3), (2, 0, 2): -4})
    data = table_to_json(table)
    assert data["kind"] == "Omega"
    assert {"r": 1, "n": 0, "k": 1, "value": "5/3"} in data["entries"]
    again = table_from_json(data)
    assert again.entries == table.entries


def test_table_values_are_fractions():
    table = closed_table("Omega", {(1, 0, 1): 3, (2, 0, 2): Fraction(7, 2)})
    assert all(type(v) is Fraction for v in table.entries.values())
    assert table.entries == {(1, 0, 1): Fraction(3), (2, 0, 2): Fraction(7, 2)}


def test_table_refuses_non_integer_keys():
    for key in ((1.5, 0, 1), (1, 0.0, 1), (1, 0, True), (True, 0, 1)):
        with pytest.raises(ValueError, match="table key entry must be an integer"):
            InvariantTable("Omega", {key: 3})
    # a lookup under a float key is not rounded to an integral one
    with pytest.raises(KeyError):
        closed_table("Omega", {(1, 0, 1): 3}).value((1.5, 0, 1))


def test_table_refuses_non_rational_values():
    """Values are ints or Fractions: a float, a bool or a string (even "1e5")
    is refused, not converted to a binary-float rational or parsed."""
    for value in (0.1, True, "1e5", "3"):
        with pytest.raises(ValueError, match="table value must be an integer or a Fraction"):
            InvariantTable("Omega", {(1, 0, 1): value})


def test_divisors_match_trial_division_to_n():
    for n in range(1, 400):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_multicover_gcd_cap():
    """Trial division runs up to isqrt(gcd); more than the cap of steps is
    refused before the scan, not run."""
    g = (MAX_ENUMERATION + 1) ** 2
    omega = closed_table("Omega", {(g, 0, g): 1})
    with pytest.raises(ValueError, match="has 100001 elements, more than the cap"):
        dt_table_from_omega(omega)
    g = MAX_ENUMERATION ** 2  # isqrt(g) = cap: scanned, then a missing g / m is reported
    with pytest.raises(KeyError, match=f"no entry for \\({g // 2}, 0, {g // 2}\\)"):
        dt_table_from_omega(closed_table("Omega", {(g, 0, g): 1}))
