import itertools
import math
import random
from fractions import Fraction

import pytest

from ellfm.base_geometry import BaseClass, make_base, pair_base, zero_class
from ellfm.weierstrass import (
    CurveX,
    DivisorX,
    fiber,
    intersection_matrix_X,
    is_effective_curve_X,
    k3_pencil_relations,
    mult_div_div,
    pair_div_curve,
    polarization,
    pullback,
    section_push,
    theta,
    triple,
)


def random_divisor(B, rng):
    return DivisorX(rng.randint(-6, 6), BaseClass(tuple(rng.randint(-6, 6)
                                                        for _ in range(B.rank))), B)


def test_mult_examples(F1):
    minus_k = F1.minus_canonical
    assert mult_div_div(theta(F1), pullback(F1, minus_k)) == section_push(F1, minus_k)
    assert mult_div_div(theta(F1), theta(F1)) == section_push(F1, F1.canonical)
    xi, c0 = BaseClass((0, 1)), BaseClass((1, 0))
    assert mult_div_div(pullback(F1, xi), pullback(F1, c0)) == fiber(F1)


def test_pair_examples(F1):
    xi = BaseClass((0, 1))
    assert pair_div_curve(theta(F1), fiber(F1)) == 1
    assert pair_div_curve(pullback(F1, F1.minus_canonical), fiber(F1)) == 0
    assert pair_div_curve(theta(F1), section_push(F1, xi)) == -2


def test_triple_examples(F1, P2):
    eta1, eta2 = BaseClass((1, 2)), BaseClass((-1, 3))
    assert triple(theta(F1), pullback(F1, eta1), pullback(F1, eta2)) == \
        pair_base(F1, eta1, eta2)
    assert triple(theta(F1), theta(F1), theta(F1)) == 8
    assert triple(theta(P2), theta(P2), theta(P2)) == 9
    assert triple(pullback(F1, eta1), pullback(F1, eta1), pullback(F1, eta1)) == 0


def test_triple_symmetric(any_base):
    B = any_base
    rng = random.Random(23)
    for _ in range(25):
        divs = [random_divisor(B, rng) for _ in range(3)]
        values = {triple(*perm) for perm in itertools.permutations(divs)}
        assert len(values) == 1


def test_intersection_matrix(P2, F0, F1):
    matrix, det = intersection_matrix_X(P2)
    assert matrix == ((1, -3), (0, 1))
    assert abs(det) == 1
    for B in (F0, F1):
        matrix, det = intersection_matrix_X(B)
        assert len(matrix) == 3
        assert abs(det) == 1


def test_effective_curve_examples(F1):
    xi = BaseClass((0, 1))
    assert is_effective_curve_X(CurveX(3, xi, F1))
    assert not is_effective_curve_X(CurveX(-1, xi, F1))
    assert is_effective_curve_X(CurveX(0, zero_class(2), F1))


def test_pencil_relations(F0, F1, P2):
    for B in (F0, F1):
        table = k3_pencil_relations(B)
        assert [row["relation"] for row in table] == \
            ["D0.D", "D.D", "Theta.D", "C0.D", "Xi.D", "f.D"]
        by_name = {row["relation"]: row["value"] for row in table}
        assert by_name["D0.D"] == {"fiber": 1, "section": [0, 0]}
        assert by_name["D.D"] == {"fiber": 0, "section": [0, 0]}
        assert by_name["Theta.D"] == {"fiber": 0, "section": [0, 1]}
        assert by_name["C0.D"] == 1
        assert by_name["Xi.D"] == 0
        assert by_name["f.D"] == 0
    with pytest.raises(ValueError):
        k3_pencil_relations(P2)


def test_slope_denominator_reproduction(any_base):
    """(D omega)^2 . p^*C = D^2 t (2s - t) |K_B.C| > 0 for rational s > t > 0,
    with D omega = T Theta - S p^*K_B integral (D the lcm of the
    denominators of t and s)."""
    B = any_base
    rng = random.Random(5)
    for _ in range(50):
        t = Fraction(rng.randint(1, 10), rng.randint(1, 10))
        s = t + Fraction(rng.randint(1, 10), rng.randint(1, 10))
        coeffs = [rng.randint(0, 4) for _ in B.effective_generators]
        if not any(coeffs):
            coeffs[0] = 1
        C = zero_class(B.rank)
        for c, g in zip(coeffs, B.effective_generators):
            C = C + c * g
        D = math.lcm(t.denominator, s.denominator)
        omega = polarization(B, int(D * t), int(D * s))
        lhs = pair_div_curve(pullback(B, C), mult_div_div(omega, omega))
        kc = -pair_base(B, B.canonical, C)
        assert kc > 0
        assert lhs == D * D * t * (2 * s - t) * kc
        assert lhs > 0


@pytest.mark.parametrize("bad", [Fraction(1), Fraction(1, 2), 1.0, True],
                         ids=["integral-Fraction", "Fraction", "float", "bool"])
def test_classes_refuse_non_integers(F1, bad):
    """BaseClass, DivisorX and CurveX take ints only: a Fraction (integral
    or not), a float or a bool raises a ValueError naming the field."""
    with pytest.raises(ValueError, match="class coordinate must be an integer"):
        BaseClass((0, bad))
    with pytest.raises(ValueError, match="theta coefficient must be an integer"):
        DivisorX(bad, zero_class(2), F1)
    with pytest.raises(ValueError, match="fiber coefficient must be an integer"):
        CurveX(bad, zero_class(2), F1)
    with pytest.raises(ValueError, match="theta coefficient must be an integer"):
        polarization(F1, bad, 2)


def test_base_mismatch_rejected(F0, F1):
    with pytest.raises(ValueError):
        mult_div_div(theta(F0), theta(F1))
    with pytest.raises(ValueError):
        pair_div_curve(theta(F0), fiber(F1))
    with pytest.raises(ValueError):
        fiber(F0) + fiber(F1)


def test_same_base_by_lattice_data(F0):
    a, b, c = (make_base("F1") for _ in range(3))
    assert triple(theta(a), theta(b), theta(c)) == 8
    assert fiber(a) + fiber(b) == 2 * fiber(c)
    renamed = make_base(a.gram, a.canonical, a.effective_generators, name="hirzebruch-1")
    assert renamed == a
    assert triple(theta(renamed), theta(a), theta(a)) == 8
    with pytest.raises(ValueError):
        triple(theta(a), theta(F0), theta(a))
