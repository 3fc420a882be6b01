import itertools
import random
from fractions import Fraction

import pytest

from ellfm.base_geometry import (
    BaseClass,
    effective_coefficients,
    enumerate_subeffective,
    int_det,
    is_effective_base,
    make_base,
    pair_base,
    zero_class,
)
from ellfm.errors import MAX_ENUMERATION
from ellfm.jsonio import base_from_json, base_to_json


def gram_pair(gram, a, b):
    """Independent bilinear form evaluation used as the oracle."""
    return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(a)))


def test_preset_k_squared_oracle():
    # K^2 recomputed by explicit matrix arithmetic
    expected = {
        "P2": gram_pair(((1,),), (-3,), (-3,)),
        "F0": gram_pair(((0, 1), (1, 0)), (-2, -2), (-2, -2)),
        "F1": gram_pair(((-1, 1), (1, 0)), (-2, -3), (-2, -3)),
    }
    assert expected == {"P2": 9, "F0": 8, "F1": 8}
    for name, want in expected.items():
        assert make_base(name).k_squared() == want


def test_preset_gram_matrices(P2, F0, F1):
    assert P2.gram == ((1,),)
    assert F0.gram == ((0, 1), (1, 0))
    assert F1.gram == ((-1, 1), (1, 0))
    assert F0.canonical.coords == (-2, -2)
    assert F1.canonical.coords == (-2, -3)


def test_gram_unimodular(any_base):
    B = any_base
    if B.rank == 1:
        det = B.gram[0][0]
    else:
        det = B.gram[0][0] * B.gram[1][1] - B.gram[0][1] * B.gram[1][0]
    assert abs(det) == 1


def test_pair_examples(F1, P2):
    xi = BaseClass((0, 1))
    assert pair_base(F1, xi, xi) == 0
    assert pair_base(F1, F1.canonical, xi) == -2
    assert pair_base(P2, BaseClass((1,)), BaseClass((1,))) == 1


def test_make_base_rejects_bad_input():
    with pytest.raises(ValueError):
        make_base("E8")
    with pytest.raises(ValueError):
        make_base([[2]], [-3], [[1]])  # |det| = 2
    with pytest.raises(ValueError):
        make_base([[0, 1], [2, 0]], [-2, -2], [[1, 0], [0, 1]])  # not symmetric
    with pytest.raises(ValueError):
        # K pairs non-negatively with a generator: not Fano
        make_base([[1]], [3], [[1]])
    with pytest.raises(ValueError):
        # dependent generators: non-simplicial
        make_base([[0, 1], [1, 0]], [-2, -2], [[1, 0], [2, 0]])


def test_effectivity_examples(F1):
    assert is_effective_base(F1, BaseClass((1, 2)))   # C0 + 2 Xi
    assert not is_effective_base(F1, BaseClass((0, -1)))
    assert is_effective_base(F1, zero_class(2))


def test_subeffective_examples(F1, P2):
    xi = BaseClass((0, 1))
    assert enumerate_subeffective(F1, xi) == [zero_class(2), xi]
    got = enumerate_subeffective(F1, BaseClass((1, 1)))
    assert got == [BaseClass((0, 0)), BaseClass((0, 1)),
                   BaseClass((1, 0)), BaseClass((1, 1))]
    assert enumerate_subeffective(P2, BaseClass((2,))) == [
        BaseClass((0,)), BaseClass((1,)), BaseClass((2,))]
    with pytest.raises(ValueError):
        enumerate_subeffective(F1, BaseClass((-1, 0)))


def test_subeffective_brute_force_oracle(any_base):
    """Exhaustive lattice scan over a coordinate box."""
    B = any_base
    rng = random.Random(11)
    for _ in range(10):
        coeffs = [rng.randint(0, 3) for _ in B.effective_generators]
        C = zero_class(B.rank)
        for c, g in zip(coeffs, B.effective_generators):
            C = C + c * g
        bound = 3 * max(1, max(abs(x) for x in C.coords))
        box = range(-bound, bound + 1)
        expected = sorted(
            (coords for coords in itertools.product(box, repeat=B.rank)
             if is_effective_base(B, BaseClass(coords))
             and is_effective_base(B, C - BaseClass(coords))),
        )
        got = [cls.coords for cls in enumerate_subeffective(B, C)]
        assert got == expected


def test_subeffective_symmetry(any_base):
    B = any_base
    C = 2 * B.minus_canonical
    subs = enumerate_subeffective(B, C)
    assert zero_class(B.rank) in subs
    assert C in subs
    as_set = {cls.coords for cls in subs}
    assert {(C - cls).coords for cls in subs} == as_set


def test_json_round_trip(F1):
    data = base_to_json(F1)
    again = base_from_json(data)
    assert again.gram == F1.gram
    assert again.canonical == F1.canonical
    assert again.effective_generators == F1.effective_generators


def test_make_base_refuses_non_integer_gram():
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="gram entry must be an integer"):
            make_base([[bad]], [-3], [[1]])
    with pytest.raises(ValueError, match="Picard rank"):
        make_base([[int(i == j) for j in range(10)] for i in range(10)],
                  [-1] * 10, [[int(i == j) for j in range(10)] for i in range(10)])


def cramer_coefficients(B, C):
    """Cone membership as first implemented: rank + 1 determinants per
    call (Cramer's rule).  Reference for the cofactor rows of make_base."""
    if not all(Fraction(c).denominator == 1 for c in C.coords):
        return None
    gens = [g.coords for g in B.effective_generators]
    det = int_det(gens)
    target = tuple(int(c) for c in C.coords)
    coeffs = []
    for i in range(B.rank):
        x, rem = divmod(int_det(gens[:i] + [target] + gens[i + 1:]), det)
        if rem or x < 0:
            return None
        coeffs.append(x)
    return tuple(coeffs)


def test_effective_coefficients_match_cramer(P2, F0, F1, quadric_json, f1_he_json):
    """Seeded classes, effective or not, on the presets, the JSON fixtures
    (one with a generator determinant of -1), P2 blown up in two points
    (rank 3), and cones of determinant 2 and 3.  Non-integral draws are
    refused when the class is built."""
    bases = [P2, F0, F1, base_from_json(quadric_json), base_from_json(f1_he_json),
             make_base([[1, 0, 0], [0, -1, 0], [0, 0, -1]], [-3, 1, 1],
                       [[0, 1, 0], [0, 0, 1], [1, -1, -1]]),
             make_base([[0, 1], [1, 0]], [-2, -2], [[1, 0], [1, 2]]),
             make_base([[1]], [-3], [[3]])]
    rng = random.Random(5)
    outcomes = {"effective": 0, "not effective": 0, "non-integral": 0}
    for B in bases:
        for _ in range(300):
            coords = [rng.randint(-6, 9) for _ in range(B.rank)]
            if rng.random() < 0.2:
                coords[rng.randrange(B.rank)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                with pytest.raises(ValueError, match="class coordinate must be an integer"):
                    BaseClass(coords)
                outcomes["non-integral"] += 1
                continue
            C = BaseClass(coords)
            want = cramer_coefficients(B, C)
            assert effective_coefficients(B, C) == want, (B, coords)
            outcomes["not effective" if want is None else "effective"] += 1
    assert all(outcomes.values()), outcomes


def test_subeffective_count_at_the_cap(P2):
    """C = a h on P2 has a + 1 sub-effective classes: the cap is accepted,
    one more is refused before any class is built."""
    assert len(enumerate_subeffective(P2, BaseClass((MAX_ENUMERATION - 1,)))) == MAX_ENUMERATION
    with pytest.raises(ValueError, match="has 100001 elements, more than the cap of 100000"):
        enumerate_subeffective(P2, BaseClass((MAX_ENUMERATION,)))
    with pytest.raises(ValueError, match="has 10000200001 elements"):
        enumerate_subeffective(make_base("F1"), BaseClass((100000, 100000)))
