import random

import pytest

from ellfm.base_geometry import BaseClass, pair_base, zero_class
from ellfm.fourier_mukai import (
    fm_dim1_to_dim2,
    fm_dim2_to_dim1,
    k3_view,
    pencil_invariants,
    phi_inverse,
    phi_map,
    roundtrip_check,
    tensor_shift,
)
from ellfm.jsonio import base_from_json
from ellfm.stability import Dim1Chern, Dim2Chern
from ellfm.weierstrass import CurveX, is_effective_curve_X

XI = BaseClass((0, 1))
C0 = BaseClass((1, 0))
ZERO2 = zero_class(2)


def test_phi_examples(F1, P2):
    assert phi_map(F1, Dim1Chern(XI, 2, 1)) == Dim2Chern(XI, ZERO2, 0, 2)
    assert phi_map(F1, Dim1Chern(ZERO2, 0, 0)) == Dim2Chern(ZERO2, ZERO2, 0, 0)
    h, zero1 = BaseClass((1,)), zero_class(1)
    assert phi_map(P2, Dim1Chern(h, 0, 2)) == Dim2Chern(h, zero1, 1, 0)


def test_phi_bijective(any_base):
    B = any_base
    rng = random.Random(41)
    for _ in range(100):
        gh = Dim1Chern(BaseClass(tuple(rng.randint(-5, 5) for _ in range(B.rank))),
                       rng.randint(-5, 5), rng.randint(-5, 5))
        assert phi_inverse(B, phi_map(B, gh)) == gh


def test_phi_parity(any_base):
    B = any_base
    rng = random.Random(43)
    for _ in range(100):
        gh = Dim1Chern(BaseClass(tuple(rng.randint(-5, 5) for _ in range(B.rank))),
                       rng.randint(-5, 5), rng.randint(-5, 5))
        gamma = phi_map(B, gh)
        kc = pair_base(B, B.canonical, gamma.C)
        assert (gamma.k2 - kc) % 2 == 0


def test_to_x_examples(F1):
    res = fm_dim1_to_dim2(F1, Dim1Chern(XI, 3, 1))
    assert res.sheaf_level == Dim2Chern(XI, ZERO2, 0, 3)  # ch2 = 0*f, ch3 = -3pt
    assert res.complex_level == res.sheaf_level
    zero = fm_dim1_to_dim2(F1, Dim1Chern(ZERO2, 0, 0))
    assert zero.sheaf_level == Dim2Chern(ZERO2, ZERO2, 0, 0)
    res = fm_dim1_to_dim2(F1, Dim1Chern(C0, 0, 0))
    assert res.sheaf_level.k2 == -1  # ch2 = (K_B.C0/2) f = -(1/2) f


def test_to_dual_examples(F1):
    res = fm_dim2_to_dim1(F1, Dim2Chern(XI, ZERO2, 0, 2))
    assert res.sheaf_level == Dim1Chern(XI, 2, 1)
    assert res.complex_level == Dim1Chern(-XI, -2, -1)
    assert res.image_effective
    zero = fm_dim2_to_dim1(F1, Dim2Chern(ZERO2, ZERO2, 0, 0))
    assert zero.sheaf_level == Dim1Chern(ZERO2, 0, 0)
    flagged = fm_dim2_to_dim1(F1, Dim2Chern(XI, ZERO2, 0, -1))
    assert not flagged.image_effective
    with pytest.raises(ValueError):
        fm_dim2_to_dim1(F1, Dim2Chern(XI, XI, 0, 0))  # not vertical


def test_roundtrip_examples(F1):
    assert roundtrip_check(F1, Dim1Chern(XI, 2, 1))
    assert roundtrip_check(F1, Dim1Chern(ZERO2, 0, 0))


def test_roundtrip_sweep(any_base):
    B = any_base
    rng = random.Random(47)
    for _ in range(500):
        gh = Dim1Chern(BaseClass(tuple(rng.randint(-6, 6) for _ in range(B.rank))),
                       rng.randint(-6, 6), rng.randint(-6, 6))
        assert roundtrip_check(B, gh)
        assert roundtrip_check(B, phi_map(B, gh))


def test_image_curve_effective(any_base):
    """For effective C and n >= 0 the image class sigma_*C + n f is
    effective on the dual side."""
    B = any_base
    rng = random.Random(53)
    from ellfm.base_geometry import enumerate_subeffective
    classes = [C for C in enumerate_subeffective(B, 2 * B.minus_canonical)
               if not C.is_zero()]
    for _ in range(100):
        C = rng.choice(classes)
        n = rng.randint(0, 5)
        kc = pair_base(B, B.canonical, C)
        gamma = Dim2Chern(C, zero_class(B.rank), 2 * rng.randint(-3, 3) + kc, n)
        res = fm_dim2_to_dim1(B, gamma)
        assert res.image_effective
        curve = CurveX(res.sheaf_level.m, res.sheaf_level.C, B)
        assert is_effective_curve_X(curve)


def test_pencil_invariants_examples(F1):
    assert pencil_invariants(F1, 1, 0, 1) == Dim2Chern(XI, ZERO2, 0, 0)
    assert pencil_invariants(F1, 2, 3, 2) == Dim2Chern(2 * XI, ZERO2, 0, 3)
    assert pencil_invariants(F1, 1, 5, 2) == Dim2Chern(XI, ZERO2, 2, 5)
    with pytest.raises(ValueError):
        pencil_invariants(F1, 0, 0, 1)


def test_pencil_unsupported_base(P2):
    with pytest.raises(ValueError):
        pencil_invariants(P2, 1, 0, 1)


def test_pencil_from_lattice_data(F0, quadric_json, f1_he_json):
    quadric = base_from_json(quadric_json)
    gamma = pencil_invariants(quadric, 2, 3, 2)
    assert gamma == pencil_invariants(F0, 2, 3, 2)
    assert k3_view(quadric, gamma) == k3_view(F0, gamma)
    f1_he = base_from_json(f1_he_json)
    with pytest.raises(ValueError):
        k3_view(f1_he, Dim2Chern(XI, ZERO2, 0, 0))
    with pytest.raises(ValueError):
        pencil_invariants(f1_he, 1, 0, 1)


def test_k3_view(F1):
    gamma = pencil_invariants(F1, 2, 3, 2)
    view = k3_view(F1, gamma)
    assert (view.r, view.m, view.l, view.n) == (2, 0, 0, 3)
    with pytest.raises(ValueError):
        k3_view(F1, Dim2Chern(C0, ZERO2, 1, 0))


def test_tensor_shift(F0, F1):
    for B in (F0, F1):
        gamma = Dim2Chern(2 * XI, ZERO2, 0, 1)  # (r, l) = (2, 0)
        shifted = tensor_shift(B, gamma)
        assert k3_view(B, shifted).l == -2
        assert shifted.n == gamma.n
        assert tensor_shift(B, Dim2Chern(2 * XI, ZERO2, 4, 1)) == gamma  # l = 2 -> 0
    with pytest.raises(ValueError):
        tensor_shift(F1, Dim2Chern(C0 + XI, ZERO2, 0, 0))  # wrong support


def test_pencil_vs_phi_and_shift(F1):
    """The pencil relabeling k - r <-> k is the fiberwise twist."""
    for r in range(1, 4):
        for k in range(1, 4):
            for n in range(0, 3):
                gamma = pencil_invariants(F1, r, n, k)
                assert gamma == phi_map(F1, Dim1Chern(r * XI, n, k))
                # twisting moves the K3 label from k to k - r
                assert tensor_shift(F1, Dim2Chern(r * XI, ZERO2, 2 * k, n)) == gamma
