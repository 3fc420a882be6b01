import itertools
import random
from fractions import Fraction

import pytest

from ellfm.base_geometry import BaseClass, enumerate_subeffective, pair_base, zero_class
from ellfm.errors import MAX_ENUMERATION
from ellfm.selftest import contexts
from ellfm.stability import (
    Dim1Chern,
    Dim2Chern,
    K3Invariants,
    KahlerParams,
    SElement,
    chi_dim2,
    compute_s1,
    compute_t2,
    delta_additivity_deficit,
    delta_discriminant,
    enumerate_Gamma,
    enumerate_S,
    enumerate_Sprime,
    eta_wall,
    f_s_value,
    gamma_parts,
    nu_dim2,
    slope_dim2,
    wall_bound_ts,
)

XI = BaseClass((0, 1))
ZERO2 = zero_class(2)


def vertical(C, k2, n=0):
    return Dim2Chern(C, zero_class(len(C)), k2, n)


# ---------------------------------------------------------------------------
# slopes


def test_slope_dim2_examples(F1):
    omega = KahlerParams(1, 2)
    assert slope_dim2(F1, vertical(XI, 2), omega) == Fraction(1, 3)
    assert slope_dim2(F1, Dim2Chern(XI, XI, 0, 0), omega) == Fraction(2, 3)
    assert slope_dim2(F1, vertical(XI, 0), omega) == 0


def test_slope_dim2_preconditions(F1):
    omega = KahlerParams(1, 2)
    with pytest.raises(ValueError):
        slope_dim2(F1, vertical(ZERO2, 0), omega)
    with pytest.raises(ValueError):
        slope_dim2(F1, vertical(BaseClass((0, -1)), 0), omega)
    with pytest.raises(ValueError):
        KahlerParams(2, 1)
    with pytest.raises(ValueError):
        KahlerParams(0, 1)
    with pytest.raises(ValueError):
        # parity: k2 must match K_B.C mod 2 on vertical classes
        vertical(XI, 1).validate(F1)


def _random_effective(B, rng):
    coeffs = [rng.randint(0, 4) for _ in B.effective_generators]
    coeffs[rng.randrange(B.rank)] += 1
    return sum((c * g for c, g in zip(coeffs, B.effective_generators)), zero_class(B.rank))


def _random_omega(rng):
    t = Fraction(rng.randint(1, 20), rng.randint(1, 10))
    return KahlerParams(t, t + Fraction(rng.randint(1, 20), rng.randint(1, 10)))


def test_nu_examples(F1, P2, F0):
    """Fixed values on F1, and seeded rational (t, s) and chi on every preset
    against 2 chi / [t (2s - t) |K_B.C|] (nu has no second route in the
    library)."""
    omega = KahlerParams(1, 2)
    assert nu_dim2(F1, vertical(XI, 0), omega, chi=0) == 0
    assert nu_dim2(F1, vertical(XI, 0), omega, chi=3) == 1
    assert nu_dim2(F1, vertical(XI, 0), omega, chi=6) == 2
    rng = random.Random(11)
    for B in (P2, F0, F1):
        for _ in range(100):
            C = _random_effective(B, rng)
            gamma = Dim2Chern(C, zero_class(B.rank), pair_base(B, B.canonical, C),
                              rng.randint(-5, 5))
            omega = _random_omega(rng)
            chi = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            area = omega.t * (2 * omega.s - omega.t) * -pair_base(B, B.canonical, C)
            assert nu_dim2(B, gamma, omega, chi=chi) == 2 * chi / area
            assert nu_dim2(B, gamma, omega) == 2 * chi_dim2(B, gamma) / area


def test_slope_and_nu_are_homogeneous(any_base):
    """mu(lambda omega) = mu(omega) / lambda and nu(lambda omega) =
    nu(omega) / lambda^2 for rational lambda > 0: the ring route runs at the
    integral multiple D omega, and rescaling omega changes D."""
    B = any_base
    rng = random.Random(13)
    for _ in range(60):
        C = _random_effective(B, rng)
        alpha = BaseClass(tuple(rng.randint(-5, 5) for _ in range(B.rank)))
        k2 = rng.randint(-16, 16)
        if alpha.is_zero():  # vertical: k2 = K_B.C mod 2
            k2 = 2 * (k2 // 2) + pair_base(B, B.canonical, C)
        gamma = Dim2Chern(C, alpha, k2, rng.randint(-5, 5))
        omega = _random_omega(rng)
        lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        scaled = KahlerParams(lam * omega.t, lam * omega.s)
        assert slope_dim2(B, gamma, scaled) == slope_dim2(B, gamma, omega) / lam
        assert nu_dim2(B, gamma, scaled) == nu_dim2(B, gamma, omega) / lam ** 2


@pytest.mark.parametrize("bad", [0.1, True, "3"])
def test_exact_scalars_refuse_other_types(F1, bad):
    """t, s, chi and delta are ints or Fractions: floats, bools and strings
    raise a ValueError naming the field instead of being converted."""
    e = SElement(XI, 0, 1)
    calls = [(lambda: KahlerParams(bad, 2), "t"), (lambda: KahlerParams(1, bad), "s"),
             (lambda: nu_dim2(F1, vertical(XI, 0), KahlerParams(1, 2), chi=bad), "chi"),
             (lambda: f_s_value(F1, bad, e, XI, 0, 1), "s"),
             (lambda: compute_t2(2, 1, bad), "s"),
             (lambda: eta_wall(K3Invariants(1, 1, 0, 0), K3Invariants(1, 0, 0, 0), bad), "s"),
             (lambda: wall_bound_ts(1, bad), "delta")]
    for call, field in calls:
        with pytest.raises(ValueError, match=f"^{field} must be an integer or a Fraction"):
            call()


@pytest.mark.parametrize("bad", [0.5, 1.0, True, Fraction(1)])
def test_integer_fields_refuse_other_types(F1, bad):
    """The integer invariants of the Chern-data classes, of a destabilizer
    context and of an element of S' are ints: a float, a bool or even an
    integral Fraction raises a ValueError naming the field."""
    calls = [(lambda: Dim2Chern(XI, ZERO2, bad, 0), "k2"),
             (lambda: Dim2Chern(XI, ZERO2, 0, bad), "n"),
             (lambda: Dim1Chern(XI, bad, 1), "m"),
             (lambda: Dim1Chern(XI, 1, bad), "chi"),
             (lambda: K3Invariants(bad, 0, 0, 0), "r"),
             (lambda: K3Invariants(1, bad, 0, 0), "m"),
             (lambda: K3Invariants(1, 0, bad, 0), "l"),
             (lambda: K3Invariants(1, 0, 0, bad), "n"),
             (lambda: compute_s1(F1, XI, bad, 1), "k2"),
             (lambda: compute_s1(F1, XI, 0, bad), "n"),
             (lambda: enumerate_S(F1, XI, bad, 1), "k2"),
             (lambda: enumerate_S(F1, XI, 0, bad), "n"),
             (lambda: enumerate_Sprime(F1, XI, bad, 1), "k2"),
             (lambda: enumerate_Sprime(F1, XI, 0, bad), "n"),
             (lambda: f_s_value(F1, 2, SElement(XI, bad, 1), XI, 0, 1), "l"),
             (lambda: f_s_value(F1, 2, SElement(XI, 0, bad), XI, 0, 1), "m"),
             (lambda: f_s_value(F1, 2, SElement(XI, 0, 1), XI, bad, 1), "k2"),
             (lambda: f_s_value(F1, 2, SElement(XI, 0, 1), XI, 0, bad), "n")]
    for call, field in calls:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            call()


def test_chi_dim2_examples(F1):
    assert chi_dim2(F1, vertical(ZERO2, 0, 0)) == 0
    assert chi_dim2(F1, vertical(XI, 0, 0)) == 2
    assert chi_dim2(F1, vertical(XI, 0, 2)) == 0


# ---------------------------------------------------------------------------
# destabilizer sets


def test_enumerate_S_example(F1):
    got = [(e.Cprime.coords, e.l, e.m) for e in enumerate_S(F1, XI, 0, 1)]
    assert got == [((0, 0), 0, 0), ((0, 0), 0, 1), ((0, 1), 0, 0),
                   ((0, 1), 0, 1), ((0, 1), 1, 0), ((0, 1), 1, 1)]


def test_enumerate_S_n0_forces_m0(F1):
    assert all(e.m == 0 for e in enumerate_S(F1, XI, 0, 0))


def test_enumerate_S_p2(P2):
    h = BaseClass((1,))
    # chi = 1 needs k2 = 2 + K.h = -1
    got = [(e.Cprime.coords, e.l, e.m) for e in enumerate_S(P2, h, -1, 0)]
    assert got == [((0,), 0, 0), ((1,), 0, 0), ((1,), 1, 0)]


def test_enumerate_S_preconditions(F1):
    with pytest.raises(ValueError):
        enumerate_S(F1, XI, -2, 1)  # chi = 0
    with pytest.raises(ValueError):
        enumerate_S(F1, BaseClass((0, -1)), 0, 1)
    with pytest.raises(ValueError):
        enumerate_S(F1, XI, 0, -1)


def test_enumerate_Sprime_examples(F1, P2):
    got = [(e.Cprime.coords, e.l, e.m) for e in enumerate_Sprime(F1, XI, 0, 1)]
    assert got == [((0, 1), 0, 0), ((0, 1), 0, 1)]
    h = BaseClass((1,))
    assert [(e.Cprime.coords, e.l, e.m) for e in enumerate_Sprime(P2, h, -1, 0)] == \
        [((1,), 0, 0)]


def _large_contexts(B):
    """(C, k2, n, chi) with C <= 2(-K) and |K.C| > 6, chi in {1, 2} and
    n in {0, 1, 2}: the supports beyond the |K.C| <= 6 cap of acceptance
    criteria 4 and 5."""
    for C in enumerate_subeffective(B, 2 * B.minus_canonical):
        kc = pair_base(B, B.canonical, C)
        if -kc > 6:
            for chi in (1, 2):
                for n in (0, 1, 2):
                    yield C, 2 * chi + kc, n, chi


def test_S_bounds_grid(F1, P2):
    """0 <= l <= chi and |n l - m chi| <= n chi on large supports."""
    for B in (F1, P2):
        for C, k2, n, chi in _large_contexts(B):
            for e in enumerate_S(B, C, k2, n):
                assert 0 <= e.l <= chi
                assert abs(n * e.l - e.m * chi) <= n * chi


def test_f_s_examples(F1):
    e01 = SElement(XI, 0, 1)
    e00 = SElement(XI, 0, 0)
    assert f_s_value(F1, 2, e01, XI, 0, 1) == -3
    assert f_s_value(F1, 3, e00, XI, 0, 1) == -4
    # s = 1 kills the first term
    assert f_s_value(F1, 1, e01, XI, 0, 1) == 0 * 1 - 1 * 1
    with pytest.raises(ValueError):
        f_s_value(F1, 2, SElement(ZERO2, 0, 0), XI, 0, 1)  # not in S'


def test_compute_s1_examples(F1, P2):
    assert compute_s1(F1, XI, 0, 1) == 1
    assert compute_s1(F1, XI, 0, 0) == 1
    h = BaseClass((1,))
    assert compute_s1(P2, h, -1, 5) == 1


def test_compute_s1_nontrivial(F1):
    """A context where the threshold moves strictly above 1."""
    k2 = 2 * 2 + pair_base(F1, F1.canonical, XI)  # chi = 2
    n = 3
    s1 = compute_s1(F1, XI, k2, n)
    assert s1 == Fraction(5, 2)
    # soundness just above the threshold, saturation at the threshold itself
    for e in enumerate_Sprime(F1, XI, k2, n):
        assert f_s_value(F1, s1 + Fraction(1, 7), e, XI, k2, n) < 0
    assert any(f_s_value(F1, s1, e, XI, k2, n) == 0
               for e in enumerate_Sprime(F1, XI, k2, n))


def test_s1_soundness_grid(F1, P2):
    for B in (F1, P2):
        for C, k2, n, _ in _large_contexts(B):
            s1 = compute_s1(B, C, k2, n)
            for e in enumerate_Sprime(B, C, k2, n):
                assert f_s_value(B, s1 + 1, e, C, k2, n) < 0


def test_f_s_membership_matches_enumeration(F1, P2):
    """f_s_value accepts exactly the elements of S' (as enumerated) on the
    contexts of acceptance criterion 5.  Elements of S with d1 = 0 and
    elements of S' perturbed in one defining condition are rejected."""
    rejected = {"d1 = 0": 0, "half-integral l": 0}
    for B in (F1, P2):
        beyond = B.effective_generators[0]
        for C, k2, n, _ in contexts(B):
            sprime = enumerate_Sprime(B, C, k2, n)
            members = set(sprime)
            for e in enumerate_S(B, C, k2, n):
                if e in members:
                    f_s_value(B, 2, e, C, k2, n)
                else:
                    with pytest.raises(ValueError):
                        f_s_value(B, 2, e, C, k2, n)
                    rejected["d1 = 0"] += 1
            if not sprime:
                continue
            # perturbations that keep d1 <= -1, so only the named condition fails
            e = max(sprime, key=lambda x: x.l)
            bad = [SElement(e.Cprime, e.l, n + 1), SElement(C + beyond, e.l, e.m)]
            if e.l >= 1:
                bad.append(SElement(e.Cprime, e.l - Fraction(1, 2), e.m))
                rejected["half-integral l"] += 1
            for x in bad:
                with pytest.raises(ValueError):
                    f_s_value(B, 2, x, C, k2, n)
    assert all(rejected.values()), rejected


def test_enumerate_Sprime_is_the_filter_of_S(F1, P2):
    """The direct generation of S' equals the filter of S by
    |K.C| l - |K.C'| chi <= -1, order included, on the criterion-5 contexts."""
    for B in (F1, P2):
        for C, k2, n, chi in contexts(B):
            kc = -pair_base(B, B.canonical, C)
            expected = [e for e in enumerate_S(B, C, k2, n)
                        if kc * e.l + pair_base(B, B.canonical, e.Cprime) * chi <= -1]
            assert enumerate_Sprime(B, C, k2, n) == expected


def test_compute_s1_is_the_max_over_Sprime(F1, P2):
    """s1 from one term per sub-effective class equals the maximum of
    1 + d2 / (-d1) over every element of S'."""
    for B in (F1, P2):
        for C, k2, n, chi in contexts(B):
            kc = -pair_base(B, B.canonical, C)
            best = Fraction(1)
            for e in enumerate_Sprime(B, C, k2, n):
                d1 = kc * e.l + pair_base(B, B.canonical, e.Cprime) * chi
                best = max(best, 1 + Fraction(n * e.l - e.m * chi, -d1))
            assert compute_s1(B, C, k2, n) == best


def _p2_context(a, chi, n):
    """(C, k2, n) on P2 with C = a h and the given chi."""
    return BaseClass((a,)), 2 * chi - 3 * a, n


def test_destabilizer_sizes_at_the_cap(P2):
    """On P2 with chi = 1, C = a h: S has (n + 1)(a + 2) elements, S' has
    (n + 1) a, and C has a + 1 sub-effective classes.  Sizes equal to the
    cap are accepted, one more is refused before anything is built."""
    assert MAX_ENUMERATION == 100 * 1000
    # |S| = 100 * 1000 and |S'| = 100 * 1000
    assert len(enumerate_S(P2, *_p2_context(998, 1, 99))) == MAX_ENUMERATION
    assert len(enumerate_Sprime(P2, *_p2_context(1000, 1, 99))) == MAX_ENUMERATION
    # 100001 = 11 * 9091
    with pytest.raises(ValueError, match="^S\\(.* has 100001 elements, more than the cap"):
        enumerate_S(P2, *_p2_context(9089, 1, 10))
    with pytest.raises(ValueError, match="^S'\\(.* has 100001 elements, more than the cap"):
        enumerate_Sprime(P2, *_p2_context(9091, 1, 10))
    # s1 runs over the sub-effective classes only
    assert compute_s1(P2, *_p2_context(MAX_ENUMERATION - 1, 1, 3)) == 1
    with pytest.raises(ValueError, match="has 100001 elements, more than the cap"):
        compute_s1(P2, *_p2_context(MAX_ENUMERATION, 1, 3))


# ---------------------------------------------------------------------------
# K3-pencil quantities


def test_delta_examples():
    assert delta_discriminant(K3Invariants(1, 0, 7, 4)) == 4
    assert delta_discriminant(K3Invariants(2, 1, 0, 3)) == Fraction(5, 2)
    assert delta_discriminant(K3Invariants(1, 1, 1, 0)) == 0
    assert delta_discriminant(K3Invariants(2, 3, 0, 1)) == Fraction(-7, 2)


def test_wall_bound_examples():
    assert wall_bound_ts(1, 0) == 2
    assert wall_bound_ts(1, 4) == Fraction(2, 5)
    assert wall_bound_ts(2, 3) == Fraction(2, 25)
    with pytest.raises(ValueError):
        wall_bound_ts(1, -1)


def test_enumerate_Gamma_examples():
    assert enumerate_Gamma(0, 1) == [((0, 1),)]
    got = enumerate_Gamma(1, 2)
    assert sorted(got) == sorted([((1, 2),), ((0, 1), (1, 1)), ((1, 1), (0, 1))])
    for n in range(0, 7):
        assert len(enumerate_Gamma(n, 1)) == 1


def gamma_by_product_filter(n, r):
    """Gamma(n, r) as first implemented: the r-tuples and n-tuples of each
    length j filtered out of full products (r^r work).  Oracle for the
    elements and their order."""
    out = []
    for j in range(1, r + 1):
        rs = [c for c in itertools.product(range(1, r + 1), repeat=j) if sum(c) == r]
        ns = [c for c in itertools.product(range(n + 1), repeat=j) if sum(c) == n]
        for rtuple in rs:
            for ntuple in ns:
                out.append(tuple(zip(ntuple, rtuple)))
    return out


def test_enumerate_Gamma_matches_product_filter():
    for r in range(1, 7):
        for n in range(0, 5):
            assert enumerate_Gamma(n, r) == gamma_by_product_filter(n, r), (n, r)


def test_gamma_parts_are_the_parts_of_Gamma():
    for r in range(1, 7):
        for n in range(0, 5):
            assert gamma_parts(n, r) == {part for element in enumerate_Gamma(n, r)
                                         for part in element}, (n, r)


def test_gamma_sizes_at_the_cap():
    """|Gamma(n, 2)| = n + 2 and the part set of Gamma(0, r) has r
    elements: sizes equal to the cap are accepted, one more is refused."""
    assert len(enumerate_Gamma(MAX_ENUMERATION - 2, 2)) == MAX_ENUMERATION
    with pytest.raises(ValueError, match="has 100001 elements, more than the cap"):
        enumerate_Gamma(MAX_ENUMERATION - 1, 2)
    with pytest.raises(ValueError, match="has at least .* elements, more than the cap"):
        enumerate_Gamma(0, 10 ** 9)
    assert compute_t2(MAX_ENUMERATION, 0, 3) == 6
    with pytest.raises(ValueError, match="has 100001 elements, more than the cap"):
        compute_t2(MAX_ENUMERATION + 1, 0, 3)


def test_compute_t2_rank_200():
    for n in range(0, 4):
        for s in (Fraction(3), Fraction(7, 2)):
            assert compute_t2(200, n, s) == 2 * s / (1 + 200 ** 3 * n)


def test_compute_t2_examples():
    assert compute_t2(1, 0, 2) == 4
    assert compute_t2(2, 1, 3) == Fraction(2, 3)
    for n in range(0, 5):
        s = Fraction(7, 3)
        assert compute_t2(1, n, s) == 2 * s / (1 + n)


def test_eta_wall_examples():
    gamma = K3Invariants(1, 0, 0, 0)
    w = eta_wall(K3Invariants(1, 1, 0, 0), gamma, 2)
    assert w.intercept == 4 and w.coeff == -2 and w.root == 2
    w0 = eta_wall(K3Invariants(1, 0, 3, 0), gamma, 2)
    assert w0.intercept == 0 and w0.root == 0
    degenerate = eta_wall(K3Invariants(1, 0, 0, 0), gamma, 2)
    assert degenerate.identically_zero and degenerate.root is None
    # coefficient zero, intercept nonzero: no root
    no_root = eta_wall(K3Invariants(1, 1, 2, 0), K3Invariants(1, 0, 0, 0), 2)
    assert no_root.coeff == 0 and no_root.intercept == 4
    assert no_root.root is None and not no_root.identically_zero


def test_slope_difference_sign_analysis(F1):
    """Calibrated slope differences mu_sub - mu_whole.

    With equality at the calibration point t* the difference at tau is
    s (tau - t*) / (t* tau (s - tau/2)) * K_B.alpha / |K_B.C_sub|: it
    vanishes identically when K_B.alpha = 0, and for K_B.alpha > 0 it is
    strictly monotone in tau and negative below t* (the difference only
    drops as the polarization parameter shrinks, so destabilization can
    happen at larger t only).
    """
    rng = random.Random(31)
    kc_sub, kc_whole = 2, 4  # |K.Xi| and |K.2Xi| on F1
    for _ in range(80):
        s = Fraction(rng.randint(3, 9))
        t_cal = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        alpha = rng.choice([ZERO2, BaseClass((-1, 0)), BaseClass((-2, -1))])
        ka = pair_base(F1, F1.canonical, alpha)
        assert ka >= 0
        k_whole = Fraction(rng.randint(-4, 4))
        # choose the sub's ch2 fiber coefficient so the slopes agree at t_cal
        k_sub = kc_sub * k_whole / kc_whole - (1 - s / t_cal) * ka

        def diff(tau, _ka=ka, _s=s, _kw=k_whole, _ks=k_sub):
            mu_sub = ((1 - _s / tau) * _ka + _ks) / ((_s - tau / 2) * kc_sub)
            mu_whole = _kw / ((_s - tau / 2) * kc_whole)
            return mu_sub - mu_whole

        assert diff(t_cal) == 0
        taus = sorted({Fraction(rng.randint(1, 40), 20) for _ in range(6)})
        values = [diff(tau) for tau in taus]
        if ka == 0:
            assert all(v == 0 for v in values)
        else:
            assert all(b > a for a, b in zip(values, values[1:]))
            for tau, v in zip(taus, values):
                assert (v < 0) == (tau < t_cal)
                assert (v > 0) == (tau > t_cal)


def test_delta_additivity_deficit():
    rng = random.Random(17)
    for _ in range(120):
        # slope-equality constraint: b = 2a(1 - s/t) forces opposite signs
        a = rng.choice([x for x in range(-5, 6) if x != 0])
        j = rng.randint(1, 8)
        b = -j if a > 0 else j
        r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
        m1, l1 = rng.randint(-4, 4), rng.randint(-4, 4)
        # realize (a, b) = (r1 m2 - r2 m1, r1 l2 - r2 l1) with r1 | (a + r2 m1)
        m2 = a + r2 * m1
        l2 = b + r2 * l1
        g1 = K3Invariants(1, m1, l1, rng.randint(0, 5))
        g2 = K3Invariants(r2, m2, l2, rng.randint(0, 5))
        d = delta_additivity_deficit(g1, g2)
        assert d == Fraction(a * (a - b), 1 * r2 * (1 + r2))
        assert d > 0


def test_delta_additivity_closed_form_cross_check():
    # the function itself verifies discriminant route == closed form
    rng = random.Random(3)
    for _ in range(200):
        g1 = K3Invariants(rng.randint(1, 5), rng.randint(-5, 5),
                          rng.randint(-5, 5), rng.randint(-3, 6))
        g2 = K3Invariants(rng.randint(1, 5), rng.randint(-5, 5),
                          rng.randint(-5, 5), rng.randint(-3, 6))
        delta_additivity_deficit(g1, g2)
