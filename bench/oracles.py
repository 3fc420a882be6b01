"""Independent routes for every quantity the benchmark checks.

Nothing here imports ellfm: each value is recomputed from the documented
definitions (closed forms, brute-force enumeration over the defining
inequalities, integer series recurrences), so a wrong library answer cannot
also be the expected one.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The preset lattices as documented in the README: gram matrix, canonical
# class, and an effective cone generated by the coordinate vectors.
PRESETS = {
    "P2": {"gram": ((1,),), "K": (-3,)},
    "F0": {"gram": ((0, 1), (1, 0)), "K": (-2, -2)},
    "F1": {"gram": ((-1, 1), (1, 0)), "K": (-2, -3)},
}


def pair(base: str, a, b) -> int:
    gram = PRESETS[base]["gram"]
    return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def kdot(base: str, c) -> int:
    return pair(base, PRESETS[base]["K"], c)


# -- slopes, thresholds, transform -----------------------------------------

def slope(base: str, C, alpha, k2: int, n: int, t: Fraction, s: Fraction, chi=None):
    """(mu, nu, chi) from the closed forms for omega = t Theta - s p^*K."""
    area = t * (2 * s - t) * abs(kdot(base, C))
    mu = (2 * (t - s) * kdot(base, alpha) + t * k2) / area
    if chi is None:
        chi = Fraction(-n - kdot(base, C))
    return mu, 2 * Fraction(chi) / area, Fraction(chi)


def t2(r: int, n: int, s: Fraction) -> Fraction:
    return 2 * s / (1 + r ** 3 * n)


def k3_delta(r: int, m: int, l: int, n: int) -> Fraction:
    return n - Fraction(m * (m - l), r)


def destabilizers(base: str, C, chi: int, n: int):
    """Brute force over the defining inequalities of S(C, k, n): C' and
    C - C' effective, l >= 0, 0 <= m <= n, |K.C| l - |K.C'| chi <= 0.

    Returns (|S|, S' as a list of (C', l, m, d1, d2)) with
    d1 = |K.C| l - |K.C'| chi and d2 = n l - m chi.
    """
    kc = abs(kdot(base, C))
    size = 0
    sprime = []
    for Cp in sub_classes(C):
        kcp = abs(kdot(base, Cp))
        l = 0
        while kc * l - kcp * chi <= 0:
            d1 = kc * l - kcp * chi
            for m in range(n + 1):
                size += 1
                if d1 <= -1:
                    sprime.append((Cp, l, m, d1, n * l - m * chi))
            l += 1
    return size, sprime


def s1_brute(sprime) -> Fraction:
    """Infimum of s >= 1 with (s-1) d1 + d2 < 0 on all of S' (d1 < 0)."""
    best = Fraction(1)
    for *_, d1, d2 in sprime:
        best = max(best, 1 + Fraction(d2, -d1))
    return best


def f_s(s: Fraction, d1: int, d2: int) -> Fraction:
    return (s - 1) * d1 + d2


def sub_classes(C):
    """All C' with 0 <= C' <= C coordinatewise (the sub-effective classes
    of C for a cone generated by the coordinate vectors)."""
    out = [()]
    for c in C:
        out = [prefix + (x,) for prefix in out for x in range(c + 1)]
    return out


def lattice_matrix(base: str):
    """Pairing of {Theta, p^*e_i} with {f, sigma_*e_j}: Theta.f = 1,
    Theta.sigma_*C = K.C, p^*e.f = 0, p^*e_i.sigma_*e_j = gram[i][j]."""
    gram = PRESETS[base]["gram"]
    rank = len(gram)
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rows = [[1] + [kdot(base, e) for e in unit]]
    rows += [[0] + list(gram[i]) for i in range(rank)]
    # block triangular, so det = det(gram); presets have rank <= 2
    det = gram[0][0] if rank == 1 else gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    return rows, det


# -- multicover tables ------------------------------------------------------

def _gcd3(g) -> int:
    return math.gcd(math.gcd(abs(g[0]), abs(g[1])), abs(g[2]))


def moebius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def multicover(omega: dict) -> dict:
    """DT(g) = sum over m | gcd(g) of Omega(g/m) / m^2."""
    return {g: sum((Fraction(omega[tuple(x // m for x in g)], m * m)
                    for m in range(1, _gcd3(g) + 1) if _gcd3(g) % m == 0), Fraction(0))
            for g in omega}


def moebius_inverse(dt: dict) -> dict:
    """Omega(g) = sum over m | gcd(g) of mu(m) DT(g/m) / m^2."""
    return {g: sum((Fraction(moebius(m) * dt[tuple(x // m for x in g)], m * m)
                    for m in range(1, _gcd3(g) + 1) if _gcd3(g) % m == 0), Fraction(0))
            for g in dt}


def closed_support(rng, multiples) -> list[tuple[int, int, int]]:
    """A support closed under division: m * v for 1 <= m <= g over distinct
    primitive directions v, one direction per entry of ``multiples``."""
    seen, support = set(), []
    for g in multiples:
        while True:
            v = (rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 3))
            if _gcd3(v) == 1 and v not in seen:
                break
        seen.add(v)
        support += [tuple(m * x for x in v) for m in range(1, g + 1)]
    return support


# -- the counting series ----------------------------------------------------

class ZOracle:
    """Z_1 in both Delta conventions from integer recurrences, so that
    Z_r[q^e] = Z_1[q^(r e)] checks z_series at every rank.

    1/eta^24 = q^-1 sum a_n q^n with n a_n = 24 sum_k sigma_1(k) a_(n-k);
    eta^24 = q sum b_n q^n with n b_n = -24 sum_k sigma_1(k) b_(n-k);
    E_10 = 1 - 264 sum sigma_9(n) q^n.
    """

    def __init__(self, top: int):
        sigma1 = _sigma(1, top + 2)
        a, b = [1], [1]
        for n in range(1, top + 2):
            acc_a = sum(sigma1[k] * a[n - k] for k in range(1, n + 1))
            acc_b = sum(sigma1[k] * b[n - k] for k in range(1, n + 1))
            a.append(24 * acc_a // n)
            b.append(-24 * acc_b // n)
        sigma9 = _sigma(9, top + 2)
        e10 = [1] + [-264 * sigma9[n] for n in range(1, top + 2)]
        # cusp: -2 q^-1 E10 / prod(1-q^n)^24, paper: -2 q E10 prod(1-q^n)^24
        self.top = top
        self.low = {"cusp": -1, "paper": 1}
        self.coeffs = {
            "cusp": [-2 * sum(e10[i] * a[j - i] for i in range(j + 1)) for j in range(top + 2)],
            "paper": [-2 * sum(e10[i] * b[j - i] for i in range(j + 1)) for j in range(top + 2)],
        }

    def z1(self, convention: str, exponent: int) -> int:
        rel = exponent - self.low[convention]
        if rel < 0:
            return 0
        if exponent > self.top:
            raise ValueError(f"oracle computed through q^{self.top} only")
        return self.coeffs[convention][rel]

    def zr(self, convention: str, r: int, exponent: int) -> int:
        return self.z1(convention, r * exponent)


def _sigma(power: int, upto: int) -> list[int]:
    out = [0] * (upto + 1)
    for d in range(1, upto + 1):
        for multiple in range(d, upto + 1, d):
            out[multiple] += d ** power
    return out


# -- rational series --------------------------------------------------------

def convolve(a, b, n: int) -> list[Fraction]:
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]
