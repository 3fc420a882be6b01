"""Picard lattices of Fano base surfaces.

A base surface is described by an integral intersection form on its Picard
lattice, the coordinates of the canonical class, and the extremal generators
of the effective cone.  Curve and divisor classes share one coordinate type:
the intersection form is unimodular, so the two lattices are identified.

Built-in presets cover the bases used for elliptic K3 pencils:

* ``P2`` - the projective plane, basis (h), K = -3h;
* ``F0`` - the quadric P1 x P1, basis (C0, Xi) the two rulings, K = -2C0 - 2Xi;
* ``F1`` - the Hirzebruch surface, basis (C0, Xi) with C0^2 = -1 the section
  and Xi the ruling fiber, K = -2C0 - 3Xi.

Effective cones are required to be simplicial: exactly rank linearly
independent generators (the effective cone of a projective surface contains
the open ample cone, so it is full-dimensional), and effectivity means
membership in the monoid of non-negative integer combinations of the
generators.  All preset cones are of this form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

Rat = int | Fraction


def _as_rat(x) -> Rat:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected integer or Fraction coordinate, got {type(x).__name__}")


@dataclass(frozen=True)
class BaseClass:
    """A divisor/curve class on the base in the chosen lattice basis."""

    coords: tuple[Rat, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_as_rat(c) for c in coords))

    def __len__(self):
        return len(self.coords)

    def __add__(self, other: "BaseClass") -> "BaseClass":
        return BaseClass(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "BaseClass") -> "BaseClass":
        return BaseClass(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "BaseClass":
        return BaseClass(tuple(-a for a in self.coords))

    def __rmul__(self, c: Rat) -> "BaseClass":
        return BaseClass(tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coords)


def zero_class(rank: int) -> BaseClass:
    return BaseClass((0,) * rank)


@dataclass(frozen=True)
class BaseSurface:
    """Fano base lattice: intersection form, canonical class, effective cone.

    Equality is decided by the lattice data alone; the name is a label."""

    name: str = field(compare=False)
    rank: int
    gram: tuple[tuple[int, ...], ...]
    canonical: BaseClass
    effective_generators: tuple[BaseClass, ...]

    def __repr__(self):
        return f"BaseSurface({self.name!r}, rank={self.rank})"

    @property
    def minus_canonical(self) -> BaseClass:
        return -self.canonical

    def k_squared(self) -> Rat:
        return pair_base(self, self.canonical, self.canonical)


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination; entries stay integral."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


_PRESETS: dict[str, dict] = {
    "P2": {
        "gram": ((1,),),
        "canonical": (-3,),
        "effective": ((1,),),
    },
    "F0": {
        "gram": ((0, 1), (1, 0)),
        "canonical": (-2, -2),
        "effective": ((1, 0), (0, 1)),
    },
    "F1": {
        "gram": ((-1, 1), (1, 0)),
        "canonical": (-2, -3),
        "effective": ((1, 0), (0, 1)),
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def make_base(preset_or_gram, canonical=None, effective_generators=None,
              name: str = "custom") -> BaseSurface:
    """Build and validate a base surface.

    Either pass a preset name (P2, F0 or F1), or a gram matrix together
    with ``canonical`` and ``effective_generators``.  Validation enforces:
    symmetric unimodular gram, -K pairing strictly positively with every
    effective generator, and rank linearly independent (simplicial)
    generators.
    """
    if isinstance(preset_or_gram, str):
        key = preset_or_gram.strip().upper()
        if key not in _PRESETS:
            raise ValueError(f"unknown base preset {preset_or_gram!r}; "
                             f"choose from {sorted(_PRESETS)}")
        data = _PRESETS[key]
        return make_base(data["gram"], data["canonical"], data["effective"], name=key)

    gram = tuple(tuple(int(v) for v in row) for row in preset_or_gram)
    rank = len(gram)
    if rank < 1:
        raise ValueError("base needs Picard rank >= 1")
    if any(len(row) != rank for row in gram):
        raise ValueError("gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(rank) for j in range(rank)):
        raise ValueError("gram matrix must be symmetric")
    if abs(int_det(gram)) != 1:
        raise ValueError("gram matrix must be unimodular (|det| = 1)")
    if canonical is None or effective_generators is None:
        raise ValueError("custom base needs canonical class and effective generators")
    K = canonical if isinstance(canonical, BaseClass) else BaseClass(canonical)
    if len(K) != rank:
        raise ValueError("canonical class has wrong length")
    gens = tuple(g if isinstance(g, BaseClass) else BaseClass(g) for g in effective_generators)
    for g in gens:
        if len(g) != rank:
            raise ValueError("effective generator has wrong length")
        if not g.is_integral():
            raise ValueError("effective generators must be integral")
    if len(gens) != rank:
        raise ValueError(f"a simplicial effective cone needs exactly rank = {rank} "
                         f"generators, got {len(gens)}")
    if int_det([g.coords for g in gens]) == 0:
        raise ValueError("effective generators are linearly dependent (non-simplicial cone)")
    surface = BaseSurface(name=name, rank=rank, gram=gram, canonical=K,
                          effective_generators=gens)
    for g in gens:
        if pair_base(surface, surface.minus_canonical, g) <= 0:
            raise ValueError("base is not Fano: -K does not pair positively with "
                             f"effective generator {g.coords}")
    return surface


def pair_base(B: BaseSurface, a: BaseClass, b: BaseClass) -> Rat:
    """Intersection pairing a . b on the base."""
    if len(a) != B.rank or len(b) != B.rank:
        raise ValueError("class length does not match base rank")
    total = 0
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        row = B.gram[i]
        total += ai * sum(row[j] * bj for j, bj in enumerate(b.coords) if bj != 0)
    return total


def effective_coefficients(B: BaseSurface, C: BaseClass) -> tuple[int, ...] | None:
    """Coefficients of C over the effective generators, or None if C is not
    a non-negative integer combination of them.  The generators are a basis
    of the rational Picard space, so Cramer's rule gives the coefficients as
    quotients of integer determinants."""
    if len(C) != B.rank:
        raise ValueError("class length does not match base rank")
    if not C.is_integral():
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


def is_effective_base(B: BaseSurface, C: BaseClass) -> bool:
    """Cone membership; the zero class counts as effective."""
    return effective_coefficients(B, C) is not None


def enumerate_subeffective(B: BaseSurface, C: BaseClass) -> list[BaseClass]:
    """All classes C' with C' and C - C' both effective, in lexicographic
    coordinate order.  Always contains 0 and C."""
    coeffs = effective_coefficients(B, C)
    if coeffs is None:
        raise ValueError(f"class {C.coords} is not effective on {B.name}")
    gens = B.effective_generators
    out = []
    for combo in itertools.product(*(range(a + 1) for a in coeffs)):
        cls = zero_class(B.rank)
        for c, g in zip(combo, gens):
            cls = cls + c * g
        out.append(cls)
    out.sort(key=lambda cls: cls.coords)
    return out


def is_ample_base(B: BaseSurface, eta: BaseClass) -> bool:
    """Nakai test on the effective cone: eta.g > 0 on every generator and
    eta^2 > 0."""
    if any(pair_base(B, eta, g) <= 0 for g in B.effective_generators):
        return False
    return pair_base(B, eta, eta) > 0


def basis_class(B: BaseSurface, i: int) -> BaseClass:
    coords = [0] * B.rank
    coords[i] = 1
    return BaseClass(coords)


def has_k3_pencil(B: BaseSurface) -> bool:
    """Whether the basis is (C0, Xi) for an elliptic K3 pencil, decided by the
    lattice: rank 2, both basis classes effective, Xi^2 = 0, K.Xi = -2 and
    C0.Xi = 1, so that p^*Xi is a K3 fiber and C0 a section (F0, F1)."""
    if B.rank != 2:
        return False
    c0, xi = basis_class(B, 0), basis_class(B, 1)
    return (is_effective_base(B, c0) and is_effective_base(B, xi)
            and pair_base(B, xi, xi) == 0
            and pair_base(B, B.canonical, xi) == -2
            and pair_base(B, c0, xi) == 1)


def require_k3_pencil(B: BaseSurface) -> None:
    if not has_k3_pencil(B):
        raise ValueError(f"base {B.name} has no elliptic K3 pencil: need rank 2 "
                         "and a (C0, Xi) basis with Xi^2 = 0, K.Xi = -2, C0.Xi = 1")


def base_to_json(B: BaseSurface) -> dict:
    return {
        "name": B.name,
        "gram": [list(row) for row in B.gram],
        "canonical": list(B.canonical.coords),
        "effective": [list(g.coords) for g in B.effective_generators],
    }


def base_from_json(data: dict) -> BaseSurface:
    from .jsonio import int_vector, json_list, json_object

    data = json_object(data, "base")
    gram, effective = ([int_vector(row, key) for row in json_list(data[key], key)]
                       for key in ("gram", "effective"))
    return make_base(gram, int_vector(data["canonical"], "canonical"), effective,
                     name=data.get("name", "custom"))
