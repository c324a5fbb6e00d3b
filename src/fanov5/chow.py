"""Exact intersection theory on the degree-5, index-2 Fano threefold.

The integral Chow ring has one generator in each degree: 1, the
hyperplane class h, the line class l and the point class p, subject to

    h*h = 5l,   h*l = p,   h*h*h = 5p,

and everything above degree 3 vanishes.  Classes carry exact rational
coefficients (fractions.Fraction); Chern data of bundles is integral on
the (h, l, p) basis.  The Todd class is 1 + h + (8/3)l + p: c1 of the
tangent bundle is 2h (index 2) and c2 is 12l, the unique value making
chi(O) = 1; chi(O(1)) = 7 then matches the embedding in P^6, which the
Koszul chase reproduces independently.

Riemann-Roch gives chi(E(t)) as one cubic in t (``_chi_cubic``), which
both ``chi`` and ``hilbert_polynomial`` read.  Solving for Chern data is
closed-form coefficient matching, so the module needs no linear algebra
and imports nothing else from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Union

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class ChowClass:
    """Rational class a0*1 + a1*h + a2*l + a3*p."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(*(a + b for a, b in zip(self.coefficients(), other.coefficients())))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(*(a - b for a, b in zip(self.coefficients(), other.coefficients())))

    def __rmul__(self, s: Scalar) -> "ChowClass":
        return ChowClass(*(Fraction(s) * a for a in self.coefficients()))

    def __mul__(self, other: Union["ChowClass", Scalar]) -> "ChowClass":
        if not isinstance(other, ChowClass):
            return self.__rmul__(other)
        return ChowClass(*_product(self.coefficients(), other.coefficients()))

    def integrate(self) -> Fraction:
        """Degree of the top piece (coefficient on the point class)."""
        return self.a3

    def __str__(self) -> str:
        parts = []
        for coeff, name in zip(self.coefficients(), ("1", "h", "l", "p")):
            if coeff == 0:
                continue
            if name == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _product(x, y):
    """Coefficients of the product on (1, h, l, p), by h*h = 5l, h*l = p."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0,
        x0 * y1 + x1 * y0,
        x0 * y2 + x2 * y0 + 5 * x1 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


def _integral(x: ChowClass) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the coefficients over their least common denominator."""
    den = lcm(*(a.denominator for a in x.coefficients()))
    return tuple(a.numerator * (den // a.denominator) for a in x.coefficients()), den


ONE = ChowClass(1, 0, 0, 0)
H = ChowClass(0, 1, 0, 0)
L = ChowClass(0, 0, 1, 0)
P = ChowClass(0, 0, 0, 1)

# c2 of the tangent bundle, pinned by chi(O) = (1/24) * deg(c1 * c2) = 1.
TANGENT_C1_H = 2
TANGENT_C2_L = 12


def exp_h(t: Scalar) -> ChowClass:
    """exp(t*h) = 1 + t*h + (5t^2/2) l + (5t^3/6) p."""
    t = Fraction(t)
    return ChowClass(1, t, 5 * t * t / 2, 5 * t ** 3 / 6)


@cache
def todd_v5() -> ChowClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 + (c1 c2)/24 evaluated on (h,l,p).

    Computed once: ``ChowClass`` is frozen, so every caller shares the value.
    """
    c1 = TANGENT_C1_H * H
    c2 = TANGENT_C2_L * L
    return ONE + Fraction(1, 2) * c1 + Fraction(1, 12) * (c1 * c1 + c2) + Fraction(1, 24) * (c1 * c2)


@dataclass(frozen=True)
class BundleClass:
    """Rank plus integral Chern classes c1*h, c2*l, c3*p of a bundle."""

    rank: int
    c1: int
    c2: int
    c3: int

    def ch(self) -> ChowClass:
        """Chern character, exact: (r, c1, (c1^2-2c2)/2, (c1^3-3c1c2+3c3)/6)."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        ch2 = Fraction(5 * c1 * c1 - 2 * c2, 2)
        ch3 = Fraction(5 * c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6)
        return ChowClass(self.rank, c1, ch2, ch3)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.rank, self.c1, self.c2, self.c3)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} = {x} is not an integer; Chern data is inconsistent")
    return int(x)


def class_from_ch(rank: int, ch: ChowClass) -> BundleClass:
    """Invert the Chern character; raises when the data is not integral."""
    c1 = _as_int(ch.a1, "c1")
    c2 = _as_int(Fraction(5 * c1 * c1) / 2 - ch.a2, "c2")
    c3 = _as_int((6 * ch.a3 - 5 * c1 ** 3 + 3 * c1 * c2) / 3, "c3")
    return BundleClass(rank=rank, c1=c1, c2=c2, c3=c3)


def _chi_cubic(ch: ChowClass) -> tuple[tuple[int, int, int, int], int]:
    """Integer numerators (t^0..t^3) of chi(E(t)) over one common denominator.

    With g = ch * todd, the integral of g * exp(t*h) is the cubic
    g3 + g2 t + (5/2) g1 t^2 + (5/6) g0 t^3 (as h^2 = 5l, h^3 = 5p).
    """
    x, den = _integral(ch)
    y, todd_den = _integral(todd_v5())
    g0, g1, g2, g3 = _product(x, y)
    return (6 * g3, 6 * g2, 15 * g1, 5 * g0), 6 * den * todd_den


def chi_ch(ch: ChowClass, t: Scalar = 0) -> int:
    """Euler characteristic of a Chern-character class twisted by O(t).

    The cubic of ``_chi_cubic`` evaluated at t = n/m on integers.
    """
    (c0, c1, c2, c3), den = _chi_cubic(ch)
    t = Fraction(t)
    n, m = t.numerator, t.denominator
    num = c0 * m**3 + c1 * n * m * m + c2 * n * n * m + c3 * n**3
    return _as_int(Fraction(num, den * m**3), "chi")


def chi(b: BundleClass, t: int = 0) -> int:
    """chi(E(t)) by the Riemann-Roch formula, exact."""
    return chi_ch(b.ch(), t)


def ch_tensor(a: BundleClass, b: BundleClass) -> ChowClass:
    """Chern character of the tensor product (product of characters)."""
    return a.ch() * b.ch()


def ch_dual(a: BundleClass) -> ChowClass:
    """Chern character of the dual: odd-degree components flip sign."""
    c = a.ch()
    return ChowClass(c.a0, -c.a1, c.a2, -c.a3)


def euler_pairing(a: BundleClass, b: BundleClass) -> int:
    """chi(a, b) = chi(a^dual tensor b)."""
    return chi_ch(ch_dual(a) * b.ch())


def twist_class(b: BundleClass, t: int) -> BundleClass:
    """Chern data of E(t), computed through the character and inverted back."""
    return class_from_ch(b.rank, b.ch() * exp_h(t))


def hilbert_polynomial(b: BundleClass) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coefficients (t^0..t^3) of chi(E(t)); leading term is 5*rank/6.

    Raises ArithmeticError, as ``chi`` does, for Chern data whose cubic is
    not integer-valued; a cubic is integer-valued when it is at t = 0..3.
    """
    for t in range(4):
        chi(b, t)
    coeffs, den = _chi_cubic(b.ch())
    return tuple(Fraction(c, den) for c in coeffs)


def ulrich_class(r: int) -> BundleClass:
    """Chern data forced on a rank-r bundle with no cohomology in twists -1..-3.

    Such a bundle has chi(E(t)) = (5r/6)(t+1)(t+2)(t+3): a cubic with fixed
    leading coefficient 5r/6 vanishing at -1, -2, -3.  Writing the character
    as (r, A*h, B*l, C*p), chi(E(t)) expands to

        (5r/6) t^3 + (5A/2 + 5r/2) t^2 + (B + 5A + 8r/3) t + (C + B + 8A/3 + r),

    and matching it with (5r/6)(t^3 + 6t^2 + 11t + 6) is triangular: the t^2
    coefficient gives A, then t gives B, then the constant gives C.  The
    solution (A, B, C) = (r, 3r/2, -r/6) is always integral Chern data.
    """
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    lead = Fraction(5 * r, 6)
    a = (6 * lead - Fraction(5 * r, 2)) * Fraction(2, 5)
    b = 11 * lead - 5 * a - Fraction(8 * r, 3)
    c = 6 * lead - b - Fraction(8, 3) * a - r
    return class_from_ch(r, ChowClass(r, a, b, c))


def coker_class(r: int) -> BundleClass:
    """Class of the cokernel of a fiberwise-injective map U^r -> Qstar^r.

    The Chern character is additive on 0 -> U^r -> Qstar^r -> E -> 0, so
    ch E = r (ch Qstar - ch U), of rank 3r - 2r = r; its Chern classes are
    those of (1 + l)^r = 1 + r l.
    """
    if r < 1:
        raise ValueError(f"multiplicity must be positive, got {r}")
    return class_from_ch(r, r * (CATALOG_CLASSES["Qstar"].ch() - CATALOG_CLASSES["U"].ch()))


# Integral Chern data of the restricted catalog bundles on the threefold.
CATALOG_CLASSES: dict[str, BundleClass] = {
    "O": BundleClass(1, 0, 0, 0),
    "U": BundleClass(2, -1, 2, 0),
    "Ustar": BundleClass(2, 1, 2, 0),
    "Q": BundleClass(3, 1, 3, 1),
    "Qstar": BundleClass(3, -1, 3, -1),
    # Sym^2 of a rank-2 bundle with classes (e1, e2): (3e1, 2e1^2 + 4e2, 4e1e2).
    "Sym2Ustar": BundleClass(3, 3, 18, 8),
    # wedge^2 of a rank-3 bundle: (2e1, e1^2 + e2, e1e2 - e3); equals Q(-1).
    "wedge2Qstar": BundleClass(3, -2, 8, -2),
}


def catalog_class(name: str) -> BundleClass:
    try:
        return CATALOG_CLASSES[name]
    except KeyError:
        raise ValueError(f"no Chern data for bundle {name!r}") from None
