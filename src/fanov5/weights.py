"""Integral weights and Weyl-group combinatorics for SL(n).

Weights are written in the basis of fundamental weights w_1..w_{n-1}.
Everything here reduces to bookkeeping on epsilon coordinates
(z_1,...,z_n), where the simple reflection s_i swaps z_i and z_{i+1}.
All arithmetic is plain Python integers, so nothing ever overflows.
``_eps`` is the one conversion to epsilon coordinates.  The
Borel-Weil-Bott path (``dominantize``, ``weyl_dim``) works on its plain
list of ints: it sorts, counts inversions and multiplies differences
there, and builds one ``Weight`` for the result.

Conventions:
  * epsilon vectors are normalised so that the last entry is 0 (type-A
    weights are only defined up to a uniform shift);
  * a weight is singular iff two epsilon coordinates coincide;
  * the Weyl-group length of the sorting element equals the number of
    inversions of the epsilon vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Optional, Sequence


@dataclass(frozen=True)
class Weight:
    """An integral SL(n) weight, coefficients on w_1..w_{n-1}."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank n must be >= 2, got {self.n}")
        if len(self.coeffs) != self.n - 1:
            raise ValueError(
                f"need {self.n - 1} coefficients for SL({self.n}), got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def _check_rank(self, other: "Weight") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: SL({self.n}) vs SL({other.n})")

    def is_strictly_dominant(self) -> bool:
        return all(c >= 1 for c in self.coeffs)

    def describe(self) -> str:
        """Short human form, e.g. ``w1+2w4`` or ``0``."""
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"w{i}")
            elif c == -1:
                parts.append(f"-w{i}")
            else:
                parts.append(f"{c}w{i}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def fundamental(n: int, i: int) -> Weight:
    """The fundamental weight w_i of SL(n); w_0 and w_n are read as 0."""
    if not 0 <= i <= n:
        raise ValueError(f"fundamental weight index {i} out of range for SL({n})")
    coeffs = [0] * (n - 1)
    if 1 <= i <= n - 1:
        coeffs[i - 1] = 1
    return Weight(n, tuple(coeffs))


def rho(n: int) -> Weight:
    """Sum of the fundamental weights, coefficients all 1."""
    return Weight(n, (1,) * (n - 1))


def _eps(coeffs: Sequence[int]) -> list[int]:
    """Epsilon coordinates of fundamental coefficients: z_j - z_{j+1} = coeffs[j], z_n = 0."""
    z = [0]
    for c in reversed(coeffs):
        z.append(z[-1] + c)
    z.reverse()
    return z


def inversions(entries: Sequence[int]) -> int:
    """Number of pairs i<j with entries[i] < entries[j] (0 for sorted-descending)."""
    return sum(x < y for i, x in enumerate(entries) for y in entries[i + 1 :])


@dataclass(frozen=True)
class DominantizationResult:
    """Outcome of sorting lambda+rho into the dominant chamber.

    Either singular (two epsilon coordinates tie, no Weyl element makes the
    weight strictly dominant), or regular with the sorting element's length
    and the strictly dominant image w(lambda+rho).
    """

    singular: bool
    length: Optional[int] = None
    dominant: Optional[Weight] = None

    def __post_init__(self):
        if not self.singular:
            if self.length is None or self.dominant is None:
                raise ValueError("regular result needs length and dominant weight")
            if not self.dominant.is_strictly_dominant():
                raise ValueError(f"dominantization produced {self.dominant}, not strictly dominant")


def dominantize(w: Weight) -> DominantizationResult:
    """Sort the epsilon vector of ``w`` (expected to be lambda+rho) descending.

    Singular when two epsilon coordinates coincide.  Otherwise the length is
    the inversion count of the epsilon vector and ``dominant`` has the
    adjacent differences of the sorted vector as its coefficients.
    """
    z = _eps(w.coeffs)
    if len(set(z)) < len(z):
        return DominantizationResult(singular=True)
    s = sorted(z, reverse=True)
    dominant = Weight(w.n, tuple(map(sub, s, s[1:])))
    return DominantizationResult(singular=False, length=inversions(z), dominant=dominant)


def weyl_dim(shifted: Weight) -> int:
    """Dimension of the SL(n) irreducible with highest weight mu, from mu+rho.

    The input is mu+rho in fundamental coordinates (all coefficients >= 1);
    the value is the product over i<j of (z_i - z_j)/(j - i) in epsilon
    coordinates, evaluated exactly.
    """
    if not shifted.is_strictly_dominant():
        raise ValueError(f"weyl_dim needs a strictly dominant mu+rho, got {shifted.coeffs}")
    z = _eps(shifted.coeffs)
    num = 1
    den = 1
    for i, x in enumerate(z):
        for gap, y in enumerate(z[i + 1 :], start=1):
            num *= x - y
            den *= gap
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl product {num}/{den} is not an integer")
    return q


def apply_simple_reflection(w: Weight, i: int) -> Weight:
    """Simple reflection s_i in fundamental coordinates (1 <= i <= n-1).

    Negates coefficient i and adds the old value to both neighbours;
    equivalently swaps z_i and z_{i+1}.
    """
    if not 1 <= i <= w.n - 1:
        raise ValueError(f"reflection index {i} out of range for SL({w.n})")
    c = list(w.coeffs)
    a = c[i - 1]
    c[i - 1] = -a
    if i - 2 >= 0:
        c[i - 2] += a
    if i <= w.n - 2:
        c[i] += a
    return Weight(w.n, tuple(c))


@dataclass(frozen=True)
class ChainStep:
    reflection: int
    weight: Weight


@dataclass(frozen=True)
class ReflectionChain:
    """Step-by-step record of pushing a weight to the dominant chamber.

    ``steps`` lists (reflection index, resulting weight).  The walk stops as
    soon as a coefficient hits 0 (the weight sits on a wall, hence singular)
    or all coefficients are positive (strictly dominant).
    """

    start: Weight
    steps: tuple[ChainStep, ...]
    singular: bool

    @property
    def final(self) -> Weight:
        return self.steps[-1].weight if self.steps else self.start

    @property
    def length(self) -> int:
        return len(self.steps)


def reflection_chain(w: Weight) -> ReflectionChain:
    """Greedy chain: repeatedly reflect at the first negative coefficient.

    Each such step removes exactly one inversion, so for a regular weight the
    number of steps equals ``dominantize(w).length`` and the final weight is
    ``dominantize(w).dominant``.
    """
    steps: list[ChainStep] = []
    cur = w
    while True:
        if any(c == 0 for c in cur.coeffs):
            return ReflectionChain(start=w, steps=tuple(steps), singular=True)
        neg = next((idx for idx, c in enumerate(cur.coeffs, start=1) if c < 0), None)
        if neg is None:
            return ReflectionChain(start=w, steps=tuple(steps), singular=False)
        cur = apply_simple_reflection(cur, neg)
        steps.append(ChainStep(reflection=neg, weight=cur))
