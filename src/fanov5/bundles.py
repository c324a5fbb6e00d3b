"""Irreducible equivariant bundles on Grassmannians and their cohomology.

A bundle on Gr(k,n) is encoded by a weight of SL(n) that is dominant for
the maximal parabolic P_k (nonnegative coefficients away from the marked
node k), together with the node itself; the group size n is derived from
the weight.  Twisting by O(j) adds j*w_k.
Cohomology is computed by the classical dominantization algorithm: shift
by rho, sort the epsilon vector; a tie kills all cohomology, otherwise a
single group of dimension given by the Weyl product survives in degree
equal to the inversion count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .weights import Weight, dominantize, fundamental, weyl_dim

@dataclass(frozen=True)
class EquivariantBundle:
    """Irreducible equivariant bundle on Gr(k,n) given by a P_k-dominant weight of SL(n)."""

    k: int
    weight: Weight
    # A name for ``describe``, not part of the bundle: U(+1)(-1) is U.
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if type(self.k) is not int:
            raise ValueError(f"marked node {self.k!r} is not an integer")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"marked node {self.k} out of range for SL({self.n})")
        for i, c in enumerate(self.weight.coeffs, start=1):
            if i != self.k and c < 0:
                raise ValueError(
                    f"weight {self.weight.coeffs} is not dominant for P_{self.k}: "
                    f"negative coefficient at unmarked node {i}"
                )

    @property
    def n(self) -> int:
        return self.weight.n

    @property
    def dim_space(self) -> int:
        """Dimension k(n-k) of the underlying Grassmannian."""
        return self.k * (self.n - self.k)

    def describe(self) -> str:
        base = self.label or f"E[{self.weight.describe()}]"
        return f"{base} on Gr({self.k},{self.n})"


@dataclass(frozen=True)
class CohomologyEntry:
    dim: int
    highest_weight: Optional[Weight] = None


@dataclass(frozen=True)
class CohomologyTable:
    """Map degree -> (dimension, optional highest weight); absent degree means 0."""

    entries: tuple[tuple[int, CohomologyEntry], ...]

    @staticmethod
    def from_dict(d: dict[int, CohomologyEntry]) -> "CohomologyTable":
        return CohomologyTable(tuple(sorted(d.items())))

    def dim(self, i: int) -> int:
        for deg, entry in self.entries:
            if deg == i:
                return entry.dim
        return 0

    def is_zero(self) -> bool:
        return not self.entries

    def dims(self) -> dict[int, int]:
        return {deg: entry.dim for deg, entry in self.entries}

    def euler_characteristic(self) -> int:
        return sum((-1) ** deg * entry.dim for deg, entry in self.entries)


# The named bundles on Gr(k,n): the weight of each as a function of (n, k).
_CATALOG = {
    "U": lambda n, k: fundamental(n, k - 1) - fundamental(n, k),
    "Ustar": lambda n, k: fundamental(n, k - 1),
    "Q": lambda n, k: fundamental(n, n - 1),
    "Qstar": lambda n, k: fundamental(n, k + 1) - fundamental(n, k),
    "O": lambda n, k: fundamental(n, 0),
    "Sym2Ustar": lambda n, k: fundamental(n, k - 1) + fundamental(n, k - 1),
    "wedge2Qstar": lambda n, k: fundamental(n, k + 2) - fundamental(n, k),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, n: int = 5, k: int = 2) -> EquivariantBundle:
    """Named bundles on Gr(k,n); defaults give the Gr(2,5) cast.

    U / Ustar are the tautological subbundle and its dual, Q / Qstar the
    quotient bundle and its dual, O the trivial line bundle, Sym2Ustar the
    symmetric square of Ustar, and wedge2Qstar the second exterior power of
    Qstar (isomorphic to Q(-1), which pins down its weight w_{k+2} - w_k,
    so it needs k+2 <= n).
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown bundle name {name!r}; expected one of {CATALOG_NAMES}")
    return EquivariantBundle(k=k, weight=_CATALOG[name](n, k), label=name)


def twist(b: EquivariantBundle, j: int) -> EquivariantBundle:
    """Tensor with O(j), i.e. add j*w_k to the defining weight."""
    if j == 0:
        return b
    new_label = None
    if b.label:
        new_label = f"{b.label}({j:+d})"
    coeffs = list(b.weight.coeffs)
    coeffs[b.k - 1] += j
    return EquivariantBundle(k=b.k, weight=Weight(tuple(coeffs)), label=new_label)


def bundle_rank(b: EquivariantBundle) -> int:
    """Rank = product of the Weyl dimensions of the two Levi blocks.

    The SL(k) block sees coefficients 1..k-1, the SL(n-k) block sees
    coefficients k+1..n-1; the marked coefficient only twists.
    """
    c = b.weight.coeffs
    left = _segment_dim(c[: b.k - 1])
    right = _segment_dim(c[b.k :])
    return left * right


def _segment_dim(coeffs: tuple[int, ...]) -> int:
    if not coeffs:
        return 1
    return weyl_dim(Weight(tuple(x + 1 for x in coeffs)))


def cohomology(b: EquivariantBundle) -> CohomologyTable:
    """Full cohomology table of an irreducible equivariant bundle.

    Empty when weight+rho is singular; otherwise one entry in degree
    length(w), of dimension weyl_dim(w(weight+rho)) with highest weight
    w(weight+rho) - rho.  rho has every coefficient 1, so the shift in and
    out is a +-1 on each coefficient.
    """
    res = dominantize(Weight(tuple(c + 1 for c in b.weight.coeffs)))
    if res.singular:
        return CohomologyTable(())
    hw = Weight(tuple(c - 1 for c in res.dominant.coeffs))
    entry = CohomologyEntry(dim=weyl_dim(res.dominant), highest_weight=hw)
    return CohomologyTable(((res.length, entry),))
