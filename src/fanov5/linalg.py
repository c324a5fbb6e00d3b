"""Small exact linear algebra over prime fields and the rationals.

Matrices are tuples of row tuples.  Entries are ints reduced mod p for a
prime field, or fractions.Fraction over the rationals.  Over F_p rows are
reduced by ordinary Gauss-Jordan elimination.  Over Q each row is scaled to
integers and eliminated fraction-free over Z (Bareiss, Math. Comp. 22,
1968), so no Fraction is built until a reduced matrix is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Iterator, Sequence, Union

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]

# Miller-Rabin to the first 13 prime bases decides primality below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p >= _MR_LIMIT:
            raise ValueError(f"field size {self.p} is above the supported {_MR_LIMIT - 1}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def normalize(self, x: int) -> int:
        return int(x) % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __str__(self) -> str:
        return f"F{self.p}"


class RationalField:
    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, x) -> Fraction:
        return 1 / Fraction(x)

    def __str__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


QQ = RationalField()
Field = Union[PrimeField, RationalField]


def field_for(q: Union[int, str, None]) -> Field:
    """Field from a JSON-ish tag: a prime, or "rational"/None."""
    if q is None or q == "rational":
        return QQ
    if isinstance(q, bool) or not isinstance(q, (int, str)) or not str(q).lstrip("-").isdigit():
        raise ValueError(f'field q must be a prime or "rational", got {q!r}')
    return PrimeField(int(q))


def matrix(rows: Sequence[Sequence[Entry]], field: Field) -> Matrix:
    return tuple(tuple(field.normalize(x) for x in row) for row in rows)


def mat_vec(m: Matrix, v: Sequence[Entry], field: Field) -> tuple[Entry, ...]:
    return tuple(field.normalize(sum(a * b for a, b in zip(row, v))) for row in m)


def _fraction_free(rows: Sequence[Sequence[Entry]], reduce_above: bool) -> tuple[list[list[int]], int, int]:
    """Bareiss elimination over Z of rational rows, each scaled by its denominators' lcm.

    A pivot p turns every other row into (p*row - f*pivot_row) // prev, an
    exact division by the previous pivot.  ``reduce_above`` also clears the
    rows above (Gauss-Jordan), which leaves every pivot equal to the last
    one.  Returns (integer rows, rank, last pivot).
    """
    m = []
    for row in rows:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(0 if reduce_above else rank + 1, nrows):
            if r == rank:
                continue
            # Below the pivot row the columns left of col are already zero.
            lo = 0 if r < rank else col
            row = m[r]
            f = row[col]
            row[lo:] = [(p * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
        rank += 1
        prev = p
        if rank == nrows:
            break
    return m, rank, prev


def rref(rows: Sequence[Sequence[Entry]], field: Field) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    if isinstance(field, RationalField):
        m, rk, last = _fraction_free(rows, reduce_above=True)
        return tuple(tuple(Fraction(x, last) for x in row) for row in m), rk
    m = [list(field.normalize(x) for x in row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.normalize(inv * x) for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [field.normalize(x - factor * y) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(row) for row in m), rank


def rank(rows: Sequence[Sequence[Entry]], field: Field) -> int:
    if not rows or not rows[0]:
        return 0
    if isinstance(field, RationalField):
        return _fraction_free(rows, reduce_above=False)[1]
    return rref(rows, field)[1]


def row_space_basis(rows: Sequence[Sequence[Entry]], field: Field) -> Matrix:
    """Canonical (RREF) basis of the span of the given rows."""
    if not rows:
        return ()
    reduced, rk = rref(rows, field)
    return reduced[:rk]


def subspaces(field: PrimeField, n: int, dim: Union[int, None] = None) -> Iterator[Matrix]:
    """All subspaces of F_p^n as canonical RREF bases (the 0 space is ``()``).

    Enumerates pivot-column patterns and the free entries to their right;
    each subspace appears exactly once.  Counts follow the Gaussian
    binomials, e.g. 67 subspaces of F_2^4.
    """
    if not isinstance(field, PrimeField):
        raise TypeError("subspace enumeration needs a finite field")
    dims = range(n + 1) if dim is None else [dim]
    for k in dims:
        if k == 0:
            yield ()
            continue
        for pivots in combinations(range(n), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in product(field.elements(), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                yield tuple(tuple(row) for row in rows)


def count_subspaces(p: int, n: int) -> int:
    """Total number of subspaces of F_p^n (sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = 1
        den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total
