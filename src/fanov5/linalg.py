"""Small exact linear algebra over prime fields and the rationals.

Matrices are tuples of row tuples.  Entries are ints reduced mod p for a
prime field, or fractions.Fraction over the rationals.  ``normalize`` is
the one entry rule, shared with ``quiver.QuiverRep``: over F_p an int
(not a bool), reduced mod p; over Q an int, a Fraction or a fraction
string such as "1/2"; anything else is a ValueError.  ``echelon``, and so
``rank``, ``rref`` and ``row_space_basis``, apply it on entry, except on
the all-int rows over Q, which need no conversion; they also refuse rows
of unequal length.  ``echelon`` gives the echelon rows of a matrix as
(pivot, row) pairs on ints over both fields, and ``rank`` is their
number.  Over F_p one kernel, ``echelon_extend``, folds rows into a
semi-echelon basis with monic pivots until it spans the whole space, and
``reduce_echelon`` sorts it by pivot and clears above the pivots, which
gives rref.  Over Q each row is
scaled to integers and eliminated fraction-free over Z (Bareiss, Math.
Comp. 22, 1968), below the pivots only, so no Fraction is built; the pivot
rows are the echelon.
``hom_ext`` reads a left kernel off the echelon of [K | I] and then takes
one rank, which is all it needs over Q.  ``rref`` and subspace enumeration
serve prime fields only and raise TypeError over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Callable, Iterator, Optional, Sequence, Union

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

    def normalize(self, x) -> int:
        """``x`` reduced mod p: an int, not a bool; ValueError naming ``x`` for anything else."""
        if type(x) is not int:
            raise ValueError(f"entry {x!r} is not an integer, as entries over F_{self.p} must be")
        return x % self.p

    def elements(self) -> range:
        return range(self.p)


@dataclass(frozen=True)
class RationalField:
    def normalize(self, x) -> Fraction:
        """``x`` as a Fraction: an int, a Fraction or a fraction string such as "1/2".

        A bool, a float or anything else is a ValueError naming ``x``.
        """
        if type(x) in (int, Fraction, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f'entry {x!r} is not an integer, a Fraction or a fraction string such as "1/2"')


QQ = RationalField()
Field = Union[PrimeField, RationalField]


def field_for(q: Union[int, str]) -> Field:
    """Field from a JSON-ish tag: a prime, as an int or a digit string, or "rational"."""
    if q == "rational":
        return QQ
    if isinstance(q, bool) or not isinstance(q, (int, str)) or not str(q).lstrip("-").isdigit():
        raise ValueError(f'field q must be a prime or "rational", got {q!r}')
    return PrimeField(int(q))


# Echelon rows: (pivot column, row) pairs on ints, each row zero left of its
# pivot and at every earlier row's pivot.  Over F_p the rows are monic at
# their pivot (a semi-echelon basis); over Q they are Bareiss rows.
Echelon = tuple[tuple[int, tuple[int, ...]], ...]


def _fraction_free(rows: Sequence[Sequence[Entry]]) -> Echelon:
    """Echelon rows over Q by Bareiss elimination over Z, each row scaled by its denominators' lcm.

    A pivot p turns every row below it into (p*row - f*pivot_row) // prev,
    an exact division by the previous pivot; the pivot rows, on ints, are
    the result.  ``rows`` is nonempty.
    """
    m = []
    for row in rows:
        if any(type(x) is not int for x in row):
            row = [QQ.normalize(x) for x in row]
            scale = lcm(*(x.denominator for x in row))
            row = [x.numerator * (scale // x.denominator) for x in row]
        m.append(list(row))
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        # Below the pivot row the columns left of col are already zero.
        for row in m[rank + 1:]:
            f = row[col]
            row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], top[col:])]
        pivots.append(col)
        prev = p
        if rank + 1 == nrows:
            break
    # A tuple of a list, not of the zip: a tuple built from an iterator of
    # unknown length is resized, which bypasses CPython's per-size free lists
    # of tuples, so they would fill with the freed results (~1 MB in a long run).
    return tuple([(c, tuple(row)) for c, row in zip(pivots, m)])


def echelon_extend(basis: Echelon, vectors: Sequence[Sequence[int]], p: int) -> Echelon:
    """``basis`` with ``vectors`` (ints in 0..p-1) folded in over F_p.

    Each vector is reduced at the pivots in basis order (a later row is zero
    at every earlier pivot, so a cleared entry stays cleared); a nonzero
    remainder joins as a new row, scaled to a leading 1.  The span of the
    result is the span of ``basis`` and ``vectors``, and its length the rank.
    Once the basis spans all of F_p^n, every later vector would reduce to
    zero, so folding stops there.
    """
    out = list(basis)
    for v in vectors:
        if len(out) == len(v):
            break
        for c, row in out:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for lead, x in enumerate(v):
            if x:
                inv = pow(x, p - 2, p)
                out.append((lead, tuple([y * inv % p for y in v])))
                break
    return tuple(out)


def reduce_echelon(basis: Echelon, p: int) -> Matrix:
    """The RREF basis of the span of a semi-echelon ``basis`` over F_p.

    Rows are sorted by pivot, then cleared above each pivot, last pivot
    first: a row used to clear the rows above it is already zero at every
    later pivot.  The RREF of a subspace is unique, so any semi-echelon
    basis of the same span gives the same matrix.
    """
    basis = sorted(basis)
    pivots = [c for c, _ in basis]
    m = [list(row) for _, row in basis]
    for i in reversed(range(len(m))):
        c, top = pivots[i], m[i]
        for r in range(i):
            f = m[r][c]
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], top)]
    return tuple(map(tuple, m))


def rref(rows: Sequence[Sequence[Entry]], field: Field) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank over a prime field."""
    if not isinstance(field, PrimeField):
        raise TypeError("rref needs a prime field; over Q only rank is provided")
    m = reduce_echelon(echelon(rows, field), field.p)
    zero = (0,) * (len(rows[0]) if rows else 0)
    return m + (zero,) * (len(rows) - len(m)), len(m)


def echelon(rows: Sequence[Sequence[Entry]], field: Field) -> Echelon:
    """Echelon rows spanning the row space of ``rows``: monic over F_p, Bareiss over Q.

    ValueError when the rows differ in length: folding zips them, which
    would silently drop the longer rows' tails.
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"rows of unequal length {sorted(set(map(len, rows)))}")
    if isinstance(field, RationalField):
        return _fraction_free(rows) if rows else ()
    return echelon_extend((), [[field.normalize(x) for x in row] for row in rows], field.p)


def rank(rows: Sequence[Sequence[Entry]], field: Field) -> int:
    return len(echelon(rows, field))


def row_space_basis(rows: Sequence[Sequence[Entry]], field: Field) -> Matrix:
    """Canonical (RREF) basis of the span of the given rows over a prime field."""
    reduced, rk = rref(rows, field)
    return reduced[:rk]


Prune = Callable[[Matrix, int], bool]


def subspaces(field: PrimeField, n: int, prune: Optional[Prune] = None) -> Iterator[Matrix]:
    """All subspaces of F_p^n as canonical RREF bases (the 0 space is ``()``).

    For each dimension k and each pivot-column pattern, a depth-first walk
    picks the rows one at a time, each row's free entries (right of its
    pivot, off the other pivots) in lexicographic order; each subspace
    appears exactly once.  Counts follow the Gaussian binomials, e.g. 67
    subspaces of F_2^4.

    ``prune(rows, k)`` is asked about every nonempty partial basis of a
    k-dim subspace, shortest first and the full one included; when it
    returns True, neither ``rows`` nor any k-dim basis extending it is
    yielded.  Without it the walk yields every subspace, in the same order.
    """
    if not isinstance(field, PrimeField):
        raise TypeError("subspace enumeration needs a finite field")
    elements = field.elements()
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            yield from _walk((), pivots, n, elements, prune)


def _walk(
    rows: Matrix, pivots: tuple[int, ...], n: int, elements: range, prune: Optional[Prune]
) -> Iterator[Matrix]:
    """Bases with pivot columns ``pivots`` extending ``rows``, depth first.

    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, which would keep ``prune`` and all it holds alive until
    the cyclic collector runs.
    """
    r = len(rows)
    if r == len(pivots):
        yield rows
        return
    pc = pivots[r]
    free = [c for c in range(pc + 1, n) if c not in pivots]
    for values in product(elements, repeat=len(free)):
        row = [0] * n
        row[pc] = 1
        for c, val in zip(free, values):
            row[c] = val
        child = rows + (tuple(row),)
        if prune is None or not prune(child, len(pivots)):
            yield from _walk(child, pivots, n, elements, prune)
