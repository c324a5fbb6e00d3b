"""Restriction of cohomology to a codimension-c linear section via Koszul data.

For a bundle E on Gr(k,n) and a generic complete-intersection linear
section of codimension c, the Koszul resolution

    0 -> O(-c) -> ... -> O(-1)^{c choose 1} -> O -> O_section -> 0

tensored with E computes H^*(section, E) by pure bookkeeping on the
hypercohomology page: the term at (p, q) is binom(c,p) * h^q(Gr, E(-p))
and lands in restricted degree q - p.  The codimension runs over
0..dim Gr, and c = 0 is the ambient space itself: one column p = 0 whose
terms are the Borel-Weil-Bott table.

The differential d_r takes (p, q) to (p - r, q - r + 1), so a term can
only meet a term one restricted degree higher at a smaller p.  When no
two nonzero terms are joined that way the table is forced (status
``EXACT``); a one-column page always is.  Isolated two-term first
differentials (adjacent p, equal q) are resolved by maximal-rank
cancellation only when explicitly asked for (status ``GENERIC_ASSUMED``);
any other pattern is honestly reported as ``NEEDS_MAPS``, since
dimensions alone cannot decide it.

A page is built from a twist ladder, the tables h^*(Gr, E(-p)) for
p = 0..c, and resolved from the page alone.  The Ulrich check needs the
pages of E(-j) for j = 1..d on a section of dimension d = dim Gr - c;
they are windows of one ladder E(-1), ..., E(-dim Gr), so each twist's
cohomology is computed once per check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Optional

from .bundles import (
    CohomologyEntry,
    CohomologyTable,
    EquivariantBundle,
    cohomology,
    twist,
)


class RestrictionStatus(enum.Enum):
    EXACT = "exact"
    GENERIC_ASSUMED = "generic-assumed"
    NEEDS_MAPS = "needs-maps"


@dataclass(frozen=True)
class KoszulPage:
    """Nonzero first-page terms (p, q) -> binom(c,p) * h^q(Gr, E(-p))."""

    codim: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def euler_characteristic(self) -> int:
        """Alternating sum over restricted degree q-p, an exact identity."""
        return sum((-1) ** (q - p) * d for (p, q), d in self.terms)


@dataclass(frozen=True)
class RestrictionResult:
    status: RestrictionStatus
    page: KoszulPage
    table: Optional[CohomologyTable] = None

    @property
    def resolved(self) -> bool:
        return self.status is not RestrictionStatus.NEEDS_MAPS


def _check_codim(b: EquivariantBundle, c: int) -> None:
    if not 0 <= c <= b.dim_space:
        raise ValueError(f"codimension {c} out of range 0..{b.dim_space}")


def koszul_page(b: EquivariantBundle, c: int) -> KoszulPage:
    """First page for restricting ``b`` across a codimension-c linear section.

    At c = 0 the section is the ambient space: one column p = 0 holding
    h^*(Gr, E).
    """
    _check_codim(b, c)
    return _page([cohomology(twist(b, -p)) for p in range(c + 1)])


def _page(tables: list[CohomologyTable]) -> KoszulPage:
    """Page of codimension c from the ladder h^*(Gr, E(-p)), p = 0..c."""
    c = len(tables) - 1
    terms = []
    for p, table in enumerate(tables):
        mult = comb(c, p)
        for q, entry in table.entries:
            terms.append(((p, q), mult * entry.dim))
    return KoszulPage(codim=c, terms=tuple(terms))


def restrict_cohomology(
    b: EquivariantBundle, c: int, assume_generic: bool = False
) -> RestrictionResult:
    """Cohomology of ``b`` restricted to a generic codimension-c linear section.

    ``c`` runs over 0..dim Gr; c = 0 is the ambient space, whose one-column
    page is always EXACT with the Borel-Weil-Bott dimensions.  Returns the
    page always; the table only when the collapse is forced (EXACT) or when
    ``assume_generic`` resolves isolated two-term first differentials at
    maximal rank (GENERIC_ASSUMED).
    """
    return _resolve(koszul_page(b, c), b.dim_space - c, assume_generic)


def _resolve(page: KoszulPage, dim_section: int, assume_generic: bool) -> RestrictionResult:
    """Resolve ``page`` into a table on a section of dimension ``dim_section``.

    The one rule, in restricted degrees: d_r takes (p, q) to (p - r, q - r + 1),
    so a term can only meet a term one degree higher at a smaller p.  The
    terms are keyed by (p, q), which is unique on a page: each column is one
    Borel-Weil-Bott table, with at most one entry.  A one-column page (c = 0,
    the ambient space) joins nothing and is EXACT.
    """
    terms = page.as_dict()
    pairs = [
        (src, dst)
        for src in terms
        for dst in terms
        if dst[0] < src[0] and dst[1] - dst[0] == src[1] - src[0] + 1
    ]
    status = RestrictionStatus.EXACT
    if pairs:
        touched = [t for pair in pairs for t in pair]
        single_d1 = all(src[0] - dst[0] == 1 for src, dst in pairs)
        if not (assume_generic and single_d1 and len(touched) == len(set(touched))):
            return RestrictionResult(status=RestrictionStatus.NEEDS_MAPS, page=page)
        for src, dst in pairs:
            cancel = min(terms[src], terms[dst])
            terms[src] -= cancel
            terms[dst] -= cancel
        status = RestrictionStatus.GENERIC_ASSUMED

    dims: dict[int, int] = {}
    for (p, q), d in terms.items():
        if d == 0:
            continue
        deg = q - p
        if not 0 <= deg <= dim_section:
            raise ArithmeticError(
                f"surviving page term at (p={p}, q={q}) lands outside degrees "
                f"0..{dim_section}; the page cannot come from an exact Koszul complex"
            )
        dims[deg] = dims.get(deg, 0) + d
    table = CohomologyTable.from_dict({i: CohomologyEntry(dim=d) for i, d in dims.items()})
    return RestrictionResult(status=status, page=page, table=table)


class UlrichStatus(enum.Enum):
    ULRICH = "ulrich"
    NOT_ULRICH = "not-ulrich"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class UlrichVerdict:
    status: UlrichStatus
    witness: Optional[tuple[int, int]] = None  # first failing (twist j, degree i)

    @property
    def is_ulrich(self) -> Optional[bool]:
        if self.status is UlrichStatus.INDETERMINATE:
            return None
        return self.status is UlrichStatus.ULRICH


def ulrich_check(
    b: EquivariantBundle, c: int, assume_generic: bool = False
) -> UlrichVerdict:
    """Test H^*(X, E(-j)) = 0 for j = 1..dim X, X the codimension-c section.

    ``c`` runs over 0..dim Gr, the range of ``koszul_page``; c = 0 is the
    ambient space, and every twist's page is resolved the same way.  A
    definite nonzero group anywhere defeats the bundle regardless of any
    unresolved twist, so failures win over indeterminacy; the witness is the
    first failing (j, i) in lexicographic order.
    """
    _check_codim(b, c)
    d = b.dim_space - c
    # tables[t - 1] is h^*(Gr, E(-t)); the page of E(-j) needs t = j..j+c,
    # and j + c <= d + c = dim Gr.
    tables = [cohomology(twist(b, -t)) for t in range(1, b.dim_space + 1)]
    indeterminate = False
    for j in range(1, d + 1):
        res = _resolve(_page(tables[j - 1 : j + c]), d, assume_generic)
        if res.table is None:
            indeterminate = True
        elif not res.table.is_zero():
            i = min(deg for deg, _ in res.table.entries)
            return UlrichVerdict(status=UlrichStatus.NOT_ULRICH, witness=(j, i))
    if indeterminate:
        return UlrichVerdict(status=UlrichStatus.INDETERMINATE)
    return UlrichVerdict(status=UlrichStatus.ULRICH)
