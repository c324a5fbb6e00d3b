"""Built-in reproduction checklist of the package's headline values.

A claim is plain data: a name, a computation and the value the
computation must equal.  Most computations return two independent routes
to the same number side by side (or a frozen classical value), so the
suite doubles as an end-to-end integrity check: dominantization chains,
restriction tables, Riemann-Roch counts, quiver pairings.  The expected
values are literals, so building the list runs nothing.  ``fanov5 verify
paper`` prints one line per claim, and the acceptance tests run one test
per claim; both compare ``claim.compute() == claim.expected``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from . import bundles, chow, koszul, quiver
from .koszul import RestrictionStatus
from .weights import Weight, reflection_chain


@dataclass(frozen=True)
class Claim:
    name: str
    compute: Callable[[], Any]
    expected: Any


def _section(name: str, j: int, assume_generic: bool = False) -> tuple[RestrictionStatus, Any]:
    """(status, dims or None) of ``name(j)`` restricted to the codimension-3 section V5."""
    res = koszul.restrict_cohomology(bundles.twist(bundles.catalog(name), j), 3, assume_generic)
    return res.status, None if res.table is None else res.table.dims()


def _ambient(name: str, j: int) -> tuple[dict[int, int], list[str]]:
    """(dims, highest weights) of ``name(j)`` on Gr(2,5)."""
    table = bundles.cohomology(bundles.twist(bundles.catalog(name), j))
    return table.dims(), [e.highest_weight.describe() for _, e in table.entries if e.highest_weight]


def _chain(coeffs: tuple[int, ...]) -> tuple[bool, list[tuple[int, tuple[int, ...]]]]:
    """(singular, [(reflection, weight after it)]) from the Gr(2,5) weight ``coeffs``."""
    chain = reflection_chain(Weight(coeffs))
    return chain.singular, [(s.reflection, s.weight.coeffs) for s in chain.steps]


def _pairing(r: int) -> int:
    """chi(E, E) of the rank-r Ulrich class E."""
    return chow.euler_pairing(chow.ulrich_class(r), chow.ulrich_class(r))


def _rank(name: str) -> int:
    return bundles.bundle_rank(bundles.catalog(name))


def _quiver_geometry() -> list[tuple[int, int, int]]:
    """(Euler form, Euler pairing, moduli dimension) at d = (r, r) for r = 1..10."""
    return [
        (quiver.euler_form((r, r), (r, r)), _pairing(r), quiver.moduli_dim((r, r))) for r in range(1, 11)
    ]


def _chi_tensors() -> tuple[int, list[list[int]]]:
    """chi(U(-2)), and chi(F (x) E(-2)) for F = U, Qstar and E the rank-r Ulrich class, r = 2..5."""
    u, qs = chow.catalog_class("U"), chow.catalog_class("Qstar")
    return chow.chi(u, -2), [
        [chow.chi_ch(chow.ch_tensor(other, chow.ulrich_class(r)), -2) for other in (u, qs)]
        for r in range(2, 6)
    ]


def _chow_relations() -> tuple[bool, bool, int, int]:
    """h.h = 5l, h.l = p, deg h^3 and the rank-2 Ulrich self-pairing."""
    h, l, p = chow.H, chow.L, chow.P
    return h * h == 5 * l, h * l == p, (h * h * h).integrate(), _pairing(2)


# (claim name, bundle, twist, expected dims on the codimension-3 section V5)
SECTION_TABLES = (
    ("section U(1) sections C^5 in degree 0", "U", 1, {0: 5}),
    ("section Qstar(1) sections C^10 in degree 0", "Qstar", 1, {0: 10}),
    ("section U cohomology vanishes", "U", 0, {}),
    ("section U(-1) cohomology vanishes", "U", -1, {}),
    ("section Qstar cohomology vanishes", "Qstar", 0, {}),
    ("section Qstar(-1) cohomology vanishes", "Qstar", -1, {}),
    ("section U(-2) gives C^5 in degree 3", "U", -2, {3: 5}),
    ("section Qstar(-2) gives C^5 in degree 3", "Qstar", -2, {3: 5}),
)

# (claim name, bundle, twist, expected dims on Gr(2,5), expected highest weights)
AMBIENT_TABLES = (
    ("ambient U(1) gives C^5 with weight w1", "U", 1, {0: 5}, ["w1"]),
    ("ambient U(-5) gives C^5 in degree 6 with weight w4", "U", -5, {6: 5}, ["w4"]),
    ("ambient Qstar(1) gives C^10 with weight w3", "Qstar", 1, {0: 10}, ["w3"]),
    ("ambient Qstar(-5) gives C^5 in degree 6 with weight w1", "Qstar", -5, {6: 5}, ["w1"]),
) + tuple(
    (f"ambient {name}{f'(-{j})' if j else ''} vanishes", name, -j, {}, [])
    for j in range(0, 5)
    for name in ("U", "Qstar")
)


def claims() -> list[Claim]:
    exact = RestrictionStatus.EXACT
    out = [Claim(name, partial(_section, b, j), (exact, dims)) for name, b, j, dims in SECTION_TABLES]
    out += [Claim(name, partial(_ambient, b, j), (dims, hw)) for name, b, j, dims, hw in AMBIENT_TABLES]
    out += [
        Claim("one-step dominantization chain hits a wall", partial(_chain, (2, -1, 1, 1)),
              (True, [(2, (1, 1, 0, 1))])),
        Claim("six-step dominantization chain", partial(_chain, (2, -5, 1, 1)),
              (False, [(2, (-3, 5, -4, 1)), (1, (3, 2, -4, 1)), (3, (3, -2, 4, -3)), (2, (1, 2, 2, -3)),
                       (4, (1, 2, -1, 3)), (3, (1, 1, 1, 2))])),
        Claim("Sym2Ustar maximally cohomology-free on the ambient space",
              lambda: koszul.ulrich_check(bundles.catalog("Sym2Ustar"), 0).is_ulrich, True),
        Claim("Sym2Ustar maximally cohomology-free on the section",
              lambda: koszul.ulrich_check(bundles.catalog("Sym2Ustar"), 3).is_ulrich, True),
        Claim("Sym2Ustar has 15 = 5 * rank sections",
              lambda: (_section("Sym2Ustar", 0), 5 * _rank("Sym2Ustar"), chow.chi(chow.ulrich_class(3), 0)),
              ((exact, {0: 15}), 15, 15)),
        Claim("Euler form, pairing and moduli dimensions agree for r = 1..10", _quiver_geometry,
              [(-r * r, -r * r, r * r + 1) for r in range(1, 11)]),
        Claim("chi(O) = 1 and chi(O(1)) = 7 by two routes",
              lambda: (chow.chi(chow.catalog_class("O"), 0), chow.chi(chow.catalog_class("O"), 1),
                       _section("O", 1, assume_generic=True)),
              (1, 7, (RestrictionStatus.GENERIC_ASSUMED, {0: 7}))),
        Claim("twisted tensor Euler characteristics equal the rank", _chi_tensors,
              (-5, [[r, r] for r in range(2, 6)])),
        Claim("cokernel classes twist to the solved Chern data",
              lambda: [
                  chow.twist_class(chow.coker_class(r), 1) == chow.ulrich_class(r) for r in range(1, 11)
              ],
              [True] * 10),
        Claim("unresolved differential is reported, not guessed", partial(_section, "O", 1),
              (RestrictionStatus.NEEDS_MAPS, None)),
        Claim("Chow relations h.h = 5l, h.l = p, deg h^3 = 5", _chow_relations, (True, True, 5, -4)),
        Claim("catalog ranks", lambda: {name: _rank(name) for name in bundles.CATALOG_NAMES},
              {"U": 2, "Ustar": 2, "Q": 3, "Qstar": 3, "O": 1, "Sym2Ustar": 3, "wedge2Qstar": 3}),
    ]
    return out


def run_all() -> bool:
    """Run every claim, print one PASS/FAIL line each, return overall success."""
    all_ok = True
    for claim in claims():
        try:
            got = claim.compute()
            detail = None if got == claim.expected else f"expected {claim.expected!r}, got {got!r}"
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"error: {exc}"
        print(f"PASS  {claim.name}" if detail is None else f"FAIL  {claim.name}: {detail}")
        all_ok = all_ok and detail is None
    return all_ok
