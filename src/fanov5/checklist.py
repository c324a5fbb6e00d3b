"""Built-in reproduction checklist of the package's headline values.

Every claim couples two independent routes to the same number (or a
frozen classical value) so the suite doubles as an end-to-end integrity
check: dominantization chains, restriction tables, Riemann-Roch counts,
quiver pairings.  ``fanov5 verify paper`` prints one line per claim, and
the acceptance tests run one test per claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import bundles, chow, koszul, quiver
from .weights import Weight, reflection_chain


@dataclass(frozen=True)
class Claim:
    name: str
    run: Callable[[], tuple[bool, str]]


def _restriction_dims(name: str, j: int) -> dict[int, int]:
    res = koszul.restrict_cohomology(bundles.twist(bundles.catalog(name), j), 3)
    if res.status is not koszul.RestrictionStatus.EXACT:
        raise AssertionError(f"{name}({j}) restriction not exact: {res.status}")
    assert res.table is not None
    return res.table.dims()


def _check_restriction(name: str, j: int, expected: dict[int, int]) -> tuple[bool, str]:
    got = _restriction_dims(name, j)
    return got == expected, f"expected {expected}, got {got}"


def _check_ambient(name: str, j: int, expected: dict[int, int], hw: str = "") -> tuple[bool, str]:
    table = bundles.cohomology(bundles.twist(bundles.catalog(name), j))
    got = table.dims()
    if got != expected:
        return False, f"expected {expected}, got {got}"
    if hw:
        weights = [e.highest_weight.describe() for _, e in table.entries if e.highest_weight]
        if weights != [hw]:
            return False, f"expected highest weight {hw}, got {weights}"
    return True, "ok"


def _check_short_chain() -> tuple[bool, str]:
    chain = reflection_chain(Weight(5, (2, -1, 1, 1)))
    ok = (
        chain.singular
        and [s.reflection for s in chain.steps] == [2]
        and chain.final.coeffs == (1, 1, 0, 1)
    )
    return ok, f"steps {[(s.reflection, s.weight.coeffs) for s in chain.steps]}"


def _check_long_chain() -> tuple[bool, str]:
    chain = reflection_chain(Weight(5, (2, -5, 1, 1)))
    expected = [
        (2, (-3, 5, -4, 1)),
        (1, (3, 2, -4, 1)),
        (3, (3, -2, 4, -3)),
        (2, (1, 2, 2, -3)),
        (4, (1, 2, -1, 3)),
        (3, (1, 1, 1, 2)),
    ]
    got = [(s.reflection, s.weight.coeffs) for s in chain.steps]
    ok = not chain.singular and got == expected
    return ok, f"chain {got}"


def _check_ulrich(codim: int) -> tuple[bool, str]:
    verdict = koszul.ulrich_check(bundles.catalog("Sym2Ustar"), codim)
    return verdict.is_ulrich is True, f"verdict {verdict.status.value}"


def _check_sections_sym2() -> tuple[bool, str]:
    got = _restriction_dims("Sym2Ustar", 0)
    rank = bundles.bundle_rank(bundles.catalog("Sym2Ustar"))
    ok = got == {0: 15} and 15 == 5 * rank == chow.chi(chow.ulrich_class(3), 0)
    return ok, f"sections {got}, rank {rank}"


def _check_quiver_geometry() -> tuple[bool, str]:
    for r in range(1, 11):
        e = quiver.euler_form((r, r), (r, r))
        pairing = chow.euler_pairing(chow.ulrich_class(r), chow.ulrich_class(r))
        m = quiver.moduli_dim((r, r))
        if not (e == pairing == -r * r and m == r * r + 1):
            return False, f"r={r}: form {e}, pairing {pairing}, moduli {m}"
    return quiver.moduli_dim((2, 2)) == 5, "rank-2 moduli dimension"


def _check_chi_o() -> tuple[bool, str]:
    o = chow.catalog_class("O")
    res = koszul.restrict_cohomology(
        bundles.twist(bundles.catalog("O"), 1), 3, assume_generic=True
    )
    assert res.table is not None
    ok = (
        chow.chi(o, 0) == 1
        and chow.chi(o, 1) == 7
        and res.status is koszul.RestrictionStatus.GENERIC_ASSUMED
        and res.table.dims() == {0: 7}
    )
    return ok, f"chi {chow.chi(o, 0)}, {chow.chi(o, 1)}; chase {res.table.dims()}"


def _check_chi_tensors() -> tuple[bool, str]:
    u = chow.catalog_class("U")
    qs = chow.catalog_class("Qstar")
    if chow.chi(u, -2) != -5:
        return False, f"chi(U(-2)) = {chow.chi(u, -2)}"
    for r in range(2, 6):
        e = chow.ulrich_class(r)
        for other in (u, qs):
            val = chow.chi_ch(chow.ch_tensor(other, e), -2)
            if val != r:
                return False, f"r={r}: tensor chi {val}"
    return True, "ok"


def _check_coker() -> tuple[bool, str]:
    for r in range(1, 11):
        if chow.twist_class(chow.coker_class(r), 1) != chow.ulrich_class(r):
            return False, f"mismatch at r={r}"
    return True, "ok"


def _check_needs_maps() -> tuple[bool, str]:
    res = koszul.restrict_cohomology(bundles.twist(bundles.catalog("O"), 1), 3)
    ok = res.status is koszul.RestrictionStatus.NEEDS_MAPS and res.table is None
    return ok, f"status {res.status.value}"


def _check_chow_relations() -> tuple[bool, str]:
    ok = (
        chow.H * chow.H == 5 * chow.L
        and chow.H * chow.L == chow.P
        and (chow.H * chow.H * chow.H).integrate() == 5
        and chow.euler_pairing(chow.ulrich_class(2), chow.ulrich_class(2)) == -4
    )
    return ok, "ok"


def _check_ranks() -> tuple[bool, str]:
    got = {name: bundles.bundle_rank(bundles.catalog(name)) for name in bundles.CATALOG_NAMES}
    expected = {
        "U": 2, "Ustar": 2, "Q": 3, "Qstar": 3, "O": 1, "Sym2Ustar": 3, "wedge2Qstar": 3,
    }
    return got == expected, f"ranks {got}"


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

# (claim name, bundle, twist, expected dims on Gr(2,5), highest weight or "")
AMBIENT_TABLES = (
    ("ambient U(1) gives C^5 with weight w1", "U", 1, {0: 5}, "w1"),
    ("ambient U(-5) gives C^5 in degree 6 with weight w4", "U", -5, {6: 5}, "w4"),
    ("ambient Qstar(1) gives C^10 with weight w3", "Qstar", 1, {0: 10}, "w3"),
    ("ambient Qstar(-5) gives C^5 in degree 6 with weight w1", "Qstar", -5, {6: 5}, "w1"),
) + tuple(
    (f"ambient {name}{f'(-{j})' if j else ''} vanishes", name, -j, {}, "")
    for j in range(0, 5)
    for name in ("U", "Qstar")
)


def claims() -> list[Claim]:
    out = [Claim(name, partial(_check_restriction, b, j, dims)) for name, b, j, dims in SECTION_TABLES]
    out += [Claim(name, partial(_check_ambient, b, j, dims, hw)) for name, b, j, dims, hw in AMBIENT_TABLES]
    out += [
        Claim("one-step dominantization chain hits a wall", _check_short_chain),
        Claim("six-step dominantization chain", _check_long_chain),
        Claim("Sym2Ustar maximally cohomology-free on the ambient space", partial(_check_ulrich, 0)),
        Claim("Sym2Ustar maximally cohomology-free on the section", partial(_check_ulrich, 3)),
        Claim("Sym2Ustar has 15 = 5 * rank sections", _check_sections_sym2),
        Claim("Euler form, pairing and moduli dimensions agree for r = 1..10", _check_quiver_geometry),
        Claim("chi(O) = 1 and chi(O(1)) = 7 by two routes", _check_chi_o),
        Claim("twisted tensor Euler characteristics equal the rank", _check_chi_tensors),
        Claim("cokernel classes twist to the solved Chern data", _check_coker),
        Claim("unresolved differential is reported, not guessed", _check_needs_maps),
        Claim("Chow relations h.h = 5l, h.l = p, deg h^3 = 5", _check_chow_relations),
        Claim("catalog ranks", _check_ranks),
    ]
    return out


def run_all() -> bool:
    """Run every claim, print one PASS/FAIL line each, return overall success."""
    all_ok = True
    for claim in claims():
        try:
            ok, detail = claim.run()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"error: {exc}"
        if ok:
            print(f"PASS  {claim.name}")
        else:
            print(f"FAIL  {claim.name}: {detail}")
            all_ok = False
    return all_ok
