import random
from math import comb

import pytest

from fanov5.bundles import (
    CATALOG_NAMES,
    CohomologyEntry,
    CohomologyTable,
    EquivariantBundle,
    catalog,
    cohomology,
    twist,
)
from fanov5.checklist import SECTION_TABLES
from fanov5.koszul import (
    KoszulPage,
    RestrictionResult,
    RestrictionStatus,
    UlrichStatus,
    UlrichVerdict,
    _page,
    _resolve,
    koszul_page,
    restrict_cohomology,
    ulrich_check,
)
from fanov5.weights import Weight

# the eight forced restriction tables of the section claims: twists -2..1 of U and Qstar
FORCED_TABLES = [(name, j, dims) for _, name, j, dims in SECTION_TABLES]


def ambient_euler(bundle, c: int) -> int:
    # independent route to the Euler characteristic of the restriction
    return sum(
        (-1) ** p * comb(c, p) * cohomology(twist(bundle, -p)).euler_characteristic()
        for p in range(c + 1)
    )


def old_ulrich_check(b, c, assume_generic=False):
    """``ulrich_check`` before it read its pages off one twist ladder, verbatim but
    for its codimension check: the reference, one ``restrict_cohomology`` per twist."""
    d = b.dim_space - c
    indeterminate = False
    for j in range(1, d + 1):
        tw = twist(b, -j)
        if c == 0:
            table = cohomology(tw)
        else:
            res = restrict_cohomology(tw, c, assume_generic=assume_generic)
            if not res.resolved:
                indeterminate = True
                continue
            assert res.table is not None
            table = res.table
        if not table.is_zero():
            i = min(deg for deg, _ in table.entries)
            return UlrichVerdict(status=UlrichStatus.NOT_ULRICH, witness=(j, i))
    if indeterminate:
        return UlrichVerdict(status=UlrichStatus.INDETERMINATE)
    return UlrichVerdict(status=UlrichStatus.ULRICH)


def catalog_bundles(max_n: int):
    """Every catalog bundle on Gr(k,n), 3 <= n <= max_n."""
    for n in range(3, max_n + 1):
        for k in range(1, n):
            for name in CATALOG_NAMES:
                if name == "wedge2Qstar" and k + 2 > n:
                    continue
                yield catalog(name, n, k)


def reference_differential_exists(src: tuple[int, int], dst: tuple[int, int]) -> bool:
    # d_r moves (p, q) -> (p - r, q - r + 1); any r >= 1 raises q - p by one.
    r = src[0] - dst[0]
    return r >= 1 and src[1] - dst[1] == r - 1


def reference_resolve(page: KoszulPage, dim_section: int, assume_generic: bool) -> RestrictionResult:
    """``_resolve`` before it keyed the terms by (p, q), verbatim but for its name."""
    terms = [[p, q, d] for (p, q), d in page.terms]

    pairs = [
        (i, j)
        for i in range(len(terms))
        for j in range(len(terms))
        if i != j and reference_differential_exists(tuple(terms[i][:2]), tuple(terms[j][:2]))
    ]

    if pairs:
        if not assume_generic:
            return RestrictionResult(status=RestrictionStatus.NEEDS_MAPS, page=page)
        single_d1 = all(terms[i][0] - terms[j][0] == 1 for i, j in pairs)
        touched = [k for pair in pairs for k in pair]
        disjoint = len(touched) == len(set(touched))
        if not (single_d1 and disjoint):
            return RestrictionResult(status=RestrictionStatus.NEEDS_MAPS, page=page)
        for i, j in pairs:
            cancel = min(terms[i][2], terms[j][2])
            terms[i][2] -= cancel
            terms[j][2] -= cancel
        status = RestrictionStatus.GENERIC_ASSUMED
    else:
        status = RestrictionStatus.EXACT

    dims: dict[int, int] = {}
    for p, q, d in terms:
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


def resolved_or_error(page, dim_section: int, assume_generic: bool, resolve):
    try:
        return resolve(page, dim_section, assume_generic)
    except ArithmeticError as exc:
        return str(exc)


class TestKoszulPage:
    def test_u_twisted_up(self):
        page = koszul_page(twist(catalog("U"), 1), 3)
        assert page.as_dict() == {(0, 0): 5}

    def test_u_twisted_down(self):
        page = koszul_page(twist(catalog("U"), -2), 3)
        assert page.as_dict() == {(3, 6): 5}

    def test_structure_sheaf(self):
        assert koszul_page(catalog("O"), 3).as_dict() == {(0, 0): 1}

    def test_binomial_multiplicities(self):
        # O(-3) restricted: twists O(-3..-6); O(-5) appears with binom(3,2)=3
        page = koszul_page(twist(catalog("O"), -3), 3)
        assert page.as_dict() == {(2, 6): 3, (3, 6): 10}

    def test_codim_range(self):
        # 0..dim Gr: c = 0 is the ambient space, one column at p = 0
        for c in (-1, 7):
            with pytest.raises(ValueError, match=f"codimension {c} out of range 0..6"):
                koszul_page(catalog("O"), c)
        assert koszul_page(twist(catalog("U"), -5), 0).as_dict() == {(0, 6): 5}


class TestRestriction:
    @pytest.mark.parametrize("name,j,expected", FORCED_TABLES)
    def test_forced_tables_exact(self, name, j, expected):
        res = restrict_cohomology(twist(catalog(name), j), 3)
        assert res.status is RestrictionStatus.EXACT
        assert res.table.dims() == expected

    def test_needs_maps_without_flag(self):
        res = restrict_cohomology(twist(catalog("O"), 1), 3)
        assert res.status is RestrictionStatus.NEEDS_MAPS
        assert res.table is None
        assert res.page.as_dict() == {(0, 0): 10, (1, 0): 3}

    def test_generic_cancellation(self):
        res = restrict_cohomology(twist(catalog("O"), 1), 3, assume_generic=True)
        assert res.status is RestrictionStatus.GENERIC_ASSUMED
        assert res.table.dims() == {0: 7}

    def test_generic_cancellation_between_in_range_terms(self):
        # a d1 joins two terms that both land in degrees 0..dim, so the
        # dimensions alone leave the map open
        b = EquivariantBundle(n=5, k=2, weight=Weight(5, (0, -4, 0, 3)))
        res = restrict_cohomology(b, 1)
        assert res.status is RestrictionStatus.NEEDS_MAPS
        assert res.page.as_dict() == {(0, 4): 5, (1, 4): 10}
        res = restrict_cohomology(b, 1, assume_generic=True)
        assert res.status is RestrictionStatus.GENERIC_ASSUMED
        assert res.table.dims() == {3: 5}

    def test_generic_flag_leaves_exact_cases_alone(self):
        for name, j, expected in FORCED_TABLES:
            res = restrict_cohomology(twist(catalog(name), j), 3, assume_generic=True)
            assert res.status is RestrictionStatus.EXACT
            assert res.table.dims() == expected

    def test_euler_consistency(self):
        rng = random.Random(314)
        checked = 0
        for _ in range(200):
            name = rng.choice(("U", "Ustar", "Q", "Qstar", "O", "Sym2Ustar"))
            j = rng.randint(-6, 3)
            c = rng.randint(1, 3)
            b = twist(catalog(name), j)
            res = restrict_cohomology(b, c, assume_generic=True)
            if not res.resolved:
                continue
            checked += 1
            lhs = sum((-1) ** i * d for i, d in res.table.dims().items())
            assert lhs == ambient_euler(b, c) == res.page.euler_characteristic()
        assert checked > 100

    def test_degree_bounds(self):
        rng = random.Random(2024)
        for _ in range(100):
            name = rng.choice(("U", "Qstar", "O"))
            j = rng.randint(-6, 3)
            c = rng.randint(1, 3)
            res = restrict_cohomology(twist(catalog(name), j), c, assume_generic=True)
            if res.table is None:
                continue
            for deg, _ in res.table.entries:
                assert 0 <= deg <= 6 - c

    def test_codim_zero_is_borel_weil_bott(self):
        # the ambient space is the codimension-0 section: always exact, the BWB table
        checked = 0
        for base in catalog_bundles(7):
            for j in range(-12, 13):
                b = twist(base, j)
                res = restrict_cohomology(b, 0)
                assert res.status is RestrictionStatus.EXACT, b.describe()
                assert res.table.dims() == cohomology(b).dims(), b.describe()
                checked += 1
        assert checked == 3375

    def test_resolver_matches_reference(self):
        # every page of the catalog bundles, twists -12..12, c = 0..dim and both
        # flags on Gr(k,n), n <= 6, against the index-pair resolver it replaced
        checked = 0
        for base in catalog_bundles(6):
            dim = base.dim_space
            # ladder[t] is h^*(Gr, E(t - 12 - dim)), so the page of E(j) starts at t = j + 12 + dim
            ladder = [cohomology(twist(base, t)) for t in range(-12 - dim, 13)]
            for j in range(-12, 13):
                top = j + 12 + dim
                for c in range(dim + 1):
                    page = _page([ladder[top - p] for p in range(c + 1)])
                    for generic in (False, True):
                        expected = resolved_or_error(page, dim - c, generic, reference_resolve)
                        got = resolved_or_error(page, dim - c, generic, _resolve)
                        assert got == expected, (base.describe(), j, c, generic)
                        checked += 1
        assert checked == 28150

    def test_hyperplane_section_table(self):
        # codimension 1: U(-2) picks up its group one degree lower than on Gr
        res = restrict_cohomology(twist(catalog("U"), -4), 1)
        assert res.status is RestrictionStatus.EXACT
        assert res.table.dims() == {5: 5}


class TestUlrichCheck:
    def test_sym2ustar_ambient(self):
        verdict = ulrich_check(catalog("Sym2Ustar"), 0)
        assert verdict.status is UlrichStatus.ULRICH
        assert verdict.witness is None

    def test_sym2ustar_all_sections(self):
        for c in range(1, 7):
            verdict = ulrich_check(catalog("Sym2Ustar"), c)
            assert verdict.status is UlrichStatus.ULRICH, c

    def test_structure_sheaf_fails(self):
        verdict = ulrich_check(catalog("O"), 3)
        assert verdict.status is UlrichStatus.NOT_ULRICH
        # O(-1) vanishes identically on the section; the first failure is
        # h^3 of O(-2), Serre-dual to the single section of O.
        assert verdict.witness == (2, 3)

    def test_u_fails_on_ambient(self):
        verdict = ulrich_check(catalog("U"), 0)
        assert verdict.status is UlrichStatus.NOT_ULRICH
        assert verdict.witness == (5, 6)  # h^6(U(-5)) = 5

    def test_o1_line_bundle_fails(self):
        verdict = ulrich_check(twist(catalog("O"), 1), 3)
        assert verdict.status is UlrichStatus.NOT_ULRICH
        assert verdict.witness == (1, 0)  # sections of O survive the twist

    def test_codim_cap(self):
        # the range of koszul_page plus the ambient space: 0..6 on Gr(2,5)
        for c in (-1, 7):
            with pytest.raises(ValueError, match=f"codimension {c} out of range 0..6"):
                ulrich_check(catalog("O"), c)

    def test_indeterminate_when_every_gauntlet_step_is_ambiguous(self):
        # deep twists put two-term first differentials on every page
        verdict = ulrich_check(twist(catalog("O"), -9), 3)
        assert verdict.status is UlrichStatus.INDETERMINATE
        assert verdict.is_ulrich is None
        assert verdict.witness is None

    def test_generic_flag_decides_verdict(self):
        b = twist(catalog("U"), -2)
        assert ulrich_check(b, 3).status is UlrichStatus.INDETERMINATE
        verdict = ulrich_check(b, 3, assume_generic=True)
        assert verdict.status is UlrichStatus.NOT_ULRICH
        assert verdict.witness == (1, 3)

    def test_definite_failure_beats_indeterminacy(self):
        # O(2): the j=1 page needs maps, but j=2 fails outright, which decides
        verdict = ulrich_check(twist(catalog("O"), 2), 3)
        assert verdict.status is UlrichStatus.NOT_ULRICH
        assert verdict.witness == (2, 0)

    def test_matches_per_twist_route(self):
        # every codimension and flag, catalog twists -4..4 on Gr(k,n), n <= 5
        checked = 0
        for base in catalog_bundles(5):
            for j in range(-4, 5):
                b = twist(base, j)
                for c in range(b.dim_space + 1):
                    for generic in (False, True):
                        expected = old_ulrich_check(b, c, generic)
                        assert ulrich_check(b, c, generic) == expected, (b.describe(), c)
                        checked += 1
        assert checked > 3000

    def test_heredity(self):
        # a bundle passing on the ambient space passes every section check
        for name in ("U", "Ustar", "Q", "Qstar", "O", "Sym2Ustar", "wedge2Qstar"):
            for j in range(-3, 3):
                b = twist(catalog(name), j)
                if ulrich_check(b, 0).status is UlrichStatus.ULRICH:
                    for c in (1, 2, 3):
                        assert ulrich_check(b, c).status is UlrichStatus.ULRICH, (name, j, c)
