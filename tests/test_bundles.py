import random

import pytest

from fanov5.bundles import (
    CATALOG_NAMES,
    CohomologyEntry,
    CohomologyTable,
    EquivariantBundle,
    bundle_rank,
    catalog,
    cohomology,
    twist,
)
from fanov5.weights import Weight, dominantize, rho, weyl_dim

DUAL_PAIRS = (("U", "Ustar"), ("Q", "Qstar"), ("O", "O"))


def dual_name(name: str) -> str:
    for a, b in DUAL_PAIRS:
        if name == a:
            return b
        if name == b:
            return a
    raise ValueError(f"no registered dual for {name!r}")


def old_cohomology(b: EquivariantBundle) -> CohomologyTable:
    """``cohomology`` before it shifted by rho on the coefficients, verbatim: the reference."""
    res = dominantize(b.weight + rho(b.n))
    if res.singular:
        return CohomologyTable(())
    assert res.dominant is not None and res.length is not None
    hw = res.dominant - rho(b.n)
    entry = CohomologyEntry(dim=weyl_dim(res.dominant), highest_weight=hw)
    return CohomologyTable(((res.length, entry),))


class TestCatalog:
    def test_weights(self):
        assert catalog("U").weight.coeffs == (1, -1, 0, 0)
        assert catalog("Ustar").weight.coeffs == (1, 0, 0, 0)
        assert catalog("Q").weight.coeffs == (0, 0, 0, 1)
        assert catalog("Qstar").weight.coeffs == (0, -1, 1, 0)
        assert catalog("O").weight.coeffs == (0, 0, 0, 0)
        assert catalog("Sym2Ustar").weight.coeffs == (2, 0, 0, 0)
        assert catalog("wedge2Qstar").weight.coeffs == (0, -1, 0, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("T")

    def test_impossible_grassmannian(self):
        with pytest.raises(ValueError, match="out of range"):
            catalog("U", n=5, k=9)

    def test_projective_space_specialization(self):
        # on Gr(1,n) the subbundle is O(-1): weight -w_1
        u = catalog("U", n=4, k=1)
        assert u.weight.coeffs == (-1, 0, 0)
        assert bundle_rank(u) == 1

    def test_p_dominance_enforced(self):
        with pytest.raises(ValueError):
            EquivariantBundle(n=5, k=2, weight=Weight(5, (-1, 0, 0, 0)))


class TestTwist:
    def test_examples(self):
        assert twist(catalog("U"), -1).weight.coeffs == (1, -2, 0, 0)
        assert twist(catalog("U"), -5).weight.coeffs == (1, -6, 0, 0)
        assert twist(catalog("O"), 0) == catalog("O")

    def test_inverse(self):
        for name in CATALOG_NAMES:
            b = catalog(name)
            for a in range(-10, 11):
                back = twist(twist(b, a), -a)
                assert back == b and hash(back) == hash(b), (name, a)

    def test_twists_compose(self):
        # bundles compare by weight; the label only names them
        u = catalog("U")
        assert twist(u, 2) == twist(twist(u, 1), 1)
        assert hash(twist(u, 2)) == hash(twist(twist(u, 1), 1))
        assert twist(twist(u, 1), 1).describe() == "U(+1)(+1) on Gr(2,5)"

    def test_line_bundle_weight(self):
        # O(1) is the fundamental weight at the marked node
        assert twist(catalog("O"), 1).weight.coeffs == (0, 1, 0, 0)
        assert twist(catalog("O", n=6, k=3), 1).weight.coeffs == (0, 0, 1, 0, 0)


class TestRank:
    def test_catalog_ranks(self):
        expected = {
            "U": 2,
            "Ustar": 2,
            "Q": 3,
            "Qstar": 3,
            "O": 1,
            "Sym2Ustar": 3,
            "wedge2Qstar": 3,
        }
        assert {n: bundle_rank(catalog(n)) for n in CATALOG_NAMES} == expected

    def test_rank_is_twist_invariant(self):
        for name in CATALOG_NAMES:
            for j in (-3, 1, 4):
                assert bundle_rank(twist(catalog(name), j)) == bundle_rank(catalog(name))

    def test_general_grassmannian(self):
        assert bundle_rank(catalog("U", n=7, k=3)) == 3
        assert bundle_rank(catalog("Q", n=7, k=3)) == 4
        assert bundle_rank(catalog("Qstar", n=6, k=2)) == 4


class TestCohomology:
    def test_bott_concentration(self):
        rng = random.Random(2718)
        for _ in range(300):
            coeffs = [rng.randint(0, 4) for _ in range(4)]
            coeffs[1] = rng.randint(-9, 5)
            b = EquivariantBundle(n=5, k=2, weight=Weight(5, tuple(coeffs)))
            table = cohomology(b)
            assert len(table.entries) <= 1
            for deg, entry in table.entries:
                assert 0 <= deg <= b.dim_space
                assert entry.dim >= 1

    def test_matches_old_route(self):
        # degree, dimension and highest weight, for every catalog twist on Gr(k,n), n <= 7
        checked = 0
        for n in range(3, 8):
            for k in range(1, n):
                for name in CATALOG_NAMES:
                    if name == "wedge2Qstar" and k + 2 > n:
                        continue
                    for j in range(-12, 13):
                        b = twist(catalog(name, n, k), j)
                        assert cohomology(b) == old_cohomology(b), b.describe()
                        checked += 1
        assert checked == 3375

    def test_sym2ustar_middle_twists_singular(self):
        for j in range(1, 7):
            assert cohomology(twist(catalog("Sym2Ustar"), -j)).is_zero()

    def test_structure_sheaf(self):
        assert cohomology(catalog("O")).dims() == {0: 1}
        # canonical bundle O(-5) on Gr(2,5)
        assert cohomology(twist(catalog("O"), -5)).dims() == {6: 1}


class TestSerreDuality:
    def test_dual_pairs_sweep(self):
        # h^i(X(j)) = h^{6-i}(X*(-j-5)) on the 6-fold Gr(2,5)
        for name in ("U", "Q", "O"):
            other = dual_name(name)
            for j in range(-6, 3):
                left = cohomology(twist(catalog(name), j)).dims()
                right = cohomology(twist(catalog(other), -j - 5)).dims()
                assert left == {6 - i: d for i, d in right.items()}, (name, j)

    def test_anchor(self):
        # the two C^5 groups match under duality: U(1) vs Ustar(-6)
        assert cohomology(twist(catalog("U"), 1)).dim(0) == 5
        assert cohomology(twist(catalog("Ustar"), -6)).dim(6) == 5
        assert twist(catalog("Ustar"), -6).weight == twist(catalog("U"), -5).weight


class TestEulerCharacteristic:
    def test_sign_from_length(self):
        rng = random.Random(42)
        for _ in range(200):
            coeffs = [rng.randint(0, 3) for _ in range(4)]
            coeffs[1] = rng.randint(-8, 3)
            b = EquivariantBundle(n=5, k=2, weight=Weight(5, tuple(coeffs)))
            res = dominantize(b.weight + rho(5))
            if res.singular:
                assert cohomology(b).euler_characteristic() == 0
            else:
                chi = cohomology(b).euler_characteristic()
                assert chi == (-1) ** res.length * abs(chi) and chi != 0

    def test_sign_from_length_property(self):
        # the seeded loop's rule on Gr(2,5), over a wider range of weights
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeffs = st.tuples(st.integers(0, 6), st.integers(-12, 6), st.integers(0, 6), st.integers(0, 6))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(coeffs)
        def check(c):
            b = EquivariantBundle(n=5, k=2, weight=Weight(5, c))
            res = dominantize(b.weight + rho(5))
            chi = cohomology(b).euler_characteristic()
            if res.singular:
                assert chi == 0
            else:
                assert chi != 0 and (chi > 0) == (res.length % 2 == 0)

        check()
