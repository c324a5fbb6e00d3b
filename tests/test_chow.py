import random
from fractions import Fraction
from math import comb

import pytest

from fanov5.bundles import bundle_rank, catalog, twist as twist_bundle
from fanov5.chow import (
    CATALOG_CLASSES,
    H,
    L,
    ONE,
    P,
    BundleClass,
    ChowClass,
    catalog_class,
    ch_dual,
    ch_tensor,
    chi,
    chi_ch,
    class_from_ch,
    coker_class,
    euler_pairing,
    exp_h,
    hilbert_polynomial,
    todd_v5,
    twist_class,
    ulrich_class,
)
from fanov5.koszul import restrict_cohomology
from fanov5.quiver import euler_form


def random_class(rng: random.Random) -> ChowClass:
    return ChowClass(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))


def twist_oracle(b: BundleClass, t: int) -> BundleClass:
    """Chern classes of E(t) from the classical rank-r expansion.

    c_k(E(t)) = sum_j binom(r-j, k-j) c_j(E) (t h)^{k-j}, written out on the
    h/l/p basis by hand (h.h = 5l, h.l = p, h.h.h = 5p), so it never touches
    the Chern-character route used by the implementation.
    """
    r = b.rank
    c1t = b.c1 + r * t
    c2t = b.c2 + 5 * (r - 1) * b.c1 * t + 5 * comb(r, 2) * t * t
    c3t = (
        b.c3
        + (r - 2) * b.c2 * t
        + 5 * comb(r - 1, 2) * b.c1 * t * t
        + 5 * comb(r, 3) * t ** 3
    )
    return BundleClass(r, c1t, c2t, c3t)


def whitney_coker(r: int) -> BundleClass:
    """Chern classes of the cokernel of U^r -> Qstar^r by the Whitney formula.

    c(E) = c(Qstar)^r * c(U)^-r as repeated products of total Chern classes,
    c(U)^-1 the geometric series in its nilpotent positive-degree part.  It
    never touches the Chern character, which ``coker_class`` uses.
    """
    c_qstar, c_u = (ChowClass(1, *catalog_class(name).as_tuple()[1:]) for name in ("Qstar", "U"))
    u = c_u - ONE
    c_u_inverse = ONE - u + u * u - u * u * u
    assert c_u * c_u_inverse == ONE
    c = ONE
    for _ in range(r):
        c = c * c_qstar * c_u_inverse
    assert c.a0 == 1 and all(x.denominator == 1 for x in c.coefficients())
    return BundleClass(r, *(int(x) for x in c.coefficients()[1:]))


class TestRingAxioms:
    def test_generators(self):
        assert H * H == 5 * L
        assert H * L == P
        assert H * H * H == 5 * P
        assert (L * L).coefficients() == (0, 0, 0, 0)
        assert (H * P).coefficients() == (0, 0, 0, 0)

    def test_unit(self):
        rng = random.Random(1)
        for _ in range(50):
            x = random_class(rng)
            assert ONE * x == x

    def test_randomized_axioms(self):
        rng = random.Random(12345)
        for _ in range(500):
            x, y, z = (random_class(rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_exp_h_is_a_homomorphism(self):
        for s in range(-4, 5):
            for t in range(-4, 5):
                assert exp_h(s) * exp_h(t) == exp_h(s + t)


class TestTodd:
    def test_components(self):
        td = todd_v5()
        assert td.coefficients() == (1, 1, Fraction(8, 3), 1)

    def test_integral_is_chi_o(self):
        assert todd_v5().integrate() == 1


class TestChi:
    def test_structure_sheaf(self):
        o = catalog_class("O")
        assert chi(o, 0) == 1
        assert chi(o, 1) == 7

    def test_chi_o1_matches_koszul_chase(self):
        # the generic table for O(1) is h^0 = 10 - 3, same 7 as Riemann-Roch
        res = restrict_cohomology(twist_bundle(catalog("O"), 1), 3, assume_generic=True)
        assert res.table.dims() == {0: chi(catalog_class("O"), 1)}

    def test_tautological_bundles(self):
        u = catalog_class("U")
        assert chi(u, 0) == 0
        assert chi(u, -1) == 0
        assert chi(u, -2) == -5
        qs = catalog_class("Qstar")
        assert chi(qs, 1) == 10
        assert chi(qs, 0) == 0
        assert chi(qs, -1) == 0
        assert chi(qs, -2) == -5

    def test_restriction_euler_agreement(self):
        # chi from Riemann-Roch equals the alternating sum of the section table
        for name, j in [("U", 1), ("U", 0), ("U", -1), ("U", -2),
                        ("Qstar", 1), ("Qstar", 0), ("Qstar", -1), ("Qstar", -2),
                        ("Sym2Ustar", 0), ("O", 0), ("Q", 1), ("wedge2Qstar", 1)]:
            res = restrict_cohomology(twist_bundle(catalog(name), j), 3, assume_generic=True)
            if not res.resolved:
                continue
            table_chi = sum((-1) ** i * d for i, d in res.table.dims().items())
            assert table_chi == chi(catalog_class(name), j), (name, j)

    def test_closed_form_matches_class_products(self):
        # the integral of ch * exp(t h) * todd, taken through ChowClass products
        rng = random.Random(61)
        twists = list(range(-12, 13)) + [Fraction(1, 2), Fraction(-7, 3)]
        for ch in [b.ch() for b in CATALOG_CLASSES.values()] + [random_class(rng) for _ in range(40)]:
            for t in twists:
                want = (ch * exp_h(t) * todd_v5()).integrate()
                if want.denominator == 1:
                    got = chi_ch(ch, t)
                    assert got == want and type(got) is int, (ch, t)
                else:
                    with pytest.raises(ArithmeticError, match=f"chi = {want} "):
                        chi_ch(ch, t)

    def test_non_integral_data_is_rejected(self):
        # a fake odd-rank class whose character integrates to a fraction
        bad = ChowClass(1, Fraction(1, 2), 0, 0)
        with pytest.raises(ArithmeticError):
            chi_ch(bad)
        # integer Chern data whose Riemann-Roch cubic is not integer-valued
        with pytest.raises(ArithmeticError, match="chi = 3/2 "):
            hilbert_polynomial(BundleClass(1, 0, 0, 1))


class TestDualsAndTensors:
    def test_dual_of_u(self):
        assert ch_dual(catalog_class("U")) == catalog_class("Ustar").ch()
        assert ch_dual(catalog_class("Q")) == catalog_class("Qstar").ch()
        assert ch_dual(catalog_class("Ustar")) == catalog_class("U").ch()

    def test_tensor_with_trivial(self):
        for name in ("U", "Q", "Sym2Ustar"):
            b = catalog_class(name)
            assert ch_tensor(catalog_class("O"), b) == b.ch()

    def test_wedge2qstar_is_twisted_quotient(self):
        assert catalog_class("wedge2Qstar") == twist_class(catalog_class("Q"), -1)

    def test_catalog_ranks_match_bundles(self):
        for name in ("U", "Ustar", "Q", "Qstar", "O", "Sym2Ustar", "wedge2Qstar"):
            assert catalog_class(name).rank == bundle_rank(catalog(name))


class TestEulerPairing:
    def test_structure_sheaf(self):
        o = catalog_class("O")
        assert euler_pairing(o, o) == 1

    def test_ulrich_self_pairing(self):
        for r in range(1, 11):
            e = ulrich_class(r)
            assert euler_pairing(e, e) == -r * r

    def test_matches_quiver_euler_form(self):
        for r in range(1, 11):
            e = ulrich_class(r)
            assert euler_pairing(e, e) == euler_form((r, r), (r, r))


class TestUlrichClass:
    def test_frozen_low_ranks(self):
        # solved once by hand from the vanishing constraints
        assert ulrich_class(1).as_tuple() == (1, 1, 1, -1)
        assert ulrich_class(2).as_tuple() == (2, 2, 7, 0)
        assert ulrich_class(3).as_tuple() == (3, 3, 18, 8)
        assert ulrich_class(4).as_tuple() == (4, 4, 34, 28)
        assert ulrich_class(5).as_tuple() == (5, 5, 55, 65)

    def test_first_chern_class_is_rank(self):
        for r in range(1, 16):
            assert ulrich_class(r).c1 == r

    def test_hilbert_polynomial(self):
        for r in range(1, 8):
            e = ulrich_class(r)
            for t in range(-6, 7):
                expected = Fraction(5 * r, 6) * (t + 1) * (t + 2) * (t + 3)
                assert chi(e, t) == expected
            assert chi(e, 0) == 5 * r

    def test_polynomial_coefficients(self):
        for r in (1, 2, 5):
            c0, c1, c2, c3 = hilbert_polynomial(ulrich_class(r))
            assert (c0, c1, c2, c3) == (
                5 * r,
                Fraction(55 * r, 6),
                5 * r,
                Fraction(5 * r, 6),
            )

    def test_leading_coefficient_is_degree_over_six_times_rank(self):
        # true for every class on the degree-5 threefold, not just solved ones
        for name in ("O", "U", "Q", "Qstar", "Sym2Ustar", "wedge2Qstar"):
            b = catalog_class(name)
            assert hilbert_polynomial(b)[3] == Fraction(5 * b.rank, 6)

    def test_rank3_solution_is_sym2ustar(self):
        assert ulrich_class(3) == catalog_class("Sym2Ustar")

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(ValueError):
            ulrich_class(0)


class TestCokerClass:
    def test_matches_whitney_formula(self):
        for r in range(1, 11):
            assert coker_class(r) == whitney_coker(r)

    def test_rank_and_c1(self):
        for r in range(1, 11):
            ck = coker_class(r)
            assert ck.rank == r
            assert ck.c1 == 0

    def test_total_chern_closed_form(self):
        # c(Qstar) / c(U) = 1 + l, so the r-fold class is (1 + l)^r = 1 + r l
        for r in range(1, 11):
            assert coker_class(r).as_tuple() == (r, 0, r, 0)

    def test_twist_matches_ulrich(self):
        for r in range(1, 11):
            assert twist_class(coker_class(r), 1) == ulrich_class(r)

    def test_rank_one(self):
        assert coker_class(1).rank == 1

    def test_large_rank_is_fast(self):
        # one difference of characters scaled by r, however large r is
        assert coker_class(10**6).as_tuple() == (10**6, 0, 10**6, 0)


class TestTwistClass:
    def test_against_classical_formula(self):
        rng = random.Random(777)
        for _ in range(200):
            name = rng.choice(("U", "Ustar", "Q", "Qstar", "O", "Sym2Ustar"))
            t = rng.randint(-4, 4)
            b = catalog_class(name)
            assert twist_class(b, t) == twist_oracle(b, t), (name, t)

    def test_twist_composes(self):
        b = catalog_class("Qstar")
        assert twist_class(twist_class(b, 3), -3) == b

    def test_u_twisted_is_dual(self):
        assert twist_class(catalog_class("U"), 1) == catalog_class("Ustar")


def test_class_from_ch_round_trip():
    rng = random.Random(8)
    for _ in range(100):
        b = BundleClass(
            rng.randint(1, 6), rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-9, 9)
        )
        assert class_from_ch(b.rank, b.ch()) == b
