import random
from itertools import combinations, product

import pytest

from fanov5.bundles import CATALOG_NAMES, catalog, twist
from fanov5.weights import (
    DominantizationResult,
    Weight,
    _eps,
    apply_simple_reflection,
    dominantize,
    inversions,
    reflection_chain,
    rho,
    weyl_dim,
)


def all_weights(n: int, bound: int):
    """All weights of SL(n) with coefficients in [-bound, bound]."""
    for coeffs in product(range(-bound, bound + 1), repeat=n - 1):
        yield Weight(n, coeffs)


def eps_oracle(w: Weight) -> tuple[int, ...]:
    # independent route: z_i is the suffix sum of the coefficients
    return tuple(sum(w.coeffs[i:]) for i in range(w.n - 1)) + (0,)


def inversions_oracle(entries) -> int:
    # the index-pair ``inversions`` before it looped over values
    return sum(
        1 for i, j in combinations(range(len(entries)), 2) if entries[i] < entries[j]
    )


# The Borel-Weil-Bott routines before they moved to plain epsilon ints, with
# their algorithm kept: the references for the current ones.  Where they built
# an epsilon vector they return a tuple, and where they shifted the sorted
# vector and read a weight back off it they take its adjacent differences.
def old_to_eps(w: Weight) -> tuple[int, ...]:
    """Epsilon coordinates: z_j - z_{j+1} = coeffs[j], z_n = 0."""
    z = [0] * w.n
    for j in range(w.n - 2, -1, -1):
        z[j] = z[j + 1] + w.coeffs[j]
    return tuple(z)


def old_dominantize(w: Weight) -> DominantizationResult:
    z = old_to_eps(w)
    if len(set(z)) < len(z):
        return DominantizationResult(singular=True)
    length = inversions_oracle(z)
    s = sorted(z, reverse=True)
    dominant = Weight(w.n, tuple(s[j] - s[j + 1] for j in range(w.n - 1)))
    return DominantizationResult(singular=False, length=length, dominant=dominant)


def old_weyl_dim(shifted: Weight) -> int:
    if not shifted.is_strictly_dominant():
        raise ValueError(f"weyl_dim needs a strictly dominant mu+rho, got {shifted.coeffs}")
    z = old_to_eps(shifted)
    n = len(z)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= z[i] - z[j]
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl product {num}/{den} is not an integer")
    return q


def outcome(f, *args):
    """The value of ``f(*args)``, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def bwb_corpus():
    """all_weights(5, 4), and weight + rho of every catalog twist -12..12 on Gr(k,n), n <= 7."""
    yield from all_weights(5, 4)
    for n in range(3, 8):
        for k in range(1, n):
            for name in CATALOG_NAMES:
                if name == "wedge2Qstar" and k + 2 > n:
                    continue
                for j in range(-12, 13):
                    b = twist(catalog(name, n, k), j)
                    yield Weight(n, tuple(c + 1 for c in b.weight.coeffs))


class TestAgainstOldRoutines:
    def test_same_results_and_errors(self):
        for w in bwb_corpus():
            z = _eps(w.coeffs)
            assert tuple(z) == old_to_eps(w), w
            assert inversions(z) == inversions_oracle(z), w
            assert dominantize(w) == old_dominantize(w), w
            assert outcome(weyl_dim, w) == outcome(old_weyl_dim, w), w


class TestEpsCoordinates:
    def test_rho_is_staircase(self):
        assert _eps((1, 1, 1, 1)) == [4, 3, 2, 1, 0]

    def test_suffix_sum_example(self):
        assert _eps((2, -1, 1, 1)) == [3, 1, 2, 1, 0]

    def test_zero_weight(self):
        assert _eps((0, 0, 0, 0)) == [0, 0, 0, 0, 0]

    def test_round_trip_randomized(self):
        rng = random.Random(20240501)
        for _ in range(1000):
            n = rng.randint(2, 8)
            w = Weight(n, tuple(rng.randint(-20, 20) for _ in range(n - 1)))
            assert tuple(_eps(w.coeffs)) == eps_oracle(w)


class TestDominantize:
    def test_singular_low_twist(self):
        # lambda + rho for the tautological subbundle twisted by -1
        assert dominantize(Weight(5, (2, -1, 1, 1))).singular

    def test_regular_deep_twist(self):
        res = dominantize(Weight(5, (2, -5, 1, 1)))
        assert not res.singular
        assert res.length == 6
        assert res.dominant.coeffs == (1, 1, 1, 2)

    def test_already_dominant(self):
        res = dominantize(Weight(5, (1, 1, 1, 1)))
        assert (res.singular, res.length, res.dominant.coeffs) == (False, 0, (1, 1, 1, 1))

    def test_regular_iff_distinct_eps(self):
        for w in all_weights(4, 3):
            res = dominantize(w)
            z = _eps(w.coeffs)
            assert res.singular == (len(set(z)) < len(z))
            if not res.singular:
                assert res.length == inversions_oracle(z)

    def test_antidominant_has_longest_length(self):
        res = dominantize(Weight(5, (-1, -1, -1, -1)))
        assert res.length == 10  # n(n-1)/2 for n=5

    def test_dominant_is_strictly_dominant(self):
        rng = random.Random(7)
        for _ in range(300):
            w = Weight(5, tuple(rng.randint(-8, 8) for _ in range(4)))
            res = dominantize(w)
            if not res.singular:
                assert all(c >= 1 for c in res.dominant.coeffs)


class TestWeylDim:
    def test_standard_rep(self):
        assert weyl_dim(Weight(5, (2, 1, 1, 1))) == 5

    def test_third_wedge(self):
        assert weyl_dim(Weight(5, (1, 1, 2, 1))) == 10

    def test_trivial_rep(self):
        assert weyl_dim(Weight(5, (1, 1, 1, 1))) == 1

    def test_rejects_walls(self):
        with pytest.raises(ValueError):
            weyl_dim(Weight(5, (1, 0, 1, 1)))

    def test_sl2_closed_form(self):
        for a in range(0, 30):
            assert weyl_dim(Weight(2, (a + 1,))) == a + 1

    def test_sl3_closed_form(self):
        for a in range(0, 8):
            for b in range(0, 8):
                expected = (a + 1) * (b + 1) * (a + b + 2) // 2
                assert weyl_dim(Weight(3, (a + 1, b + 1))) == expected

    def test_invariant_under_dominantization(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        weights = st.integers(2, 7).flatmap(
            lambda n: st.lists(st.integers(-8, 8), min_size=n - 1, max_size=n - 1).map(
                lambda c: Weight(n, tuple(c))
            )
        )

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(weights)
        def check(w):
            res = dominantize(w)
            z = _eps(w.coeffs)
            num = den = 1
            for i, j in combinations(range(len(z)), 2):
                num *= z[i] - z[j]
                den *= j - i
            if res.singular:
                assert num == 0
                return
            # the Weyl product of w changes sign with each inversion and is
            # otherwise that of its dominant image
            assert num == (-1) ** res.length * weyl_dim(res.dominant) * den
            if w.is_strictly_dominant():
                assert (res.length, res.dominant) == (0, w)
                assert weyl_dim(w) == weyl_dim(res.dominant)

        check()


class TestSimpleReflections:
    def test_step_onto_wall(self):
        assert apply_simple_reflection(Weight(5, (2, -1, 1, 1)), 2).coeffs == (1, 1, 0, 1)

    def test_deep_twist_first_step(self):
        assert apply_simple_reflection(Weight(5, (2, -5, 1, 1)), 2).coeffs == (-3, 5, -4, 1)

    def test_involution(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(2, 7)
            w = Weight(n, tuple(rng.randint(-9, 9) for _ in range(n - 1)))
            i = rng.randint(1, n - 1)
            assert apply_simple_reflection(apply_simple_reflection(w, i), i) == w

    def test_preserves_eps_multiset(self):
        w = Weight(5, (2, -5, 1, 1))
        for i in range(1, 5):
            before = sorted(_eps(w.coeffs))
            after = _eps(apply_simple_reflection(w, i).coeffs)
            # reflections permute entries up to the uniform normalization shift
            shift = min(x - y for x, y in zip(sorted(after), before))
            assert sorted(x - shift for x in after) == before

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_simple_reflection(Weight(5, (1, 1, 1, 1)), 5)


class TestReflectionChain:
    def test_replays_dominantization(self):
        rng = random.Random(31337)
        for _ in range(300):
            n = rng.randint(2, 6)
            w = Weight(n, tuple(rng.randint(-7, 7) for _ in range(n - 1)))
            chain = reflection_chain(w)
            res = dominantize(w)
            assert chain.singular == res.singular
            if not res.singular:
                assert chain.length == res.length
                assert chain.final == res.dominant
                # replay the recorded reflections one by one
                cur = w
                for step in chain.steps:
                    cur = apply_simple_reflection(cur, step.reflection)
                    assert cur == step.weight
                assert cur == res.dominant

    def test_singular_chain_stops_on_wall(self):
        chain = reflection_chain(Weight(5, (2, -1, 1, 1)))
        assert chain.singular
        assert [s.reflection for s in chain.steps] == [2]
        assert chain.final.coeffs == (1, 1, 0, 1)

    def test_six_step_chain(self):
        chain = reflection_chain(Weight(5, (2, -5, 1, 1)))
        assert [(s.reflection, s.weight.coeffs) for s in chain.steps] == [
            (2, (-3, 5, -4, 1)),
            (1, (3, 2, -4, 1)),
            (3, (3, -2, 4, -3)),
            (2, (1, 2, 2, -3)),
            (4, (1, 2, -1, 3)),
            (3, (1, 1, 1, 2)),
        ]


def test_inversions_matches_oracle():
    rng = random.Random(5)
    for _ in range(200):
        entries = [rng.randint(-10, 10) for _ in range(rng.randint(2, 8))]
        assert inversions(entries) == inversions_oracle(entries)


def test_rho_helper():
    assert rho(5).coeffs == (1, 1, 1, 1)
    assert rho(3).coeffs == (1, 1)
