import gc
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import Optional

import pytest

from fanov5 import quiver
from fanov5.linalg import QQ, PrimeField, rank, row_space_basis, subspaces
from fanov5.quiver import (
    ARROWS,
    STABILITY_FIELDS,
    Stability,
    StabilityVerdict,
    SubrepWitness,
    QuiverRep,
    _in_net_kernel,
    _net_kernels,
    check_stability,
    check_stability_input,
    direct_sum,
    euler_form,
    hom_ext,
    king_weight,
    make_rep,
    moduli_dim,
    random_rep,
    theta,
    zero_rep,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
MISSING = object()  # a payload value that stands for a deleted key


def mat_vec(m, v, field):
    return tuple(field.normalize(sum(a * b for a, b in zip(row, v))) for row in m)


def count_subspaces(p, n):
    """Total number of subspaces of F_p^n (sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def image_basis(rep, basis1):
    """RREF basis of A(W1) + B(W1) + C(W1) for W1 spanned by ``basis1``."""
    vectors = [mat_vec(m, v, rep.field) for v in basis1 for m in rep.maps]
    return row_space_basis(vectors, rep.field)


def verdict_of(best, rep):
    """King's verdict from the witness of largest weight, ``None`` if there is none."""
    if best is None or king_weight(best.dims, rep.d) < 0:
        return StabilityVerdict(status=Stability.STABLE)
    tie = king_weight(best.dims, rep.d) == 0
    return StabilityVerdict(status=Stability.STRICTLY_SEMISTABLE if tie else Stability.UNSTABLE, witness=best)


def check_stability_pairs(rep):
    """Independent oracle: enumerate subrepresentations as raw pairs (W1, W2).

    It accepts what ``check_stability`` accepts (``check_stability_input``)
    and keeps the first pair of largest King weight.
    """
    d1, d2 = check_stability_input(rep.field, rep.d)
    field = rep.field
    best: Optional[SubrepWitness] = None
    for basis1 in subspaces(field, d1):
        image = image_basis(rep, basis1)
        for basis2 in subspaces(field, d2):
            w = (len(basis1), len(basis2))
            if w == (0, 0) or w == (d1, d2):
                continue
            if rank(list(basis2) + list(image), field) != len(basis2):
                continue  # image not contained in W2: not a subrepresentation
            if best is None or king_weight(w, rep.d) > king_weight(best.dims, rep.d):
                best = SubrepWitness(basis1=basis1, basis2=basis2)
    return verdict_of(best, rep)


class TestEulerForm:
    def test_diagonal(self):
        for r in range(1, 11):
            assert euler_form((r, r), (r, r)) == -r * r

    def test_simples(self):
        assert euler_form((1, 0), (0, 1)) == -3
        assert euler_form((0, 1), (1, 0)) == 0

    def test_theta_source_annihilates_diagonal(self):
        for r in range(0, 12):
            assert euler_form((5, 10), (r, r)) == 0

    def test_bilinearity(self):
        rng = random.Random(77)
        for _ in range(200):
            a, b, c = (tuple(rng.randint(0, 9) for _ in range(2)) for _ in range(3))
            s = tuple(x + y for x, y in zip(b, c))
            assert euler_form(a, s) == euler_form(a, b) + euler_form(a, c)
            s = tuple(x + y for x, y in zip(a, b))
            assert euler_form(s, c) == euler_form(a, c) + euler_form(b, c)


class TestTheta:
    def test_closed_form(self):
        rng = random.Random(5)
        for _ in range(100):
            d = (rng.randint(0, 20), rng.randint(0, 20))
            assert theta(d) == 5 * (d[0] - d[1])

    def test_vanishes_on_diagonal(self):
        for r in range(0, 11):
            assert theta((r, r)) == 0

    def test_simples(self):
        assert theta((1, 0)) == 5
        assert theta((0, 1)) == -5

    def test_additive(self):
        rng = random.Random(15)
        for _ in range(100):
            a = (rng.randint(0, 9), rng.randint(0, 9))
            b = (rng.randint(0, 9), rng.randint(0, 9))
            s = (a[0] + b[0], a[1] + b[1])
            assert theta(s) == theta(a) + theta(b)


class TestKingWeight:
    def test_closed_form_and_slope(self):
        # the weight is (w1 + w2)(d1 + d2) times the slope difference mu(w) - mu(d)
        for d in product(range(6), repeat=2):
            for w in product(range(d[0] + 1), range(d[1] + 1)):
                weight = king_weight(w, d)
                assert weight == 10 * (d[1] * w[0] - d[0] * w[1])
                if w != (0, 0) and d != (0, 0):
                    gap = Fraction(theta(w), sum(w)) - Fraction(theta(d), sum(d))
                    assert weight == gap * sum(w) * sum(d)

    def test_diagonal_is_a_multiple_of_theta(self):
        for r in range(1, 6):
            for w in product(range(r + 1), repeat=2):
                assert king_weight(w, (r, r)) == 2 * r * theta(w)

    def test_zero_at_the_whole_and_falls_with_the_target(self):
        for d in product(range(6), repeat=2):
            assert king_weight(d, d) == 0
            for k in range(d[0] + 1):
                for e in range(d[1]):
                    assert king_weight((k, e), d) - king_weight((k, e + 1), d) == 10 * d[0]


class TestModuliDim:
    def test_diagonal(self):
        for r in range(1, 11):
            assert moduli_dim((r, r)) == r * r + 1
        assert moduli_dim((2, 2)) == 5

    def test_small(self):
        assert moduli_dim((1, 1)) == 2
        assert moduli_dim((1, 0)) == 0
        assert moduli_dim((0, 1)) == 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            moduli_dim((0, 0))

    @pytest.mark.parametrize("d", [(-3, 2), (2, -1), (2,), (1, 2, 3), (1.0, 2), (True, 1), "22"])
    def test_bad_dimension_vector_rejected(self, d):
        with pytest.raises(ValueError, match="dimension vector"):
            moduli_dim(d)
        with pytest.raises(ValueError, match="dimension vector"):
            QuiverRep(field=F2, d=d, A=(), B=(), C=())


def reference_hom_ext(a, b):
    """The direct-matrix hom_ext that block elimination replaced, verbatim but for its name."""
    if a.field != b.field:
        raise ValueError("hom_ext needs both representations over the same field")
    field = a.field
    a1, a2 = a.d
    b1, b2 = b.d
    dom = a1 * b1 + a2 * b2
    cod = ARROWS * a1 * b2
    if dom == 0 or cod == 0:
        # The canonical map has rank 0, so kernel and cokernel are everything.
        return (dom, cod)
    rows = []
    for t in range(ARROWS):
        fa = a.maps[t]
        gb = b.maps[t]
        for r in range(b2):
            for c in range(a1):
                row = [0] * dom
                # phi2[r, s] * fa[s, c] over s in range(a2)
                for s in range(a2):
                    row[b1 * a1 + r * a2 + s] = fa[s][c]
                # -gb[r, s] * phi1[s, c] over s in range(b1)
                for s in range(b1):
                    row[s * a1 + c] = field.normalize(-gb[r][s])
                rows.append(row)
    rk = rank(rows, field)
    return (dom - rk, cod - rk)


def hom_ext_corpus():
    """Seeded representations by field and dimension vector, every d <= (4,4).

    Over each of F2/F3/F5/Q (Q with p/q entries): the zero representation,
    a random one, one whose maps all have rank <= 1, and a direct sum.
    """
    rng = random.Random(9090)
    for field in (F2, F3, F5, QQ):
        if field == QQ:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))  # noqa: E731
        else:
            draw = lambda p=field.p: rng.randrange(p)  # noqa: E731

        def rank_one(d1, d2):
            u, v = [draw() for _ in range(d2)], [draw() for _ in range(d1)]
            return [[x * y for y in v] for x in u]

        reps = {}
        for d1, d2 in product(range(5), repeat=2):
            random_maps = [[[draw() for _ in range(d1)] for _ in range(d2)] for _ in range(3)]
            reps[d1, d2] = [
                zero_rep(field, (d1, d2)),
                make_rep(field, (d1, d2), *random_maps),
                make_rep(field, (d1, d2), *(rank_one(d1, d2) for _ in range(3))),
            ]
            if d1 + d2 > 1:
                x1, x2 = rng.randint(0, d1), rng.randint(0, d2)
                x = random_rep((x1, x2), field, rng.randrange(10**6))
                y = random_rep((d1 - x1, d2 - x2), field, rng.randrange(10**6))
                reps[d1, d2].append(direct_sum(x, y))
        yield field, reps


class TestHomExt:
    def test_matches_direct_matrix_reference(self):
        checked = 0
        for field, reps in hom_ext_corpus():
            rng = random.Random(field.p if field != QQ else 0)
            for a in (x for group in reps.values() for x in group):
                assert hom_ext(a, a) == reference_hom_ext(a, a), a.to_json()
                checked += 1
            for d, e in product(reps, repeat=2):
                a, b = rng.choice(reps[d]), rng.choice(reps[e])
                assert hom_ext(a, b) == reference_hom_ext(a, b), (a.to_json(), b.to_json())
                assert hom_ext(b, a) == reference_hom_ext(b, a), (b.to_json(), a.to_json())
                checked += 2
        assert checked > 5000

    def test_matches_direct_matrix_reference_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def pairs(draw):
            q = draw(st.sampled_from((2, 3, 5, None)))
            field = QQ if q is None else PrimeField(q)
            if q is None:
                entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)
            else:
                entry = st.integers(0, q - 1)
            # one in three entries 0, so zero and low-rank maps come up
            entry = st.one_of(st.just(0), entry, entry)

            def rep(d):
                mat = st.lists(st.lists(entry, min_size=d[0], max_size=d[0]), min_size=d[1], max_size=d[1])
                return make_rep(field, d, draw(mat), draw(mat), draw(mat))

            dim = st.tuples(st.integers(0, 4), st.integers(0, 4))
            return rep(draw(dim)), rep(draw(dim))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(pairs())
        def check(pair):
            a, b = pair
            for x, y in ((a, b), (b, a), (a, a)):
                assert hom_ext(x, y) == reference_hom_ext(x, y)

        check()

    def test_simples(self):
        s1 = make_rep(F2, (1, 0), [], [], [])
        s2 = make_rep(F2, (0, 1), [[]], [[]], [[]])
        assert hom_ext(s1, s2) == (0, 3)
        assert hom_ext(s2, s1) == (0, 0)
        assert hom_ext(s1, s1) == (1, 0)
        assert hom_ext(s2, s2) == (1, 0)

    def test_identity_endomorphism(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.sampled_from((F2, F3, F5, QQ)), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
        def check(field, d1, d2, seed):
            x = random_rep((d1, d2), field, seed)
            assert hom_ext(x, x)[0] >= 1

        check()

    def test_difference_is_euler_form(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        dims = st.tuples(st.integers(0, 4), st.integers(0, 4))
        seeds = st.integers(0, 10**9)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.sampled_from((F2, F3, F5, QQ)), dims, dims, seeds, seeds)
        def check(field, d, e, seed_a, seed_b):
            h, e1 = hom_ext(random_rep(d, field, seed_a), random_rep(e, field, seed_b))
            assert h - e1 == euler_form(d, e)
            assert h >= 0 and e1 >= 0

        check()

    def test_field_mismatch(self):
        a = random_rep((1, 1), F2, 0)
        b = random_rep((1, 1), F3, 0)
        with pytest.raises(ValueError):
            hom_ext(a, b)

    def test_hom_of_zero_map_pair(self):
        # zero representations: the canonical map vanishes identically
        a = zero_rep(F2, (1, 1))
        assert hom_ext(a, a) == (2, 3)


class TestSubspaces:
    def brute_subspaces(self, field, n):
        from itertools import product

        vectors = list(product(field.elements(), repeat=n))
        seen = set()
        for rows in product(vectors, repeat=min(n, 2) + 1):
            basis = row_space_basis(list(rows), field)
            seen.add(basis)
        return seen

    def test_enumeration_matches_brute_force_f2(self):
        for n in (1, 2, 3):
            enumerated = set(subspaces(F2, n))
            assert enumerated == self.brute_subspaces(F2, n)

    def test_counts_match_gaussian_binomials(self):
        assert sum(1 for _ in subspaces(F2, 4)) == count_subspaces(2, 4) == 67
        assert sum(1 for _ in subspaces(F3, 3)) == count_subspaces(3, 3) == 28
        assert sum(1 for _ in subspaces(F5, 2)) == count_subspaces(5, 2) == 8


def reference_subspaces(field, n):
    """The pivot-pattern enumerator that the pruned depth-first walk replaced.

    Verbatim but for its option to enumerate one dimension only.
    """
    for k in range(n + 1):
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


def reference_candidates(rep):
    """The unpruned candidate search of check_stability before pruning, verbatim but for the enumerator."""
    field = rep.field
    d1, d2 = rep.d
    assert isinstance(field, PrimeField)
    for basis1 in reference_subspaces(field, d1):
        basis2 = image_basis(rep, basis1)
        w = (len(basis1), len(basis2))
        if w == (0, 0):
            # Any nonzero target subspace completes the zero source; take a line.
            if d2 > 0 and (d1, d2) != (0, 1):
                line = row_space_basis([(1,) + (0,) * (d2 - 1)], field)
                yield SubrepWitness(basis1=(), basis2=line)
            continue
        if w == (d1, d2):
            continue
        yield SubrepWitness(basis1=basis1, basis2=basis2)


def reference_check_stability(rep):
    """The first candidate of largest King weight, and the verdict its weight gives."""
    best: Optional[SubrepWitness] = None
    for cand in reference_candidates(rep):
        if best is None or king_weight(cand.dims, rep.d) > king_weight(best.dims, rep.d):
            best = cand
    return verdict_of(best, rep)


def stability_corpus():
    """Seeded representations over F2/F3/F5 at every d <= (4,4).

    Zero, random, row-scaled, rank-one and direct-sum representations; over
    F5 a source of dimension 4 (1,120 subspaces for the reference) gets
    fewer random ones.  The rank-one maps come from a second stream, so the
    other representations stay what they were before those were added:
    three maps of rank <= 1 with independent images, and three onto one
    common line, where every member of the net has a kernel of dimension
    >= d1 - 1 and no line has a 3-dim image.
    """
    rng = random.Random(4242)
    rank_one_rng = random.Random(4243)
    for field in (F2, F3, F5):
        p = field.p
        for d1, d2 in product(range(5), repeat=2):
            heavy = p == 5 and d1 == 4
            yield zero_rep(field, (d1, d2))
            for common in (False, True):
                u = [rank_one_rng.randrange(1, p) for _ in range(d2)]
                maps = []
                for _ in range(ARROWS):
                    if not common:
                        u = [rank_one_rng.randrange(p) for _ in range(d2)]
                    w = [rank_one_rng.randrange(p) for _ in range(d1)]
                    maps.append([[x * y for y in w] for x in u])
                yield make_rep(field, (d1, d2), *maps)
            for _ in range(1 if heavy else 3):
                yield random_rep((d1, d2), field, rng.randrange(10**6))
            if heavy and d2 < 4:
                continue
            u = [rng.randrange(1, p) for _ in range(d2)]
            yield make_rep(field, (d1, d2), *(
                [[ui * rng.randrange(p) for _ in range(d1)] for ui in u] for _ in range(3)
            ))
            if d1 and d2:
                a1, a2 = rng.randint(0, d1), rng.randint(0, d2)
                x = random_rep((a1, a2), field, rng.randrange(10**6))
                y = random_rep((d1 - a1, d2 - a2), field, rng.randrange(10**6))
                yield direct_sum(x, y)


class TestPrunedSearch:
    def test_verdicts_match_unpruned_reference(self):
        checked = 0
        for rep in stability_corpus():
            if rep.d == (0, 0):
                continue  # no verdict: test_zero_rep_rejected
            assert check_stability(rep) == reference_check_stability(rep), rep.to_json()
            checked += 1
        assert checked > 300

    def test_agrees_with_pair_oracle_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def reps(draw):
            field = PrimeField(draw(st.sampled_from((2, 3))))
            d1 = draw(st.integers(0, 2))
            d2 = draw(st.integers(0 if d1 else 1, 2))
            entry = st.integers(0, field.p - 1)
            mat = st.lists(st.lists(entry, min_size=d1, max_size=d1), min_size=d2, max_size=d2)
            return make_rep(field, (d1, d2), draw(mat), draw(mat), draw(mat))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(reps())
        def check(rep):
            fast, slow = check_stability(rep), check_stability_pairs(rep)
            assert fast.status == slow.status
            assert (fast.witness is None) == (slow.witness is None)
            if fast.witness is not None:
                assert king_weight(fast.witness.dims, rep.d) == king_weight(slow.witness.dims, rep.d)

        check()


    def test_search_leaves_no_reference_cycle(self):
        # the memo of image bases must go with the call, not wait for the cyclic collector
        rep = random_rep((3, 3), F3, 5)
        gc.collect()
        gc.disable()
        try:
            check_stability(rep)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNetCertification:
    def test_certified_iff_image_has_rank_three(self):
        # rank-nullity for (a, b, c) |-> (aA + bB + cC)v: the net kills no
        # multiple of v iff Av, Bv, Cv are independent
        checked = certified = 0
        for rep in stability_corpus():
            d1 = rep.d[0]
            net = _net_kernels(rep)
            for basis in subspaces(rep.field, d1):
                if len(basis) != 1:
                    continue
                v = basis[0]
                full = rank([mat_vec(m, v, rep.field) for m in rep.maps], rep.field) == ARROWS
                assert (not _in_net_kernel(net, v, rep.field.p)) == full, (rep.to_json(), v)
                checked += 1
                certified += full
        assert 0 < certified < checked

    def test_kernels_of_dimension_two_or_more_stay_echelon_rows(self):
        # the zero representation: every member is 0, so each kernel is all
        # of F_5^4, kept as no rows at all rather than as its 156 lines
        lines, wide = _net_kernels(zero_rep(F5, (4, 4)))
        assert lines == set() and wide == [()] * 31
        # one kernel line per singular member of rank d1 - 1, in the walk's monic form
        rep = random_rep((4, 4), F5, 3)
        lines, wide = _net_kernels(rep)
        assert lines
        for v in lines:
            assert v[next(c for c, x in enumerate(v) if x)] == 1
            assert (v,) == row_space_basis([v], F5)

    def test_net_built_only_where_it_pays(self, monkeypatch):
        # fewer members than source lines, p^2 + p + 1 < (p^d1 - 1)/(p - 1),
        # holds from d1 = 4 on for p = 2, 3, 5; and a line has a 3-dim image
        # only if the columns of A, B and C span 3 dimensions, so d2 >= 3.
        # Both sides of the condition give the unpruned verdict.
        built = []
        real = quiver._net_kernels
        monkeypatch.setattr(quiver, "_net_kernels", lambda rep: built.append(rep.d) or real(rep))
        for field in (F2, F3, F5):
            for d in product(range(5), repeat=2):
                if d == (0, 0):
                    continue
                built.clear()
                rep = random_rep(d, field, 17)
                assert check_stability(rep) == reference_check_stability(rep), rep.to_json()
                assert built == ([d] if d[0] == 4 and d[1] >= 3 else []), (field, d)
        # at (4,4) over F5, maps of rank <= 1 onto one common line, and onto
        # two: the columns span 1 and 2 dimensions, so no net is built
        u, u2 = [1, 2, 0, 3], [0, 1, 4, 4]
        sources = ([1, 0, 2, 4], [3, 3, 0, 1], [0, 4, 4, 2])
        for targets in ((u, u, u), (u, u2, u)):
            maps = [[[x * y % 5 for y in w] for x in t] for t, w in zip(targets, sources)]
            rep = make_rep(F5, (4, 4), *maps)
            built.clear()
            assert check_stability(rep) == reference_check_stability(rep), rep.to_json()
            assert built == [], rep.to_json()


class TestWitnesses:
    def test_witnesses_are_subrepresentations(self):
        # the cross-layer property: each witness is a proper nonzero
        # subrepresentation W1 + W2, W2 the RREF of A(W1) + B(W1) + C(W1)
        witnesses = 0
        for rep in stability_corpus():
            if rep.d == (0, 0):
                continue
            verdict = check_stability(rep)
            if verdict.status is Stability.STABLE:
                assert verdict.witness is None
                continue
            w, field = verdict.witness, rep.field
            (k, e), (d1, d2) = w.dims, rep.d
            assert (k, e) not in ((0, 0), (d1, d2)) and k <= d1 and e <= d2, rep.to_json()
            assert rank(w.basis1, field) == k and rank(w.basis2, field) == e, rep.to_json()
            assert w.basis1 == row_space_basis(w.basis1, field), rep.to_json()
            image = [mat_vec(m, v, field) for v in w.basis1 for m in rep.maps]
            assert rank(list(w.basis2) + image, field) == e, rep.to_json()
            if k:
                assert w.basis2 == row_space_basis(image, field), rep.to_json()
            else:
                # a zero W1 has a zero image; the witness takes the first coordinate line
                assert w.basis2 == ((1,) + (0,) * (d2 - 1),), rep.to_json()
            assert king_weight(w.dims, rep.d) >= 0, rep.to_json()
            witnesses += 1
        assert witnesses > 300


class TestSubspaceWalk:
    @pytest.mark.parametrize("p, n", [(2, 0), (2, 3), (2, 4), (3, 3), (3, 4), (5, 2), (5, 4)])
    def test_unpruned_sequence_unchanged(self, p, n):
        field = PrimeField(p)
        assert list(subspaces(field, n)) == list(reference_subspaces(field, n))

    def test_prune_cuts_every_extension(self):
        full = list(subspaces(F3, 4))
        for cut in {b[:j] for b in full for j in range(1, len(b) + 1)}:
            seen = []

            def prune(rows, k):
                seen.append((rows, k))
                return rows == cut

            got = list(subspaces(F3, 4, prune=prune))
            # the walk skips exactly the bases of the pruned dimension that start with ``cut``
            k_cut = [k for rows, k in seen if rows == cut]
            assert k_cut, cut
            dropped = [b for b in full if len(b) in k_cut and b[: len(cut)] == cut]
            assert got == [b for b in full if b not in dropped], cut

    def test_prune_sees_every_nonempty_prefix(self):
        seen = []
        got = list(subspaces(F2, 3, prune=lambda rows, k: seen.append((rows, k)) or False))
        assert got == list(reference_subspaces(F2, 3))
        assert {(b[:j], len(b)) for b in got for j in range(1, len(b) + 1)} == set(seen)

    def test_prune_always_leaves_only_zero_space(self):
        assert list(subspaces(F5, 3, prune=lambda rows, k: True)) == [()]


class TestStability:
    def test_zero_rep_unstable(self):
        verdict = check_stability(zero_rep(F2, (1, 1)))
        assert verdict.status is Stability.UNSTABLE
        assert verdict.witness.dims == (1, 0)
        assert verdict.witness.theta == 5

    def test_nonzero_scalar_triple_stable(self):
        for rep in (
            make_rep(F2, (1, 1), [[1]], [[0]], [[0]]),
            make_rep(F2, (1, 1), [[0]], [[1]], [[0]]),
        ):
            assert check_stability(rep).status is Stability.STABLE

    def test_direct_sum_strictly_semistable(self):
        a = make_rep(F2, (1, 1), [[1]], [[0]], [[0]])
        b = make_rep(F2, (1, 1), [[0]], [[1]], [[0]])
        verdict = check_stability(direct_sum(a, b))
        assert verdict.status is Stability.STRICTLY_SEMISTABLE
        assert verdict.witness.theta == 0

    def test_simple_at_vertex_is_stable(self):
        assert check_stability(make_rep(F2, (1, 0), [], [], [])).status is Stability.STABLE
        assert check_stability(make_rep(F2, (0, 1), [[]], [[]], [[]])).status is Stability.STABLE

    # With one vertex zero the only representation is the zero one, and the
    # verdict rests on the search's starting witness (0, a line of the target),
    # which exists only where d2 > 0 and d != (0, 1).
    @pytest.mark.parametrize("p", STABILITY_FIELDS)
    @pytest.mark.parametrize(
        "d, status, witness",
        [
            ((1, 0), Stability.STABLE, None),
            ((3, 0), Stability.STRICTLY_SEMISTABLE, SubrepWitness(((1, 0, 0),), ())),
            ((0, 1), Stability.STABLE, None),
            ((0, 3), Stability.STRICTLY_SEMISTABLE, SubrepWitness((), ((1, 0, 0),))),
        ],
    )
    def test_one_vertex_zero(self, p, d, status, witness):
        assert check_stability(zero_rep(PrimeField(p), d)) == StabilityVerdict(status, witness)

    def test_most_f5_scalar_triples_stable(self):
        stable = sum(
            1
            for seed in range(60)
            if check_stability(random_rep((1, 1), F5, seed)).status is Stability.STABLE
        )
        assert stable >= 55  # only the zero triple destabilizes

    def test_f2_22_has_both_verdicts(self):
        statuses = {check_stability(random_rep((2, 2), F2, seed)).status for seed in range(100)}
        assert Stability.STABLE in statuses
        assert statuses - {Stability.STABLE}

    @pytest.mark.parametrize("d", [(1, 1), (2, 2), (2, 1), (1, 2)])
    def test_agreement_with_pair_oracle(self, d):
        for seed in range(50):
            rep = random_rep(d, F2, seed)
            fast = check_stability(rep)
            slow = check_stability_pairs(rep)
            assert fast.status == slow.status, (d, seed)
            if fast.witness is not None:
                assert king_weight(fast.witness.dims, d) == king_weight(slow.witness.dims, d)

    def test_agreement_on_f3(self):
        for seed in range(25):
            rep = random_rep((2, 2), F3, seed)
            assert check_stability(rep).status == check_stability_pairs(rep).status

    def test_stable_witnesses_are_absent(self):
        for seed in range(30):
            rep = random_rep((2, 2), F2, seed)
            verdict = check_stability(rep)
            assert (verdict.witness is None) == (verdict.status is Stability.STABLE)

    # Stable by both searches, yet End(V) = F_4, F_9 and F_8: stable but not absolutely stable.
    NOT_ABSOLUTELY_STABLE = [
        ('{"q":2,"d":[2,2],"A":[[0,1],[1,1]],"B":[[1,1],[1,0]],"C":[[1,0],[0,1]]}', (2, 6)),
        ('{"q":3,"d":[2,2],"A":[[1,1],[0,1]],"B":[[1,2],[1,1]],"C":[[0,2],[2,0]]}', (2, 6)),
        (
            '{"q":2,"d":[3,3],"A":[[0,1,1],[1,1,0],[0,1,0]],'
            '"B":[[1,1,1],[0,1,1],[1,0,1]],"C":[[1,1,0],[1,0,0],[0,0,1]]}',
            (3, 12),
        ),
    ]

    @pytest.mark.parametrize("payload, expected", NOT_ABSOLUTELY_STABLE)
    def test_stable_need_not_be_absolutely_stable(self, payload, expected):
        rep = QuiverRep.from_json(payload)
        assert check_stability(rep).status is check_stability_pairs(rep).status is Stability.STABLE
        assert hom_ext(rep, rep) == expected

    def test_stable_endomorphisms_form_a_field(self):
        # End(V) of a stable V is a division algebra (Schur), over F_p a field
        # F_{p^k} (Wedderburn).  So hom(V, V) = k, and V1, V2 are F_{p^k}-spaces:
        # k divides d1 and d2.  On the diagonal d = (r, r) that leaves k | r.
        rng = random.Random(31)
        stable = 0
        for field in (F2, F3, F5):
            for r, count in ((1, 20), (2, 40), (3, 40), (4, 6)):
                for _ in range(count):
                    rep = random_rep((r, r), field, rng.randrange(10**6))
                    if check_stability(rep).status is not Stability.STABLE:
                        continue
                    k = hom_ext(rep, rep)[0]
                    assert k >= 1 and r % k == 0, rep.to_json()
                    stable += 1
        assert stable > 200
        # Off the diagonal King's slope test also has stable points; where
        # gcd(d1, d2) = 1, k divides 1, so End(V) is the field itself.
        rng = random.Random(32)
        stable = 0
        for field in (F2, F3, F5):
            for d in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
                assert gcd(*d) == 1
                for _ in range(10):
                    rep = random_rep(d, field, rng.randrange(10**6))
                    if check_stability(rep).status is Stability.STABLE:
                        assert hom_ext(rep, rep)[0] == 1, rep.to_json()
                        stable += 1
        assert stable > 100

    def test_zero_rep_rejected(self):
        # a stable representation is nonzero; moduli_dim rejects (0, 0) too
        for check in (check_stability, check_stability_pairs):
            with pytest.raises(ValueError, match="zero representation"):
                check(zero_rep(F2, (0, 0)))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            check_stability(zero_rep(F2, (5, 1)))

    def test_field_support(self):
        with pytest.raises(ValueError):
            check_stability(zero_rep(PrimeField(7), (1, 1)))
        with pytest.raises(ValueError):
            check_stability(random_rep((1, 1), QQ, 0))


def gl_order(n, q):
    """|GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1))."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def semistable_count(d, q):
    """Semistable representations of dimension d over F_q, by Reineke's HN recursion.

    Reineke 2003 (Invent. Math. 152): with G_e = GL_e1 x GL_e2 and P_e =
    q^(3 e1 e2) / |G_e(F_q)| the number of representations over |G_e|,

        P_e = sum over HN types e = e^1 + ... + e^s, slopes strictly falling,
              of q^-(sum over k < l of <e^l, e^k>) * prod of P^sst_{e^k},

    and the s = 1 term is P^sst_e.  Peeling off the first piece e^1 = s
    leaves a type of e - s whose slopes all lie below mu(s), and the pairs
    with k = 1 add up to <e - s, s>.
    """
    def slope(e):
        return Fraction(theta(e), e[0] + e[1])

    def parts(e):
        return [s for s in product(range(e[0] + 1), range(e[1] + 1)) if s != (0, 0)]

    def first_piece(e, s):
        # the HN types of e that start with the semistable piece s
        rest = (e[0] - s[0], e[1] - s[1])
        return sst(s) * below(rest, slope(s)) / Fraction(q) ** euler_form(rest, s)

    @lru_cache(maxsize=None)
    def sst(e):
        whole = Fraction(q ** (ARROWS * e[0] * e[1]), gl_order(e[0], q) * gl_order(e[1], q))
        return whole - sum(first_piece(e, s) for s in parts(e) if s != e)

    @lru_cache(maxsize=None)
    def below(e, bound):
        # the HN types of e whose first slope is below ``bound``; one, empty, for e = 0
        if e == (0, 0):
            return Fraction(1)
        return sum(first_piece(e, s) for s in parts(e) if slope(s) < bound)

    count = sst(d) * gl_order(d[0], q) * gl_order(d[1], q)
    assert count.denominator == 1
    return int(count)


def census(d, field):
    """Verdict counts of ``check_stability`` over every representation of dimension d."""
    d1, d2 = d
    counts = Counter()
    for entries in product(field.elements(), repeat=ARROWS * d1 * d2):
        flat = iter(entries)
        maps = [[[next(flat) for _ in range(d1)] for _ in range(d2)] for _ in range(ARROWS)]
        counts[check_stability(make_rep(field, d, *maps)).status] += 1
    return counts


# Every d <= (4,4) with at most 2^12 representations over F2: 3 d1 d2 <= 12.
CENSUS_DIMS = [d for d in product(range(5), repeat=2) if d != (0, 0) and ARROWS * d[0] * d[1] <= 12]


class TestCensus:
    def test_recursion_reproduces_known_counts(self):
        known = {(1, 1): 7, (1, 2): 42, (2, 1): 42, (1, 3): 168, (3, 1): 168, (1, 4): 0, (4, 1): 0, (2, 2): 3780}
        assert {d: semistable_count(d, 2) for d in known} == known
        # a representation with a zero vertex is a sum of simples: semistable, one of them
        assert all(semistable_count(d, q) == 1 for d in ((1, 0), (0, 3), (4, 0)) for q in (2, 3))
        # over F3 at (2,2): 531,441 representations, too many for a tier-1 census
        assert semistable_count((2, 2), 3) == 526032

    @pytest.mark.parametrize("d", CENSUS_DIMS, ids="{0[0]}-{0[1]}".format)
    def test_f2_census_matches_recursion(self, d):
        counts = census(d, F2)
        semistable = semistable_count(d, 2)
        assert counts[Stability.STABLE] + counts[Stability.STRICTLY_SEMISTABLE] == semistable, counts
        if gcd(*d) == 1:
            # no proper subrepresentation can tie the slope, so semistable is stable
            assert counts[Stability.STABLE] == semistable, counts
        if d == (2, 2):
            assert [counts[s] for s in Stability] == [1092, 2688, 316]


class TestRandomRep:
    def test_deterministic(self):
        a = random_rep((2, 3), F5, 99)
        b = random_rep((2, 3), F5, 99)
        assert a == b
        assert random_rep((2, 3), F5, 100) != a

    def test_shapes(self):
        rep = random_rep((2, 3), F3, 0)
        assert len(rep.A) == 3 and all(len(r) == 2 for r in rep.A)


class TestJsonRoundTrip:
    def test_finite_field(self):
        rep = random_rep((2, 2), F3, 12)
        again = QuiverRep.from_json(rep.to_json())
        assert again == rep

    def test_rational(self):
        rep = random_rep((1, 2), QQ, 12)
        again = QuiverRep.from_json(rep.to_json())
        assert again == rep

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"d": [2]}, "d"),
            ({"d": [2, -1]}, "d"),
            ({"d": "22"}, "d"),
            ({"A": 5}, "A"),
            ({"B": [1, 2]}, "B"),
            ({"C": [[0, None], [0, 0]]}, "C"),
            ({"C": [["1/2", 0], [0, 0]]}, "C"),
            ({"q": [3]}, "q"),
            ({"q": 4}, "4"),
            ({"C": MISSING}, "C"),
            # a zero dimension still checks the shape of every map
            ({"d": [2, 0]}, "map A must be 0x2"),
            ({"d": [0, 2]}, "map A must be 2x0"),
            # the field tag is a prime or "rational"; null is neither
            ({"q": None}, "q"),
        ],
    )
    def test_malformed_payload_names_key(self, change, key):
        import json

        payload = json.loads(random_rep((2, 2), F3, 1).to_json())
        payload.update(change)
        payload = {k: v for k, v in payload.items() if v is not MISSING}
        with pytest.raises(ValueError, match=key):
            QuiverRep.from_json(json.dumps(payload))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            QuiverRep.from_json("[1, 2]")

    def test_schema_keys(self):
        import json

        payload = json.loads(random_rep((1, 1), F2, 0).to_json())
        assert set(payload) == {"q", "d", "A", "B", "C"}
        assert payload["q"] == 2
        payload = json.loads(random_rep((1, 1), QQ, 0).to_json())
        assert payload["q"] == "rational"


# An entry and its normal form over F2, F5 and Q, or ValueError where the
# entry is refused.  One rule holds for make_rep, QuiverRep and from_json.
ENTRY_RULE = [
    (-3, 1, 2, Fraction(-3)),
    (7, 1, 2, Fraction(7)),
    (True, ValueError, ValueError, ValueError),
    (2.0, ValueError, ValueError, ValueError),
    (0.1, ValueError, ValueError, ValueError),
    ("3", ValueError, ValueError, Fraction(3)),
    ("1/2", ValueError, ValueError, Fraction(1, 2)),
    (Fraction(1, 2), ValueError, ValueError, Fraction(1, 2)),
    (Fraction(2), ValueError, ValueError, Fraction(2)),
    (None, ValueError, ValueError, ValueError),
]
ENTRY_CASES = [
    pytest.param(entry, field, expected, id=f"{entry!r}-{name}")
    for entry, *normal in ENTRY_RULE
    for name, field, expected in zip(("F2", "F5", "Q"), (F2, F5, QQ), normal)
]


class TestEntryRule:
    @staticmethod
    def maps(entry):
        # the entry sits in C; A and B are plain ints
        return [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [entry, 0]]

    @pytest.mark.parametrize("entry, field, expected", ENTRY_CASES)
    def test_every_route_applies_one_rule(self, entry, field, expected):
        routes = [
            lambda: make_rep(field, (2, 2), *self.maps(entry)),
            lambda: QuiverRep(field, (2, 2), *self.maps(entry)),
        ]
        if not isinstance(entry, Fraction):
            tag = field.p if isinstance(field, PrimeField) else "rational"
            a, b, c = self.maps(entry)
            text = json.dumps({"q": tag, "d": [2, 2], "A": a, "B": b, "C": c})
            routes.append(lambda: QuiverRep.from_json(text))
        if expected is ValueError:
            for route in routes:
                with pytest.raises(ValueError, match="map C"):
                    route()
            return
        normal = QuiverRep(field, (2, 2), *self.maps(expected))
        for route in routes:
            rep = route()
            assert rep == normal and hash(rep) == hash(normal)
            assert rep.C[1][0] == expected and type(rep.C[1][0]) is type(expected)
            assert isinstance(rep.d, tuple) and all(type(row) is tuple for m in rep.maps for row in m)

    def test_direct_construction_normalises(self):
        seven = QuiverRep(F5, (1, 1), [[7]], [[0]], [[0]])
        two = make_rep(F5, (1, 1), [[2]], [[0]], [[0]])
        assert seven == two and hash(seven) == hash(two)
        assert seven.to_json() == two.to_json() == '{"A":[[2]],"B":[[0]],"C":[[0]],"d":[1,1],"q":5}'

    def test_shape_is_checked_before_entries(self):
        with pytest.raises(ValueError, match="map B must be 1x1"):
            make_rep(F5, (1, 1), [[None]], [[0, 0]], [[0]])
        with pytest.raises(ValueError, match="map A must be 1x1"):
            make_rep(F5, (1, 1), 5, [[0]], [[0]])
