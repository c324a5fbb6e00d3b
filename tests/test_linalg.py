import random
import time
from fractions import Fraction

import pytest

from fanov5 import quiver
from fanov5.linalg import (
    QQ,
    PrimeField,
    echelon,
    echelon_extend,
    field_for,
    rank,
    reduce_echelon,
    row_space_basis,
    rref,
)
from fanov5.quiver import hom_ext, random_rep


def reference_rref(rows):
    """Gauss-Jordan over Q on Fraction entries: the oracle for the fraction-free rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        inv = 1 / m[rk][col]
        m[rk] = [inv * x for x in m[rk]]
        for r in range(nrows):
            if r != rk and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rk])]
        rk += 1
        if rk == nrows:
            break
    return tuple(tuple(row) for row in m), rk


def corpus(seed=2024, size=400):
    """Seeded rational matrices: empty, zero, duplicate-row, wide, tall and p/q entries."""
    rng = random.Random(seed)
    out = [[], [[]], [[], []], [[0, 0, 0]] * 3, [[Fraction(0)] * 4] * 2, [[1, 2, 3]] * 4]
    for i in range(size):
        shape = i % 4
        if shape == 0:
            nrows, ncols = rng.randint(1, 3), rng.randint(4, 9)  # wide
        elif shape == 1:
            nrows, ncols = rng.randint(4, 9), rng.randint(1, 3)  # tall
        else:
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if i % 3 == 0:
            draw = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 9))  # noqa: E731
        elif i % 3 == 1:
            draw = lambda: rng.choice((0, 0, 0, 1, -1, 2))  # noqa: E731 - sparse, rank-deficient
        else:
            draw = lambda: rng.randint(-9, 9)  # noqa: E731
        rows = [[draw() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and i % 5 == 0:
            rows[-1] = list(rows[0])  # duplicate row
        if nrows > 2 and i % 7 == 0:
            rows[1] = [2 * x - y for x, y in zip(rows[0], rows[-1])]  # dependent row
        out.append(rows)
    return out


class TestRationalElimination:
    def test_rank_matches_reference(self):
        for rows in corpus() + corpus(seed=7):
            assert rank(rows, QQ) == reference_rref(rows)[1], rows

    def test_rref_rejects_rationals(self):
        with pytest.raises(TypeError):
            rref([[1, 2], [3, 4]], QQ)
        with pytest.raises(TypeError):
            row_space_basis([[Fraction(1, 2)]], QQ)

    def test_hom_ext_ranks_match_reference(self, monkeypatch):
        calls = []

        def checked_rank(rows, field):
            got = rank(rows, field)
            calls.append(got)
            assert got == reference_rref(rows)[1]
            return got

        def checked_echelon(rows, field):
            got = echelon(rows, field)
            calls.append(len(got))
            assert len(got) == reference_rref(rows)[1]
            # every echelon row is a Q-combination of ``rows``: appending it keeps the rank
            for _, row in got:
                assert reference_rref(list(rows) + [row])[1] == len(got)
            return got

        monkeypatch.setattr(quiver, "rank", checked_rank)
        monkeypatch.setattr(quiver, "echelon", checked_echelon)
        for seed in range(3):
            a = random_rep((3, 3), QQ, seed)
            b = random_rep((3, 2), QQ, seed + 100)
            assert hom_ext(a, a) == (1, 10)
            h, e = hom_ext(a, b)
            assert h - e == quiver.euler_form(a.d, b.d)
        assert len(calls) == 12  # one echelon of [K | I] and one rank of M per call

    def test_echelon_rows_span_the_rows(self):
        # Bareiss rows on ints, each zero left of its pivot (so at every earlier
        # pivot too); appending them to the rows keeps the rank, so they span it
        for rows in corpus(seed=5, size=200):
            got = echelon(rows, QQ)
            rk = reference_rref(rows)[1]
            assert len(got) == rk == rank(rows, QQ), rows
            pivots = [c for c, _ in got]
            assert pivots == sorted(set(pivots)), rows
            for c, row in got:
                assert all(type(x) is int for x in row) and row[c] and not any(row[:c]), rows
            assert reference_rref(list(rows) + [row for _, row in got])[1] == rk, rows

    def test_rank_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Two thirds zeros, up to 8 x 8: Bareiss must rescale a row whose entry
        # in the pivot column is already 0, and only sparse input shows it.
        nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), nonzero)
        shapes = st.tuples(st.integers(0, 8), st.integers(1, 8))
        matrices = shapes.flatmap(
            lambda s: st.lists(st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0])
        )
        scales = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(matrices, scales)
        def check(rows, s):
            rk = rank(rows, QQ)
            assert rk == reference_rref(rows)[1]
            assert 0 <= rk <= min(len(rows), len(rows[0]) if rows else 0)
            # invariant under scaling a row, transposing, and appending a combination
            if rows:
                assert rank([[s * x for x in rows[0]]] + rows[1:], QQ) == rk
                assert rank([list(col) for col in zip(*rows)], QQ) == rk
                combo = [s * x + y for x, y in zip(rows[0], rows[-1])]
                assert rank(rows + [combo], QQ) == rk

        check()

    def test_zero_pivot_entry_row_is_rescaled(self):
        # rows 0 and 1 are 0 in the first pivot's column; left unscaled, the
        # next exact division by that pivot truncates and the rank reads 2
        rows = [[0, 1, 1], [0, 1, 0], [2, 0, 0]]
        assert rank(rows, QQ) == reference_rref(rows)[1] == 3

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        for rows in corpus(seed=11, size=120):
            if not rows or not rows[0]:
                continue
            assert rank(rows, QQ) == sympy.Matrix(rows).rank(), rows


def reference_rref_fp(rows, field):
    """Gauss-Jordan over F_p, inverses by Fermat: the elimination the echelon kernel replaced."""
    m = [list(field.normalize(x) for x in row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        inv = pow(m[rk][col], field.p - 2, field.p)
        m[rk] = [field.normalize(inv * x) for x in m[rk]]
        for r in range(nrows):
            if r != rk and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [field.normalize(x - factor * y) for x, y in zip(m[r], m[rk])]
        rk += 1
        if rk == nrows:
            break
    return tuple(tuple(row) for row in m), rk


def reference_echelon_extend(basis, vectors, p):
    """The F_p kernel before it stopped folding at full rank, verbatim."""
    out = list(basis)
    for v in vectors:
        for c, row in out:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            out.append((lead, tuple(x * inv % p for x in v)))
    return tuple(out)


PRIMES = (2, 3, 5, 7, 1000000007)


def corpus_fp(p, seed, size=200):
    """Seeded integer matrices for F_p: empty, zero, wide, tall, dependent rows, entries off 0..p-1."""
    rng = random.Random(seed * 7919 + p)
    out = [[], [[]], [[], []], [[0, 0, 0]] * 3, [[p, -p, 2 * p]] * 2, [[1, 2, 3]] * 4]
    for i in range(size):
        shape = i % 4
        if shape == 0:
            nrows, ncols = rng.randint(1, 3), rng.randint(4, 9)  # wide
        elif shape == 1:
            nrows, ncols = rng.randint(4, 9), rng.randint(1, 3)  # tall
        else:
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if i % 3 == 0:
            draw = lambda: rng.randint(-3 * p, 3 * p)  # noqa: E731 - unreduced representatives
        elif i % 3 == 1:
            draw = lambda: rng.choice((0, 0, 0, 1, -1, p - 1))  # noqa: E731 - sparse, rank-deficient
        else:
            draw = lambda: rng.randrange(p)  # noqa: E731
        rows = [[draw() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and i % 5 == 0:
            rows[-1] = list(rows[0])  # duplicate row
        if nrows > 2 and i % 7 == 0:
            rows[1] = [2 * x - y for x, y in zip(rows[0], rows[-1])]  # dependent row
        out.append(rows)
    return out


class TestPrimeElimination:
    @pytest.mark.parametrize("p", PRIMES)
    def test_rref_matches_reference(self, p):
        field = PrimeField(p)
        for rows in corpus_fp(p, seed=1):
            got = rref(rows, field)
            assert got == reference_rref_fp(rows, field), rows
            assert all(type(x) is int for row in got[0] for x in row), rows

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_matches_rref(self, p):
        field = PrimeField(p)
        for rows in corpus_fp(p, seed=2):
            assert rank(rows, field) == rref(rows, field)[1], rows

    @pytest.mark.parametrize("p", PRIMES)
    def test_echelon_extend_is_incremental(self, p):
        # folding the rows one at a time gives the basis of folding them all at once
        for rows in corpus_fp(p, seed=3, size=60):
            vectors = [[x % p for x in row] for row in rows]
            basis = ()
            for v in vectors:
                basis = echelon_extend(basis, [v], p)
            assert basis == echelon_extend((), vectors, p)
            assert len(basis) == rref(rows, PrimeField(p))[1]
            assert reduce_echelon(basis, p) == row_space_basis(rows, PrimeField(p)), rows
            pivots = [c for c, _ in basis]
            for i, (c, row) in enumerate(basis):
                assert row[c] == 1 and not any(row[:c]), rows
                assert all(row[earlier] == 0 for earlier in pivots[:i]), rows
            assert echelon(rows, PrimeField(p)) == basis


    @pytest.mark.parametrize("p", PRIMES)
    def test_folding_past_full_rank_matches_reference(self, p):
        # rows, then the unit vectors (the span is full from there on), then more rows
        rng = random.Random(p)
        for rows in corpus_fp(p, seed=4, size=120):
            if not rows or not rows[0]:
                continue
            n = len(rows[0])
            vectors = [[x % p for x in row] for row in rows]
            vectors += [[int(i == j) for j in range(n)] for i in reversed(range(n))]
            vectors += [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
            assert echelon_extend((), vectors, p) == reference_echelon_extend((), vectors, p), rows
            start = reference_echelon_extend((), vectors[: len(rows)], p)
            rest = vectors[len(rows):]
            assert echelon_extend(start, rest, p) == reference_echelon_extend(start, rest, p), rows
            full = reference_echelon_extend((), vectors, p)
            assert len(full) == n and echelon_extend(full, rest, p) == full, rows


class TestPrimeField:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 10000019, 1000000007, 2 ** 61 - 1])
    def test_primes_accepted(self, p):
        assert PrimeField(p).p == p

    @pytest.mark.parametrize(
        "n", [-7, 0, 1, 4, 9, 10000019 * 3, 561, 3215031751, 3825123056546413051, 318665857834031151167461]
    )
    def test_composites_rejected(self, n):
        with pytest.raises(ValueError):
            PrimeField(n)

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        PrimeField(1000000007)
        assert time.perf_counter() - start < 0.1

    def test_agrees_with_trial_division(self):
        for n in range(2000):
            prime = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
            try:
                PrimeField(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == prime, n

    @pytest.mark.parametrize("q", ["x", 2.5, True, [3], "1/2", None])
    def test_field_tag_rejected(self, q):
        with pytest.raises(ValueError):
            field_for(q)


class TestEntryRule:
    """The eliminations take the entries a representation takes, by ``Field.normalize``."""

    def test_rank_refuses_a_float_over_fp(self):
        # int(0.5) % 5 is 0: coercing the entry made this a silent rank 0
        with pytest.raises(ValueError, match="0.5"):
            rank([[0.5]], PrimeField(5))

    @pytest.mark.parametrize("entry", [0.5, 2.0, True, "3", Fraction(1, 2), Fraction(2), None])
    @pytest.mark.parametrize("eliminate", [rank, echelon, rref, row_space_basis])
    def test_prime_field_refuses(self, eliminate, entry):
        with pytest.raises(ValueError):
            eliminate([[1, entry]], PrimeField(5))

    @pytest.mark.parametrize("entry", [0.1, 2.0, True, "x", "1/0", None])
    def test_rational_refuses(self, entry):
        with pytest.raises(ValueError):
            rank([[1, entry]], QQ)

    def test_rational_takes_fraction_strings(self):
        assert rank([["1/2", 1], [1, Fraction(2)]], QQ) == 1
        assert rank([[-3, 7]], PrimeField(5)) == 1
