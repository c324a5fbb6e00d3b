import random

import pytest

from fanov5.linalg import QQ, PrimeField, count_subspaces, row_space_basis, subspaces
from fanov5.quiver import (
    Stability,
    QuiverRep,
    check_stability,
    check_stability_pairs,
    direct_sum,
    euler_form,
    hom_ext,
    make_rep,
    moduli_dim,
    random_rep,
    sample_stability_certificate,
    theta,
    zero_rep,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


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


class TestHomExt:
    def test_simples(self):
        s1 = make_rep(F2, (1, 0), [], [], [])
        s2 = make_rep(F2, (0, 1), [[]], [[]], [[]])
        assert hom_ext(s1, s2) == (0, 3)
        assert hom_ext(s2, s1) == (0, 0)
        assert hom_ext(s1, s1) == (1, 0)
        assert hom_ext(s2, s2) == (1, 0)

    def test_identity_endomorphism(self):
        rng = random.Random(4)
        for _ in range(40):
            d = (rng.randint(1, 3), rng.randint(1, 3))
            x = random_rep(d, F3, rng.randint(0, 10 ** 6))
            assert hom_ext(x, x)[0] >= 1

    def test_difference_is_euler_form(self):
        rng = random.Random(909)
        fields = (F2, F3, F5, QQ)
        for _ in range(200):
            field = rng.choice(fields)
            a = random_rep((rng.randint(0, 3), rng.randint(0, 3)), field, rng.randint(0, 10 ** 9))
            b = random_rep((rng.randint(0, 3), rng.randint(0, 3)), field, rng.randint(0, 10 ** 9))
            h, e = hom_ext(a, b)
            assert h - e == euler_form(a.d, b.d), (a.d, b.d)

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
                assert fast.witness.theta == slow.witness.theta

    def test_agreement_on_f3(self):
        for seed in range(25):
            rep = random_rep((2, 2), F3, seed)
            assert check_stability(rep).status == check_stability_pairs(rep).status

    def test_stable_witnesses_are_absent(self):
        for seed in range(30):
            rep = random_rep((2, 2), F2, seed)
            verdict = check_stability(rep)
            assert (verdict.witness is None) == (verdict.status is Stability.STABLE)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            check_stability(zero_rep(F2, (5, 1)))

    def test_field_support(self):
        with pytest.raises(ValueError):
            check_stability(zero_rep(PrimeField(7), (1, 1)))
        with pytest.raises(ValueError):
            check_stability(random_rep((1, 1), QQ, 0))


class TestRationalCertificate:
    def test_zero_rep_violation_found(self):
        cert = sample_stability_certificate(zero_rep(QQ, (2, 2)), trials=100, seed=1)
        assert not cert.consistent_with_stable
        assert cert.violation.theta >= 0

    def test_generic_rep_no_violation(self):
        cert = sample_stability_certificate(random_rep((2, 2), QQ, 3), trials=100, seed=2)
        assert cert.consistent_with_stable


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
        ],
    )
    def test_malformed_payload_names_key(self, change, key):
        import json

        payload = json.loads(random_rep((2, 2), F3, 1).to_json())
        payload.update(change)
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
