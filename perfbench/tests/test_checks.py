"""Each independent checker accepts a hand-made good case and rejects a corrupted one.

Run with:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# A = [[1]], B = C = [[0]] on dimension vector (1, 1): Hom is the scalars and
# Ext^1 has dimension 2, since <(1,1),(1,1)> = 1 + 1 - 3 = -1.
LINE = {"q": "rational", "d": (1, 1), "maps": [[[1]], [[0]], [[0]]]}


def test_bareiss_rank_of_hand_made_matrices():
    assert checks.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert checks.bareiss_rank([[0, 1, 2], [1, 0, 3], [1, 1, 5]]) == 2
    assert checks.bareiss_rank([["1/2", 1], [1, "1/3"]]) == 2


def test_hom_ext_accepts_the_true_dimensions():
    assert checks.hom_ext_expected(LINE, LINE) == (1, 2)
    assert checks.check_hom_ext(LINE, LINE, (1, 2)) == []


def test_hom_ext_rejects_a_rank_off_by_one():
    # Rank one lower: both hom and ext1 one higher; the Euler form still holds.
    problems = checks.check_hom_ext(LINE, LINE, (2, 3))
    assert problems and "integer elimination" in problems[0]
    assert checks.check_hom_ext(LINE, LINE, (0, 1))


# Over F2, A = [[1, 0]], B = [[0, 1]], C = 0 on (2, 1): every nonzero source
# line maps onto the target, so the best proper subrepresentation is (1, 1)
# with theta 0 < theta(2, 1) = 5, and the representation is stable.
SUR = {"q": 2, "d": (2, 1), "maps": [[[1, 0]], [[0, 1]], [[0, 0]]]}
# On (1, 2) over F2 with A = [[1], [0]], B = C = 0, the subrepresentation
# (F2, <e1>) of dimension (1, 1) has theta 0 > theta(1, 2) = -5: unstable.
TIE = {"q": 2, "d": (1, 2), "maps": [[[1], [0]], [[0], [0]], [[0], [0]]]}


def test_max_theta_by_hand():
    assert checks.max_theta(SUR) == 0
    assert checks.verdict_from(0, SUR["d"]) == "stable"
    assert checks.max_theta(TIE) == 0
    assert checks.verdict_from(0, TIE["d"]) == "unstable"


def test_stability_accepts_a_genuine_witness():
    witness = {"basis1": [[1]], "basis2": [[1, 0]], "theta": 0}
    assert checks.check_witness(TIE, witness) == []
    assert checks.check_stability(TIE, "unstable", witness, checks.max_theta(TIE)) == []


def test_stability_rejects_a_witness_that_is_not_a_subrepresentation():
    # A sends e1 to e1, which is not in the target line <e2>.
    witness = {"basis1": [[1]], "basis2": [[0, 1]], "theta": 0}
    problems = checks.check_stability(TIE, "unstable", witness, checks.max_theta(TIE))
    assert any("not a subrepresentation" in p for p in problems)


def test_stability_rejects_a_wrong_verdict():
    assert checks.check_stability(SUR, "stable", None, 0) == []
    assert checks.check_stability(TIE, "stable", None, 0)
    assert checks.check_stability(TIE, "stable", None, None, direct_sum=True)


def test_cli_result_accepted_with_documented_exit_codes():
    assert checks.cli_failed(0, 0, "") is None
    assert checks.cli_failed(1, 1, "error: dimension vector must be nonnegative\n") is None


def test_cli_result_rejected_with_traceback_or_wrong_exit_code():
    tb = 'Traceback (most recent call last):\n  File "x"\nIndexError: list index out of range\n'
    assert checks.cli_failed(1, 1, tb) is not None
    assert checks.cli_failed(1, 0, "") is not None  # prints a value instead of an error
    assert checks.cli_failed(0, 2, "") is not None
    assert checks.cli_failed(1, 1, "error: one\nerror: two\n") is not None


def test_verify_output():
    assert checks.check_verify_output("PASS  a\nPASS  b\n") == []
    assert checks.check_verify_output("PASS  a\nFAIL  b\n")
    assert checks.check_verify_output("")


def test_restriction_against_koszul_and_riemann_roch():
    u = checks.GR25_WEIGHTS["U"]
    # U(-2) on V5: H^3 = C^5, chi = -5.
    assert checks.check_restriction(checks.twisted(u, -2), 3, {3: 5}, -5) == []
    assert checks.check_restriction(checks.twisted(u, -2), 3, {2: 5}, -5)  # wrong degree
    assert checks.check_restriction(checks.twisted(u, -2), 3, {4: 5}, -5)  # outside 0..3
    assert checks.check_restriction(checks.twisted(u, -2), 3, None, -4)  # chi disagrees


def test_ambient_and_ulrich_class():
    assert checks.check_ambient(checks.twisted(checks.GR25_WEIGHTS["U"], 1), {0: 5}) == []
    assert checks.check_ambient(checks.twisted(checks.GR25_WEIGHTS["U"], 1), {0: 4})
    assert checks.check_ulrich_class(2, {"rank": 2, "c1": 2, "c2": 7, "c3": 0}) == []
    assert checks.check_ulrich_class(2, {"rank": 2, "c1": 2, "c2": 8, "c3": 0})
    assert checks.check_ulrich("Sym2Ustar", checks.GR25_WEIGHTS["Sym2Ustar"], True) == []
    assert checks.check_ulrich("Sym2Ustar", checks.GR25_WEIGHTS["Sym2Ustar"], None)
