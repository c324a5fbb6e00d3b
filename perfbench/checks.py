"""Independent checkers for the benchmark's outputs.

Nothing here imports fanov5.  Every check recomputes its answer by a
route written apart from the program (Borel-Weil-Bott on epsilon
coordinates, fraction-free integer elimination, an exhaustive theta
search over F_p) or tests a property the method must have.  A checker
returns a list of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, lcm

# Defining weights of the catalog bundles on Gr(2,5), in fundamental
# coordinates w1..w4 (the marked node is k = 2).
GR25_WEIGHTS = {
    "U": (1, -1, 0, 0),
    "Ustar": (1, 0, 0, 0),
    "Q": (0, 0, 0, 1),
    "Qstar": (0, -1, 1, 0),
    "O": (0, 0, 0, 0),
    "Sym2Ustar": (2, 0, 0, 0),
    "wedge2Qstar": (0, -1, 0, 1),
}
GR25_DIM = 6
MARKED = 2


# ---------------------------------------------------------------- sheaves


def twisted(weight: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Weight of E(j): add j to the marked coefficient."""
    w = list(weight)
    w[MARKED - 1] += j
    return tuple(w)


def _eps(weight: tuple[int, ...]) -> list[int]:
    """Epsilon coordinates of weight + rho, last entry 0."""
    z = [0]
    for c in reversed(weight):
        z.append(z[-1] + c + 1)
    return z[::-1]


@cache
def bwb(weight: tuple[int, ...]) -> dict[int, int]:
    """Cohomology {degree: dim} of the irreducible bundle with this weight (do not mutate)."""
    z = _eps(weight)
    if len(set(z)) < len(z):
        return {}
    degree = sum(1 for i, j in combinations(range(len(z)), 2) if z[i] < z[j])
    s = sorted(z, reverse=True)
    num = den = 1
    for i, j in combinations(range(len(s)), 2):
        num *= s[i] - s[j]
        den *= j - i
    return {degree: num // den}


def dominant_chain_end(weight: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(length, dominant weight+rho in fundamental coordinates) of the sort."""
    z = _eps(weight)
    length = sum(1 for i, j in combinations(range(len(z)), 2) if z[i] < z[j])
    s = sorted(z, reverse=True)
    return length, tuple(s[i] - s[i + 1] for i in range(len(s) - 1))


def euler(dims: dict[int, int]) -> int:
    return sum((-1) ** deg * d for deg, d in dims.items())


@cache
def section_chi(weight: tuple[int, ...], codim: int) -> int:
    """Euler characteristic of E on a codim-c linear section, from the Koszul complex."""
    return sum(
        (-1) ** p * comb(codim, p) * euler(bwb(twisted(weight, -p)))
        for p in range(codim + 1)
    )


def check_ambient(weight: tuple[int, ...], dims: dict[int, int]) -> list[str]:
    expected = bwb(weight)
    if dims != expected:
        return [f"ambient cohomology {dims} != Borel-Weil-Bott {expected}"]
    return []


def check_restriction(weight: tuple[int, ...], codim: int, dims, chi_rr=None) -> list[str]:
    """A resolved table sits in degrees 0..dim and sums to the Koszul Euler number.

    ``dims`` is None for a page left unresolved; only ``chi_rr`` is then
    compared, at codimension 3, with the Koszul Euler number.
    """
    problems = []
    chi_page = section_chi(weight, codim)
    if codim == 3 and chi_rr is not None and chi_rr != chi_page:
        problems.append(f"Riemann-Roch chi {chi_rr} != Koszul Euler number {chi_page}")
    if dims is None:
        return problems
    top = GR25_DIM - codim
    if any(not 0 <= deg <= top or d <= 0 for deg, d in dims.items()):
        problems.append(f"table {dims} outside degrees 0..{top}")
    if euler(dims) != chi_page:
        problems.append(f"table {dims} sums to {euler(dims)}, Koszul page to {chi_page}")
    return problems


def check_ulrich(name: str, weight: tuple[int, ...], is_ulrich) -> list[str]:
    """Sym2Ustar is Ulrich on V5; any Ulrich verdict needs chi(E(-t)) = 0, t = 1..3."""
    if name == "Sym2Ustar" and weight == GR25_WEIGHTS[name] and is_ulrich is not True:
        return [f"Sym2Ustar reported is_ulrich={is_ulrich} at codim 3"]
    if is_ulrich is True:
        bad = [t for t in (1, 2, 3) if section_chi(twisted(weight, -t), 3) != 0]
        if bad:
            return [f"Ulrich verdict but chi(E(-t)) != 0 for t in {bad}"]
    return []


# ---------------------------------------------------------------- Chow / RR

TODD_V5 = (Fraction(1), Fraction(1), Fraction(8, 3), Fraction(1))


def _mul(x, y):
    """Product in Z + Zh + Zl + Zp with h.h = 5l, h.l = p."""
    return (
        x[0] * y[0],
        x[0] * y[1] + x[1] * y[0],
        x[0] * y[2] + x[2] * y[0] + 5 * x[1] * y[1],
        x[0] * y[3] + x[3] * y[0] + x[1] * y[2] + x[2] * y[1],
    )


def rr_chi(rank: int, c1: int, c2: int, c3: int, t: int = 0) -> Fraction:
    """Riemann-Roch chi(E(t)) on V5 from Chern data in units of h, l, p."""
    ch = (
        Fraction(rank),
        Fraction(c1),
        Fraction(5 * c1 * c1 - 2 * c2, 2),
        Fraction(5 * c1**3 - 3 * c1 * c2 + 3 * c3, 6),
    )
    exp_th = (Fraction(1), Fraction(t), Fraction(5 * t * t, 2), Fraction(5 * t**3, 6))
    return _mul(_mul(ch, exp_th), TODD_V5)[3]


def check_ulrich_class(rank: int, cls: dict) -> list[str]:
    """chi(E(t)) must be the Ulrich Hilbert polynomial (5r/6)(t+1)(t+2)(t+3)."""
    if cls.get("rank") != rank:
        return [f"class {cls} has the wrong rank"]
    for t in range(4):
        want = Fraction(5 * rank * (t + 1) * (t + 2) * (t + 3), 6)
        got = rr_chi(rank, cls["c1"], cls["c2"], cls["c3"], t)
        if got != want:
            return [f"class {cls}: chi(E({t})) = {got}, Ulrich needs {want}"]
    return []


# ---------------------------------------------------------------- Hom / Ext


def euler_form(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[0] + a[1] * b[1] - 3 * a[0] * b[1]


def bareiss_rank(rows) -> int:
    """Rank of a rational matrix by fraction-free elimination over Z."""
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            m[r] = [_exact_div(piv * x - f * y, prev) for x, y in zip(m[r], m[rank])]
        prev = piv
        rank += 1
    return rank


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"Bareiss step {a}/{b} is not exact")
    return q


def hom_ext_expected(a: dict, b: dict) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) of representations given as {"d", "maps"}.

    Unknowns are f1 (b1 x a1) and f2 (b2 x a2); each arrow contributes the
    b2 x a1 equations f2 . M_a - M_b . f1 = 0.
    """
    (a1, a2), (b1, b2) = a["d"], b["d"]
    n1 = b1 * a1
    dom, cod = n1 + b2 * a2, 3 * a1 * b2
    if dom == 0 or cod == 0:
        return dom, cod
    rows = []
    for ma, mb in zip(a["maps"], b["maps"]):
        for i in range(b2):
            for j in range(a1):
                row = [0] * dom
                for s in range(a2):
                    row[n1 + i * a2 + s] += ma[s][j]
                for s in range(b1):
                    row[s * a1 + j] -= mb[i][s]
                rows.append(row)
    rk = bareiss_rank(rows)
    return dom - rk, cod - rk


def check_hom_ext(a: dict, b: dict, got, want=None) -> list[str]:
    """``got`` = (hom, ext1) against the Euler form and ``want`` = hom_ext_expected(a, b)."""
    hom, ext = got
    want = hom_ext_expected(a, b) if want is None else want
    problems = []
    if hom - ext != euler_form(a["d"], b["d"]):
        problems.append(f"hom - ext1 = {hom - ext} != Euler form {euler_form(a['d'], b['d'])}")
    if (hom, ext) != want:
        problems.append(f"(hom, ext1) = {(hom, ext)}, integer elimination gives {want}")
    return problems


# ---------------------------------------------------------------- stability


def theta(d: tuple[int, int]) -> int:
    return 5 * (d[0] - d[1])


def rank_mod(vectors, p: int) -> int:
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _apply(m, v, p: int) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) % p for row in m]


def _subspace_bases(n: int, p: int):
    """One basis (rows in echelon form) for every subspace of F_p^n."""
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
            for vals in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r, c in enumerate(pivots):
                    rows[r][c] = 1
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                yield rows


def max_theta(rep: dict) -> int | None:
    """Largest theta over proper nonzero subrepresentations, None if there are none.

    For a source subspace W1 the best target is the span of A, B, C applied
    to W1 (a larger target only lowers theta); a zero source takes a line.
    """
    d1, d2 = rep["d"]
    p = rep["q"]
    best = None
    for basis in _subspace_bases(d1, p):
        k = len(basis)
        image = [_apply(m, v, p) for v in basis for m in rep["maps"]] if d2 else []
        w = (k, rank_mod(image, p) if image else 0)
        if w == (0, 0):
            if d2 and (d1, d2) != (0, 1):
                w = (0, 1)
            else:
                continue
        if w == (d1, d2):
            continue
        if best is None or theta(w) > best:
            best = theta(w)
    return best


def verdict_from(best: int | None, d: tuple[int, int]) -> str:
    if best is None or best < theta(d):
        return "stable"
    return "strictly-semistable" if best == theta(d) else "unstable"


def check_witness(rep: dict, witness: dict) -> list[str]:
    """A witness {"basis1", "basis2", "theta"} must be a proper nonzero subrepresentation."""
    p, (d1, d2) = rep["q"], rep["d"]
    b1, b2 = witness["basis1"], witness["basis2"]
    w = (len(b1), len(b2))
    problems = []
    if w in ((0, 0), (d1, d2)):
        problems.append(f"witness of dimension {w} is not proper and nonzero")
    if (b1 and rank_mod(b1, p) != len(b1)) or (b2 and rank_mod(b2, p) != len(b2)):
        problems.append("witness bases are not linearly independent")
    image = [_apply(m, v, p) for v in b1 for m in rep["maps"]]
    if image and rank_mod(list(b2) + image, p) != len(b2):
        problems.append("witness is not a subrepresentation: A, B or C leaves W2")
    if witness["theta"] != theta(w):
        problems.append(f"witness theta {witness['theta']} != theta{w} = {theta(w)}")
    return problems


def check_stability(rep: dict, status: str, witness, best: int | None, direct_sum=False):
    """Compare a verdict with the exhaustive search value ``best`` = max_theta(rep)."""
    problems = []
    want = verdict_from(best, rep["d"])
    if status != want:
        problems.append(f"verdict {status}, exhaustive search gives {want}")
    if direct_sum and status == "stable":
        problems.append("a direct sum was reported stable")
    if status == "stable":
        if witness is not None:
            problems.append("a stable verdict carries a witness")
        return problems
    if witness is None:
        return problems + ["a non-stable verdict has no witness"]
    problems += check_witness(rep, witness)
    if witness["theta"] < theta(rep["d"]):
        problems.append(f"witness theta {witness['theta']} < theta(d) = {theta(rep['d'])}")
    if best is not None and witness["theta"] != best:
        problems.append(f"witness theta {witness['theta']} is not the maximum {best}")
    return problems


# ---------------------------------------------------------------- CLI


def cli_failed(expected_exit: int, returncode: int, stderr: str) -> str | None:
    """Why a CLI call failed, or None.

    The documented result is the expected exit code and no traceback; a
    call expected to exit 1 must leave exactly one ``error:`` line on stderr.
    """
    if "Traceback" in stderr:
        return f"traceback (exit {returncode})"
    if returncode != expected_exit:
        return f"exit {returncode}, expected {expected_exit}"
    if expected_exit == 1:
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"stderr is not a single error line: {stderr.strip()[:200]!r}"
    return None


def check_verify_output(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    bad = [line for line in lines if not line.startswith("PASS")]
    if not lines:
        return ["verify printed no claims"]
    return [f"claim not passed: {line}" for line in bad]
