"""The 2-vertex, 3-arrow quiver: Euler form, Hom/Ext, King stability.

Representations are triples of d2 x d1 matrices over an exact field, with
entries taken by ``Field.normalize`` whether they come from Python or from
a JSON file.  The Euler form of the path algebra is

    <a, b> = a1*b1 + a2*b2 - 3*a1*b2 = dim Hom - dim Ext^1,

and the stability character used throughout is the Euler pairing against
the fixed dimension vector (5, 10), which works out to
theta(d) = 5*(d1 - d2).

``hom_ext`` ranks the canonical map by block elimination over either
field: one echelon of the source maps beside an identity gives the left
kernel N of their stacked transposes, and one rank of the target maps
seen through N finishes it, on a third of the full matrix's rows.  Over
Q the entries of that last matrix carry minors of the source maps, so
the route pays off at the small sizes the toolkit uses (see ``hom_ext``).

Stability is King's for the slope theta(e)/(e1 + e2) (King 1994, Quart.
J. Math. 45): a subrepresentation W of V destabilises iff its slope
exceeds V's, that is iff the integer ``king_weight(w, d)`` =
theta(w)(d1 + d2) - theta(d)(w1 + w2) is positive, and it ties iff the
weight is 0.  On the diagonal d = (r, r) the weight is 2r*theta(w).
Checks over a prime field are exhaustive: for every subspace W1 of the
source, the weight-maximizing subrepresentation through W1 takes
W2 = A(W1) + B(W1) + C(W1), since the weight never rises with w2, so
enumerating pairs (W1, minimal W2) (plus the one-dimensional targets
that a zero W1 allows) finds a maximizing witness or certifies
stability.  ``check_stability`` walks the source subspaces row by row and
prunes those that cannot beat the best weight found so far.

The prune asks the line of the newest row first, since the image of any
line of W1 bounds the image of W1 from below.  A line v has a 3-dim image
exactly when no member aA + bB + cC of the net spanned by the arrows
kills it (rank-nullity for (a, b, c) |-> (aA + bB + cC)v), so one kernel
per point of P^2(F_p), computed where the source has more lines than
the net has members, certifies most lines with no elimination of their
own.  Elimination over F_p stops once a basis spans the whole space.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import lcm
from operator import mul
from random import Random
from typing import Optional

from .linalg import (
    Echelon,
    Field,
    Matrix,
    PrimeField,
    QQ,
    echelon,
    echelon_extend,
    field_for,
    rank,
    reduce_echelon,
    subspaces,
)

ARROWS = 3
THETA_SOURCE = (5, 10)

DimVector = tuple[int, int]

STABILITY_FIELDS = (2, 3, 5)
STABILITY_DIM_CAP = 4
RANDOM_DIM_CAP = 200
# What `fanov5 quiver hom-ext` accepts, chosen from measured times so that
# the slowest accepted pair ends in about a second: two (6,6)
# representations over Q with 24-bit entries take 0.8 s (Python 3.11,
# shared x86 machine), 32-bit entries 1.2 s, and (7,7) takes 2.2 s already
# at 16 bits.  Over Q the bits are those of each denominator and of the maps
# scaled to integers, as ``hom_ext`` eliminates them.  Over F_p a (6,6) pair
# takes 15 ms even for the largest supported p.  ``hom_ext`` itself has no cap.
HOM_EXT_DIM_CAP = 6
HOM_EXT_BITS_CAP = 24


def euler_form(a: DimVector, b: DimVector) -> int:
    """<a, b> = a1 b1 + a2 b2 - 3 a1 b2."""
    return a[0] * b[0] + a[1] * b[1] - ARROWS * a[0] * b[1]


def theta(d: DimVector) -> int:
    """theta(d) = <(5,10), d> = 5 (d1 - d2)."""
    return euler_form(THETA_SOURCE, d)


def king_weight(w: DimVector, d: DimVector) -> int:
    """theta(w)(d1 + d2) - theta(d)(w1 + w2) = 10 (d2 w1 - d1 w2).

    A subrepresentation of dimension w destabilises one of dimension d iff
    this is positive (its slope theta/dim is larger), and ties iff it is 0.
    For a fixed w1 it falls by 10 d1 per unit of w2.
    """
    return theta(w) * (d[0] + d[1]) - theta(d) * (w[0] + w[1])


def dim_vector(d) -> DimVector:
    """``d`` as a pair of nonnegative ints; ValueError for anything else."""
    if not (isinstance(d, (list, tuple)) and len(d) == 2 and all(type(x) is int and x >= 0 for x in d)):
        raise ValueError(f"dimension vector d must be two nonnegative integers, got {d!r}")
    return (d[0], d[1])


def moduli_dim(d: DimVector) -> int:
    """Expected dimension 1 - <d, d> of the stable-representation moduli."""
    d = dim_vector(d)
    if d == (0, 0):
        raise ValueError("zero dimension vector has no moduli space")
    return 1 - euler_form(d, d)


@dataclass(frozen=True)
class QuiverRep:
    """Representation: three d2 x d1 matrices A, B, C over ``field``.

    The maps may be given as any lists or tuples of rows; each entry goes
    through ``field.normalize``, the same rule a file goes through, and the
    maps are stored as tuples of tuples, so equal representations compare
    and hash equal.  ValueError names ``d`` or the map at fault: the
    dimension vector is checked first, then every map's shape, then the
    entries.
    """

    field: Field
    d: DimVector
    A: Matrix
    B: Matrix
    C: Matrix

    def __post_init__(self):
        d1, d2 = dim_vector(self.d)
        for name, m in zip("ABC", self.maps):
            shaped = isinstance(m, (list, tuple)) and len(m) == d2
            if not (shaped and all(isinstance(r, (list, tuple)) and len(r) == d1 for r in m)):
                raise ValueError(f"map {name} must be {d2}x{d1}")
        object.__setattr__(self, "d", (d1, d2))
        norm = self.field.normalize
        for name, m in zip("ABC", self.maps):
            try:
                object.__setattr__(self, name, tuple([tuple([norm(x) for x in row]) for row in m]))
            except ValueError as exc:
                raise ValueError(f"map {name}: {exc}") from None

    @property
    def maps(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.A, self.B, self.C)

    def to_json(self) -> str:
        tag = self.field.p if isinstance(self.field, PrimeField) else "rational"
        payload = {"q": tag, "d": list(self.d)}
        for name, m in zip("ABC", self.maps):
            payload[name] = [[int(x) if x.denominator == 1 else str(x) for x in row] for row in m]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "QuiverRep":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("representation must be a JSON object")
        missing = [key for key in ("q", "d", "A", "B", "C") if key not in payload]
        if missing:
            raise ValueError(f"representation is missing key {missing[0]!r}")
        return QuiverRep(field_for(payload["q"]), payload["d"], payload["A"], payload["B"], payload["C"])


# The constructor normalises its entries, so it is the builder too.
make_rep = QuiverRep


def zero_rep(field: Field, d: DimVector) -> QuiverRep:
    d1, d2 = d
    z = [[0] * d1 for _ in range(d2)]
    return QuiverRep(field, d, z, z, z)


def random_rep(d: DimVector, field: Field, seed: int) -> QuiverRep:
    """Deterministic representation with uniform entries (ints in [-9,9] over Q).

    ValueError for a dimension above ``RANDOM_DIM_CAP``, checked before
    anything is drawn, so the work is bounded: 200 x 200 maps take about
    half a second over Q and a fifth of that over F_p.
    """
    d1, d2 = dim_vector(d)
    if max(d1, d2) > RANDOM_DIM_CAP:
        raise ValueError(f"dimensions capped at {RANDOM_DIM_CAP} for a random representation")
    rng = Random(seed)

    def draw():
        return rng.randrange(field.p) if isinstance(field, PrimeField) else rng.randint(-9, 9)

    mats = [[[draw() for _ in range(d1)] for _ in range(d2)] for _ in range(ARROWS)]
    return QuiverRep(field, (d1, d2), *mats)


def direct_sum(x: QuiverRep, y: QuiverRep) -> QuiverRep:
    if x.field != y.field:
        raise ValueError("direct sum needs a common field")
    d = (x.d[0] + y.d[0], x.d[1] + y.d[1])
    mats = []
    for mx, my in zip(x.maps, y.maps):
        rows = []
        for row in mx:
            rows.append(list(row) + [0] * y.d[0])
        for row in my:
            rows.append([0] * x.d[0] + list(row))
        mats.append(rows)
    return QuiverRep(x.field, d, *mats)


def hom_ext(a: QuiverRep, b: QuiverRep) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) from the canonical linear map.

    Hom and Ext^1 are kernel and cokernel of

        Phi: Hom(A1,B1) + Hom(A2,B2) -> sum over arrows of Hom(A1,B2),
        (f1, f2) |-> (f2 . a_t - b_t . f1)_t,

    so both drop out of rank Phi; the difference is the Euler form of the
    dimension vectors.  Phi is ranked by block elimination.  The equations
    of target row r meet f2 only through row r of f2, always with the
    coefficients K = [a_1^T; a_2^T; a_3^T] (3*a1 x a2).  So rank Phi is
    b2 * rank K plus the rank of what the left kernel N of K leaves of the
    f1 part: the (b1*a1) x (b2*|N|) matrix

        M[(s, c), (r, j)] = sum over t of N_j[t*a1 + c] * b_t[r][s].

    N is the identity part of the echelon rows of [K | I] whose pivot lies
    in the identity block.  At (4,4) that is a 12 x 16 echelon and a
    16 x 32 rank, where Phi itself is 48 x 32.  Over Q both
    representations' maps are scaled to ints first (a scalar per
    representation changes no rank), so both eliminations run on plain
    ints.  The price over Q is integer size: N's entries are minors of K,
    so M's entries are bigger than Phi's, and past (6,6) a direct
    elimination of Phi would be the faster one.
    """
    if a.field != b.field:
        raise ValueError("hom_ext needs both representations over the same field")
    field = a.field
    a1, a2 = a.d
    b1, b2 = b.d
    dom = a1 * b1 + a2 * b2
    cod = ARROWS * a1 * b2
    amaps, bmaps = a.maps, b.maps
    if field == QQ:
        amaps, bmaps = _integral(amaps), _integral(bmaps)
    # K = [a_1^T; a_2^T; a_3^T]: row t*a1 + c is column c of a_t.
    K = [[row[c] for row in m] for m in amaps for c in range(a1)]
    n = len(K)
    with_identity = [k + [int(i == j) for j in range(n)] for i, k in enumerate(K)]
    kernel = [row[a2:] for col, row in echelon(with_identity, field) if col >= a2]
    # N_j's entries at source column c, and b's entries at (r, s), one per arrow.
    kernel_at = [[v[c::a1] for v in kernel] for c in range(a1)]
    b_at = [[[m[r][s] for m in bmaps] for r in range(b2)] for s in range(b1)]
    rows = [
        [sum(map(mul, u, w)) for w in b_at[s] for u in kernel_at[c]]
        for s in range(b1)
        for c in range(a1)
    ]
    rk = b2 * (n - len(kernel)) + rank(rows, field)
    return (dom - rk, cod - rk)


def _integral(maps: tuple[Matrix, ...]) -> list[list[list[int]]]:
    """Rational maps times the lcm of all their denominators: one scalar, the same ranks."""
    scale = lcm(*(x.denominator for m in maps for row in m for x in row))
    return [[[x.numerator * (scale // x.denominator) for x in row] for row in m] for m in maps]


class Stability(enum.Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class SubrepWitness:
    """A destabilizing (or slope-tying) subrepresentation."""

    basis1: Matrix
    basis2: Matrix

    @property
    def dims(self) -> DimVector:
        return (len(self.basis1), len(self.basis2))

    @property
    def theta(self) -> int:
        return theta(self.dims)


@dataclass(frozen=True)
class StabilityVerdict:
    status: Stability
    witness: Optional[SubrepWitness] = None


def check_stability_input(field: Field, d) -> DimVector:
    """``d`` as a dimension vector that ``check_stability`` accepts over ``field``.

    ValueError for a field other than F_q, q in ``STABILITY_FIELDS``, for a
    dimension above ``STABILITY_DIM_CAP`` and for d = (0, 0).  Callers that
    draw a representation ask first, so an oversized request fails before
    any matrix is built.
    """
    d = dim_vector(d)
    if not isinstance(field, PrimeField):
        raise ValueError("exhaustive stability needs a finite prime field")
    if field.p not in STABILITY_FIELDS:
        raise ValueError(f"supported fields are F_q for q in {STABILITY_FIELDS}")
    if max(d) > STABILITY_DIM_CAP:
        raise ValueError(f"dimensions capped at {STABILITY_DIM_CAP} for enumeration")
    if d == (0, 0):
        # A stable representation is nonzero by definition (King 1994).
        raise ValueError("zero representation has no stability verdict: d = (0, 0)")
    return d


# Kernels of the net's members: the one-dimensional ones as monic vectors,
# the bigger ones as their member's echelon rows.
_NetKernels = tuple[set[tuple[int, ...]], list[Echelon]]


def _net_kernels(rep: QuiverRep) -> _NetKernels:
    """Kernels of the members aA + bB + cC of the net, one per point [a:b:c] of P^2(F_p).

    A kernel that is a line is returned as its monic vector (leading entry
    1, the form the subspace walk builds), in the set; a bigger kernel as
    the member's echelon rows, since a vector lies in it iff every row
    vanishes on it.  The lines of a kernel are never listed one by one.
    """
    p = rep.field.p
    d1 = rep.d[0]
    # Row r of the three maps as (A[r][j], B[r][j], C[r][j]) triples.
    triples = [list(zip(*rows)) for rows in zip(*rep.maps)]
    points = [(1, b, c) for b in range(p) for c in range(p)] + [(0, 1, c) for c in range(p)] + [(0, 0, 1)]
    lines: set[tuple[int, ...]] = set()
    wide: list[Echelon] = []
    for a, b, c in points:
        member = [[(a * x + b * y + c * z) % p for x, y, z in row] for row in triples]
        basis = echelon_extend((), member, p)
        nullity = d1 - len(basis)
        if nullity == 1:
            lines.add(_kernel_line(basis, d1, p))
        elif nullity > 1:
            wide.append(basis)
    return lines, wide


def _kernel_line(basis: Echelon, n: int, p: int) -> tuple[int, ...]:
    """The monic vector spanning the kernel of a rank n - 1 echelon ``basis``.

    The one column without a pivot (what the pivots' sum lacks of
    0 + 1 + ... + (n - 1)) gets 1; back substitution, last row first, fills
    each pivot: a row is zero at every earlier row's pivot and 1 at its own,
    so it fixes its pivot's entry from the entries set after it.
    """
    x = [0] * n
    x[n * (n - 1) // 2 - sum(c for c, _ in basis)] = 1
    for c, row in reversed(basis):
        x[c] = -sum(map(mul, row, x)) % p
    inv = pow(next(y for y in x if y), p - 2, p)
    return tuple([y * inv % p for y in x])


def _in_net_kernel(net: _NetKernels, v: tuple[int, ...], p: int) -> bool:
    """Whether the monic ``v`` lies in the kernel of some member of the net."""
    lines, wide = net
    if v in lines:
        return True
    for basis in wide:
        for _, row in basis:
            if sum(map(mul, row, v)) % p:
                break
        else:
            return True
    return False


def check_stability(rep: QuiverRep) -> StabilityVerdict:
    """King verdict for the slope of theta over a prime field, by exhaustive enumeration.

    Proper nonzero subrepresentations W are compared with the whole
    representation V by ``king_weight(dim W, dim V)``: V is stable if every
    weight is negative, strictly semistable if the largest is 0, and
    unstable if it is positive.  The returned witness maximizes the weight,
    the first maximizer in enumeration order.  Through each source subspace
    W1 only the minimal W2 = A(W1) + B(W1) + C(W1) is a candidate, which is
    lossless because the weight of (k, e) falls by 10 d1 per unit of e, so
    enlarging W2 never raises it.  Source subspaces are walked row by row
    with the image's echelon basis extended per row on plain ints; a
    partial basis of a k-dim W1 whose image already has dimension e is
    pruned once the weight of (k, e) is <= the best weight so far, which is
    lossless too: every extension has an image of dimension >= e, and a
    candidate replaces the best only on a strictly larger weight.  A new
    best's W2 is that echelon basis brought to RREF.  The search starts from
    the zero-source witness (0, a line of the target), the first candidate
    in enumeration order, with weight -10 d1; where it is not proper and
    nonzero (d2 = 0 or d = (0, 1)) there is no starting witness, and that
    weight still prunes nothing.  The zero representation is rejected: it
    has no proper nonzero subrepresentation, but it is not stable either.

    Before the image basis of a partial basis is built, the line of its last
    row is tried: its image span(Av, Bv, Cv) lies in the image of W1, so a
    weight of (k, dim span(Av, Bv, Cv)) <= the best prunes as the full rule
    would, with no elimination.  That dimension is 3 minus the dimension of
    {(a, b, c) : (aA + bB + cC)v = 0} (rank-nullity for (a, b, c) |->
    (aA + bB + cC)v), so a line in the kernel of no member of the net has a
    3-dim image.  The net's p^2 + p + 1 kernels are computed up front only
    where that is fewer eliminations than folding the image of every source
    line, (p^d1 - 1)/(p - 1) of them, which holds iff d1 > 3 whatever p,
    and where a line can have a 3-dim image at all: the columns of A, B and
    C, which span A(F_p^d1) + B(F_p^d1) + C(F_p^d1), must span at least 3
    dimensions.  Any other line's image is folded directly, once per call,
    and a partial basis ending in that line is extended by the folded basis
    rather than by the three raw images.  Every fold stops once the image
    spans all of F_p^d2 (``echelon_extend``).
    """
    d1, d2 = check_stability_input(rep.field, rep.d)
    p = rep.field.p
    net = None
    if d1 > ARROWS:
        columns = [col for m in rep.maps for col in zip(*m)]
        if len(echelon_extend((), columns, p)) >= ARROWS:
            net = _net_kernels(rep)
    images: dict[Matrix, Echelon] = {(): ()}
    mapped: dict[tuple[int, ...], list[list[int]]] = {}
    line_dims: dict[tuple[int, ...], int] = {}
    # The weight of (k, e) by table, since the prune rule asks it for every
    # prefix; a line's image has dimension at most ``top``.
    weights = [[king_weight((k, e), rep.d) for e in range(d2 + 1)] for k in range(d1 + 1)]
    top = min(ARROWS, d2)

    # The walk's first candidate, the zero-source witness, seeds the prune.
    best: Optional[SubrepWitness] = None
    if d2 > 0 and (d1, d2) != (0, 1):
        best = SubrepWitness(basis1=(), basis2=((1,) + (0,) * (d2 - 1),))
    weight = king_weight((0, 1), rep.d)

    # x times column j of the three maps stacked, for every x in F_p: the
    # images of v are then one short sum per target entry.
    stacked = [row for m in rep.maps for row in m]
    scaled = [[[x * row[j] for row in stacked] for x in range(p)] for j in range(d1)]

    def image_vectors(v: tuple[int, ...]) -> list[list[int]]:
        if v not in mapped:
            flat = [sum(t) % p for t in zip(*[s[x] for s, x in zip(scaled, v) if x])]
            mapped[v] = [flat[t * d2:(t + 1) * d2] for t in range(ARROWS)]
        return mapped[v]

    def beaten(rows: Matrix, k: int) -> bool:
        v = rows[-1]
        if weights[k][top] <= weight:
            # The image of the line through v lies in the image of rows: a
            # lower bound, tried only where its largest value would prune.
            e = line_dims.get(v)
            if e is None:
                if net is not None and not _in_net_kernel(net, v, p):
                    e = ARROWS
                else:
                    line = images.get((v,))
                    if line is None:
                        line = images[(v,)] = echelon_extend((), image_vectors(v), p)
                    e = len(line)
                line_dims[v] = e
            if weights[k][e] <= weight:
                return True
        # The walk asks about every prefix of a basis, shortest first, so the
        # image of rows[:-1] is already known: extend it by the image of the
        # new row's line, its echelon basis where that was folded already.
        basis = images.get(rows)
        if basis is None:
            line = images.get((v,))
            more = image_vectors(v) if line is None else [row for _, row in line]
            basis = images[rows] = echelon_extend(images[rows[:-1]], more, p)
        return weights[k][len(basis)] <= weight

    for basis1 in subspaces(rep.field, d1, prune=beaten):
        k, e = len(basis1), len(images[basis1])
        if k == 0 or (k, e) == (d1, d2):
            continue
        # Unpruned, so it beats the best so far: a new best, its W2 the RREF
        # of the image basis already in the memo.
        basis2 = reduce_echelon(images[basis1], p)
        best, weight = SubrepWitness(basis1=basis1, basis2=basis2), weights[k][e]
    if best is None or weight < 0:
        return StabilityVerdict(status=Stability.STABLE)
    status = Stability.STRICTLY_SEMISTABLE if weight == 0 else Stability.UNSTABLE
    return StabilityVerdict(status=status, witness=best)
