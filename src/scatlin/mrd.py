"""Rank-metric codes C_f = {x -> a f(x) + b x} and their MRD verification.

Codewords are F_q-linear maps on F_{q^6}; the code is the F_{q^6}-span of
{f, id} and has q^12 codewords when f is not a multiple of x (otherwise
RankCode raises DegenerateInput).

Ranks are computed through 6x6 Dickson matrices over F_{q^6} (constant-size
exact elimination) and cross-checkable against an explicit 6x6 matrix over
F_q built in a fixed basis with trace coordinates Tr(y g^i).

The full rank distribution is read off the oracle's bucketing pass: ranks are
constant on the F_{q^6}*-orbits (0, 0), (0, 1), (1, b), and f + b id has rank
6 minus the weight of the point <(1, -b)>.  Elimination rank cross-checks a
fixed sample of 32 codewords; rank_distribution's budget caps those
eliminations, not q.  The minimum distance is
rank_distribution(C).min_distance().

idealisers(C) gives F_q-bases of the left and right idealisers, the code's
invariants (Lunardon-Trombetti-Zhou), as (a, b) pairs with coordinates in
the basis 1, g, ..., g^5.
Code equivalence is GammaL-equivalence of U_f (Sheekey): equiv.gl_equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InternalInvariant
from .gf import TOWER, Field
from .linalg import nullspace, rank as mat_rank
from .qpoly import QPoly
from . import scatter as _scatter

DEFAULT_DISTRIBUTION_LIMIT = 1000  # eliminations allowed by default
CROSS_CHECKS = 32  # eliminations in one distribution's cross-check


@dataclass
class RankDistribution:
    counts: dict[int, int]
    q: int

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    def min_distance(self) -> int:
        return min(r for r in self.counts if r > 0 and self.counts[r] > 0)

    def to_json(self):
        return {str(r): c for r, c in sorted(self.counts.items())}


class RankCode:
    """The 2-dimensional F_{q^6}-span {a f + b id} as a rank-metric code."""

    def __init__(self, ctx: Field, f: QPoly):
        # raises for f = f_0 x, whose C_f = F_{q^6} x has only q^6 maps
        self._pivot = f.first_q_term()
        self.ctx = ctx
        self.f = f
        self._basis = [ctx.from_exp(j) for j in range(TOWER)]  # F_q-basis: g is primitive

    def codeword(self, a, b) -> QPoly:
        ctx = self.ctx
        a, b = ctx.element(a), ctx.element(b)
        return self.f.scale(a) + QPoly.identity(ctx).scale(b)

    def codeword_rank(self, a, b) -> int:
        """Rank of x -> a f(x) + b x via its Dickson matrix."""
        return self.codeword(a, b).rank()

    def _coordinates(self, y) -> list:
        """F_q-coordinates Tr(y g^i) of y: the trace form is nondegenerate, so
        they are y's coordinates in the trace-dual basis of 1, g, ..., g^5."""
        return [self.ctx.trace(y * x, 1) for x in self._basis]

    def codeword_matrix(self, a, b):
        """Explicit 6x6 matrix over F_q of the codeword.

        Column j holds the trace coordinates of the image of g^j; the
        cross-check route for codeword_rank.
        """
        word = self.codeword(a, b)
        cols = [self._coordinates(word(x)) for x in self._basis]
        return [list(row) for row in zip(*cols)]

    def _membership_rows(self, w: QPoly) -> list:
        """24 values in F_q, all zero iff w is in C: with i = self._pivot, the
        first i >= 1 where f_i != 0, w = c f + d id iff w_j f_i = w_i f_j for
        the four j outside {0, i}, 6 trace coordinates each."""
        f, i = self.f.coeffs, self._pivot
        return [x for j in range(1, TOWER) if j != i
                for x in self._coordinates(w.coeffs[j] * f[i] - w.coeffs[i] * f[j])]

    def codeword_rank_explicit(self, a, b) -> int:
        return mat_rank(self.ctx, self.codeword_matrix(a, b))


def code_from(f: QPoly) -> RankCode:
    return RankCode(f.ctx, f)


def rank_distribution(C: RankCode,
                      budget: int = DEFAULT_DISTRIBUTION_LIMIT) -> RankDistribution:
    """Exact rank counts over all q^12 codewords, from one bucketing pass:
    f + b id has rank 6 - w, w the bucket weight of <(1, -b)>.  budget caps the
    CROSS_CHECKS eliminations, of (0, 1) and of scatter._bucket_sample, that
    cross-check it; a mismatch or a wrong mass raises InternalInvariant."""
    if CROSS_CHECKS > budget:
        raise BudgetExceeded("distribution cross-check needs %d eliminations, "
                             "budget is %d" % (CROSS_CHECKS, budget))
    ctx, N = C.ctx, C.ctx.N
    _, keys, cosets = _scatter._buckets(C.f)
    spectrum = _scatter._spectrum(ctx, cosets)
    if not spectrum.mass_ok():
        raise InternalInvariant("bucket mass %d != q^6 - 1 (bug)" % spectrum.mass())
    sample = _scatter._bucket_sample(ctx, keys, cosets, CROSS_CHECKS - 1)
    for a, b, w in [(0, 1, 0)] + [(1, -m, w) for m, w in sample]:
        if C.codeword_rank(a, b) != TOWER - w:
            raise InternalInvariant("codeword (%s, %s): bucket rank %d disagrees with "
                                    "elimination (bug)" % (a, b, TOWER - w))
    counts = {0: 1, TOWER: N * (ctx.order - spectrum.size + 1)}
    for w, points in spectrum.counts.items():
        counts[TOWER - w] = counts.get(TOWER - w, 0) + N * points
    return RankDistribution(counts=dict(sorted(counts.items())), q=ctx.q)


def mrd_report(C: RankCode) -> dict:
    """Distribution, minimum distance, the Singleton-equality verdict, and
    the F_q-dimensions of the two idealisers.

    MRD for parameters (6, 6, q; d): |C| = q^(6 (6 - d + 1)); with |C| = q^12
    that forces d = 5, so the verdict is min_distance == 5.
    """
    dist = rank_distribution(C)
    d = dist.min_distance()
    ctx = C.ctx
    singleton = dist.size == ctx.q ** (TOWER * (TOWER - d + 1))
    left, right = idealisers(C)
    return {
        "min_distance": d,
        "distribution": dist,
        "cardinality": dist.size,
        "singleton_equality": singleton,
        "mrd": singleton,
        "idealisers": {"left": len(left), "right": len(right)},
    }


def idealisers(C: RankCode) -> tuple[list, list]:
    """F_q-bases, as (a, b) pairs with psi = a f + b id, of the left idealiser
    {phi in C : phi o C in C} and the right idealiser {psi in C : C o psi in C}.

    Each is one nullspace over the 12 F_q-coordinates of (a, b).  C is closed
    under left multiplication by F_{q^6}, so psi is in the right idealiser
    iff f o psi lies in C (24 rows), and phi in the left one iff phi o w does
    for the 12 F_q-basis codewords w = g^j f, g^j id (288 rows).
    """
    ctx, basis = C.ctx, C._basis
    zero = ctx.zero()
    words = [C.codeword(x, zero) for x in basis] + [C.codeword(zero, x) for x in basis]

    def element(v):  # F_q-coordinates in the basis 1, g, ..., g^5
        return sum((c * x for c, x in zip(v, basis)), start=zero)

    def kernel(images):
        cols = [[x for w in images(psi) for x in C._membership_rows(w)] for psi in words]
        return [(element(v[:TOWER]), element(v[TOWER:]))
                for v in nullspace(ctx, list(zip(*cols)), 2 * TOWER)]

    return (kernel(lambda phi: [phi.compose(w) for w in words]),
            kernel(lambda psi: [C.f.compose(psi)]))
