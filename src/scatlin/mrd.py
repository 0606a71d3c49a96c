"""Rank-metric codes C_f = {x -> a f(x) + b x} and their MRD verification.

Codewords are F_q-linear maps on F_{q^6}; the code is the F_{q^6}-span of
{f, id} and has q^12 codewords when f is not a multiple of x (otherwise
RankCode raises DegenerateInput).

A codeword's rank is QPoly.rank: the F_p-rank of its 6s x 6s digit matrix
(Field.digit_matrix) over s.

The full rank distribution is read off the oracle's bucketing pass: ranks are
constant on the F_{q^6}*-orbits (0, 0), (0, 1), (1, b), and f + b id has rank
6 minus the weight of the point <(1, -b)>.  Elimination rank cross-checks a
fixed sample of 32 codewords; rank_distribution's budget caps those
eliminations, not q.  The minimum distance is
rank_distribution(C).min_distance().

idealisers(C) gives F_p-bases of the left and right idealisers, the code's
invariants (Lunardon-Trombetti-Zhou), as (a, b) pairs of a f + b id: the
right one is the kernel W_0(f, f) of equiv.witness_space, and the left one
is read off its dimension.
Code equivalence is GammaL-equivalence of U_f (Sheekey): equiv.gl_equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equiv import witness_space
from .errors import BudgetExceeded, InternalInvariant
from .gf import TOWER, Field
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
        f.first_q_term()  # raises for f = f_0 x, whose C_f = F_{q^6} x has only q^6 maps
        self.ctx = ctx
        self.f = f

    def codeword(self, a, b) -> QPoly:
        ctx = self.ctx
        a, b = ctx.element(a), ctx.element(b)
        return self.f.scale(a) + QPoly.identity(ctx).scale(b)

    def codeword_rank(self, a, b) -> int:
        """F_q-rank of x -> a f(x) + b x (QPoly.rank)."""
        return self.codeword(a, b).rank()


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
        "idealisers": {"left": len(left) // ctx.s, "right": len(right) // ctx.s},
    }


def idealisers(C: RankCode) -> tuple[list, list]:
    """F_p-bases, as (a, b) pairs of a f + b id, of the left idealiser
    {phi in C : phi o C in C} and the right idealiser {psi in C : C o psi in C};
    each basis is canonical in the X^j digit coordinates of a and b, and its
    length is s times the F_q-dimension.

    C is closed under left multiplication by F_{q^6} and contains id, so psi
    is in the right idealiser iff f o psi lies in C: that is W_0(f, f), whose
    rows write psi = a id + b f, so each row's halves are swapped here.  As
    phi o w = a (f o w) + b w, phi = a f + b id is in the left idealiser iff
    a = 0 or f o C lies in C, that is iff the right idealiser is all of C:
    the left one is F_{q^6} id, or C when W_0 has dimension 12s.
    """
    ctx, k = C.ctx, C.ctx.deg
    ea, eb = ctx.from_digits(witness_space(C.f, C.f, 0).reshape(-1, 2, k)).T
    right = [(ctx.elem_of_exp(b), ctx.elem_of_exp(a)) for a, b in zip(ea, eb)]
    if len(right) == 2 * k:
        return right, right
    return [(ctx.zero(), ctx.elem_of_exp(e)) for e in ctx.from_digits(np.eye(k))], right
