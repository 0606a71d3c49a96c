"""Projective subspaces of PG(5, q^6), the subgeometry-fixing collineation,
and the intersection-number invariant.

A ProjSubspace is stored as the reduced row echelon basis of its underlying
vector subspace of F_{q^6}^6, so equality of subspaces is literal equality of
basis matrices.  The empty subspace has projective dimension -1, which keeps
the intersection-number arithmetic uniform.

The canonical subgeometry is Sigma = { <(x, x^q, ..., x^(q^5))> : x != 0 } and
the collineation moving around it is

    sigma_hat: <(x_0, ..., x_5)>  ->  <(x_5^q, x_0^q, ..., x_4^q)>,

whose fixed points are exactly Sigma.  Applying it to a subspace = applying it
to each basis vector and re-canonicalising (Frobenius first, then the cyclic
shift, golden-tested against the expected images of the projection vertex).
"""

from __future__ import annotations

from .errors import CtxMismatch, InternalInvariant, PreconditionFailed, ZeroParameter
from .gf import TOWER, Field, FieldElem
from .linalg import nullspace, rref

_SIGMA_PREFIX = 256  # Sigma points checked when the enumeration is not full


class ProjSubspace:
    """A projective subspace, canonicalised as an RREF basis."""

    __slots__ = ("ctx", "rows", "pivots")

    def __init__(self, ctx: Field, rows):
        self.ctx = ctx
        reduced, pivots = rref(ctx, rows) if rows else ([], [])
        self.rows = tuple(tuple(r) for r in reduced)
        self.pivots = tuple(pivots)

    @classmethod
    def from_basis(cls, ctx: Field, vectors) -> "ProjSubspace":
        return cls(ctx, [[ctx.element(c) for c in v] for v in vectors])

    @classmethod
    def from_constraints(cls, ctx: Field, constraints) -> "ProjSubspace":
        """Solution space of the homogeneous system given by constraint rows."""
        rows = [[ctx.element(c) for c in r] for r in constraints]
        return cls(ctx, nullspace(ctx, rows, TOWER))

    @classmethod
    def empty(cls, ctx: Field) -> "ProjSubspace":
        return cls(ctx, [])

    @property
    def pdim(self) -> int:
        """Projective dimension: number of basis vectors minus one."""
        return len(self.rows) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjSubspace):
            return NotImplemented
        return self.ctx is other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.ctx), tuple(tuple(c.val for c in r) for r in self.rows)))

    def __repr__(self):
        return "ProjSubspace(pdim=%d)" % self.pdim

    def contains_point(self, vec) -> bool:
        """Is the projective point spanned by vec inside this subspace?

        Reduces vec against the stored RREF rows; membership iff the
        remainder vanishes.
        """
        v = [self.ctx.element(c) for c in vec]
        for row, pc in zip(self.rows, self.pivots):
            coef = v[pc]
            if coef.is_zero():
                continue
            v = [a - coef * b for a, b in zip(v, row)]
        return all(c.is_zero() for c in v)


def intersect(S: ProjSubspace, T: ProjSubspace) -> ProjSubspace:
    """Zassenhaus intersection: rows [[A|A],[B|0]] reduced; rows whose left
    half vanished have right halves spanning the intersection."""
    if S.ctx is not T.ctx:
        raise CtxMismatch("subspaces over different contexts")
    ctx = S.ctx
    zero = ctx.zero()
    stacked = [list(r) + list(r) for r in S.rows]
    stacked += [list(r) + [zero] * TOWER for r in T.rows]
    if not stacked:
        return ProjSubspace.empty(ctx)
    reduced, _ = rref(ctx, stacked)
    inter = []
    for row in reduced:
        if all(c.is_zero() for c in row[:TOWER]):
            inter.append(row[TOWER:])
    return ProjSubspace(ctx, inter)


def sigma_hat_vector(ctx: Field, vec):
    """One application of the collineation to a coordinate vector."""
    v = [ctx.element(c) for c in vec]
    return [ctx.frobenius(v[(i - 1) % TOWER], 1) for i in range(TOWER)]


def sigma_hat(S: ProjSubspace, iterations: int = 1) -> ProjSubspace:
    """S^(sigma_hat^iterations); the collineation has order 6."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    rows = [list(r) for r in S.rows]
    for _ in range(iterations):
        rows = [sigma_hat_vector(S.ctx, r) for r in rows]
    return ProjSubspace(S.ctx, rows)


def gamma_of(h: FieldElem) -> ProjSubspace:
    """The projection vertex: x_0 = 0 and h^(q-1) x_1 - h^(q^2-1) x_2 + x_4 + x_5 = 0."""
    ctx = h.ctx
    if h.is_zero():
        raise ZeroParameter("gamma_of needs h != 0")
    one, zero = ctx.one(), ctx.zero()
    c1 = h ** (ctx.q - 1)
    c2 = -(h ** (ctx.q**2 - 1))
    constraints = [
        [one, zero, zero, zero, zero, zero],
        [zero, c1, c2, zero, one, one],
    ]
    G = ProjSubspace.from_constraints(ctx, constraints)
    if G.pdim != 3:
        raise InternalInvariant("the vertex has dimension %d, not 3 (bug)" % G.pdim)
    for vec in _sigma_points(ctx, limit=32):
        if G.contains_point(vec):
            raise PreconditionFailed("gamma meets the canonical subgeometry")
    return G


def _sigma_points(ctx: Field, limit: int | None = None):
    """Projective points of the canonical subgeometry, one per F_q*-coset."""
    reps = ctx.N // (ctx.q - 1)
    count = reps if limit is None else min(limit, reps)
    for e in range(count):
        x = ctx.from_exp(e)
        yield [ctx.frobenius(x, i) for i in range(TOWER)]


def disjoint_from_sigma(S: ProjSubspace, full: bool = True,
                        use_certificate: bool = True) -> bool:
    """Does S avoid every point of Sigma?

    Fast certificate: Sigma points have every coordinate nonzero (they are
    the conjugates of some x != 0), so a subspace contained in a coordinate
    hyperplane cannot meet Sigma.  Otherwise enumerate: all
    (q^6-1)/(q-1) points when full, else a deterministic prefix of
    _SIGMA_PREFIX points.
    """
    if use_certificate:
        for j in range(TOWER):
            if all(r[j].is_zero() for r in S.rows):
                return True
    limit = None if full else _SIGMA_PREFIX
    for vec in _sigma_points(S.ctx, limit=limit):
        if S.contains_point(vec):
            return False
    return True


def intn(S: ProjSubspace, power: int = 1) -> tuple[int, list[int]]:
    """Intersection number of S w.r.t. sigma = sigma_hat^power.

    Returns (r, dims) where dims[j] = projective dimension of the (j+1)-fold
    intersection S cap S^sigma cap ... cap S^(sigma^j), and r is the least
    positive integer with dims[r] > k - 2r (k = dim S).

    Preconditions (checked): S disjoint from Sigma, dim(S cap S^sigma) >= k-2.
    """
    if power not in (1, 5):
        raise PreconditionFailed("power must be 1 or 5 (the subgeometry-fixing collineations)")
    ctx = S.ctx
    k = S.pdim
    if k < 0:
        raise PreconditionFailed("empty subspace")
    full = (ctx.N // (ctx.q - 1)) <= 1 << 20
    if not disjoint_from_sigma(S, full=full):
        raise PreconditionFailed("S meets the canonical subgeometry")
    dims = [k]
    current = S
    image = S
    r = 0
    while True:
        r += 1
        image = sigma_hat(image, power)
        current = intersect(current, image)
        dims.append(current.pdim)
        if r == 1 and current.pdim < k - 2:
            raise PreconditionFailed("dim(S cap S^sigma) = %d < k - 2 = %d" %
                                     (current.pdim, k - 2))
        if current.pdim > k - 2 * r:
            return r, dims
        if r > TOWER:
            raise PreconditionFailed("no intersection number up to r = %d" % r)

