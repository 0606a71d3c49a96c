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

The projection vertex of U_f, for any q-polynomial f = sum a_i x^(q^i), is
read off f's coefficients: x_0 = 0 and sum a_i x_i = 0 (`vertex`).

Disjointness from Sigma has one route, a certificate: every Sigma point has
all coordinates nonzero, so a subspace inside a coordinate hyperplane avoids
Sigma.  The projection vertex lies in x_0 = 0, so a failed certificate there
is a bug; intn refuses a subspace that lies in no coordinate hyperplane.
"""

from __future__ import annotations

from .errors import CtxMismatch, InternalInvariant, PreconditionFailed
from .family import family_poly
from .gf import TOWER, Field, FieldElem
from .linalg import nullspace, rref
from .qpoly import QPoly


class ProjSubspace:
    """A projective subspace, canonicalised as an RREF basis."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Field, rows):
        self.ctx = ctx
        reduced, _ = rref(ctx, rows) if rows else ([], [])
        self.rows = tuple(tuple(r) for r in reduced)

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


def intersect(S: ProjSubspace, T: ProjSubspace) -> ProjSubspace:
    """S cap T as the solution space of both operands' equations: the
    constraint rows of each are the nullspace of its basis, and the
    intersection is the nullspace of the two sets stacked."""
    if S.ctx is not T.ctx:
        raise CtxMismatch("subspaces over different contexts")
    ctx = S.ctx
    return ProjSubspace(ctx, nullspace(ctx, nullspace(ctx, S.rows, TOWER)
                                       + nullspace(ctx, T.rows, TOWER), TOWER))


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


def vertex(f: QPoly) -> ProjSubspace:
    """The projection vertex of U_f for f = sum a_i x^(q^i): x_0 = 0 and
    a_0 x_0 + ... + a_5 x_5 = 0.  It needs one of a_1 .. a_5 nonzero, or
    U_f is a line (DegenerateInput)."""
    ctx = f.ctx
    f.first_q_term()  # a multiple of x has a line for U_f, and no vertex
    one, zero = ctx.one(), ctx.zero()
    G = ProjSubspace.from_constraints(ctx, [[one] + [zero] * (TOWER - 1), f.coeffs])
    if G.pdim != 3:
        raise InternalInvariant("the vertex has dimension %d, not 3 (bug)" % G.pdim)
    # x_0 = 0 on G, so the coordinate-hyperplane certificate proves this
    if not disjoint_from_sigma(G):
        raise InternalInvariant("the vertex is not certified disjoint from Sigma (bug)")
    return G


def gamma_of(h: FieldElem) -> ProjSubspace:
    """The projection vertex of f_h; family_poly raises InvalidParameter
    for an inadmissible h."""
    return vertex(family_poly(h.ctx, "new_fh", h))


def disjoint_from_sigma(S: ProjSubspace) -> bool:
    """Is S certified to avoid every point of Sigma?

    Sigma points have every coordinate nonzero (they are the conjugates of
    some x != 0), so a subspace contained in a coordinate hyperplane cannot
    meet Sigma.  True is that certificate; False means "not certified", not
    "meets Sigma".
    """
    return any(all(r[j].is_zero() for r in S.rows) for j in range(TOWER))


def intn(S: ProjSubspace, power: int = 1) -> tuple[int, list[int]]:
    """Intersection number of S w.r.t. sigma = sigma_hat^power.

    Returns (r, dims) where dims[j] = projective dimension of the (j+1)-fold
    intersection S cap S^sigma cap ... cap S^(sigma^j), and r is the least
    positive integer with dims[r] > k - 2r (k = dim S).

    Preconditions (checked): S lies in a coordinate hyperplane, which
    certifies that it avoids Sigma, and dim(S cap S^sigma) >= k-2.
    """
    if power not in (1, 5):
        raise PreconditionFailed("power must be 1 or 5 (the subgeometry-fixing collineations)")
    k = S.pdim
    if k < 0:
        raise PreconditionFailed("empty subspace")
    if not disjoint_from_sigma(S):
        raise PreconditionFailed("S lies in no coordinate hyperplane, so it is "
                                 "not certified disjoint from Sigma")
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

