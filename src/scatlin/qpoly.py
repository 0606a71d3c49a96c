"""q-polynomials over F_{q^6}: the F_q-linear maps x -> sum a_i x^(q^i).

Coefficient convention, fixed everywhere in this package: index i multiplies
x^(q^i), vectors have length 6 (zero-padded), and the Dickson matrix has entry

    M(f)[i][j] = a_{(j - i) mod 6} ^ (q^i),

so each row is the previous one shifted right with all entries raised to the
q-th power.  QPoly.dickson() is the only Dickson-matrix builder: the
criterion matrices M(m) of scatter are dickson() of f with a_0 replaced by m.
Golden tests reproduce the two reference matrices of the family under study
(constant pattern {1, -1, 0} and the h-power pattern) bit for bit, which
pins the convention against its transpose.

Ranks come from F_p instead: QPoly.rank eliminates Field.digit_matrix of f.

multilinear_det_expansion writes det(A + diag(x_i)) as a sum over subsets of
the variables, each coefficient a principal minor of A.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import CtxMismatch, DegenerateInput
from .gf import TOWER, Field, FieldElem


class QPoly:
    """A q-polynomial with 6 coefficients over a fixed field context."""

    __slots__ = ("ctx", "coeffs", "tag")

    def __init__(self, ctx: Field, coeffs, tag: str | None = None):
        cs = [ctx.element(c) for c in coeffs]
        if len(cs) > TOWER:
            raise ValueError("at most 6 coefficients")
        cs += [ctx.zero()] * (TOWER - len(cs))
        self.ctx = ctx
        self.coeffs = tuple(cs)
        self.tag = tag

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Field) -> "QPoly":
        return cls(ctx, [])

    @classmethod
    def identity(cls, ctx: Field) -> "QPoly":
        return cls(ctx, [ctx.one()])

    @classmethod
    def from_json(cls, ctx: Field, data) -> "QPoly":
        """From {"coeffs": [...]} or a bare list of element literals; any
        other shape raises ValueError."""
        if isinstance(data, dict):
            data = data.get("coeffs")
        if not isinstance(data, list):
            raise ValueError('need a coefficient list or {"coeffs": [...]}')
        return cls(ctx, [ctx.element(c) for c in data])

    def to_json(self):
        return {"coeffs": [self.ctx.format(c) for c in self.coeffs]}

    # -- ring-ish structure -----------------------------------------------------

    def _check(self, other: "QPoly"):
        if self.ctx is not other.ctx:
            raise CtxMismatch("q-polynomials over different contexts")

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx),) + tuple(c.val for c in self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        self._check(other)
        return QPoly(self.ctx, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        self._check(other)
        return QPoly(self.ctx, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "QPoly":
        return QPoly(self.ctx, [-a for a in self.coeffs])

    def scale(self, c) -> "QPoly":
        """c * f, i.e. x -> c * f(x)."""
        c = self.ctx.element(c)
        return QPoly(self.ctx, [c * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        terms = ["(%s)x^q^%d" % (self.ctx.format(c), i)
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return "QPoly[" + (" + ".join(terms) if terms else "0") + "]"

    # -- evaluation and composition ----------------------------------------------

    def evaluate(self, x: FieldElem) -> FieldElem:
        ctx = self.ctx
        if not isinstance(x, FieldElem) or x.ctx is not ctx:
            raise CtxMismatch("argument from a different context")
        acc = ctx.zero()
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                acc = acc + a * ctx.frobenius(x, i)
        return acc

    __call__ = evaluate

    def v_evaluate(self, e):
        """f at g^e for an exponent array e (zero as the sentinel N), in the
        exponent encoding: one v_lincomb over the conjugates x^(q^i)."""
        ctx = self.ctx
        terms = [(a.val, (i,)) for i, a in enumerate(self.coeffs)]
        return ctx.v_lincomb(terms, [ctx.v_frob(e, i) for i in range(TOWER)])

    def compose(self, other: "QPoly") -> "QPoly":
        """f o g reduced mod x^(q^6) - x: c_k = sum_{i+j=k (6)} a_i * b_j^(q^i)."""
        self._check(other)
        ctx = self.ctx
        out = [ctx.zero()] * TOWER
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                k = (i + j) % TOWER
                out[k] = out[k] + a * ctx.frobenius(b, i)
        return QPoly(ctx, out)

    def adjoint(self) -> "QPoly":
        """The trace-dual map: Tr(x f(y)) = Tr(y fhat(x)) for all x, y.

        Coefficientwise: the slot m of the adjoint holds a_{(6-m) mod 6}^(q^m).
        """
        ctx = self.ctx
        out = [ctx.zero()] * TOWER
        for i, a in enumerate(self.coeffs):
            m = (TOWER - i) % TOWER
            out[m] = ctx.frobenius(a, m)
        return QPoly(ctx, out)

    def automorphism_image(self, e: int) -> "QPoly":
        """f^rho for rho: x -> x^(p^e); coefficients are a_i^(p^e)."""
        ctx = self.ctx
        return QPoly(ctx, [ctx.p_power(a, e) for a in self.coeffs])

    def minus_m_x(self, m) -> "QPoly":
        """f - m*x, the pencil member whose kernel is the weight space of m."""
        ctx = self.ctx
        m = ctx.element(m)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - m
        return QPoly(ctx, coeffs)

    def first_q_term(self) -> int:
        """The first i >= 1 with a_i != 0.  Raises DegenerateInput when there
        is none: f is then a multiple of x, {f, id} are dependent and the
        graph U_f is a line."""
        i = next((i for i in range(1, TOWER) if not self.coeffs[i].is_zero()), None)
        if i is None:
            raise DegenerateInput("f is a multiple of x, so {f, id} are dependent "
                                  "and U_f is a line")
        return i

    # -- Dickson matrices ----------------------------------------------------------

    def dickson(self):
        """The 6x6 Dickson (autocirculant) matrix of f."""
        ctx = self.ctx
        return [[ctx.frobenius(self.coeffs[(j - i) % TOWER], i) for j in range(TOWER)]
                for i in range(TOWER)]

    # -- rank and kernel --------------------------------------------------------------

    def rank(self) -> int:
        """Rank of f as an F_q-linear map: the F_p-rank of its digit matrix
        (Field.digit_matrix), which is s times the F_q-rank."""
        ctx = self.ctx
        M = ctx.digit_matrix([c.val for c in self.coeffs])
        return (ctx.deg - len(linalg.nullspace_mod_p(M, ctx.p))) // ctx.s

    def kernel_dim(self) -> int:
        """dim_{F_q} ker f = 6 - rank(f); equals log_q #roots of f."""
        return TOWER - self.rank()


def multilinear_det_expansion(ctx: Field, A, var):
    """det(A + diag(x_i for i in var)) as a map frozenset(S) -> coefficient of
    prod(x_i for i in S), over the subsets S of var; zero terms are left out.

    The determinant is affine in each diagonal variable, and the coefficient
    of prod(x_i for i in S) is the principal minor of A on the rows and
    columns outside S (the empty minor is 1).  Used to turn the criterion
    determinants into fast per-m evaluations.
    """
    n = len(A)
    terms: dict[frozenset, FieldElem] = {}
    for k in range(len(var) + 1):
        for S in itertools.combinations(var, k):
            keep = [i for i in range(n) if i not in S]
            minor = linalg.det(ctx, [[A[i][j] for j in keep] for i in keep])
            if not minor.is_zero():
                terms[frozenset(S)] = minor
    return terms
