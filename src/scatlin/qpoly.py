"""q-polynomials over F_{q^6}: the F_q-linear maps x -> sum a_i x^(q^i).

Coefficient convention, fixed everywhere in this package: index i multiplies
x^(q^i), vectors have length 6 (zero-padded), and the Dickson matrix has entry

    M(f)[i][j] = a_{(j - i) mod 6} ^ (q^i),

so each row is the previous one shifted right with all entries raised to the
q-th power.  Golden tests reproduce the two reference matrices of the family
under study (constant pattern {1, -1, 0} and the h-power pattern) bit for
bit, which pins the convention against its transpose.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import BadDrop, CtxMismatch
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
    def monomial(cls, ctx: Field, i: int, c=1) -> "QPoly":
        coeffs = [ctx.zero()] * TOWER
        coeffs[i % TOWER] = ctx.element(c)
        return cls(ctx, coeffs)

    @classmethod
    def from_json(cls, ctx: Field, data) -> "QPoly":
        if isinstance(data, dict):
            data = data["coeffs"]
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

    # -- Dickson matrices ----------------------------------------------------------

    def dickson(self):
        """The 6x6 Dickson (autocirculant) matrix of f."""
        ctx = self.ctx
        return [[ctx.frobenius(self.coeffs[(j - i) % TOWER], i) for j in range(TOWER)]
                for i in range(TOWER)]

    def dickson_m(self, m, drop: int = 0):
        """The matrix M(m) with m^(q^i) in the diagonal slots, truncated.

        drop = 0: the full 6x6 matrix (determinant is the criterion's M_0).
        drop = 1: remove the first column and the last row (criterion's M_1).
        """
        if drop not in (0, 1):
            raise BadDrop("drop must be 0 or 1")
        ctx = self.ctx
        m = ctx.element(m)
        n = TOWER - drop
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                oj = j + drop
                if oj == i:
                    row.append(ctx.frobenius(m, i))
                else:
                    row.append(ctx.frobenius(self.coeffs[(oj - i) % TOWER], i))
            out.append(row)
        return out

    def dickson_symbolic(self, drop: int = 0):
        """Entries of dickson_m with the variable slots marked.

        Returns (n, entries) where entries[i][j] is either a FieldElem or the
        int index t meaning "m^(q^t) goes here".
        """
        if drop not in (0, 1):
            raise BadDrop("drop must be 0 or 1")
        ctx = self.ctx
        n = TOWER - drop
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                oj = j + drop
                if oj == i:
                    row.append(i)
                else:
                    row.append(ctx.frobenius(self.coeffs[(oj - i) % TOWER], i))
            out.append(row)
        return n, out

    # -- rank and kernel --------------------------------------------------------------

    def rank(self) -> int:
        """Rank of f as an F_q-linear map = rank of its Dickson matrix."""
        return linalg.rank(self.ctx, self.dickson())

    def kernel_dim(self) -> int:
        """dim_{F_q} ker f = 6 - rank(dickson(f)); equals log_q #roots of f."""
        return TOWER - self.rank()


def multilinear_det_expansion(ctx: Field, n: int, entries):
    """Leibniz expansion of a determinant whose entries are constants or
    distinct variables, as a map frozenset(var indices) -> coefficient.

    Each variable occurs in exactly one entry, so the determinant is affine in
    each of them; the expansion has at most 2^(#vars) terms.  Used to turn the
    criterion determinants into fast per-m evaluations.
    """
    terms: dict[frozenset, FieldElem] = {}
    for perm in itertools.permutations(range(n)):
        inv = 0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    inv += 1
        coeff = ctx.one() if inv % 2 == 0 else -ctx.one()
        vars_here = []
        ok = True
        for i in range(n):
            e = entries[i][perm[i]]
            if isinstance(e, int):
                vars_here.append(e)
            else:
                if e.is_zero():
                    ok = False
                    break
                coeff = coeff * e
        if not ok:
            continue
        key = frozenset(vars_here)
        if key in terms:
            terms[key] = terms[key] + coeff
        else:
            terms[key] = coeff
    return {k: v for k, v in terms.items() if not v.is_zero()}
