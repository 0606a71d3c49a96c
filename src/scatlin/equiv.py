"""Semilinear equivalence of maximum scattered subspaces by exhaustive search.

A witness (rho, a, b, c, d) encodes the semilinear map

    (x, y)  ->  (a x^rho + b y^rho,  c x^rho + d y^rho),   rho: x -> x^(p^e),

and it carries U_f onto U_g exactly when, as q-polynomials,

    g o (a id + b f^rho) = c id + d f^rho      with  ad - bc != 0,

where f^rho has coefficients a_i^rho.  For each triple (rho, a, b) the pair
(c, d) is *solved*, not searched: two coefficient slots determine it and the
other four slots are tests.  That leaves 6s * q^12 triples, in the flat
order (rho, a, b) with a and b indexed 0 for zero and e + 1 for g^e.

g is F_q-linear, so with (a, b, c, d) every lambda (a, b, c, d), lambda in
F_q^* = <g^R>, R = (q^6 - 1)/(q - 1), is a witness too.  The orbit member
with the smallest index is a = g^e with e < R, or a = 0 and b = g^e with
e < R; these representatives fill a prefix of each rho's range, less the
tail of the a = 0 row.  Only they are evaluated, about 6s * q^12 / (q - 1)
triples, and the first of them that is a witness is the first witness of
the full order: the answer does not depend on the reduction or the chunks.

Slot t of the left side is g_t a^(q^t) plus a q-polynomial in b, so a block
of a rows times a b range is tested by comparing terms in the row bases
a^(q^t) with terms in the column bases b^(q^k), broadcast.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, HypothesisViolated, InternalInvariant,
                     InvalidParameter)
from .gf import TOWER, Field, FieldElem
from .qpoly import QPoly

_FULL_VERIFY_LIMIT = 1 << 16
_VERIFY_SEED = 2024  # fixed, so the pointwise sample repeats run to run


@dataclass
class EquivWitness:
    rho: int
    a: FieldElem
    b: FieldElem
    c: FieldElem
    d: FieldElem

    def to_json(self):
        ctx = self.a.ctx
        return {"rho": self.rho, "a": ctx.format(self.a), "b": ctx.format(self.b),
                "c": ctx.format(self.c), "d": ctx.format(self.d)}

    def determinant(self) -> FieldElem:
        return self.a * self.d - self.b * self.c


@dataclass
class EquivResult:
    status: str  # "equivalent" | "not_equivalent" | "budget_exceeded"
    witness: EquivWitness | None = None
    searched: int = 0
    checkpoint: dict | None = None

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"

    def to_json(self):
        out = {"verdict": self.status, "searched": self.searched}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        return out


def apply_witness(w: EquivWitness, x: FieldElem, y: FieldElem):
    ctx = x.ctx
    xr = ctx.p_power(x, w.rho)
    yr = ctx.p_power(y, w.rho)
    return (w.a * xr + w.b * yr, w.c * xr + w.d * yr)


def verify_witness(f: QPoly, g: QPoly, w: EquivWitness, sample: int = 512) -> bool:
    """Does the witness map U_f onto U_g with nonzero determinant?

    Two independent routes must both hold.  First the exact 6-coefficient
    identity g o (a id + b f^rho) = c id + d f^rho.  Then the map is applied
    pointwise to (x, f(x)): every x when the field is small enough (then
    injectivity makes "into" equal "onto"), otherwise a seeded sample.
    """
    ctx = f.ctx
    if w.determinant().is_zero():
        return False
    frho = f.automorphism_image(w.rho)
    ident = QPoly.identity(ctx)
    if (g.compose(ident.scale(w.a) + frho.scale(w.b))
            != ident.scale(w.c) + frho.scale(w.d)):
        return False
    if ctx.order <= _FULL_VERIFY_LIMIT:
        xs = ctx.elements()
    else:
        rng = random.Random(_VERIFY_SEED)
        xs = (ctx.elem_at(rng.randrange(ctx.order)) for _ in range(sample))
    for x in xs:
        u, v = apply_witness(w, x, f(x))
        if g(u) != v:
            return False
    return True


# ---------------------------------------------------------------------------
# the orbit-reduced (rho, a, b) scan
# ---------------------------------------------------------------------------

def _rho_plan(ctx: Field, f: QPoly, g: QPoly, rho: int):
    """Exponent-encoded terms of d, c and the four tests for one rho.

    Slot t of g o (a id + b f^rho) is a row over the bases a^(q^i) (index i)
    and b^(q^k) (index 6 + k).  With tp >= 1 the first nonzero slot of f^rho,
    d is slot_tp / f^rho_tp, and slot_t - f^rho_t d is c for t = 0 and must
    vanish for the other t != tp: its a part must equal its negated b part.
    """
    fr = f.automorphism_image(rho).coeffs
    tp = next((t for t in range(1, TOWER) if not fr[t].is_zero()), None)
    if tp is None:
        raise DegenerateInput("{id, f} are dependent; subspace is a line")
    slot = [[g.coeffs[t] if i == t else ctx.zero() for i in range(TOWER)]
            + [g.coeffs[k] * ctx.frobenius(fr[(t - k) % TOWER], k)
               for k in range(TOWER)] for t in range(TOWER)]
    inv = fr[tp].inv()

    def terms(row):
        return [(ctx.exp_of(x), (i,)) for i, x in enumerate(row) if not x.is_zero()]

    def reduced(t):  # slot_t - (f^rho_t / f^rho_tp) slot_tp
        return [x - fr[t] * inv * y for x, y in zip(slot[t], slot[tp])]

    tests = [(terms(reduced(t)[:TOWER]), terms([-x for x in reduced(t)[TOWER:]]))
             for t in range(1, TOWER) if t != tp]
    return terms([inv * y for y in slot[tp]]), terms(reduced(0)), tests


def _scan_block(ctx: Field, plan, lo: int, hi: int, R: int):
    """First witness (flat, c, d exponents) among the flats [lo, hi) of one
    rho, or None.  The block is the rows [lo, hi) meets times the b range it
    covers in one row, or every b; flats outside [lo, hi), (0, 0) and the
    non-representatives a = 0, b = g^e with e >= R are dropped."""
    d_terms, c_terms, tests = plan
    E = ctx.order
    r0, r1 = lo // E, (hi - 1) // E + 1
    b0, b1 = (lo - r0 * E, hi - r0 * E) if r1 == r0 + 1 else (0, E)
    # index 0 is zero (exponent N = E - 1) and index e + 1 is g^e
    ea, eb = np.arange(r0 - 1, r1 - 1) % E, np.arange(b0 - 1, b1 - 1) % E
    abases = [ctx.v_frob(ea[:, None], t) for t in range(TOWER)]
    bbases = [ctx.v_frob(eb[None, :], k) for k in range(TOWER)]
    ok = True
    for a_terms, b_terms in tests:
        ok = ok & (ctx.v_lincomb(a_terms, abases) == ctx.v_lincomb(b_terms, bbases))
        if not ok.any():
            return None
    i, j = np.nonzero(ok)
    flat = (r0 + i) * E + b0 + j
    keep = (flat >= lo) & (flat < hi) & ((flat >= E) | ((flat > 0) & (flat <= R)))
    i, j, flat = i[keep], j[keep], flat[keep]
    bases = [x[i, 0] for x in abases] + [x[0, j] for x in bbases]
    d, c = ctx.v_lincomb(d_terms, bases), ctx.v_lincomb(c_terms, bases)
    det = ctx.v_lincomb([(0, (0, 12)), (ctx._half, (6, 13))], bases + [d, c])  # ad - bc
    good = np.flatnonzero(det != ctx.N)
    if good.size == 0:
        return None
    k = good[0]
    return int(flat[k]), int(c[k]), int(d[k])


def gl_equivalent(f: QPoly, g: QPoly, budget: int | None = None,
                  resume: dict | None = None, chunk: int = 1 << 18) -> EquivResult:
    """Exhaustive GammaL(2, q^6)-equivalence of U_f and U_g.

    Returns Equivalent with the first witness in (rho, a, b) order,
    NotEquivalent only after deciding all 6s * q^12 triples, or
    BudgetExceeded with a resume checkpoint.  Only F_q^*-orbit
    representatives are evaluated, at most ``chunk`` per block, but
    ``searched``, ``budget`` and the checkpoint's ``flat`` and ``tried``
    count positions in the full space: a skipped triple counts as decided
    by its representative, and skips stop at the budget.  ``searched`` is
    the witness's position plus one, or the total decided.  A checkpoint
    carries the field (p, s) and a sha256 of the coefficient exponents of f
    and g; resuming one without them, against other inputs or at an
    impossible position raises InvalidParameter, and so does chunk < 1.
    """
    ctx = f.ctx
    if chunk < 1:
        raise InvalidParameter("chunk must be at least 1, got %d" % chunk)
    if g.ctx is not ctx:
        raise DegenerateInput("polynomials over different contexts")
    if f.is_zero() or g.is_zero():
        raise DegenerateInput("zero map has no rank-6 graph")
    ctx._need_tables()
    E = ctx.order
    R = ctx.N // (ctx.q - 1)
    reps_end = E * (R + 1)  # no orbit representative lies at or past this flat
    exps = [[ctx.exp_of(cf) for cf in poly.coeffs] for poly in (f, g)]
    binding = {"field": [ctx.p, ctx.s],
               "inputs_sha256": hashlib.sha256(json.dumps(exps).encode()).hexdigest()}

    rho_start, flat_start, tried = 0, 0, 0
    if resume:
        pos = [resume.get(k) for k in ("rho", "flat", "tried")]
        if (any(resume.get(k) != v for k, v in binding.items())
                or not all(isinstance(x, int) for x in pos)
                or not (0 <= pos[0] < ctx.deg and 0 <= pos[1] < E * E)):
            raise InvalidParameter("checkpoint does not belong to this field, f and g")
        rho_start, flat_start, tried = pos

    for rho in range(rho_start, ctx.deg):
        plan = _rho_plan(ctx, f, g, rho)
        flat = flat_start if rho == rho_start else 0
        while flat < E * E:
            scan = flat < reps_end
            hi = (min(flat + chunk, (flat // E + max(1, chunk // E)) * E, reps_end)
                  if scan else E * E)
            if budget is not None:
                if tried >= budget:
                    return EquivResult("budget_exceeded", searched=tried, checkpoint={
                        "rho": rho, "flat": flat, "tried": tried, **binding})
                hi = min(hi, flat + budget - tried)
            if scan and (hit := _scan_block(ctx, plan, flat, hi, R)) is not None:
                fl, c, d = hit
                w = EquivWitness(rho=rho, a=ctx.elem_at(fl // E), b=ctx.elem_at(fl % E),
                                 c=ctx.elem_of_exp(c), d=ctx.elem_of_exp(d))
                if not verify_witness(f, g, w):
                    raise InternalInvariant("scan produced a bad witness (bug)")
                return EquivResult("equivalent", witness=w, searched=tried + fl - flat + 1)
            tried += hi - flat
            flat = hi
    return EquivResult("not_equivalent", searched=tried)


def pgl_linear_sets_equivalent(f: QPoly, g: QPoly, g_family: str,
                               budget: int | None = None) -> dict:
    """PGammaL-equivalence of the linear sets, via the reduction lemma:
    L_f ~ L_g iff U_f is GammaL-equivalent to U_g or (except for the
    csajbok_mp family, where only the direct branch applies) to the adjoint
    graph U_{ghat}."""
    branches = [("direct", g)]
    if not g_family.startswith("csajbok_mp"):
        branches.append(("adjoint", g.adjoint()))
    results = {}
    searched = 0
    for name, target in branches:
        res = gl_equivalent(f, target, budget=budget)
        results[name] = res
        searched += res.searched
        if res.equivalent:
            return {"equivalent": True, "branch": name, "witness": res.witness,
                    "results": results, "searched": searched}
    budgeted = any(r.status == "budget_exceeded" for r in results.values())
    return {"equivalent": False, "branch": None, "witness": None,
            "results": results, "searched": searched,
            "exhausted": not budgeted}


# ---------------------------------------------------------------------------
# the specialised csajbok_mz (U^4) systems
# ---------------------------------------------------------------------------

def _l4_coefficients(ctx: Field, k: FieldElem, delta: FieldElem, variant: str):
    """Constraint and back-substitution coefficients of the two systems.

    Returns (eq_coeffs, back) where eq_coeffs[i] = (gamma_i, alpha_i, beta_i)
    multiply (b^q, b^(q^3), b^(q^5)) in constraint i, and back(b) derives
    (a, c, d) from the first three lines.
    """
    q = ctx.q
    one = ctx.one()
    if variant == "trin":
        eqs = [
            (ctx.zero(), one, k ** (q - 1) + delta * k ** (q + q * q)),
            (k ** (q * q - q), one + k ** (q * q - q), delta * k ** (q * q - 1)),
            (-delta, k ** (1 - q) + delta * delta * k ** (1 - q * q), delta),
        ]

        def back(b):
            a = -(k ** (q + 1)) * b.frob(4) - delta.frob(1) * b.frob(2)
            c = b.frob(1) - delta * k ** (q * q + 1) * b.frob(5)
            d = k ** (1 - q) * b.frob(3) + delta * b.frob(5)
            return a, c, d
    elif variant == "trin2":
        eqs = [
            (ctx.zero(), delta, k ** (q - 1) - delta * k ** (q * q + q)),
            (delta * k ** (q * q - q), k ** (q * q - q) + one, k ** (q * q - 1)),
            (delta * delta, k ** (1 - q) + delta * delta * k ** (1 - q * q), one),
        ]

        def back(b):
            a = -delta.frob(1) * k ** (q + 1) * b.frob(4) - b.frob(2)
            c = delta * b.frob(1) - k ** (q * q + 1) * b.frob(5)
            d = k ** (1 - q) * b.frob(3) + b.frob(5)
            return a, c, d
    else:
        raise InvalidParameter("variant must be 'trin' or 'trin2'")
    return eqs, back


def l4_target(ctx: Field, delta: FieldElem, variant: str) -> QPoly:
    one, zero = ctx.one(), ctx.zero()
    if variant == "trin":
        return QPoly(ctx, [zero, one, zero, one, zero, delta])
    return QPoly(ctx, [zero, delta, zero, one, zero, one])


def check_system_L4(h: FieldElem, delta: FieldElem, variant: str) -> dict:
    """Solve one of the two reduced systems for U_h ~ U^4_delta.

    For each automorphism rho (k = h^rho) the three constraint equations are
    scanned over b in F_{q^6}^*; a surviving b yields (a, c, d) by
    back-substitution and is accepted when ad - bc != 0.  Cost Theta(q^6) per
    (rho, delta, variant) instead of the general Theta(q^12) search.
    """
    ctx = h.ctx
    one = ctx.one()
    if delta * delta + delta != one:
        raise HypothesisViolated("need delta^2 + delta = 1")
    if ctx.norm(h, 3) != -one:
        raise HypothesisViolated("need h^(q^3+1) = -1")
    ctx._need_tables()
    N = ctx.N

    eb = np.arange(N, dtype=np.int64)
    bases = [ctx.v_frob(eb, 1), ctx.v_frob(eb, 3), ctx.v_frob(eb, 5)]
    for rho in range(ctx.deg):
        k = ctx.p_power(h, rho)
        eqs, back = _l4_coefficients(ctx, k, delta, variant)
        mask = np.ones(N, dtype=bool)
        for coeffs in eqs:
            terms = [(ctx.exp_of(cf), (i,)) for i, cf in enumerate(coeffs)]
            mask &= (ctx.v_lincomb(terms, bases) == N)
            if not mask.any():
                break
        if not mask.any():
            continue
        for e in np.nonzero(mask)[0]:
            b = ctx.from_exp(int(e))
            a, c, d = back(b)
            if (a * d - b * c).is_zero():
                continue
            w = EquivWitness(rho=rho, a=a, b=b, c=c, d=d)
            target = l4_target(ctx, delta, variant)
            fh = QPoly(ctx, [ctx.zero(), h ** (ctx.q - 1),
                             -(h ** (ctx.q**2 - 1)), ctx.zero(), one, one])
            if not verify_witness(fh, target, w):
                raise InternalInvariant("L4 system produced a bad witness (bug)")
            return {"solvable": True, "variant": variant, "rho": rho,
                    "k": k, "witness": w}
    return {"solvable": False, "variant": variant, "rho": None, "k": None,
            "witness": None}
