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
the full order.  The search runs to that witness or to the end, and its
``searched`` is a position in the full order, so neither the answer nor the
count depends on the reduction or the blocks.

Slot t of the left side is g_t a^(q^t) plus a q-polynomial in b, so a block
of a rows times a b range is tested by comparing terms in the row bases
a^(q^t) with terms in the column bases b^(q^k), broadcast.

The identity is F_q-linear, so the (a, b) that solve it at one rho form an
F_p-nullspace W_rho (witness_space), and check_system_L4 needs no scan.

The triple scan and the pointwise half of verify_witness run on exponent
arrays through the field's Zech-table kernels (Field.v_lincomb); make_field
builds no field too large for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, HypothesisViolated, InternalInvariant,
                     InvalidParameter)
from .family import family_poly, h_is_valid
from .gf import TOWER, Field, FieldElem
from .linalg import nullspace_mod_p
from .qpoly import QPoly

_FULL_VERIFY_LIMIT = 1 << 16
_BLOCK = 1 << 18  # most orbit representatives evaluated per block of the triple scan
_VERIFY_SEED = 2024  # fixed, so the pointwise sample repeats run to run
_VERIFY_SAMPLE = 512  # points checked pointwise above _FULL_VERIFY_LIMIT


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
    status: str  # "equivalent" | "not_equivalent"
    witness: EquivWitness | None = None
    searched: int = 0

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"

    def to_json(self):
        out = {"verdict": self.status, "searched": self.searched}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def apply_witness(w: EquivWitness, x: FieldElem, y: FieldElem):
    ctx = x.ctx
    xr = ctx.p_power(x, w.rho)
    yr = ctx.p_power(y, w.rho)
    return (w.a * xr + w.b * yr, w.c * xr + w.d * yr)


def verify_witness(f: QPoly, g: QPoly, w: EquivWitness) -> bool:
    """Does the witness map U_f onto U_g with nonzero determinant?

    Two independent routes must both hold.  First the exact 6-coefficient
    identity g o (a id + b f^rho) = c id + d f^rho.  Then the map is applied
    pointwise to (x, f(x)): every x when the field is small enough (then
    injectivity makes "into" equal "onto"), otherwise a seeded sample of
    _VERIFY_SAMPLE points.
    """
    ctx = f.ctx
    if w.determinant().is_zero():
        return False
    frho = f.automorphism_image(w.rho)
    ident = QPoly.identity(ctx)
    if (g.compose(ident.scale(w.a) + frho.scale(w.b))
            != ident.scale(w.c) + frho.scale(w.d)):
        return False
    return _maps_graph(f, g, w)


def _maps_graph(f: QPoly, g: QPoly, w: EquivWitness) -> bool:
    """The pointwise route of verify_witness: (u, v) = w(x, f(x)) satisfies
    g(u) = v for every x (fields up to _FULL_VERIFY_LIMIT) or for a sample
    drawn with _VERIFY_SEED, all points at once on exponent arrays."""
    ctx = f.ctx
    rng = random.Random(_VERIFY_SEED)
    # enumeration index k is the exponent k - 1, and index 0 (zero) is N
    k = np.arange(ctx.order) if ctx.order <= _FULL_VERIFY_LIMIT else \
        np.array([rng.randrange(ctx.order) for _ in range(_VERIFY_SAMPLE)], dtype=np.int64)
    x = (k - 1) % ctx.order
    xr = ctx.v_p_power(x, w.rho)
    yr = ctx.v_p_power(f.v_evaluate(x), w.rho)
    a, b, c, d = (z.val for z in (w.a, w.b, w.c, w.d))
    u = ctx.v_lincomb([(a, (0,)), (b, (1,))], (xr, yr))
    v = ctx.v_lincomb([(c, (0,)), (d, (1,))], (xr, yr))
    return bool(np.array_equal(g.v_evaluate(u), v))


# ---------------------------------------------------------------------------
# the orbit-reduced (rho, a, b) scan
# ---------------------------------------------------------------------------

def _rho_plan(ctx: Field, f: QPoly, g: QPoly, rho: int):
    """The slot identity for one rho as rows (d, c, tests) over the bases
    a^(q^i) (index i) and b^(q^k) (index 6 + k), each a FieldElem vector.

    Slot t of g o (a id + b f^rho) is such a row.  With tp >= 1 the first
    nonzero slot of f^rho, d is slot_tp / f^rho_tp, and row t is
    slot_t - f^rho_t d: c for t = 0, a test that must vanish for t != tp.
    """
    fr = f.automorphism_image(rho).coeffs
    tp = f.first_q_term()  # f^rho has the zero pattern of f
    slot = [[g.coeffs[t] if i == t else ctx.zero() for i in range(TOWER)]
            + [g.coeffs[k] * ctx.frobenius(fr[(t - k) % TOWER], k)
               for k in range(TOWER)] for t in range(TOWER)]
    d = [fr[tp].inv() * y for y in slot[tp]]
    rows = [[x - fr[t] * y for x, y in zip(slot[t], d)] for t in range(TOWER)]
    return d, rows[0], [rows[t] for t in range(1, TOWER) if t != tp]


def _terms(row):
    """The row as v_lincomb terms: (exponent of x, (i,)) for each nonzero x = row[i]."""
    return [(x.val, (i,)) for i, x in enumerate(row) if not x.is_zero()]


def _solve_cd(ctx: Field, d_terms, c_terms, bases):
    """c, d and ad - bc as exponent arrays, for the pairs (a, b) whose
    conjugate exponents are bases: a^(q^i) at index i, b^(q^k) at 6 + k."""
    d, c = ctx.v_lincomb(d_terms, bases), ctx.v_lincomb(c_terms, bases)
    det = ctx.v_lincomb([(0, (0, 12)), (ctx._half, (6, 13))], bases + [d, c])  # ad - bc
    return c, d, det


def _scan_block(ctx: Field, plan, lo: int, hi: int, R: int, work):
    """First witness (flat, c, d exponents) among the flats [lo, hi) of one
    rho, or None.  The block is the rows [lo, hi) meets times the b range it
    covers in one row, or every b; flats outside [lo, hi), (0, 0) and the
    non-representatives a = 0, b = g^e with e >= R are dropped.

    work holds two bool rows of at least the block's size, shared by all
    blocks of a search: block-sized masks allocated afresh can be returned
    to the system and faulted in again on every block (960 page faults per
    q = 3 search when no earlier allocation has raised malloc's trim
    threshold)."""
    d_terms, c_terms, tests = plan
    E = ctx.order
    r0, r1 = lo // E, (hi - 1) // E + 1
    b0, b1 = (lo - r0 * E, hi - r0 * E) if r1 == r0 + 1 else (0, E)
    # index 0 is zero (exponent N = E - 1) and index e + 1 is g^e
    ea, eb = np.arange(r0 - 1, r1 - 1) % E, np.arange(b0 - 1, b1 - 1) % E
    abases = [ctx.v_frob(ea[:, None], t) for t in range(TOWER)]
    bbases = [ctx.v_frob(eb[None, :], k) for k in range(TOWER)]
    ok, hit = (w[:ea.size * eb.size].reshape(ea.size, eb.size) for w in work)
    ok.fill(True)
    for a_terms, b_terms in tests:
        np.equal(ctx.v_lincomb(a_terms, abases), ctx.v_lincomb(b_terms, bbases), out=hit)
        np.logical_and(ok, hit, out=ok)
        if not ok.any():
            return None
    i, j = np.nonzero(ok)
    flat = (r0 + i) * E + b0 + j
    keep = (flat >= lo) & (flat < hi) & ((flat >= E) | ((flat > 0) & (flat <= R)))
    i, j, flat = i[keep], j[keep], flat[keep]
    bases = [x[i, 0] for x in abases] + [x[0, j] for x in bbases]
    c, d, det = _solve_cd(ctx, d_terms, c_terms, bases)
    good = np.flatnonzero(det != ctx.N)
    if good.size == 0:
        return None
    k = good[0]
    return int(flat[k]), int(c[k]), int(d[k])


def gl_equivalent(f: QPoly, g: QPoly) -> EquivResult:
    """Exhaustive GammaL(2, q^6)-equivalence of U_f and U_g.

    Returns Equivalent with the first witness in (rho, a, b) order, or
    NotEquivalent after deciding all 6s * q^12 triples.  Only F_q^*-orbit
    representatives are evaluated, at most _BLOCK per block, but
    ``searched`` counts positions in the full space: rho * q^12 + flat + 1
    for a witness at that flat, 6s * q^12 otherwise.
    """
    ctx = f.ctx
    if g.ctx is not ctx:
        raise DegenerateInput("polynomials over different contexts")
    if f.is_zero() or g.is_zero():
        raise DegenerateInput("zero map has no rank-6 graph")
    E = ctx.order
    R = ctx.N // (ctx.q - 1)
    reps_end = E * (R + 1)  # no orbit representative lies at or past this flat
    work = np.empty((2, min(_BLOCK, E * E)), dtype=bool)  # see _scan_block
    for rho in range(ctx.deg):
        d_row, c_row, tests = _rho_plan(ctx, f, g, rho)
        plan = (_terms(d_row), _terms(c_row),
                [(_terms(r[:TOWER]), _terms([-x for x in r[TOWER:]])) for r in tests])
        flat = 0
        while flat < reps_end:
            hi = min(flat + _BLOCK, (flat // E + max(1, _BLOCK // E)) * E, reps_end)
            if (hit := _scan_block(ctx, plan, flat, hi, R, work)) is not None:
                fl, c, d = hit
                w = EquivWitness(rho=rho, a=ctx.elem_at(fl // E), b=ctx.elem_at(fl % E),
                                 c=ctx.elem_of_exp(c), d=ctx.elem_of_exp(d))
                if not verify_witness(f, g, w):
                    raise InternalInvariant("scan produced a bad witness (bug)")
                return EquivResult("equivalent", witness=w, searched=rho * E * E + fl + 1)
            flat = hi
    return EquivResult("not_equivalent", searched=ctx.deg * E * E)


def pgl_linear_sets_equivalent(f: QPoly, g: QPoly, g_family: str | None) -> dict:
    """PGammaL-equivalence of the linear sets, via the reduction lemma:
    L_f ~ L_g iff U_f is GammaL-equivalent to U_g or (except for the
    csajbok_mp family, where only the direct branch applies) to the adjoint
    graph U_{ghat}.  g_family is g's family tag; None (no family, as for an
    adjoint or a polynomial given by its coefficients) searches both.
    "exhausted" is True when every branch was decided and none is
    equivalent, so a witness on any branch makes it False."""
    branches = [("direct", g)]
    if not (g_family or "").startswith("csajbok_mp"):
        branches.append(("adjoint", g.adjoint()))
    results = {}
    for name, target in branches:
        results[name] = res = gl_equivalent(f, target)
        if res.equivalent:
            break
    return {"equivalent": res.equivalent, "branch": name if res.equivalent else None,
            "witness": res.witness, "results": results,
            "searched": sum(r.searched for r in results.values()),
            "exhausted": not res.equivalent}


# ---------------------------------------------------------------------------
# W_rho as an F_p-nullspace: the U^4 (csajbok_mz) systems
# ---------------------------------------------------------------------------

def witness_space(f: QPoly, g: QPoly, rho: int) -> np.ndarray:
    """An F_p-basis of W_rho = {(a, b) : g o (a id + b f^rho) = c id + d f^rho},
    rows of the F_p digits of a, then of b (Field.from_digits reads them)."""
    return _test_kernel(f.ctx, _rho_plan(f.ctx, f, g, rho)[2])


def _test_kernel(ctx: Field, tests) -> np.ndarray:
    """The F_p-basis of witness_space: where the test rows of a _rho_plan
    vanish.  A row is a q-polynomial in a (its first six entries) plus one
    in b, so its two digit matrices side by side give 6s equations."""
    coef = np.array([[x.val for x in row] for row in tests]).reshape(len(tests), 2, TOWER)
    M = ctx.digit_matrix(coef)  # by (row, half, digit, j)
    return nullspace_mod_p(M.transpose(0, 2, 1, 3).reshape(-1, 2 * ctx.deg), ctx.p)


def l4_target(ctx: Field, delta: FieldElem, variant: str) -> QPoly:
    """U^4_delta = x^q + x^(q^3) + delta x^(q^5) ("trin"), or ("trin2")
    delta x^q + x^(q^3) + x^(q^5), the adjoint of U^4_(delta^q)."""
    one, zero = ctx.one(), ctx.zero()
    if variant == "trin":
        return QPoly(ctx, [zero, one, zero, one, zero, delta])
    if variant == "trin2":
        return QPoly(ctx, [zero, delta, zero, one, zero, one])
    raise InvalidParameter("variant must be 'trin' or 'trin2'")


def check_system_L4(h: FieldElem, delta: FieldElem, variant: str) -> dict:
    """Is U_h GammaL-equivalent to the U^4_delta target of variant?

    The witness lies at the first rho (k = h^rho) whose W_rho has a nonzero
    vector with ad - bc != 0 (c, d from the slot rows), and it is the one
    whose b has the smallest exponent: one small nullspace per rho.
    """
    ctx = h.ctx
    if delta * delta + delta != ctx.one():
        raise HypothesisViolated("need delta^2 + delta = 1")
    if not h_is_valid(ctx, h):
        raise HypothesisViolated("need h^(q^3+1) = -1")
    fh = family_poly(ctx, "new_fh", h)
    target = l4_target(ctx, delta, variant)
    k, p, N = ctx.deg, ctx.p, ctx.N

    for rho in range(ctx.deg):
        d_row, c_row, tests = _rho_plan(ctx, fh, target, rho)
        basis = _test_kernel(ctx, tests)
        if not basis.size:
            continue
        coef = np.indices((p,) * len(basis)).reshape(len(basis), -1).T[1:]
        vecs = coef @ basis % p  # every nonzero vector of W_rho
        ea, eb = ctx.from_digits(vecs.reshape(-1, 2, k)).T
        c, d, det = _solve_cd(ctx, _terms(d_row), _terms(c_row),
                              [ctx.v_frob(x, t) for x in (ea, eb) for t in range(TOWER)])
        good = np.flatnonzero(det != N)
        if good.size == 0:
            continue
        j = good[np.argmin(eb[good])]
        w = EquivWitness(rho, *(ctx.elem_of_exp(x[j]) for x in (ea, eb, c, d)))
        if not verify_witness(fh, target, w):
            raise InternalInvariant("L4 system produced a bad witness (bug)")
        return {"solvable": True, "variant": variant, "rho": rho,
                "k": ctx.p_power(h, rho), "witness": w}
    return {"solvable": False, "variant": variant, "rho": None, "k": None,
            "witness": None}
