"""Semilinear equivalence of maximum scattered subspaces by exhaustive search.

A witness (rho, a, b, c, d) encodes the semilinear map

    (x, y)  ->  (a x^rho + b y^rho,  c x^rho + d y^rho),   rho: x -> x^(p^e),

and it carries U_f onto U_g exactly when, as q-polynomials,

    g o (a id + b f^rho) = c id + d f^rho      with  ad - bc != 0,

where f^rho has coefficients a_i^rho.  The search is exhaustive over all 6s
automorphisms and all (a, b) != (0, 0); for each triple the pair (c, d) is
*solved*, not searched: the right side is linear in (c, d), so two coefficient
slots determine them and the remaining four slots are verified exactly.  That
collapses the search from q^24 to 6s * q^12 triples, and the triple scan runs
as chunked numpy kernels on exponent arrays.

The first witness in lexicographic (rho, a, b) enumeration order wins, so
reruns and worker counts cannot change the answer.  Budgets count triples
tried, and an exhausted budget returns a checkpoint that can be resumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, HypothesisViolated, InternalInvariant,
                     InvalidParameter)
from .gf import TOWER, Field, FieldElem
from .qpoly import QPoly

_FULL_VERIFY_LIMIT = 1 << 16


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


def verify_witness(f: QPoly, g: QPoly, w: EquivWitness,
                   sample: int = 512, seed: int = 2024) -> bool:
    """Does the witness map U_f into U_g with nonzero determinant?

    Checks every x when the field is small enough (then injectivity makes
    "into" equal "onto"); otherwise a seeded sample.
    """
    ctx = f.ctx
    if w.determinant().is_zero():
        return False
    if ctx.order <= _FULL_VERIFY_LIMIT:
        xs = ctx.elements()
    else:
        rng = random.Random(seed)
        xs = (ctx.elem_at(rng.randrange(ctx.order)) for _ in range(sample))
    for x in xs:
        u, v = apply_witness(w, x, f(x))
        if g(u) != v:
            return False
    return True


# ---------------------------------------------------------------------------
# the exhaustive (rho, a, b) scan
# ---------------------------------------------------------------------------

def _independence_slot(fr: QPoly) -> int:
    """Smallest t >= 1 with coefficient t nonzero; DegenerateInput if none."""
    for t in range(1, TOWER):
        if not fr.coeffs[t].is_zero():
            return t
    raise DegenerateInput("{id, f} are dependent; subspace is a line")


def _scan_chunk(ctx: Field, consts, flat_lo: int, flat_hi: int):
    """Evaluate one chunk of flat (a, b) indices; returns (ok mask, c, d exps).

    consts = (gt, ck, fr, tprime, inv_fr_tp) with everything exponent-encoded.
    Slot t of the left side g o (a id + b f^rho) is the v_lincomb of the
    bases a^(q^t) (index t) and b^(q^k) (index 6 + k); each test below is
    one v_lincomb that must vanish.
    """
    gt, ck, fr, tp, inv_fr_tp = consts
    N = ctx.N
    E = ctx.order
    flat = np.arange(flat_lo, flat_hi, dtype=np.int64)
    a_idx = flat // E
    b_idx = flat % E
    ea = np.where(a_idx == 0, N, a_idx - 1)
    eb = np.where(b_idx == 0, N, b_idx - 1)
    valid = ~((a_idx == 0) & (b_idx == 0))

    bases = [ctx.v_frob(ea, t) for t in range(TOWER)]
    bases += [ctx.v_frob(eb, k) for k in range(TOWER)]
    D, C = 2 * TOWER, 2 * TOWER + 1  # base indices of d and c, once known

    def lhs(t, scale=0):
        """Terms of g^scale times slot t of the left side."""
        terms = [(gt[t], (t,))] + [(ck[t][k], (TOWER + k,)) for k in range(TOWER)]
        return [((e + scale) % N, idx) for e, idx in terms if e != N]

    def minus(c, idx):
        """The term -g^c * prod(bases[idx]) (dropped when c is zero)."""
        return [] if c == N else [((c + ctx._half) % N, idx)]

    bases.append(ctx.v_lincomb(lhs(tp, inv_fr_tp), bases))  # d
    ok = valid
    for t in range(1, TOWER):
        if t == tp:
            continue
        # slot t holds iff lhs(t) - fr[t] d = 0
        ok = ok & (ctx.v_lincomb(lhs(t) + minus(fr[t], (D,)), bases) == N)
        if not ok.any():
            return ok, None, None, flat
    bases.append(ctx.v_lincomb(lhs(0) + minus(fr[0], (D,)), bases))  # c
    det = ctx.v_lincomb([(0, (0, D))] + minus(0, (TOWER, C)), bases)  # ad - bc
    ok = ok & (det != N)
    return ok, bases[C], bases[D], flat


def gl_equivalent(f: QPoly, g: QPoly, budget: int | None = None,
                  resume: dict | None = None, workers: int = 1,
                  chunk: int = 1 << 18) -> EquivResult:
    """Exhaustive GammaL(2, q^6)-equivalence of U_f and U_g.

    Returns Equivalent with the first witness in (rho, a, b) order,
    NotEquivalent only after exhausting all 6s * q^12 triples, or
    BudgetExceeded with a resume checkpoint.
    """
    ctx = f.ctx
    if g.ctx is not ctx:
        raise DegenerateInput("polynomials over different contexts")
    if f.is_zero() or g.is_zero():
        raise DegenerateInput("zero map has no rank-6 graph")
    ctx._need_tables()
    N = ctx.N
    E = ctx.order
    total_per_rho = E * E
    n_auts = ctx.deg

    rho_start, flat_start, tried = 0, 0, 0
    if resume:
        rho_start = int(resume["rho"])
        flat_start = int(resume["flat"])
        tried = int(resume.get("tried", 0))

    for rho in range(rho_start, n_auts):
        frho = f.automorphism_image(rho)
        tp = _independence_slot(frho)
        gt = [ctx.exp_of(cf) for cf in g.coeffs]
        fr = [ctx.exp_of(cf) for cf in frho.coeffs]
        inv_fr_tp = (N - fr[tp]) % N
        ck = [[ctx.exp_of(g.coeffs[k] * ctx.frobenius(
            frho.coeffs[(t - k) % TOWER], k)) for k in range(TOWER)]
            for t in range(TOWER)]
        consts = (gt, ck, fr, tp, inv_fr_tp)

        flat = flat_start if rho == rho_start else 0
        while flat < total_per_rho:
            size = min(chunk, total_per_rho - flat)
            if budget is not None:
                room = budget - tried
                if room <= 0:
                    return EquivResult(
                        "budget_exceeded", searched=tried,
                        checkpoint={"rho": rho, "flat": flat, "tried": tried})
                size = min(size, room)
            hi = flat + size
            if workers > 1 and size >= 4 * workers:
                # imported here: its ~0.6 MB of modules serve workers > 1 only
                from concurrent.futures import ThreadPoolExecutor
                bounds = np.linspace(flat, hi, workers + 1, dtype=np.int64)
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    parts = list(pool.map(
                        lambda i: _scan_chunk(ctx, consts, int(bounds[i]),
                                              int(bounds[i + 1])),
                        range(workers)))
            else:
                parts = [_scan_chunk(ctx, consts, flat, hi)]
            tried += size
            for ok, c, d, flats in parts:
                if not ok.any():
                    continue
                pos = int(np.argmax(ok))
                fl = int(flats[pos])
                a_idx, b_idx = fl // E, fl % E
                w = EquivWitness(
                    rho=rho,
                    a=ctx.elem_at(a_idx),
                    b=ctx.elem_at(b_idx),
                    c=ctx.elem_of_exp(int(c[pos])),
                    d=ctx.elem_of_exp(int(d[pos])),
                )
                if not verify_witness(f, g, w):
                    raise InternalInvariant("scan produced a bad witness (bug)")
                searched = tried - size + pos + 1 if len(parts) == 1 else tried
                return EquivResult("equivalent", witness=w, searched=searched)
            flat = hi
    return EquivResult("not_equivalent", searched=tried)


def pgl_linear_sets_equivalent(f: QPoly, g: QPoly, g_family: str,
                               budget: int | None = None,
                               workers: int = 1) -> dict:
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
        res = gl_equivalent(f, target, budget=budget, workers=workers)
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


def check_system_L4(h: FieldElem, delta: FieldElem, variant: str,
                    workers: int = 1) -> dict:
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
