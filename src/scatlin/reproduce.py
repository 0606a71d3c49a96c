"""Named reproduction runs: each tag re-derives one known statement of the
theory on a concrete field and reports per-assertion pass/fail records.

Shared by the CLI (`scatlin reproduce <tag>`, nonzero exit on mismatch) and by
the acceptance test suite.
"""

from __future__ import annotations

import time

from .equiv import EquivWitness, check_system_L4, gl_equivalent, verify_witness
from .errors import HypothesisViolated
from .family import enumerate_h, family_poly, lemma_roots, u4_deltas
from .geom import gamma_of, intn
from .gf import make_field
from .mrd import code_from, idealisers, mrd_report
from .scatter import dickson_dets_at, is_scattered, point_weight


class Run:
    def __init__(self, tag: str):
        self.tag = tag
        self.checks: list[dict] = []
        self.t0 = time.perf_counter()

    def check(self, name: str, ok: bool, got=None, expected=None):
        rec = {"name": name, "ok": bool(ok)}
        if got is not None:
            rec["got"] = str(got)
        if expected is not None:
            rec["expected"] = str(expected)
        self.checks.append(rec)
        return ok

    def report(self) -> dict:
        return {
            "tag": self.tag,
            "ok": all(c["ok"] for c in self.checks),
            "checks": self.checks,
            "timing": {"elapsed_s": round(time.perf_counter() - self.t0, 3)},
        }


def _case1_positive(tag: str, q: int) -> dict:
    run = Run(tag)
    ctx = make_field(q, 1)
    f = family_poly(ctx, "case1")
    v = is_scattered(f)
    vo, vd = v["oracle"], v["dickson"]
    run.check("oracle scattered", vo.scattered, vo.scattered, True)
    run.check("dickson scattered", vd.scattered, vd.scattered, True)
    expect = (q**6 - 1) // (q - 1)
    run.check("spectrum one weight", vo.spectrum.counts == {1: expect},
              vo.spectrum.counts, {1: expect})
    return run.report()


def _case1_negative(tag: str, q: int) -> dict:
    run = Run(tag)
    ctx = make_field(q, 1)
    f = family_poly(ctx, "case1")
    v = is_scattered(f)
    vo, vd = v["oracle"], v["dickson"]
    run.check("oracle non-scattered", not vo.scattered)
    run.check("dickson non-scattered", not vd.scattered)
    w = vd.witness
    minus4 = ctx.from_int(-4)
    run.check("witness^2 = -4", w is not None and w * w == minus4,
              None if w is None else w * w, minus4)
    run.check("witness in F_q2 minus F_q",
              w is not None and ctx.in_subfield(w, 2) and not ctx.in_subfield(w, 1))
    return run.report()


def _case2(tag: str, q: int, count: int, outside_fq: bool) -> dict:
    """Every admissible h at q (only those outside F_q if outside_fq) gives
    a scattered f_h under both deciders."""
    run = Run(tag)
    ctx = make_field(q, 1)
    hs = enumerate_h(ctx)
    if outside_fq:
        hs = [h for h in hs if not ctx.in_subfield(h, 1)]
        run.check("%d admissible h outside F_q" % count, len(hs) == count,
                  len(hs), count)
    else:
        run.check("%d admissible h" % count, len(hs) == count, len(hs), count)
        run.check("none lie in F_q", not any(ctx.in_subfield(h, 1) for h in hs))
    bad = []
    for h in hs:
        v = is_scattered(family_poly(ctx, "new_fh", h))
        if not (v["oracle"].scattered and v["dickson"].scattered):
            bad.append(str(h))
    run.check("all h scattered by both deciders", not bad, bad or "none", "none")
    return run.report()


def _even_negative(tag: str, p: int, s: int) -> dict:
    run = Run(tag)
    ctx = make_field(p, s)
    hs = enumerate_h(ctx)
    run.check("q^3+1 admissible h", len(hs) == ctx.q**3 + 1, len(hs), ctx.q**3 + 1)
    bad = []
    for h in hs:
        f = family_poly(ctx, "new_fh", h)
        mbar = h.frob(2) + h.frob(1)
        d6, d5 = dickson_dets_at(f, mbar)
        # is_scattered checks that the oracle finds the point mbar certifies
        ok = (d6.is_zero() and d5.is_zero() and point_weight(f, mbar) >= 2
              and mbar in is_scattered(f)["dickson"].witnesses)
        if not ok:
            bad.append(str(h))
    run.check("every h: witness h^(q^2)+h^q accepted by both deciders",
              not bad, bad or "none", "none")
    return run.report()


def _intn_run(tag: str, q: int) -> dict:
    run = Run(tag)
    ctx = make_field(q, 1)
    bad = []
    for h in enumerate_h(ctx):
        G = gamma_of(h)
        r1, dims1 = intn(G, 1)
        r5, dims5 = intn(G, 5)
        if not (dims1[:3] == dims5[:3] == [3, 1, -1] and r1 == 3 and r5 == 3):
            bad.append((str(h), r1, r5, dims1, dims5))
    run.check("every h: chain (3,1,-1) and intn 3 under both collineations",
              not bad, bad or "none", "none")
    return run.report()


def _trinomial_q3(tag: str) -> dict:
    run = Run(tag)
    ctx = make_field(3, 1)
    one = ctx.one()
    hs = [h for h in enumerate_h(ctx) if ctx.in_subfield(h, 2)]
    run.check("4 admissible h in F_9", len(hs) == 4, len(hs), 4)
    for h in hs:
        fh = family_poly(ctx, "new_fh", h)
        tri = family_poly(ctx, "trinomial", h)
        hinv = h.inv()
        w = EquivWitness(rho=0, a=-h + hinv, b=one,
                         c=hinv - one - h**3 + h**2, d=h - h**2 - one)
        run.check("h=%s: explicit witness maps U_h onto U_tri" % h,
                  verify_witness(fh, tri, w))
        res = gl_equivalent(fh, tri)
        run.check("h=%s: search finds a witness" % h, res.equivalent)
    return run.report()


def _l4_q5_power5(tag: str) -> dict:
    run = Run(tag)
    ctx = make_field(5, 1)
    h = ctx.from_int(2)
    deltas = u4_deltas(ctx)
    run.check("single delta root at q=5", len(deltas) == 1, len(deltas), 1)
    found = next((r for r in (check_system_L4(h, deltas[0], v) for v in ("trin", "trin2"))
                  if r["solvable"]), None)
    run.check("system solvable", found is not None)
    if found:
        k = found["k"]
        quad = ctx.from_int(9) * k * k - ctx.from_int(3) * k + ctx.from_int(5)
        run.check("k solves 9k^2 - 3k + 5 = 0", quad.is_zero(), quad, "0")
        run.check("k = -4/3 = 2", k == ctx.from_int(2), k, ctx.from_int(2))
        cross = gl_equivalent(family_poly(ctx, "new_fh", h),
                              family_poly(ctx, "csajbok_mz", deltas[0]))
        run.check("general search agrees", cross.equivalent)
    return run.report()


def _mrd_q3(tag: str) -> dict:
    run = Run(tag)
    ctx = make_field(3, 1)
    h = enumerate_h(ctx)[0]
    C = code_from(family_poly(ctx, "new_fh", h))
    rep = mrd_report(C)
    run.check("min distance 5", rep["min_distance"] == 5, rep["min_distance"], 5)
    run.check("one zero codeword", rep["distribution"].counts.get(0) == 1)
    run.check("Singleton equality |C| = q^12", rep["singleton_equality"],
              rep["cardinality"], ctx.q**12)
    left, right = idealisers(C)
    run.check("left idealiser is F_{q^6} id: 6 basis pairs, all with a = 0",
              len(left) == 6 and all(a.is_zero() for a, _ in left), len(left), 6)
    run.check("right idealiser has dimension 2", len(right) == 2, len(right), 2)
    return run.report()


def _lemma_sweep(tag: str) -> dict:
    """Both auxiliary lemmas at every admissible h for q = 3, 5, 7, with the
    root classes counted per lemma (Lemma 3 applies only where h^4 = 1).
    lemma_roots raises ClassificationGap on any root other than +-sigma0,
    sigma0 = h^(q^2) + h^q, so one plus and one minus root per h means the
    Lemma 2 roots are exactly {sigma0, -sigma0} for every h."""
    run = Run(tag)
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        hs = enumerate_h(ctx)
        counts: dict = {"lemma2": {}, "lemma3": {}}
        for h in hs:
            for which in counts:
                try:
                    roots = lemma_roots(h, which)
                except HypothesisViolated:
                    continue
                for _, cls in roots:
                    counts[which][cls] = counts[which].get(cls, 0) + 1
        n = len(hs)
        run.check("q=%d: Lemma 2 roots are {sigma0, -sigma0} for all %d h; "
                  "root classes per lemma" % (q, n),
                  counts["lemma2"] == {"plus": n, "minus": n}, counts,
                  {"plus": n, "minus": n})
    return run.report()


# tag -> (run function, its arguments after the tag)
TAGS = {
    "case1-q5": (_case1_positive, 5),
    "case1-q13": (_case1_positive, 13),
    "case1-q3-negative": (_case1_negative, 3),
    "case1-q7-negative": (_case1_negative, 7),
    "case2-q3": (_case2, 3, 28, False),
    "case2-q5": (_case2, 5, 124, True),
    "even-q2-negative": (_even_negative, 2, 1),
    "even-q4-negative": (_even_negative, 2, 2),
    "intn-q3": (_intn_run, 3),
    "intn-q5": (_intn_run, 5),
    "trinomial-q3": (_trinomial_q3,),
    "l4-q5-power5": (_l4_q5_power5,),
    "mrd-q3": (_mrd_q3,),
    "lemma-sweep": (_lemma_sweep,),
}


def run_tag(tag: str) -> dict:
    if tag == "all":
        reports = [run_tag(t) for t in TAGS]
        return {"tag": "all", "ok": all(r["ok"] for r in reports),
                "reports": reports}
    if tag not in TAGS:
        raise KeyError("unknown reproduction tag %r (have: %s)" %
                       (tag, ", ".join(sorted(TAGS) + ["all"])))
    fn, *args = TAGS[tag]
    return fn(tag, *args)
