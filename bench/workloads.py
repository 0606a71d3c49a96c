"""The benchmark's workloads: one per question the paper asks of f_h.

A workload is a fixed list of questions chosen by the seed (one "pass") and
the closed-form answers the paper predicts for them.  The seed only picks
inputs (which h, which delta, which sample point); the library sees nothing
but the generated field elements and q-polynomials.

Every call into the library goes through a module attribute
(``scatter.is_scattered_oracle``, ``gf.make_field``, ...) so that the traced
run, which swaps those attributes for timing wrappers, sees every call.

Importing this module imports scatlin; ``run.py`` times that import as part
of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from scatlin import equiv, family, geom, gf, mrd, scatter


@dataclass
class Question:
    """One question of a pass.

    ``run(check)`` compares what it computes through ``check.eq(name,
    value)`` (``run.Check``) and returns ``(answer, work)``: ``answer`` is
    JSON-ready and free of timings (it feeds the digest); ``work`` is the
    question's contribution to the workload's throughput, or None when the
    question does not count towards it.
    """

    qid: str
    run: Callable[..., tuple[dict, float | None]]


@dataclass
class Workload:
    fields: list                      # every Field the workload uses
    questions: list[Question]         # one pass, in order
    expect: dict                      # closed-form answers, by check name
    work_unit: str                    # report name of the throughput metric
    probes: list[Callable[[], None]] = field(default_factory=list)  # traced run only


def _fmt(x) -> str | None:
    return None if x is None else x.ctx.format(x)


def _scattered_expect(q: int) -> dict:
    return {
        "oracle_scattered": True,
        "dickson_scattered": True,
        "spectrum": {1: (q**6 - 1) // (q - 1)},
        "point_weight": 1,
        # at a point of weight 1 the full Dickson determinant vanishes and
        # the truncated one does not (a common root would mean weight >= 2)
        "dets_vanish_at_point": [True, False],
    }


def _scatter_answer(chk, f, point_exp: int) -> dict:
    """Both deciders and the weight spectrum, plus an elimination-rank
    cross-check of the spectrum at the point <(1, f(x)/x)>, x = g^point_exp."""
    ctx = f.ctx
    vo = scatter.is_scattered_oracle(f)
    vd = scatter.is_scattered_dickson(f)
    chk.eq("oracle_scattered", vo.scattered)
    chk.eq("dickson_scattered", vd.scattered)
    chk.eq("spectrum", vo.spectrum.counts)
    x = ctx.from_exp(point_exp)
    m = f(x) / x
    weight = scatter.point_weight(f, m)
    d6, d5 = scatter.dickson_dets_at(f, f.coeffs[0] - m)
    chk.eq("point_weight", weight)
    chk.eq("dets_vanish_at_point", [d6.is_zero(), d5.is_zero()])
    return {"oracle": vo.scattered, "oracle_witness": _fmt(vo.witness),
            "dickson": vd.scattered, "dickson_witness": _fmt(vd.witness),
            "spectrum": vo.spectrum.to_json(),
            "point": [_fmt(m), weight, _fmt(d6), _fmt(d5)]}


# ---------------------------------------------------------------------------
# scattered-q13: "is it scattered?"
# ---------------------------------------------------------------------------

def scattered(seed: int, q: int) -> Workload:
    """case1 and one seed-chosen admissible h outside F_q, both deciders."""
    rng = random.Random(seed)
    F = gf.make_field(q, 1)
    h = rng.choice([h for h in family.enumerate_h(F) if not F.in_subfield(h, 1)])
    polys = [("case1", family.family_poly(F, "case1")),
             ("new_fh h=%s" % F.format(h), family.family_poly(F, "new_fh", h))]
    elements = 2 * F.order  # each decider decides over all of F_{q^6}

    def question(f, point_exp):
        def run(chk):
            return _scatter_answer(chk, f, point_exp), elements
        return run

    questions = [Question(qid, question(f, rng.randrange(F.N))) for qid, f in polys]
    return Workload([F], questions, _scattered_expect(q),
                    "scan_elems_per_s")


# ---------------------------------------------------------------------------
# invariants-q5: "what are its invariants?"
# ---------------------------------------------------------------------------

LEMMA_PROBES = 3  # seed-chosen h for the traced-only lemma2 probe


def invariants(seed: int, q: int) -> Workload:
    """Every admissible h: verdicts, spectrum and intn under sigma-hat and
    sigma-hat^5; plus the full rank distribution of one seed-chosen C_{f_h}."""
    rng = random.Random(seed)
    F = gf.make_field(q, 1)
    hs = family.enumerate_h(F)
    polys = [family.family_poly(F, "new_fh", h) for h in hs]
    order = F.order
    a5 = (order - 1) ** 2 // (q - 1)  # [6 choose 5]_q (q^6 - 1), the MRD count
    expect = dict(_scattered_expect(q))
    expect.update({
        "intn_sigma_r": 3, "intn_sigma_chain": [3, 1, -1],
        "intn_sigma5_r": 3, "intn_sigma5_chain": [3, 1, -1],
        "rank_distribution": {0: 1, 5: a5, 6: order**2 - 1 - a5},
        "min_distance": 5,
        "cardinality": q**12,
    })

    def h_question(h, f, point_exp):
        def run(chk):
            ans = _scatter_answer(chk, f, point_exp)
            G = geom.gamma_of(h)
            for power in (1, 5):
                r, dims = geom.intn(G, power)
                tag = "intn_sigma" if power == 1 else "intn_sigma5"
                chk.eq(tag + "_r", r)
                chk.eq(tag + "_chain", dims[:3])
                ans[tag] = [r, dims]
            return ans, 1
        return run

    def rd_question(f):
        def run(chk):
            dist = mrd.rank_distribution(mrd.code_from(f), budget=order + 2)
            chk.eq("rank_distribution", dist.counts)
            chk.eq("min_distance", dist.min_distance())
            chk.eq("cardinality", dist.size)
            return {"rank_distribution": dist.to_json()}, None
        return run

    questions = [Question("h=%s" % F.format(h), h_question(h, f, rng.randrange(F.N)))
                 for h, f in zip(hs, polys)]
    pick = rng.randrange(len(hs))
    questions.append(Question("rank-distribution h=%s" % F.format(hs[pick]),
                              rd_question(polys[pick])))

    # lemma2 aborts at its first ClassificationGap, so its run time would
    # drop sharply once the gap is fixed; it is therefore timed only in the
    # traced run, where run.py counts the gaps.
    outside = [h for h in hs if not F.in_subfield(h, 1)]
    probes = [lambda h=h: family.lemma_roots(h, "lemma2")
              for h in rng.sample(outside, LEMMA_PROBES)]
    return Workload([F], questions, expect, "h_per_s", probes)


# ---------------------------------------------------------------------------
# new-q3: "is it new?"
# ---------------------------------------------------------------------------

def new(seed: int, q: int) -> Workload:
    """A seed-chosen f_h (h outside F_{q^2}) against one representative of
    each known family, the trinomial witness pair, and the q = 5 L4 system."""
    rng = random.Random(seed)
    F = gf.make_field(q, 1)
    F5 = gf.make_field(5, 1)
    hs = family.enumerate_h(F)
    h = rng.choice([h for h in hs if not F.in_subfield(h, 2)])
    fh = family.family_poly(F, "new_fh", h)
    targets = [("pseudoregulus", None),
               ("lp", family.lp_delta_samples(F)[0]),
               ("csajbok_mp", rng.choice(family.u3_delta_samples(F)))]
    targets += [("csajbok_mz", d) for d in family.u4_deltas(F)]
    tri_h = rng.choice([h for h in hs if F.in_subfield(h, 2)])
    tri_f = family.family_poly(F, "new_fh", tri_h)
    tri_g = family.family_poly(F, "trinomial", tri_h)
    l4_h = F5.from_int(2)
    l4_delta = family.u4_deltas(F5)[0]
    expect = {
        "pgl_equivalent": False,
        "exhausted": True,
        "branches": ["direct", "adjoint"],
        "mp_branches": ["direct"],  # csajbok_mp has no adjoint branch
        "branch_status": "not_equivalent",
        "branch_searched": F.deg * q**12,
        "trinomial_status": "equivalent",
        "trinomial_early_exit": True,
        "witness_verified": True,
        "l4_solvable": True,
        "l4_k": F5.format(F5.from_int(-4) / F5.from_int(3)),
    }

    def pgl_question(tag, g):
        def run(chk):
            res = equiv.pgl_linear_sets_equivalent(fh, g, g.tag)
            chk.eq("pgl_equivalent", res["equivalent"])
            chk.eq("exhausted", res.get("exhausted"))
            chk.eq("mp_branches" if tag == "csajbok_mp" else "branches",
                   list(res["results"]))
            for r in res["results"].values():
                chk.eq("branch_status", r.status)
                chk.eq("branch_searched", r.searched)
            return ({name: r.to_json() for name, r in res["results"].items()},
                    res["searched"])
        return run

    def trinomial_question(chk):
        res = equiv.gl_equivalent(tri_f, tri_g)
        chk.eq("trinomial_status", res.status)
        chk.eq("trinomial_early_exit", res.searched < expect["branch_searched"])
        ok = (res.witness is not None
              and equiv.verify_witness(tri_f, tri_g, res.witness))
        chk.eq("witness_verified", ok)
        return res.to_json(), res.searched

    def l4_question(chk):
        for variant in ("trin", "trin2"):
            res = equiv.check_system_L4(l4_h, l4_delta, variant)
            if res["solvable"]:
                break
        chk.eq("l4_solvable", res["solvable"])
        chk.eq("l4_k", _fmt(res["k"]))
        w = res["witness"]
        return {"variant": res["variant"], "rho": res["rho"], "k": _fmt(res["k"]),
                "witness": None if w is None else w.to_json()}, None

    questions = [Question("%s %s" % (tag, "-" if d is None else F.format(d)),
                          pgl_question(tag, family.family_poly(F, tag, d)))
                 for tag, d in targets]
    questions.append(Question("trinomial h=%s" % F.format(tri_h), trinomial_question))
    questions.append(Question("l4 q=5 h=2", l4_question))
    return Workload([F, F5], questions, expect, "triples_per_s")


# name -> (constructor, q used by the benchmark, smallest q the self-test runs)
WORKLOADS = {
    "scattered-q13": (scattered, 13, 5),
    "invariants-q5": (invariants, 5, 3),
    "new-q3": (new, 3, 3),
}


def build(name: str, seed: int, smallest: bool = False) -> Workload:
    make, q, q_small = WORKLOADS[name]
    return make(seed, q_small if smallest else q)
