"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Everything here is exact arithmetic; the only tolerances are the
stated runtime budgets, asserted with the limits given.

Criterion 1 note: the rank-6 scattered size is (q^6-1)/(q-1), which at q = 13
is 402,234 (= 4,826,808 / 12); the suite pins the formula value.
"""

import random
import time

from scatlin import QPoly, make_field
from scatlin.equiv import (EquivWitness, check_system_L4, gl_equivalent,
                           pgl_linear_sets_equivalent, verify_witness)
from scatlin.family import (enumerate_h, family_poly, lp_delta_samples,
                            u3_delta_samples, u4_deltas)
from scatlin.geom import gamma_of, intn
from scatlin.mrd import code_from, idealisers, mrd_report
from scatlin.reproduce import run_tag
from scatlin.scatter import (dickson_dets_at, is_scattered_dickson,
                             is_scattered_oracle, point_weight, weight_spectrum)


def mat_mul(ctx, A, B):
    """The matrix product A B over ctx, the reference for compose."""
    out = [[ctx.zero() for _ in B[0]] for _ in A]
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            for t, x in enumerate(row):
                out[i][j] = out[i][j] + x * B[t][j]
    return out


def _announce(num, label, elapsed, extra=""):
    print("ACCEPT %2d PASS  %-38s %7.2fs  %s" % (num, label, elapsed, extra))


def test_criterion_1_case1_positive_q5_q13():
    t_all = time.time()
    timings = {}
    for q, limit in ((5, 1.0), (13, 120.0)):
        ctx = make_field(q, 1)
        f = family_poly(ctx, "case1")
        t0 = time.time()
        vo = is_scattered_oracle(f)
        vd = is_scattered_dickson(f)
        timings[q] = time.time() - t0
        assert vo.scattered and vd.scattered
        expect = (q**6 - 1) // (q - 1)
        assert vo.spectrum.counts == {1: expect}
        assert timings[q] < limit, "q=%d check took %.1fs" % (q, timings[q])
    _announce(1, "case1 scattered at q=5, q=13",
              time.time() - t_all,
              "checks: q5 %.2fs q13 %.2fs" % (timings[5], timings[13]))


def test_criterion_2_case1_negative_q3_q7():
    t0 = time.time()
    for q in (3, 7):
        ctx = make_field(q, 1)
        f = family_poly(ctx, "case1")
        vo = is_scattered_oracle(f)
        vd = is_scattered_dickson(f)
        assert not vo.scattered and not vd.scattered
        w = vd.witness
        assert w * w == ctx.from_int(-4)
        assert ctx.in_subfield(w, 2) and not ctx.in_subfield(w, 1)
        # every criterion root matches the closed-form witness shape
        for w in is_scattered_dickson(f).witnesses:
            assert w * w == ctx.from_int(-4)
    _announce(2, "case1 non-scattered at q=3, q=7 (m^2=-4)", time.time() - t0)


def test_criterion_3_even_q_negative():
    t0 = time.time()
    for p, s in ((2, 1), (2, 2)):
        ctx = make_field(p, s)
        hs = enumerate_h(ctx)
        assert len(hs) == ctx.q**3 + 1
        for h in hs:
            f = family_poly(ctx, "new_fh", h)
            mbar = h.frob(2) + h.frob(1)
            d6, d5 = dickson_dets_at(f, mbar)
            assert d6.is_zero() and d5.is_zero()
            assert point_weight(f, mbar) >= 2
            assert not is_scattered_oracle(f).scattered
            assert not is_scattered_dickson(f).scattered
    _announce(3, "even q=2,4: witness h^(q^2)+h^q", time.time() - t0)


def test_criterion_4_case2_all_h():
    ctx3 = make_field(3, 1)
    hs3 = enumerate_h(ctx3)
    assert len(hs3) == 28
    assert all(not ctx3.in_subfield(h, 1) for h in hs3)
    t0 = time.time()
    for h in hs3:
        f = family_poly(ctx3, "new_fh", h)
        assert is_scattered_oracle(f).scattered
        assert is_scattered_dickson(f).scattered
    sweep3 = time.time() - t0
    assert sweep3 < 10.0, "q=3 sweep took %.1fs" % sweep3

    ctx5 = make_field(5, 1)
    t0 = time.time()
    outside = [h for h in enumerate_h(ctx5) if not ctx5.in_subfield(h, 1)]
    assert len(outside) == 124
    for h in outside:
        f = family_poly(ctx5, "new_fh", h)
        assert is_scattered_oracle(f).scattered
        assert is_scattered_dickson(f).scattered
    _announce(4, "case2: q=3 all 28 h, q=5 all 124 h", time.time() - t0,
              "q3 sweep %.2fs" % sweep3)


def test_criterion_5_intersection_number():
    t0 = time.time()
    for q in (3, 5):
        ctx = make_field(q, 1)
        for h in enumerate_h(ctx):
            G = gamma_of(h)
            r1, dims1 = intn(G, 1)
            r5, dims5 = intn(G, 5)
            assert dims1[:3] == [3, 1, -1] and dims5[:3] == [3, 1, -1]
            assert r1 == 3 and r5 == r1
    _announce(5, "intn = 3, chain (3,1,-1), q=3 and q=5", time.time() - t0)


def test_criterion_6_trinomial_witness():
    t0 = time.time()
    ctx = make_field(3, 1)
    one = ctx.one()
    hs = [h for h in enumerate_h(ctx) if ctx.in_subfield(h, 2)]
    assert len(hs) == 4
    for h in hs:
        assert h ** (ctx.q + 1) == -one
        fh = family_poly(ctx, "new_fh", h)
        tri = family_poly(ctx, "trinomial", h)
        hinv = h.inv()
        w = EquivWitness(rho=0, a=-h + hinv, b=one,
                         c=hinv - one - h**3 + h**2, d=h - h**2 - one)
        images = set()
        for x in ctx.elements():          # all 729 vectors, explicitly
            u, v = (w.a * x + w.b * fh(x), w.c * x + w.d * fh(x))
            assert tri(u) == v
            images.add((ctx.packed(u), ctx.packed(v)))
        assert len(images) == 729         # bijective onto U_tri
        res = gl_equivalent(fh, tri)
        assert res.equivalent and verify_witness(fh, tri, res.witness)
    _announce(6, "trinomial witness, all 4 h in F_9", time.time() - t0)


def test_criterion_7_non_equivalence_q3():
    t0 = time.time()
    ctx = make_field(3, 1)
    h = next(h for h in enumerate_h(ctx) if not ctx.in_subfield(h, 2))
    fh = family_poly(ctx, "new_fh", h)
    total = 0

    def expect_not_equivalent(target, family):
        nonlocal total
        res = pgl_linear_sets_equivalent(fh, target, family)
        assert not res["equivalent"] and res["exhausted"]
        total += res["searched"]

    expect_not_equivalent(family_poly(ctx, "pseudoregulus"), "pseudoregulus")
    for delta in lp_delta_samples(ctx):
        expect_not_equivalent(family_poly(ctx, "lp", delta), "lp")
    for delta in u3_delta_samples(ctx):
        expect_not_equivalent(family_poly(ctx, "csajbok_mp", delta), "csajbok_mp")
    for delta in u4_deltas(ctx):
        expect_not_equivalent(family_poly(ctx, "csajbok_mz", delta), "csajbok_mz")

    elapsed = time.time() - t0
    assert elapsed < 1800.0, "non-equivalence sweep took %.0fs" % elapsed
    _announce(7, "h=%s not equivalent to any known family" % h, elapsed,
              "searched %d triples" % total)


def test_criterion_8_power_of_5_exception():
    t0 = time.time()
    ctx = make_field(5, 1)
    h = ctx.from_int(2)
    deltas = u4_deltas(ctx)
    assert deltas == [ctx.from_int(2)]
    hits = [check_system_L4(h, deltas[0], v) for v in ("trin", "trin2")]
    hit = next(r for r in hits if r["solvable"])
    k = hit["k"]
    assert (ctx.from_int(9) * k * k - ctx.from_int(3) * k
            + ctx.from_int(5)).is_zero()
    assert k == ctx.from_int(2)  # k = -4/3 = 2 in F_5
    _announce(8, "q=5, h=2: L4 system solvable, k=-4/3", time.time() - t0)


def test_criterion_9_mrd():
    t0 = time.time()
    ctx = make_field(3, 1)
    h = enumerate_h(ctx)[0]
    C = code_from(family_poly(ctx, "new_fh", h))
    rep = mrd_report(C)
    assert rep["min_distance"] == 5
    assert rep["distribution"].counts[0] == 1
    assert rep["cardinality"] == 3**12
    assert rep["singleton_equality"]
    left, right = idealisers(C)
    # exactly F_{3^6} id: 6 F_3-independent pairs (0, b) span all of {(0, b)}
    assert len(left) == 6 and all(a.is_zero() for a, _ in left)
    assert len(right) == 2 and rep["idealisers"] == {"left": 6, "right": 2}
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _announce(9, "MRD (6,6,3;5), left idealiser = F_{3^6} id, dim R = 2", elapsed)


def test_criterion_10_property_suites():
    t0 = time.time()
    ctx = make_field(3, 1)
    rng = random.Random(2024)

    def rand_poly():
        return QPoly(ctx, [ctx.elem_at(rng.randrange(ctx.order)) for _ in range(6)])

    polys = [rand_poly() for _ in range(200)]
    polys += [family_poly(ctx, "new_fh", h) for h in enumerate_h(ctx)]
    for f in polys:
        a = is_scattered_oracle(f)
        b = is_scattered_dickson(f)
        assert a.scattered == b.scattered
        if not a.scattered:
            assert point_weight(f, a.witnesses[0]) >= 2
            assert point_weight(f, f.coeffs[0] - b.witnesses[0]) >= 2
        assert weight_spectrum(f).mass_ok()

    for _ in range(20):
        f, g = rand_poly(), rand_poly()
        assert f.compose(g).dickson() == mat_mul(ctx, f.dickson(), g.dickson())
        assert weight_spectrum(f).counts == weight_spectrum(f.adjoint()).counts
        k = f.kernel_dim()
        assert sum(1 for x in ctx.elements() if f(x).is_zero()) == 3**k
    _announce(10, "property suites (zero tolerance)", time.time() - t0)


def test_criterion_11_lemma_sweep():
    """The `lemma-sweep` tag: the Lemma 2 roots are exactly {sigma0, -sigma0}
    for every admissible h at q = 3, 5 and 7."""
    t0 = time.time()
    rep = run_tag("lemma-sweep")
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]
    assert len(rep["checks"]) == 3
    _announce(11, "lemma sweep, every h at q=3, 5, 7", time.time() - t0)
