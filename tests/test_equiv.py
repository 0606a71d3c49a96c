"""Exhaustive semilinear equivalence: witnesses, the adjoint reduction, and
the csajbok_mz systems read off W_rho, the F_p-nullspace of the slot identity."""

import random

import numpy as np
import pytest

from scatlin import equiv, make_field
from scatlin.equiv import (EquivResult, EquivWitness, apply_witness,
                           check_system_L4, gl_equivalent, l4_target,
                           pgl_linear_sets_equivalent, verify_witness,
                           witness_space)
from scatlin.errors import DegenerateInput, HypothesisViolated, InvalidParameter
from scatlin.family import (enumerate_h, family_poly, lp_delta_samples,
                            u3_delta_samples, u4_deltas)
from scatlin.qpoly import QPoly

from conftest import semilinear_image


def trinomial_hs(F):
    return [h for h in enumerate_h(F) if F.in_subfield(h, 2)]


def general_hs(F):
    return [h for h in enumerate_h(F) if not F.in_subfield(h, 2)]


def test_self_equivalence(f3):
    f = family_poly(f3, "pseudoregulus")
    res = gl_equivalent(f, f)
    assert res.equivalent
    w = res.witness
    assert w.rho == 0 and w.a == f3.one() and w.b.is_zero()
    assert w.c.is_zero() and w.d == f3.one()


def test_paper_trinomial_witness(f3):
    one = f3.one()
    for h in trinomial_hs(f3):
        fh = family_poly(f3, "new_fh", h)
        tri = family_poly(f3, "trinomial", h)
        hinv = h.inv()
        w = EquivWitness(rho=0, a=-h + hinv, b=one,
                         c=hinv - one - h**3 + h**2, d=h - h**2 - one)
        assert not w.determinant().is_zero()
        assert verify_witness(fh, tri, w)
        # the witness really moves every graph vector onto the target graph
        for x in f3.elements():
            u, v = apply_witness(w, x, fh(x))
            assert tri(u) == v


def test_search_finds_trinomial_witness(f3):
    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", h)
    tri = family_poly(f3, "trinomial", h)
    res = gl_equivalent(fh, tri)
    assert res.equivalent
    assert verify_witness(fh, tri, res.witness)


def test_symmetry(f3):
    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", h)
    tri = family_poly(f3, "trinomial", h)
    assert gl_equivalent(fh, tri).equivalent
    assert gl_equivalent(tri, fh).equivalent
    ps = family_poly(f3, "pseudoregulus")
    fh2 = family_poly(f3, "new_fh", general_hs(f3)[0])
    assert not gl_equivalent(fh2, ps).equivalent
    assert not gl_equivalent(ps, fh2).equivalent


def test_not_equivalent_is_exhaustive(f3):
    fh = family_poly(f3, "new_fh", general_hs(f3)[0])
    ps = family_poly(f3, "pseudoregulus")
    res = gl_equivalent(fh, ps)
    assert res.status == "not_equivalent"
    assert res.searched == f3.deg * f3.order**2


def test_pgl_result_has_one_shape(f3):
    """Every pgl_linear_sets_equivalent result carries the same keys, and
    "exhausted" is True exactly when every branch was decided with no
    witness: a witness (the trinomial pair for h = g^91) ends the search."""
    h = f3.from_exp(91)
    fh = family_poly(f3, "new_fh", h)
    tri = family_poly(f3, "trinomial", h)
    keys = {"branch", "equivalent", "exhausted", "results", "searched", "witness"}
    res = pgl_linear_sets_equivalent(fh, tri, tri.tag)
    assert set(res) == keys
    assert res["equivalent"] and res["exhausted"] is False
    assert res["branch"] == "direct" and verify_witness(fh, tri, res["witness"])
    ps = family_poly(f3, "pseudoregulus")
    res = pgl_linear_sets_equivalent(fh, ps, ps.tag)
    assert set(res) == keys
    assert not res["equivalent"] and res["exhausted"] is True
    assert res["branch"] is None and res["witness"] is None
    assert res["searched"] == 2 * f3.deg * f3.order**2
    assert set(res["results"]) == {"direct", "adjoint"}


def test_chunk_determinism(f3, monkeypatch):
    """The block size equiv._BLOCK sets the block layout (many rows, one
    row, a row and a part, a slice of one row) but not the witness or
    searched."""
    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", h)
    tri = family_poly(f3, "trinomial", h)
    runs = []
    for block in (1 << 18, 729, 1000, 37):
        monkeypatch.setattr(equiv, "_BLOCK", block)
        runs.append(gl_equivalent(fh, tri).to_json())
    assert all(r == runs[0] for r in runs)
    assert runs[0]["searched"] == 1095


def test_search_finds_random_semilinear_images(f3):
    """Positive control for completeness: scramble U_f by a random semilinear
    map and demand the exhaustive scan rediscover the equivalence."""
    rng = random.Random(99)
    f = family_poly(f3, "new_fh", enumerate_h(f3)[5])
    found = 0
    while found < 4:
        rho = rng.randrange(f3.deg)
        a, b, c, d = (f3.elem_at(rng.randrange(f3.order)) for _ in range(4))
        g = semilinear_image(f, EquivWitness(rho, a, b, c, d))
        if g is None:
            continue
        res = gl_equivalent(f, g)
        assert res.equivalent, (rho, a, b, c, d)
        assert verify_witness(f, g, res.witness)
        found += 1


def reference_scan(f, g, chunk=1 << 16):
    """Reference: the un-reduced scan.  Every flat a_idx * E + b_idx of every
    rho is evaluated in order, with all twelve bases recomputed per element
    and (c, d) solved from slot tp = the first nonzero slot t >= 1 of f^rho."""
    ctx = f.ctx
    N, E = ctx.N, ctx.order
    gt = [cf.val for cf in g.coeffs]
    tried = 0
    for rho in range(ctx.deg):
        frho = f.automorphism_image(rho)
        fr = [cf.val for cf in frho.coeffs]
        tp = next(t for t in range(1, 6) if fr[t] != N)
        ck = [[(g.coeffs[k] * ctx.frobenius(frho.coeffs[(t - k) % 6], k)).val
               for k in range(6)] for t in range(6)]

        def lhs(t, scale=0):  # g^scale times slot t of g o (a id + b f^rho)
            terms = [(gt[t], (t,))] + [(ck[t][k], (6 + k,)) for k in range(6)]
            return [((e + scale) % N, idx) for e, idx in terms if e != N]

        def minus(c, idx):
            return [] if c == N else [((c + ctx._half) % N, idx)]

        flat = 0
        while flat < E * E:
            size = min(chunk, E * E - flat)
            idx = np.arange(flat, flat + size)
            ea = np.where(idx // E == 0, N, idx // E - 1)
            eb = np.where(idx % E == 0, N, idx % E - 1)
            bases = ([ctx.v_frob(ea, t) for t in range(6)]
                     + [ctx.v_frob(eb, k) for k in range(6)])
            bases.append(ctx.v_lincomb(lhs(tp, (N - fr[tp]) % N), bases))  # d
            ok = (ea != N) | (eb != N)
            for t in range(1, 6):
                if t != tp:
                    ok &= ctx.v_lincomb(lhs(t) + minus(fr[t], (12,)), bases) == N
            bases.append(ctx.v_lincomb(lhs(0) + minus(fr[0], (12,)), bases))  # c
            ok &= ctx.v_lincomb([(0, (0, 12))] + minus(0, (6, 13)), bases) != N
            if ok.any():
                pos = int(np.argmax(ok))
                w = EquivWitness(rho, ctx.elem_at((flat + pos) // E),
                                 ctx.elem_at((flat + pos) % E),
                                 ctx.elem_of_exp(int(bases[13][pos])),
                                 ctx.elem_of_exp(int(bases[12][pos])))
                return EquivResult("equivalent", witness=w, searched=tried + pos + 1)
            tried += size
            flat += size
    return EquivResult("not_equivalent", searched=tried)


def test_reduced_scan_matches_reference(f3):
    """The orbit-reduced broadcast scan gives the un-reduced scan's status,
    witness and searched: on the trinomial pair, on an exhausted pair (all
    six rho), on random semilinear images of f_h, one with a = 0, and on
    images of a random f planted at the non-representatives a = g^(2R-1)
    and (0, g^(2R-1)), whose witnesses sit on the last representative,
    g^(R-1), of the a rows and of the a = 0 row."""
    R = f3.N // (f3.q - 1)
    rng = random.Random(3)

    def image(f, rho, a=None, b=None):
        g = None
        while g is None:
            ra, rb, c, d = (f3.elem_at(rng.randrange(1, f3.order)) for _ in range(4))
            g = semilinear_image(f, EquivWitness(rho, ra if a is None else a,
                                                 rb if b is None else b, c, d))
        return g

    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", general_hs(f3)[0])
    rand_f = QPoly(f3, [f3.zero()] + [f3.elem_at(rng.randrange(1, f3.order)) for _ in range(5)])
    last = f3.from_exp(2 * R - 1)
    cases = [(family_poly(f3, "new_fh", h), family_poly(f3, "trinomial", h)),
             (fh, family_poly(f3, "pseudoregulus")),
             (fh, image(fh, rng.randrange(f3.deg), a=f3.zero())),
             (fh, image(fh, rng.randrange(f3.deg))),
             (fh, image(fh, rng.randrange(f3.deg))),
             (rand_f, image(rand_f, 0, a=last)),
             (rand_f, image(rand_f, 0, a=f3.zero(), b=last))]
    found = []
    for f, g in cases:
        ref = reference_scan(f, g)
        res = gl_equivalent(f, g)
        assert (res.status, res.searched) == (ref.status, ref.searched)
        if ref.witness is not None:
            w = res.witness
            assert w.to_json() == ref.witness.to_json()
            found.append((w.a.is_zero(), (w.b if w.a.is_zero() else w.a).val))
    assert all(e < R for _, e in found)
    assert found[1][0] and found[-2:] == [(False, R - 1), (True, R - 1)]


def test_verify_witness_checks_exact_identity(f7, monkeypatch):
    """At q = 7 the pointwise route only samples, so the 6-coefficient
    identity must catch a wrong c on its own, even with no sample."""
    rng = random.Random(7)
    f = family_poly(f7, "new_fh", enumerate_h(f7)[0])
    g = None
    while g is None:
        w = EquivWitness(rng.randrange(f7.deg),
                         *(f7.elem_at(rng.randrange(1, f7.order)) for _ in range(4)))
        g = semilinear_image(f, w)
    bad = EquivWitness(w.rho, w.a, w.b, w.c + f7.one(), w.d)
    if bad.determinant().is_zero():
        bad.c = w.c - f7.one()
    assert not bad.determinant().is_zero()
    for sample in (equiv._VERIFY_SAMPLE, 0):
        monkeypatch.setattr(equiv, "_VERIFY_SAMPLE", sample)
        assert verify_witness(f, g, w)
        assert not verify_witness(f, g, bad)


def test_degenerate_inputs(f3):
    f = family_poly(f3, "pseudoregulus")
    with pytest.raises(DegenerateInput):
        gl_equivalent(QPoly.zero(f3), f)
    with pytest.raises(DegenerateInput):
        gl_equivalent(QPoly(f3, [f3.gen()]), f)  # scalar map: {id, f} dependent


def test_pgl_reduction_branches(f3):
    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", h)
    # f vs its own adjoint graph: the adjoint branch must fire
    res = pgl_linear_sets_equivalent(fh, fh.adjoint(), "new_fh")
    assert res["equivalent"]
    # csajbok_mp restricts the reduction to the direct branch
    u3 = family_poly(f3, "csajbok_mp", f3.from_exp(1))
    res2 = pgl_linear_sets_equivalent(fh, u3, "csajbok_mp")
    assert set(res2["results"]) == {"direct"}


def test_pgl_untagged_target_searches_both_branches(f3):
    """An adjoint or a polynomial given by its coefficients has no family
    tag; passing g.tag then searches both branches."""
    ps = family_poly(f3, "pseudoregulus")
    g = ps.adjoint()
    assert g.tag is None
    res = pgl_linear_sets_equivalent(ps, g, g.tag)
    assert res["equivalent"] and verify_witness(ps, g, res["witness"])
    g = family_poly(f3, "case1").adjoint()  # not scattered, unlike ps
    res = pgl_linear_sets_equivalent(ps, g, g.tag)
    assert not res["equivalent"] and res["exhausted"]
    assert set(res["results"]) == {"direct", "adjoint"}


def test_l4_system_q5_power_of_5(f5):
    h = f5.from_int(2)
    delta = u4_deltas(f5)[0]
    solved = [check_system_L4(h, delta, v) for v in ("trin", "trin2")]
    assert any(r["solvable"] for r in solved)
    hit = next(r for r in solved if r["solvable"])
    k = hit["k"]
    assert (f5.from_int(9) * k * k - f5.from_int(3) * k + f5.from_int(5)).is_zero()
    assert k == f5.from_int(2)
    assert verify_witness(family_poly(f5, "new_fh", h),
                          l4_target(f5, delta, hit["variant"]), hit["witness"])


def test_l4_system_insolvable_off_fq2(f3):
    h = general_hs(f3)[0]
    for delta in u4_deltas(f3):
        for variant in ("trin", "trin2"):
            assert not check_system_L4(h, delta, variant)["solvable"]


def frobenius_orbit_reps(F):
    """One admissible h per orbit of h -> h^p."""
    reps, seen = [], set()
    for h in enumerate_h(F):
        if h not in seen:
            reps.append(h)
            seen.update(F.p_power(h, e) for e in range(F.deg))
    return reps


def digits(F, x):
    """The base-p digits of x, as witness_space orders them."""
    v = F.packed(x)
    return [v // F.p**j % F.p for j in range(F.deg)]


def in_span(basis, v, p):
    """Is v an F_p-combination of the rows of basis (reduced echelon form)?"""
    pivots = [int(np.flatnonzero(row)[0]) for row in basis]
    return not ((np.array(v) - np.array(v)[pivots] @ basis) % p).any()


def space_members(F, basis):
    """Every nonzero (a, b) in the F_p-span of the rows of basis."""
    if not len(basis):
        return []
    k, place = F.deg, F.p ** np.arange(F.deg)
    coef = np.indices((F.p,) * len(basis)).reshape(len(basis), -1).T[1:]
    return [(F.from_packed(int(v[:k] @ place)), F.from_packed(int(v[k:] @ place)))
            for v in coef @ basis % F.p]


def test_witness_space_contains_search_witnesses(f3, f5):
    """Completeness: the witness the exhaustive search finds lies in W_rho
    at its rho, for the four trinomial pairs at q = 3 and for f_h, h = 2,
    against both U^4 targets at q = 5."""
    delta = u4_deltas(f5)[0]
    pairs = [(family_poly(f3, "new_fh", h), family_poly(f3, "trinomial", h))
             for h in trinomial_hs(f3)]
    pairs += [(family_poly(f5, "new_fh", f5.from_int(2)), l4_target(f5, delta, v))
              for v in ("trin", "trin2")]
    for f, g in pairs:
        F = f.ctx
        w = gl_equivalent(f, g).witness
        basis = witness_space(f, g, w.rho)
        assert basis.dtype == np.int64 and basis.shape[1] == 2 * F.deg
        assert in_span(basis, digits(F, w.a) + digits(F, w.b), F.p)


def test_witness_space_needs_no_pivot_row(f3):
    """With f = g = x^q + ... + x^(q^5), test row t has the two a terms
    g_t a^(q^t) and -(f_t / f_1) g_1 a^q, so no row solves for a alone;
    the nullspace still holds the identity, (a, b) = (1, 0), at rho = 0."""
    f = QPoly(f3, [f3.zero()] + [f3.one()] * 5)
    assert in_span(witness_space(f, f, 0), digits(f3, f3.one()) + [0] * f3.deg, f3.p)


def kernel_route(f, g):
    """gl_equivalent's JSON read off W_rho: the first rho with W_rho != 0,
    the member (a, b) there with ad - bc != 0 of smallest flat index, and
    c, d from the coefficients of g o (a id + b f^rho) = c id + d f^rho."""
    F = f.ctx
    E = F.order
    for rho in range(F.deg):
        members = space_members(F, witness_space(f, g, rho))
        if not members:
            continue
        fr, tp = f.automorphism_image(rho), f.first_q_term()
        ident = QPoly.identity(F)
        best = None
        for a, b in members:
            left = g.compose(ident.scale(a) + fr.scale(b)).coeffs
            d = left[tp] / fr.coeffs[tp]
            w = EquivWitness(rho, a, b, left[0] - d * fr.coeffs[0], d)
            flat = F.enum_index(a) * E + F.enum_index(b)
            if not w.determinant().is_zero() and (best is None or flat < best[0]):
                best = (flat, w)
        assert best is not None, "W_rho != 0 holds no witness"
        return {"verdict": "equivalent", "searched": rho * E * E + best[0] + 1,
                "witness": best[1].to_json()}
    return {"verdict": "not_equivalent", "searched": F.deg * E * E}


def test_kernel_route_matches_scan(f3, f5):
    """The kernel route gives gl_equivalent's JSON, the first witness of
    the scan included: every pair of acceptance criterion 7 on both
    branches (W_rho = 0 at every rho), the four trinomial pairs at q = 3,
    and f_h, h = 2, against both U^4 targets at q = 5."""
    h = next(h for h in enumerate_h(f3) if not f3.in_subfield(h, 2))
    fh = family_poly(f3, "new_fh", h)
    targets = ([family_poly(f3, "pseudoregulus")]
               + [family_poly(f3, "lp", d) for d in lp_delta_samples(f3)]
               + [family_poly(f3, "csajbok_mp", d) for d in u3_delta_samples(f3)]
               + [family_poly(f3, "csajbok_mz", d) for d in u4_deltas(f3)])
    pairs = [(fh, g) for t in targets for g in (t, t.adjoint())]
    pairs += [(family_poly(f3, "new_fh", h), family_poly(f3, "trinomial", h))
              for h in trinomial_hs(f3)]
    pairs += [(family_poly(f5, "new_fh", f5.from_int(2)), l4_target(f5, u4_deltas(f5)[0], v))
              for v in ("trin", "trin2")]
    scans = [gl_equivalent(f, g).to_json() for f, g in pairs]
    assert [s["verdict"] for s in scans] == (["not_equivalent"] * 2 * len(targets)
                                             + ["equivalent"] * 6)
    assert [kernel_route(f, g) for f, g in pairs] == scans


def test_l4_q5_solvable_h_pinned(f5):
    """Over all 126 h at q = 5 only g^3906 and g^11718 (the h in F_5) are
    solvable, for both variants and at rho = 0, with these witnesses."""
    delta = u4_deltas(f5)[0]
    expect = {"trin": {"rho": 0, "a": "g^7812", "b": "g^0", "c": "g^11718", "d": "g^11718"},
              "trin2": {"rho": 0, "a": "g^0", "b": "g^0", "c": "g^11718", "d": "g^3906"}}
    hits = {}
    for h in enumerate_h(f5):
        for variant in ("trin", "trin2"):
            r = check_system_L4(h, delta, variant)
            if r["solvable"]:
                hits[(f5.format(h), variant)] = (r["rho"], r["k"], r["witness"].to_json())
    assert hits == {(f5.format(h), v): (0, h, expect[v])
                    for h in (f5.from_exp(3906), f5.from_exp(11718))
                    for v in ("trin", "trin2")}


def test_l4_hypothesis_guards(f3):
    with pytest.raises(HypothesisViolated):
        check_system_L4(f3.one(), u4_deltas(f3)[0], "trin")
    h = enumerate_h(f3)[0]
    with pytest.raises(HypothesisViolated):
        check_system_L4(h, f3.one(), "trin")
    with pytest.raises(InvalidParameter):
        check_system_L4(h, u4_deltas(f3)[0], "trin3")


def test_l4_consistency_with_general_search(f3):
    """The kernel route agrees with the Theta(q^12) search for every
    Frobenius-orbit representative of h, both deltas and both variants."""
    reps = frobenius_orbit_reps(f3)
    assert len(reps) == 6
    for h in reps:
        fh = family_poly(f3, "new_fh", h)
        for delta in u4_deltas(f3):
            for variant in ("trin", "trin2"):
                assert (check_system_L4(h, delta, variant)["solvable"]
                        == gl_equivalent(fh, l4_target(f3, delta, variant)).equivalent)


@pytest.mark.parametrize("q", [3, 7])
def test_pointwise_route_matches_scalar(q, monkeypatch):
    """The pointwise half of verify_witness on its own, against a scalar
    reference over the same points: every x at q = 3, the seeded sample at
    q = 7.  A corrupted c or d must fail it."""
    F = make_field(q, 1)
    rng = random.Random(q)
    f = family_poly(F, "new_fh", enumerate_h(F)[1])
    g = None
    while g is None:
        w = EquivWitness(rng.randrange(F.deg),
                         *(F.elem_at(rng.randrange(1, F.order)) for _ in range(4)))
        g = semilinear_image(f, w)
    assert equiv._maps_graph(f, g, w)
    monkeypatch.setattr(equiv, "_VERIFY_SAMPLE", 64)
    for bad in (EquivWitness(w.rho, w.a, w.b, w.c + F.one(), w.d),
                EquivWitness(w.rho, w.a, w.b, w.c, w.d * F.gen())):
        seed = random.Random(equiv._VERIFY_SEED)
        xs = (F.elements() if F.order <= equiv._FULL_VERIFY_LIMIT else
              [F.elem_at(seed.randrange(F.order)) for _ in range(64)])
        ref = all(g(u) == v for u, v in (apply_witness(bad, x, f(x)) for x in xs))
        assert not ref
        assert equiv._maps_graph(f, g, bad) is False
