"""Exhaustive semilinear equivalence: witnesses, budgets, and the reduced
csajbok_mz systems."""

import json
import random
import signal

import numpy as np
import pytest

from scatlin.equiv import (EquivResult, EquivWitness, apply_witness,
                           check_system_L4, gl_equivalent, l4_target,
                           _l4_coefficients, pgl_linear_sets_equivalent,
                           verify_witness)
from scatlin.errors import DegenerateInput, HypothesisViolated, InvalidParameter
from scatlin.family import enumerate_h, family_poly, u4_deltas
from scatlin.linalg import mat_inv
from scatlin.qpoly import QPoly


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


def test_budget_and_resume(f3):
    fh = family_poly(f3, "new_fh", general_hs(f3)[0])
    ps = family_poly(f3, "pseudoregulus")
    first = gl_equivalent(fh, ps, budget=1_000_000)
    assert first.status == "budget_exceeded"
    assert first.checkpoint["tried"] == 1_000_000
    second = gl_equivalent(fh, ps, resume=first.checkpoint)
    assert second.status == "not_equivalent"
    assert second.searched == f3.deg * f3.order**2


def test_chunk_determinism(f3):
    """The chunk size sets the block layout (many rows, one row, a row and a
    part, a slice of one row) but not the witness, searched or a budget
    checkpoint, nor what a resumed run finds.  Two resumes start mid-row
    past the first witness (flat 1094): one just after it, one late in the
    row before the next witness's row; a block must neither rescan the flats
    before its start nor skip the columns of its later rows."""
    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", h)
    tri = family_poly(f3, "trinomial", h)
    runs = []
    for chunk in (1 << 18, 729, 1000, 37):
        whole = gl_equivalent(fh, tri, chunk=chunk)
        part = gl_equivalent(fh, tri, budget=1000, chunk=chunk)
        assert part.status == "budget_exceeded" and part.checkpoint["tried"] == 1000
        rest = gl_equivalent(fh, tri, resume=part.checkpoint, chunk=chunk)
        assert rest.to_json() == whole.to_json()
        later = [gl_equivalent(fh, tri, chunk=chunk,
                               resume=dict(part.checkpoint, flat=flat, tried=flat))
                 for flat in (whole.searched, 91 * 729 + 700)]
        assert later[0].to_json() == later[1].to_json()
        runs.append((whole.to_json(), part.to_json(), later[0].to_json()))
    assert all(r == runs[0] for r in runs)
    assert runs[0][0]["searched"] == 1095 and runs[0][2]["searched"] == 92 * 729 + 457


def test_chunk_below_one_raises(f3):
    """A chunk below 1 never advanced the scan; it is rejected before any
    work.  The alarm turns a hang into a failure."""
    f = family_poly(f3, "pseudoregulus")

    def hung(*_):
        raise TimeoutError("gl_equivalent did not return")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        for chunk in (0, -5):
            with pytest.raises(InvalidParameter):
                gl_equivalent(f, f, chunk=chunk)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_checkpoint_bound_to_inputs(f3, f5):
    """A checkpoint names its field and hashes f and g; resuming it without
    that binding, against other inputs or at an impossible position raises."""
    fh = family_poly(f3, "new_fh", general_hs(f3)[0])
    ps = family_poly(f3, "pseudoregulus")
    ck = gl_equivalent(fh, ps, budget=1000).checkpoint
    assert ck["field"] == [3, 1] and len(ck["inputs_sha256"]) == 64
    again = gl_equivalent(fh, ps, budget=2000, resume=json.loads(json.dumps(ck)))
    assert again.checkpoint["tried"] == 2000
    foreign = [(fh, family_poly(f3, "new_fh", general_hs(f3)[1]), ck),
               (ps, fh, ck),
               (fh, ps, {k: ck[k] for k in ("rho", "flat", "tried")}),
               (fh, ps, dict(ck, rho=f3.deg)),
               (fh, ps, dict(ck, flat="1000")),
               (family_poly(f5, "pseudoregulus"), family_poly(f5, "pseudoregulus"), ck)]
    for f, g, resume in foreign:
        with pytest.raises(InvalidParameter):
            gl_equivalent(f, g, resume=resume)


def compose_inverse(P):
    """The inverse of an invertible q-polynomial: solve Q o P = id, which is
    linear in Q's six coefficients."""
    ctx = P.ctx
    M = [[ctx.frobenius(P.coeffs[(t - k) % 6], k) for k in range(6)]
         for t in range(6)]
    Minv = mat_inv(ctx, M)
    return QPoly(ctx, [Minv[k][0] for k in range(6)])


def semilinear_image(f, w):
    """The g with U_g the image of U_f under the witness map w, or None when
    w is singular or a id + b f^rho is not invertible."""
    ctx = f.ctx
    if w.determinant().is_zero():
        return None
    frho = f.automorphism_image(w.rho)
    P = QPoly.identity(ctx).scale(w.a) + frho.scale(w.b)
    if P.kernel_dim() != 0:
        return None
    Q = QPoly.identity(ctx).scale(w.c) + frho.scale(w.d)
    return Q.compose(compose_inverse(P))


def test_search_finds_random_semilinear_images(f3):
    """Positive control for completeness: scramble U_f by a random semilinear
    map and demand the exhaustive scan rediscover the equivalence."""
    rng = random.Random(99)
    f = family_poly(f3, "new_fh", enumerate_h(f3)[5])
    found = 0
    while found < 4:
        rho = rng.randrange(f3.deg)
        a, b, c, d = (f3.elem_at(rng.randrange(730)) for _ in range(4))
        g = semilinear_image(f, EquivWitness(rho, a, b, c, d))
        if g is None:
            continue
        res = gl_equivalent(f, g)
        assert res.equivalent, (rho, a, b, c, d)
        assert verify_witness(f, g, res.witness)
        found += 1


def reference_scan(f, g, budget=None, chunk=1 << 16):
    """Reference: the un-reduced scan.  Every flat a_idx * E + b_idx of every
    rho is evaluated in order, with all twelve bases recomputed per element
    and (c, d) solved from slot tp = the first nonzero slot t >= 1 of f^rho."""
    ctx = f.ctx
    N, E = ctx.N, ctx.order
    gt = [ctx.exp_of(cf) for cf in g.coeffs]
    tried = 0
    for rho in range(ctx.deg):
        frho = f.automorphism_image(rho)
        fr = [ctx.exp_of(cf) for cf in frho.coeffs]
        tp = next(t for t in range(1, 6) if fr[t] != N)
        ck = [[ctx.exp_of(g.coeffs[k] * ctx.frobenius(frho.coeffs[(t - k) % 6], k))
               for k in range(6)] for t in range(6)]

        def lhs(t, scale=0):  # g^scale times slot t of g o (a id + b f^rho)
            terms = [(gt[t], (t,))] + [(ck[t][k], (6 + k,)) for k in range(6)]
            return [((e + scale) % N, idx) for e, idx in terms if e != N]

        def minus(c, idx):
            return [] if c == N else [((c + ctx._half) % N, idx)]

        flat = 0
        while flat < E * E:
            size = min(chunk, E * E - flat)
            if budget is not None:
                if tried >= budget:
                    return EquivResult("budget_exceeded", searched=tried,
                                       checkpoint={"rho": rho, "flat": flat,
                                                   "tried": tried})
                size = min(size, budget - tried)
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
    witness and searched: on the trinomial pair, on rho = 0 of an exhausted
    pair (budget q^12), on random semilinear images of f_h, one with a = 0,
    and on images of a random f planted at the non-representatives
    a = g^(2R-1) and (0, g^(2R-1)), whose witnesses sit on the last
    representative, g^(R-1), of the a rows and of the a = 0 row."""
    R = f3.N // (f3.q - 1)
    rng = random.Random(3)

    def image(f, rho, a=None, b=None):
        g = None
        while g is None:
            ra, rb, c, d = (f3.elem_at(rng.randrange(1, 730)) for _ in range(4))
            g = semilinear_image(f, EquivWitness(rho, ra if a is None else a,
                                                 rb if b is None else b, c, d))
        return g

    h = trinomial_hs(f3)[0]
    fh = family_poly(f3, "new_fh", general_hs(f3)[0])
    rand_f = QPoly(f3, [f3.zero()] + [f3.elem_at(rng.randrange(1, 730)) for _ in range(5)])
    last = f3.from_exp(2 * R - 1)
    cases = [(family_poly(f3, "new_fh", h), family_poly(f3, "trinomial", h), None),
             (fh, family_poly(f3, "pseudoregulus"), f3.order ** 2),
             (fh, image(fh, rng.randrange(f3.deg), a=f3.zero()), None),
             (fh, image(fh, rng.randrange(f3.deg)), None),
             (fh, image(fh, rng.randrange(f3.deg)), None),
             (rand_f, image(rand_f, 0, a=last), None),
             (rand_f, image(rand_f, 0, a=f3.zero(), b=last), None)]
    found = []
    for f, g, budget in cases:
        ref = reference_scan(f, g, budget)
        res = gl_equivalent(f, g, budget)
        assert (res.status, res.searched) == (ref.status, ref.searched)
        if ref.checkpoint is not None:
            assert {k: res.checkpoint[k] for k in ref.checkpoint} == ref.checkpoint
        if ref.witness is not None:
            w = res.witness
            assert w.to_json() == ref.witness.to_json()
            found.append((w.a.is_zero(), f3.exp_of(w.b if w.a.is_zero() else w.a)))
    assert all(e < R for _, e in found)
    assert found[1][0] and found[-2:] == [(False, R - 1), (True, R - 1)]


def test_verify_witness_checks_exact_identity(f7):
    """At q = 7 the pointwise route only samples, so the 6-coefficient
    identity must catch a wrong c on its own."""
    rng = random.Random(7)
    f = family_poly(f7, "new_fh", enumerate_h(f7)[0])
    g = None
    while g is None:
        w = EquivWitness(rng.randrange(f7.deg),
                         *(f7.elem_at(rng.randrange(1, f7.order)) for _ in range(4)))
        g = semilinear_image(f, w)
    assert verify_witness(f, g, w) and verify_witness(f, g, w, sample=0)
    bad = EquivWitness(w.rho, w.a, w.b, w.c + f7.one(), w.d)
    if bad.determinant().is_zero():
        bad.c = w.c - f7.one()
    assert not bad.determinant().is_zero()
    assert not verify_witness(f, g, bad)
    assert not verify_witness(f, g, bad, sample=0)


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


def test_l4_b_zero_forces_zero_matrix(f3):
    h = trinomial_hs(f3)[0]
    delta = u4_deltas(f3)[0]
    for variant in ("trin", "trin2"):
        _, back = _l4_coefficients(f3, h, delta, variant)
        a, c, d = back(f3.zero())
        assert a.is_zero() and c.is_zero() and d.is_zero()


def test_l4_hypothesis_guards(f3):
    with pytest.raises(HypothesisViolated):
        check_system_L4(f3.one(), u4_deltas(f3)[0], "trin")
    h = enumerate_h(f3)[0]
    with pytest.raises(HypothesisViolated):
        check_system_L4(h, f3.one(), "trin")


def test_l4_consistency_with_general_search(f3):
    """The reduced Theta(q^6) systems agree with the Theta(q^12) search."""
    delta = u4_deltas(f3)[0]
    u4 = family_poly(f3, "csajbok_mz", delta)
    adj_target = l4_target(f3, delta, "trin2")
    for h in [trinomial_hs(f3)[0], general_hs(f3)[0]]:
        fh = family_poly(f3, "new_fh", h)
        assert (check_system_L4(h, delta, "trin")["solvable"]
                == gl_equivalent(fh, u4).equivalent)
        assert (check_system_L4(h, delta, "trin2")["solvable"]
                == gl_equivalent(fh, adj_target).equivalent)
