"""Rank-metric codes: rank routes, distributions, idealisers."""

import random

import pytest

from scatlin import scatter
from scatlin.equiv import EquivWitness
from scatlin.errors import BudgetExceeded, DegenerateInput, InternalInvariant
from scatlin.family import enumerate_h, family_poly, u4_deltas
from scatlin.linalg import nullspace, nullspace_mod_p
from scatlin.mrd import (CROSS_CHECKS, RankCode, code_from, idealisers, mrd_report,
                         rank_distribution)
from scatlin.qpoly import QPoly
from scatlin.scatter import is_scattered_oracle, point_weight

from conftest import dickson_rank, monomial, semilinear_image


def elimination_distribution(C):
    """Reference: one codeword_rank elimination per orbit representative
    (0, 1) and (1, b) for every b; each nonzero orbit has q^6 - 1 codewords."""
    ctx = C.ctx
    counts = {0: 1}
    for a, b in [(ctx.zero(), ctx.one())] + [(ctx.one(), b) for b in ctx.elements()]:
        r = C.codeword_rank(a, b)
        counts[r] = counts.get(r, 0) + ctx.N
    return counts


def closed_form(q):
    """The MRD distribution {0: 1, 5: (q^6-1)^2/(q-1), 6: rest}."""
    a5 = (q**6 - 1) ** 2 // (q - 1)
    return {0: 1, 5: a5, 6: q**12 - 1 - a5}


def test_code_construction_guards(f3):
    """f = f_0 x (f = 0 included) spans only F_{q^6} x, q^6 maps: degenerate.
    One nonzero f_i with i >= 1 is enough for a code of q^12 maps."""
    for coeffs in ([], ["g^0"], ["g^1"]):
        with pytest.raises(DegenerateInput):
            code_from(QPoly(f3, coeffs))
    for i in range(1, 6):
        C = code_from(monomial(f3, i, "g^2"))
        assert rank_distribution(C).size == 3**12


def test_codeword_ranks(f3):
    C = code_from(family_poly(f3, "new_fh", enumerate_h(f3)[0]))
    assert C.codeword_rank(0, 0) == 0
    assert C.codeword_rank(0, 1) == 6
    assert C.codeword_rank(1, 0) == 6  # scattered f is bijective


def test_mrd_for_scattered_family(f3):
    C = code_from(family_poly(f3, "new_fh", enumerate_h(f3)[0]))
    rep = mrd_report(C)
    assert rep["min_distance"] == 5
    assert rep["mrd"] and rep["singleton_equality"]
    assert rep["cardinality"] == 3**12
    dist = rep["distribution"]
    assert dist.counts[0] == 1
    assert dist.size == 3**12
    # weight-1 points of the spectrum pin the rank-5 count: 364 orbits
    assert dist.counts[5] == 364 * (3**6 - 1)


def test_non_scattered_drops_distance(f3):
    rep = mrd_report(code_from(family_poly(f3, "case1")))
    assert rep["min_distance"] <= 4 and not rep["mrd"]


def test_gabidulin_like_code(f3):
    assert rank_distribution(code_from(family_poly(f3, "pseudoregulus"))).min_distance() == 5


def test_mrd_iff_scattered(f3):
    """All 28 family members (scattered) plus 20 random non-scattered polys."""
    rng = random.Random(56)
    polys = [(family_poly(f3, "new_fh", h), True) for h in enumerate_h(f3)]
    nonscattered = 0
    while nonscattered < 20:
        f = QPoly(f3, [f3.elem_at(rng.randrange(f3.order)) for _ in range(6)])
        if f.is_zero() or is_scattered_oracle(f).scattered:
            continue
        polys.append((f, False))
        nonscattered += 1
    for f, sc in polys:
        assert (rank_distribution(code_from(f)).min_distance() == 5) == sc


def test_distribution_budget(f5):
    C = code_from(family_poly(f5, "case1"))
    with pytest.raises(BudgetExceeded):
        rank_distribution(C, budget=3)


def test_distribution_matches_elimination_reference(f3):
    """The bucket route equals the per-b elimination loop it replaced."""
    rng = random.Random(57)
    polys = [family_poly(f3, "new_fh", h) for h in enumerate_h(f3)[:3]]
    polys += [family_poly(f3, "case1"), family_poly(f3, "pseudoregulus"),
              family_poly(f3, "trinomial", next(h for h in enumerate_h(f3)
                                                if f3.in_subfield(h, 2)))]
    while len(polys) < 7:
        f = QPoly(f3, [f3.elem_at(rng.randrange(f3.order)) for _ in range(6)])
        if not f.is_zero() and not is_scattered_oracle(f).scattered:
            polys.append(f)
    for f in polys:
        C = code_from(f)
        assert rank_distribution(C).counts == elimination_distribution(C)


@pytest.mark.parametrize("fixture", ["f5", "f7"])
def test_distribution_closed_form_default_budget(fixture, request):
    F = request.getfixturevalue(fixture)
    C = code_from(family_poly(F, "new_fh", enumerate_h(F)[1]))
    dist = rank_distribution(C)
    assert dist.counts == closed_form(F.q)
    assert dist.min_distance() == 5 and dist.size == F.q**12


def test_distribution_cross_check_sample(f3, monkeypatch):
    """CROSS_CHECKS eliminations: (0, 1), then points covering every weight
    class of case1 (0, 1 and 3)."""
    calls = []
    real = RankCode.codeword_rank
    monkeypatch.setattr(RankCode, "codeword_rank",
                        lambda C, a, b: calls.append((a, b)) or real(C, a, b))
    f = family_poly(f3, "case1")
    rank_distribution(code_from(f))
    assert len(calls) == CROSS_CHECKS
    assert calls[0] == (0, 1)
    assert {point_weight(f, -b) for _, b in calls[1:]} == {0, 1, 3}


def test_distribution_cross_check_catches_relabelled_class(f3, monkeypatch):
    """Moving the weight-3 class of case1 onto weight-1 points keeps the
    spectrum and its mass; only the elimination cross-check sees it."""
    C = code_from(family_poly(f3, "case1"))
    real = scatter._buckets

    def relabelled(f, *args):
        witnesses, keys, cosets = real(f, *args)
        cosets = cosets.copy()
        i, j = (cosets == 13).nonzero()[0], (cosets == 1).nonzero()[0][:2]
        cosets[i], cosets[j] = 1, 13
        return witnesses, keys, cosets
    monkeypatch.setattr(scatter, "_buckets", relabelled)
    with pytest.raises(InternalInvariant, match="elimination"):
        rank_distribution(C)


def test_distribution_mass_check(f3, monkeypatch):
    C = code_from(family_poly(f3, "case1"))
    real = scatter._buckets

    def heavier(f, *args):
        witnesses, keys, cosets = real(f, *args)
        cosets = cosets.copy()
        cosets[(cosets == 1).nonzero()[0][0]] = 4  # one weight-1 point -> 2
        return witnesses, keys, cosets
    monkeypatch.setattr(scatter, "_buckets", heavier)
    with pytest.raises(InternalInvariant, match="mass"):
        rank_distribution(C)


def test_distribution_repeatable_one_pass_per_call(f3, monkeypatch, with_chunk):
    """Each call buckets once (nothing is cached) and returns the same
    counts; the slice size does not change them."""
    C = code_from(family_poly(f3, "case1"))
    calls = []
    real = scatter._coset_counts
    monkeypatch.setattr(scatter, "_coset_counts",
                        lambda f: calls.append(f) or real(f))
    first = rank_distribution(C).counts
    assert rank_distribution(C).counts == first
    assert len(calls) == 2
    with_chunk(f3, 1 << 7)
    assert rank_distribution(C).counts == first


def test_distribution_invariant_under_equivalence(f3):
    """The trinomial pair is equivalent, so the rank distributions agree."""
    h = next(h for h in enumerate_h(f3) if f3.in_subfield(h, 2))
    d1 = rank_distribution(code_from(family_poly(f3, "new_fh", h)))
    d2 = rank_distribution(code_from(family_poly(f3, "trinomial", h)))
    assert d1.counts == d2.counts


def mp_delta(F):
    """The first g^e with x^q + g^e x^(q^4) scattered (csajbok_mp)."""
    return {3: "g^5", 5: "g^1", 7: "g^2"}[F.q]


def known_members(F):
    """One member of each of the five families, f_h last, with its pinned
    (dim L, dim R) over F_q."""
    return [(family_poly(F, "pseudoregulus"), (6, 6)),
            (family_poly(F, "lp", "g^1"), (6, 2)),
            (family_poly(F, "csajbok_mp", mp_delta(F)), (6, 3)),
            (family_poly(F, "csajbok_mz", u4_deltas(F)[0]), (6, 2)),
            (family_poly(F, "new_fh", enumerate_h(F)[0]), (6, 2))]


def dims(f):
    return tuple(map(len, idealisers(code_from(f))))


def in_code(C, w):
    """Whether w is the codeword c f + d id whose (c, d) is read off w's
    coefficients, built through RankCode.codeword."""
    f = C.f.coeffs
    i = next(i for i in range(1, 6) if not f[i].is_zero())
    c = w.coeffs[i] / f[i]
    return C.codeword(c, w.coeffs[0] - c * f[0]) == w


def pair_digits(F, a, b) -> list:
    """The base-p digits of a, then of b (Field.packed), as one F_p-vector."""
    return [F.packed(F.element(x)) // F.p ** i % F.p for x in (a, b) for i in range(F.deg)]


def fp_rank(rows, p) -> int:
    return len(rows[0]) - len(nullspace_mod_p(rows, p))


def fp_span(F, pairs, scalars=(1,)):
    """The canonical F_p-basis of the span of the pairs times the scalars:
    the nullspace of the nullspace."""
    rows = [pair_digits(F, F.element(c) * a, F.element(c) * b)
            for a, b in pairs for c in scalars]
    if not rows:
        return []
    return nullspace_mod_p(nullspace_mod_p(rows, F.p), F.p).tolist()


def reference_idealisers(C):
    """The scalar route the W_0 kernel replaced: F_q-bases, as (a, b) pairs
    of a f + b id in the basis 1, g, ..., g^5, each one nullspace over the
    12 F_q-coordinates of (a, b).  w = c f + d id iff w_j f_i = w_i f_j for
    the four j outside {0, i} (i the first slot >= 1 with f_i != 0), read in
    the trace coordinates Tr(y g^l): 24 rows per image.  psi is in R iff
    f o psi is in C (24 rows); phi is in L iff phi o w is, for the 12
    F_q-basis codewords w (288 rows)."""
    ctx, f = C.ctx, C.f.coeffs
    basis = [ctx.from_exp(j) for j in range(6)]
    zero = ctx.zero()
    i = C.f.first_q_term()
    words = [C.codeword(x, zero) for x in basis] + [C.codeword(zero, x) for x in basis]

    def coordinates(y):
        return [ctx.trace(y * x, 1) for x in basis]

    def membership_rows(w):
        return [x for j in range(1, 6) if j != i
                for x in coordinates(w.coeffs[j] * f[i] - w.coeffs[i] * f[j])]

    def element(v):
        return sum((c * x for c, x in zip(v, basis)), start=zero)

    def kernel(images):
        cols = [[x for w in images(psi) for x in membership_rows(w)] for psi in words]
        return [(element(v[:6]), element(v[6:]))
                for v in nullspace(ctx, list(zip(*cols)), 12)]

    return (kernel(lambda phi: [phi.compose(w) for w in words]),
            kernel(lambda psi: [C.f.compose(psi)]))


def reference_members(F):
    """The pinned members (case1 and x^(q^3) included) at odd q, and the
    families that exist at q = 4."""
    x_q3 = monomial(F, 3)
    if F.p != 2:
        return [f for f, _ in known_members(F)] + [family_poly(F, "case1"), x_q3]
    return [family_poly(F, "pseudoregulus"), family_poly(F, "lp", "g^1"),
            family_poly(F, "csajbok_mp", "g^1"), family_poly(F, "case1"),
            *(family_poly(F, "new_fh", h) for h in enumerate_h(F)[:2]), x_q3]


@pytest.mark.parametrize("fixture", ["f3", "f4", "f5", "f7"])
def test_idealisers_match_reference(fixture, request):
    """The W_0 kernel and the scalar reference give the same idealisers:
    the same F_q-spans (the reference's F_q-bases times an F_p-basis of
    F_q, against the kernel's F_p-bases), so the F_q-dimension is the
    kernel basis length over s; x^(q^3) is the case L = R = C."""
    F = request.getfixturevalue(fixture)
    fq_basis = [F.from_exp(F.N // (F.q - 1) * j) for j in range(F.s)]  # powers of a generator of F_q
    for f in reference_members(F):
        C = code_from(f)
        got, ref = idealisers(C), reference_idealisers(C)
        for new, old in zip(got, ref):
            assert len(new) == F.s * len(old), f.tag
            assert fp_span(F, new) == fp_span(F, old, fq_basis), f.tag
        assert mrd_report(C)["idealisers"] == {"left": len(ref[0]), "right": len(ref[1])}


@pytest.mark.parametrize("fixture", ["f3", "f4", "f5", "f7", "f9"])
def test_explicit_rank_matches_dickson(fixture, request):
    """codeword_rank, the F_p-rank of the explicit digit matrix over s,
    equals the Dickson-matrix rank over F_{q^6} (dickson_rank): on 1000
    random codewords of f_h at q = 3 and 20 elsewhere, and (q odd) on
    case1's bucket sample, which covers every weight class."""
    F = request.getfixturevalue(fixture)
    rng = random.Random(55 if F.q == 3 else 60 + F.q)
    C = code_from(family_poly(F, "new_fh", enumerate_h(F)[0 if F.q == 3 else 1]))
    for _ in range(1000 if F.q == 3 else 20):
        a, b = (F.elem_at(rng.randrange(F.order)) for _ in range(2))
        assert C.codeword_rank(a, b) == dickson_rank(C.codeword(a, b))
    if F.p != 2:
        C = code_from(family_poly(F, "case1"))
        for m, w in scatter._bucket_sample(F, *scatter._buckets(C.f)[1:], 8):
            assert C.codeword_rank(1, -m) == dickson_rank(C.codeword(1, -m)) == 6 - w


@pytest.mark.parametrize("fixture", ["f3", "f5", "f7"])
def test_idealiser_dimensions_pinned(fixture, request):
    F = request.getfixturevalue(fixture)
    for f, expected in known_members(F) + [(family_poly(F, "case1"), (6, 2))]:
        assert dims(f) == expected, f.tag


def test_idealiser_dimensions_every_fh_q3(f3):
    assert [dims(family_poly(f3, "new_fh", h)) for h in enumerate_h(f3)] == [(6, 2)] * 28


def test_idealisers_agree_on_equivalent_pairs(f3, f5):
    """The four trinomial pairs at q = 3 and the L4 pair at q = 5."""
    pairs = [(family_poly(f3, "new_fh", h), family_poly(f3, "trinomial", h))
             for h in enumerate_h(f3) if f3.in_subfield(h, 2)]
    pairs.append((family_poly(f5, "new_fh", 2), family_poly(f5, "csajbok_mz", u4_deltas(f5)[0])))
    assert len(pairs) == 5
    for f, g in pairs:
        assert dims(f) == dims(g) == (6, 2)


@pytest.mark.parametrize("fixture", ["f3", "f5"])
def test_idealisers_invariant_under_semilinear_images(fixture, request):
    """C_g is equivalent to C_f when U_g is a semilinear image of U_f, and so
    are the adjoint codes, so the dimensions agree."""
    F = request.getfixturevalue(fixture)
    rng = random.Random(F.q)
    for f, expected in known_members(F):
        g = None
        while g is None:
            g = semilinear_image(f, EquivWitness(rng.randrange(F.deg), *(
                F.elem_at(rng.randrange(1, F.order)) for _ in range(4))))
        assert dims(g) == expected, f.tag
        assert dims(g.adjoint()) == dims(f.adjoint()), f.tag


def test_idealiser_bases_checked_directly(f3):
    """Every right basis element psi has f o psi in C, every left one phi has
    phi o w in C for the 12 F_q-basis codewords w, both found through
    RankCode.codeword; F_q id lies in R; and pairs outside the span of R
    fail (dimension is exact on that side too).  Spans are taken over the
    base-p digits of a and b (F_p = F_q at q = 3)."""
    rng = random.Random(58)
    basis = [f3.from_exp(j) for j in range(6)]
    for f, _ in known_members(f3):
        C = code_from(f)
        left, right = idealisers(C)
        words = [C.codeword(x, 0) for x in basis] + [C.codeword(0, x) for x in basis]
        for a, b in right:
            assert in_code(C, f.compose(C.codeword(a, b)))
        for a, b in left:
            phi = C.codeword(a, b)
            assert all(in_code(C, phi.compose(w)) for w in words)
        span = [pair_digits(f3, a, b) for a, b in right]
        assert fp_rank(span + [pair_digits(f3, 0, 1)], 3) == len(right)
        outside = 0
        while outside < 8:
            a, b = (f3.elem_at(rng.randrange(f3.order)) for _ in range(2))
            if fp_rank(span + [pair_digits(f3, a, b)], 3) > len(right):
                assert not in_code(C, f.compose(C.codeword(a, b)))
                outside += 1


def test_left_idealiser(f3, f5):
    """The left idealiser is exactly F_{q^6} id: six F_q-independent pairs,
    all with a = 0, span the 6-dimensional {(0, b)}.  At q = 3 for f_h, at
    q = 5 for case1, where the old scalar check only sampled."""
    for f in (family_poly(f3, "new_fh", enumerate_h(f3)[0]), family_poly(f5, "case1")):
        left, _ = idealisers(code_from(f))
        assert len(left) == 6 and all(a.is_zero() for a, _ in left)
