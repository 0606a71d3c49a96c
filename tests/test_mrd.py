"""Rank-metric codes: rank routes, distributions, idealiser, equivalence."""

import random

import pytest

from scatlin import make_field, scatter
from scatlin.errors import BudgetExceeded, InternalInvariant, ZeroMap
from scatlin.family import enumerate_h, family_poly, u4_deltas
from scatlin.mrd import (CROSS_CHECKS, RankCode, code_from, codes_equivalent,
                         left_idealiser_field_check, min_distance, mrd_report,
                         rank_distribution)
from scatlin.qpoly import QPoly
from scatlin.scatter import is_scattered_oracle, point_weight


def elimination_distribution(C):
    """Reference: one Dickson elimination per orbit representative (0, 1) and
    (1, b) for every b; each nonzero orbit has q^6 - 1 codewords."""
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
    with pytest.raises(ZeroMap):
        code_from(QPoly.zero(f3))


def test_codeword_ranks(f3):
    C = code_from(family_poly(f3, "new_fh", enumerate_h(f3)[0]))
    assert C.codeword_rank(0, 0) == 0
    assert C.codeword_rank(0, 1) == 6
    assert C.codeword_rank(1, 0) == 6  # scattered f is bijective


def test_rank_route_agreement(f3):
    """Dickson-matrix ranks match the explicit F_q-matrix ranks (1000 words)."""
    rng = random.Random(55)
    C = code_from(family_poly(f3, "new_fh", enumerate_h(f3)[0]))
    for _ in range(1000):
        a = f3.elem_at(rng.randrange(730))
        b = f3.elem_at(rng.randrange(730))
        assert C.codeword_rank(a, b) == C.codeword_rank_explicit(a, b)


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
    assert min_distance(code_from(family_poly(f3, "pseudoregulus"))) == 5


def test_mrd_iff_scattered(f3):
    """All 28 family members (scattered) plus 20 random non-scattered polys."""
    rng = random.Random(56)
    polys = [(family_poly(f3, "new_fh", h), True) for h in enumerate_h(f3)]
    nonscattered = 0
    while nonscattered < 20:
        f = QPoly(f3, [f3.elem_at(rng.randrange(730)) for _ in range(6)])
        if f.is_zero() or is_scattered_oracle(f).scattered:
            continue
        polys.append((f, False))
        nonscattered += 1
    for f, sc in polys:
        assert (min_distance(code_from(f)) == 5) == sc


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
        f = QPoly(f3, [f3.elem_at(rng.randrange(730)) for _ in range(6)])
        if not f.is_zero() and not is_scattered_oracle(f).scattered:
            polys.append(f)
    for f in polys:
        C = code_from(f)
        assert rank_distribution(C).counts == elimination_distribution(C)


def test_distribution_poly_mode_agrees(f3):
    """Poly-mode buckets (packed-value keys) give the Zech-mode counts."""
    fy = make_field(3, 1, mode="poly")
    f = family_poly(f3, "case1")
    fp = QPoly(fy, [fy.elem_at(f3.enum_index(c)) for c in f.coeffs])
    assert (rank_distribution(code_from(fp)).counts
            == rank_distribution(code_from(f)).counts)


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


def test_distribution_repeatable_one_pass_per_call(f3, monkeypatch):
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
    monkeypatch.setattr(scatter, "_CHUNK", 1 << 7)
    assert rank_distribution(C).counts == first


def test_distribution_invariant_under_equivalence(f3):
    """The trinomial pair is equivalent, so the rank distributions agree."""
    h = next(h for h in enumerate_h(f3) if f3.in_subfield(h, 2))
    d1 = rank_distribution(code_from(family_poly(f3, "new_fh", h)))
    d2 = rank_distribution(code_from(family_poly(f3, "trinomial", h)))
    assert d1.counts == d2.counts


def test_codes_equivalent_delegates(f3):
    h = next(h for h in enumerate_h(f3) if not f3.in_subfield(h, 2))
    Cf = code_from(family_poly(f3, "new_fh", h))
    assert codes_equivalent(Cf, Cf).equivalent
    Cg = code_from(family_poly(f3, "pseudoregulus"))
    assert not codes_equivalent(Cf, Cg).equivalent


def test_codes_equivalent_power5_exception(f5):
    Cf = code_from(family_poly(f5, "new_fh", 2))
    Cu4 = code_from(family_poly(f5, "csajbok_mz", u4_deltas(f5)[0]))
    assert codes_equivalent(Cf, Cu4).equivalent


def test_left_idealiser(f3):
    C = code_from(family_poly(f3, "new_fh", enumerate_h(f3)[0]))
    assert left_idealiser_field_check(C, full=True)
