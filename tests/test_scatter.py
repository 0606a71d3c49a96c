"""The two scatteredness deciders, their witnesses, and the spectra."""

import itertools
import random

import numpy as np
import pytest

from scatlin import FieldElem, QPoly, make_field, scatter
from scatlin.errors import TooLarge
from scatlin.family import enumerate_h, family_poly
from scatlin.scatter import (dickson_dets_at, dickson_witness_point,
                             is_scattered_dickson, is_scattered_oracle,
                             is_scattered, point_weight, weight_spectrum)

# exhaustive case1 answers: q -> (spectrum, oracle witnesses = Dickson witnesses)
CASE1 = {
    3: ({1: 338, 3: 2}, ["g^182", "g^546"]),
    5: ({1: 3906}, []),
    7: ({1: 19494, 3: 2}, ["g^9804", "g^68628"]),
}


def rand_poly(F, rng):
    return QPoly(F, [F.elem_at(rng.randrange(F.order + 1)) for _ in range(6)])


def test_pseudoregulus_spectrum(f3):
    f = family_poly(f3, "pseudoregulus")
    sp = weight_spectrum(f)
    assert sp.counts == {1: 364}
    assert sp.mass_ok() and sp.scattered and sp.infinity_weight == 0
    assert is_scattered_oracle(f).scattered
    assert is_scattered_dickson(f).scattered


def test_case1_q5_scattered(f5):
    f = family_poly(f5, "case1")
    vo = is_scattered_oracle(f)
    assert vo.scattered and vo.spectrum.counts == {1: 3906}
    assert is_scattered_dickson(f).scattered


def test_case1_q3_not_scattered(f3):
    f = family_poly(f3, "case1")
    vo = is_scattered_oracle(f, exhaustive=True)
    vd = is_scattered_dickson(f, exhaustive=True)
    assert not vo.scattered and not vd.scattered
    minus4 = f3.from_int(-4)
    assert len(vd.witnesses) == 2
    for w in vd.witnesses:
        assert w * w == minus4
        assert f3.in_subfield(w, 2) and not f3.in_subfield(w, 1)
        d6, d5 = dickson_dets_at(f, w)
        assert d6.is_zero() and d5.is_zero()
        assert point_weight(f, dickson_witness_point(f, w)) >= 2
    for w in vo.witnesses:
        assert point_weight(f, w) >= 2


def test_witness_is_smallest_in_enumeration_order(f3):
    f = family_poly(f3, "case1")
    vd = is_scattered_dickson(f, exhaustive=True)
    idx = [f3.enum_index(w) for w in vd.witnesses]
    assert idx == sorted(idx)
    assert is_scattered_dickson(f).witness == vd.witnesses[0]
    vo = is_scattered_oracle(f, exhaustive=True)
    assert is_scattered_oracle(f).witness == vo.witnesses[0]


def test_decider_agreement_random(f3):
    rng = random.Random(42)
    for _ in range(50):
        f = rand_poly(f3, rng)
        a = is_scattered_oracle(f, exhaustive=True)
        b = is_scattered_dickson(f, exhaustive=True)
        assert a.scattered == b.scattered
        if not a.scattered:
            # witness sets correspond under m -> a_0 - m
            oracle_pts = sorted(f3.enum_index(w) for w in a.witnesses)
            mapped = sorted(f3.enum_index(f.coeffs[0] - w) for w in b.witnesses)
            assert oracle_pts == mapped
            assert point_weight(f, a.witnesses[0]) >= 2


def test_spectrum_mass_conservation(f3):
    rng = random.Random(43)
    for _ in range(30):
        sp = weight_spectrum(rand_poly(f3, rng))
        assert sp.mass_ok()


def test_adjoint_spectrum_equality(f3):
    rng = random.Random(44)
    for _ in range(20):
        f = rand_poly(f3, rng)
        assert weight_spectrum(f).counts == weight_spectrum(f.adjoint()).counts


def test_degenerate_polys(f3):
    zero = QPoly.zero(f3)
    sp = weight_spectrum(zero)
    assert sp.counts == {6: 1}
    assert not is_scattered_oracle(zero).scattered
    assert not is_scattered_dickson(zero).scattered
    scalar = QPoly(f3, [f3.gen()])
    a = is_scattered_oracle(scalar, exhaustive=True)
    b = is_scattered_dickson(scalar, exhaustive=True)
    assert not a.scattered and not b.scattered
    assert a.witnesses == [f3.gen()]  # the single weight-6 point sits at m = g


def test_poly_mode_fallback_agrees(f3):
    fy = make_field(3, 1, mode="poly")
    rng = random.Random(45)
    for _ in range(3):
        coeff_idx = [rng.randrange(730) for _ in range(6)]
        fz = QPoly(f3, [f3.elem_at(i) for i in coeff_idx])
        fp = QPoly(fy, [fy.elem_at(i) for i in coeff_idx])
        assert weight_spectrum(fz).counts == weight_spectrum(fp).counts
        assert is_scattered_oracle(fz).scattered == is_scattered_oracle(fp).scattered
        assert is_scattered_dickson(fz).scattered == is_scattered_dickson(fp).scattered


def test_scan_budget_guard(f3):
    f = family_poly(f3, "case1")
    with pytest.raises(TooLarge):
        weight_spectrum(f, scan_limit=100)
    with pytest.raises(TooLarge):
        is_scattered_dickson(f, scan_limit=100)


def test_is_scattered_both(f3):
    res = is_scattered(family_poly(f3, "pseudoregulus"), method="both")
    assert res["oracle"].scattered and res["dickson"].scattered


def test_oracle_buckets_once(monkeypatch):
    calls = []
    real = scatter._coset_counts
    monkeypatch.setattr(scatter, "_coset_counts",
                        lambda f: calls.append(f) or real(f))
    for q, (spectrum, witnesses) in CASE1.items():
        F = make_field(q, 1)
        f = family_poly(F, "case1")
        calls.clear()
        v = is_scattered_oracle(f, exhaustive=True)
        assert len(calls) == 1
        assert v.scattered == (not witnesses)
        assert v.spectrum.counts == spectrum
        assert [F.format(w) for w in v.witnesses] == witnesses
        assert weight_spectrum(f).counts == spectrum


def test_poly_mode_oracle_enumerates_once(f3, monkeypatch):
    fy = make_field(3, 1, mode="poly")
    coeffs = [f3.from_int(-1), 0, 1]  # x^(q^2) - x: zero is a witness
    vz = is_scattered_oracle(QPoly(f3, coeffs), exhaustive=True)
    fp = QPoly(fy, [fy.elem_at(f3.enum_index(f3.element(c))) for c in coeffs])
    calls = []
    real = type(fy).elements
    monkeypatch.setattr(type(fy), "elements",
                        lambda self: calls.append(self) or real(self))
    vy = is_scattered_oracle(fp, exhaustive=True)
    assert len(calls) == 1
    assert vy.spectrum.counts == vz.spectrum.counts == {2: 91}
    assert vz.witnesses[0].is_zero()
    assert [fy.packed(w) for w in vy.witnesses] == [f3.packed(w) for w in vz.witnesses]


@pytest.mark.parametrize("q", [5, 13])
def test_dickson_expansion_matches_elimination(q):
    F = make_field(q, 1)
    rng = random.Random(q)
    f = rand_poly(F, rng)
    # 200 seeded m: zero, points where det M(m) vanishes, and random ones
    ms = [F.zero()]
    for _ in range(20):
        x = F.elem_at(rng.randrange(1, F.order))
        ms.append(f.coeffs[0] - f(x) / x)
    ms += [F.elem_at(rng.randrange(1, F.order)) for _ in range(200 - len(ms))]
    e = np.array([F.exp_of(m) for m in ms], dtype=np.int64)
    ref = [dickson_dets_at(f, m) for m in ms]
    for drop in (0, 1):
        vals = scatter._eval_expansion(F, scatter._expansion_terms(f, drop), e)
        assert vals.tolist() == [F.exp_of(r[drop]) for r in ref]
    assert all(r[0].is_zero() for r in ref[1:21])


def leibniz_reference_terms(f, drop):
    """The criterion expansion as it was computed before the principal-minor
    route, kept here as an independent reference: the truncated Dickson
    matrix with the int t marking the slot of m^(q^t), expanded over all
    permutations with their inversion signs."""
    F = f.ctx
    n = 6 - drop
    entries = [[i if j + drop == i else F.frobenius(f.coeffs[(j + drop - i) % 6], i)
                for j in range(n)] for i in range(n)]
    terms = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        coeff = F.one() if inv % 2 == 0 else -F.one()
        key = []
        for i in range(n):
            e = entries[i][perm[i]]
            if isinstance(e, int):
                key.append(e)
            else:
                coeff = coeff * e
        key = frozenset(key)
        terms[key] = terms.get(key, F.zero()) + coeff
    return sorted((F.exp_of(c), tuple(sorted(k)))
                  for k, c in terms.items() if not c.is_zero())


@pytest.mark.parametrize("q", [3, 5, 7])
def test_expansion_matches_leibniz_reference(q):
    """Principal minors of M(0) give the same terms as the Leibniz expansion:
    every h at q = 3 and 20 seeded h at q = 5 and 7, case1, the
    pseudoregulus, and 30 seeded random polynomials, half of them sparse."""
    F = make_field(q, 1)
    rng = random.Random(100 + q)
    hs = enumerate_h(F)
    if q > 3:
        hs = rng.sample(hs, 20)
    polys = [family_poly(F, "new_fh", h) for h in hs]
    polys += [family_poly(F, "case1"), family_poly(F, "pseudoregulus")]
    polys += [rand_poly(F, rng) for _ in range(15)]
    polys += [QPoly(F, [F.elem_at(rng.randrange(F.order)) if rng.random() < 0.5
                        else F.zero() for _ in range(6)]) for _ in range(15)]
    for f in polys:
        for drop in (0, 1):
            assert sorted(scatter._expansion_terms(f, drop)) == \
                leibniz_reference_terms(f, drop), (f, drop)


@pytest.mark.parametrize("q", [3, 7])
def test_exhaustive_witnesses_independent_of_chunk(q, monkeypatch):
    F = make_field(q, 1)
    f = family_poly(F, "case1")
    runs = []
    for chunk in (scatter._CHUNK, 1 << 9):
        monkeypatch.setattr(scatter, "_CHUNK", chunk)
        vo = is_scattered_oracle(f, exhaustive=True)
        vd = is_scattered_dickson(f, exhaustive=True)
        runs.append(([F.format(w) for w in vo.witnesses],
                      [F.format(w) for w in vd.witnesses], vo.spectrum.counts))
    assert runs[0] == runs[1]
    assert runs[0] == (CASE1[q][1], CASE1[q][1], CASE1[q][0])


@pytest.mark.parametrize("mode", ["zech", "poly"])
def test_bucket_keys_give_point_weights(mode):
    """_buckets keys are the elements' own encodings, ascending, in both
    modes, so a weight read back from the buckets is the point's weight;
    the cross-check sample covers every weight class of case1."""
    F = make_field(3, 1, mode=mode)
    f = family_poly(F, "case1")
    _, keys, cosets = scatter._buckets(f)
    assert keys.tolist() == sorted(set(keys.tolist()))
    rng = random.Random(58)
    for k in keys[cosets > 1].tolist() + [rng.randrange(F.order) for _ in range(20)]:
        m = FieldElem(F, k)
        assert scatter._bucket_weight(F, keys, cosets, k) == point_weight(f, m)
    sample = scatter._bucket_sample(F, keys, cosets, 31)
    assert len({m for m, _ in sample}) == 31
    assert {w for _, w in sample} == {0, 1, 3}
    assert all(w == point_weight(f, m) for m, w in sample)
