"""The two scatteredness deciders, their witnesses, and the spectra."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from scatlin import FieldElem, QPoly, gf, make_field, scatter
from scatlin.errors import InternalInvariant, TooLarge
from scatlin.family import enumerate_h, family_poly
from scatlin.scatter import (dickson_dets_at, dickson_witness_point,
                             is_scattered_dickson, is_scattered_oracle,
                             is_scattered, point_weight, weight_spectrum)

# case1 answers: q -> (spectrum, oracle witnesses = Dickson witnesses)
CASE1 = {
    3: ({1: 338, 3: 2}, ["g^182", "g^546"]),
    5: ({1: 3906}, []),
    7: ({1: 19494, 3: 2}, ["g^9804", "g^68628"]),
}


def rand_poly(F, rng):
    return QPoly(F, [F.elem_at(rng.randrange(F.order)) for _ in range(6)])


def sparse_poly(F, rng):
    return QPoly(F, [F.elem_at(rng.randrange(F.order)) if rng.random() < 0.5
                     else F.zero() for _ in range(6)])


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
    vo = is_scattered_oracle(f)
    vd = is_scattered_dickson(f)
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
    vd = is_scattered_dickson(f)
    idx = [f3.enum_index(w) for w in vd.witnesses]
    assert idx == sorted(idx)
    assert is_scattered_dickson(f).witness == vd.witnesses[0]
    vo = is_scattered_oracle(f)
    assert is_scattered_oracle(f).witness == vo.witnesses[0]


def test_decider_agreement_random(f3):
    rng = random.Random(42)
    for _ in range(50):
        f = rand_poly(f3, rng)
        a = is_scattered_oracle(f)
        b = is_scattered_dickson(f)
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
    a = is_scattered_oracle(scalar)
    b = is_scattered_dickson(scalar)
    assert not a.scattered and not b.scattered
    assert a.witnesses == [f3.gen()]  # the single weight-6 point sits at m = g


def test_decider_peak_memory_q13():
    """Once the trace table is built, neither decider on a q = 13 f_h peaks
    at 6 MiB of traced allocations: no table and no temporary of q^6
    entries, nor more R-entry arrays than the oracle's values, keys and
    counts (R = (q^6 - 1)/(q - 1), 1.5 MiB each in 32-bit)."""
    F = make_field(13, 1)
    h = random.Random(13).choice([h for h in enumerate_h(F) if not F.in_subfield(h, 1)])
    f = family_poly(F, "new_fh", h)
    F._trace_tables()
    for decide in (is_scattered_oracle, is_scattered_dickson):
        tracemalloc.start()
        try:
            assert decide(f).scattered
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, (decide.__name__, peak)


def test_scan_budget_guard():
    """q = 17 is above the scan limit (17^6 > 2^24): make_field refuses it
    with TooLarge, so no decider is ever handed a field it cannot scan.
    q = 13, the largest prime below the limit, is built and scanned."""
    assert 13 ** 6 <= gf.DEFAULT_ZECH_LIMIT < 17 ** 6
    with pytest.raises(TooLarge):
        make_field(17, 1)
    assert make_field(13, 1).order == 13 ** 6


def test_is_scattered_both(f3):
    res = is_scattered(family_poly(f3, "pseudoregulus"))
    assert res["oracle"].scattered and res["dickson"].scattered


@pytest.mark.parametrize("field", ["f2", "f3", "f4", "f5"])
def test_is_scattered_compares_points(field, request, monkeypatch):
    """is_scattered accepts seeded sparse polynomials, most of them not
    scattered, with the Dickson roots certifying exactly the oracle's
    points, and the degenerate f = 0 and f = x (one point, of weight 6)
    and g x + x^(q^3) (all (q^6 - 1)/(q^3 - 1) points of weight 3: 9 at
    q = 2, 28 at q = 3); a root moved to another m raises InternalInvariant
    although both verdicts and both witness counts stay the same."""
    F = request.getfixturevalue(field)
    one = F.one()
    lines = (F.order - 1) // (F.q ** 3 - 1)
    for f, spectrum in ((QPoly.zero(F), {6: 1}), (QPoly(F, [one]), {6: 1}),
                        (QPoly(F, [F.gen(), 0, 0, one]), {3: lines})):
        v = is_scattered(f)
        assert v["oracle"].spectrum.counts == spectrum
        assert len(v["dickson"].witnesses) == sum(spectrum.values())
    rng = random.Random(400 + F.q)
    polys = [sparse_poly(F, rng) for _ in range(12)]
    verdicts = [is_scattered(f) for f in polys]
    assert sum(not v["oracle"].scattered for v in verdicts) > len(polys) // 2
    f = next(f for f, v in zip(polys, verdicts) if not v["oracle"].scattered)
    points = set(verdicts[polys.index(f)]["oracle"].witnesses)
    elsewhere = next(m for m in F.elements() if dickson_witness_point(f, m) not in points)
    real = scatter.is_scattered_dickson

    def moved(g):
        v = real(g)
        v.witnesses[-1] = elsewhere
        return v
    monkeypatch.setattr(scatter, "is_scattered_dickson", moved)
    with pytest.raises(InternalInvariant):
        is_scattered(f)


def test_oracle_buckets_once(monkeypatch):
    calls = []
    real = scatter._coset_counts
    monkeypatch.setattr(scatter, "_coset_counts",
                        lambda f: calls.append(f) or real(f))
    for q, (spectrum, witnesses) in CASE1.items():
        F = make_field(q, 1)
        f = family_poly(F, "case1")
        calls.clear()
        v = is_scattered_oracle(f)
        assert len(calls) == 1
        assert v.scattered == (not witnesses)
        assert v.spectrum.counts == spectrum
        assert [F.format(w) for w in v.witnesses] == witnesses
        assert weight_spectrum(f).counts == spectrum


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
    e = np.array([m.val for m in ms], dtype=np.int64)
    ref = [dickson_dets_at(f, m) for m in ms]
    bases = [F.v_frob(e, v) for v in range(6)]
    # det M(m) as orbit traces: the full F_q value, not only its zero-ness
    full = F.v_trace_lincomb(scatter._orbit_terms(f), bases)
    assert [F.fq_elem(k) for k in full.tolist()] == [r[0] for r in ref]
    trunc = F.v_lincomb(scatter._expansion_terms(f, 1), bases)
    assert trunc.tolist() == [r[1].val for r in ref]
    assert all(r[0].is_zero() for r in ref[1:21])
    assert len({r[0] for r in ref}) > 2  # the values are not all 0 and 1


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
    return sorted((c.val, tuple(sorted(k)))
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
    polys += [sparse_poly(F, rng) for _ in range(15)]
    for f in polys:
        for drop in (0, 1):
            assert sorted(scatter._expansion_terms(f, drop)) == \
                leibniz_reference_terms(f, drop), (f, drop)


@pytest.mark.parametrize("q", [3, 7])
def test_exhaustive_witnesses_independent_of_chunk(q, with_chunk):
    F = make_field(q, 1)
    f = family_poly(F, "case1")
    runs = []
    for chunk in (None, 1 << 7):
        with_chunk(F, chunk)
        vo = is_scattered_oracle(f)
        vd = is_scattered_dickson(f)
        runs.append(([F.format(w) for w in vo.witnesses],
                      [F.format(w) for w in vd.witnesses], vo.spectrum.counts))
    assert runs[0] == runs[1]
    assert runs[0] == (CASE1[q][1], CASE1[q][1], CASE1[q][0])


def _certified_points(f, witnesses):
    return sorted(f.ctx.enum_index(dickson_witness_point(f, w)) for w in witnesses)


@pytest.mark.parametrize("field", ["f4", "f9"])
def test_dickson_witnesses_match_oracle_p2_and_s2(field, request, with_chunk):
    """At q = 4 (p = 2) and q = 9 (s = 2) the Dickson witnesses
    certify exactly the oracle's points, under two slice sizes: case1, a
    seeded new_fh, and sparse random polynomials."""
    F = request.getfixturevalue(field)
    rng = random.Random(F.order)
    polys = [family_poly(F, "case1"),
             family_poly(F, "new_fh", rng.choice(enumerate_h(F)))]
    polys += [sparse_poly(F, rng) for _ in range(3)]
    for f in polys:
        vo = is_scattered_oracle(f)
        points = sorted(F.enum_index(w) for w in vo.witnesses)
        runs = []
        for chunk in (None, 1 << 9):
            with_chunk(F, chunk)
            vd = is_scattered_dickson(f)
            runs.append([F.enum_index(w) for w in vd.witnesses])
            assert _certified_points(f, vd.witnesses) == points
        assert runs[0] == runs[1] == sorted(runs[0])


def test_corrupted_minor_raises(f5, monkeypatch):
    """A coefficient that is not the Frobenius image of its orbit neighbour
    breaks the cyclic symmetry the orbit traces rely on."""
    f = family_poly(f5, "case1")
    real = scatter._expansion_terms

    def corrupt(g, drop):
        terms = real(g, drop)
        if drop == 0:
            i = next(i for i, (_, key) in enumerate(terms) if len(key) == 2)
            c, key = terms[i]
            terms[i] = ((c + 1) % f5.N, key)
        return terms

    monkeypatch.setattr(scatter, "_expansion_terms", corrupt)
    with pytest.raises(InternalInvariant):
        is_scattered_dickson(f)
    # a minor dropped from a length-6 orbit (as if it were zero)
    monkeypatch.setattr(scatter, "_expansion_terms",
                        lambda g, drop: [t for t in real(g, drop) if t[1] != (0, 1)])
    with pytest.raises(InternalInvariant):
        is_scattered_dickson(f)


def test_m_zero_decided_by_constant_terms(f3, f5):
    """m = 0 is a witness exactly when both determinants vanish at 0, as
    elimination finds them: c + x^q - x^(q^3) (weight 2 at <(1, c)>, for
    c = g and c = 0) and x^(q^2) + x^(q^5) (weight 3) are witnesses; x^q
    (det M(0) = 1) and x^q + x^(q^2) (det M(0) = 0, weight 1) are not."""
    for F in (f3, f5):
        one = F.one()
        cases = [QPoly(F, [F.gen(), one, 0, -one]), QPoly(F, [0, one, 0, -one]),
                 QPoly(F, [0, one]), QPoly(F, [0, one, one]),
                 QPoly(F, [0, 0, one, 0, 0, one])]
        for f in cases:
            d6, d5 = dickson_dets_at(f, F.zero())
            vd = is_scattered_dickson(f)
            first_is_zero = bool(vd.witnesses) and vd.witnesses[0].is_zero()
            assert first_is_zero == (d6.is_zero() and d5.is_zero())
            assert (is_scattered_dickson(f).witness == F.zero()) == first_is_zero
            if first_is_zero:
                assert point_weight(f, dickson_witness_point(f, F.zero())) >= 2
        assert [is_scattered_dickson(f).witness == F.zero() for f in cases] == \
            [True, True, False, False, True]
        assert dickson_dets_at(cases[3], F.zero())[0].is_zero()


def test_bucket_keys_give_point_weights(f3):
    """_buckets keys are the elements' own encodings (exponents, N for
    zero), ascending, so a weight read back from the buckets is the point's
    weight; the cross-check sample covers every weight class of case1."""
    F = f3
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


def whole_field_dickson_reference(f, exhaustive):
    """Dickson witnesses as the criterion found them before the coset scan,
    kept here as an independent reference: det M(m) as orbit traces over
    every exponent e < N, slice by slice, then the truncated determinant at
    its roots; m = 0 from the constant terms."""
    F = f.ctx
    terms6 = scatter._orbit_terms(f)
    terms5 = scatter._expansion_terms(f, 1)
    witnesses = []
    if not any(key == () for terms in (terms6, terms5) for _, key in terms):
        witnesses.append(F.zero())
    for lo, bases in F.conjugate_slices(F.N):
        if witnesses and not exhaustive:
            break
        cand = np.flatnonzero(F.v_trace_lincomb(terms6, bases) == 0)
        if cand.size:
            roots = F.v_lincomb(terms5, [b[cand] for b in bases]) == F.N
            witnesses.extend(F.from_exp(lo + int(k)) for k in cand[roots].tolist())
    return witnesses if exhaustive else witnesses[:1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_coset_scan_matches_whole_field_reference(q, with_chunk):
    """The scan over the coset representatives finds the same witnesses,
    and so the same first witness, as the whole-field scan: case1, a
    seeded new_fh, the pseudoregulus, x^(q^2) and x^q + x^(q^3) (many points
    of weight >= 2) and seeded sparse random polynomials (most of them not
    scattered), under the default slice size and under one that splits the
    representatives into several slices."""
    p, s = {4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1))
    F = make_field(p, s)
    rng = random.Random(200 + q)
    one = F.one()
    polys = [family_poly(F, "case1"), family_poly(F, "pseudoregulus"),
             family_poly(F, "new_fh", rng.choice(enumerate_h(F))),
             QPoly(F, [0, 0, one]), QPoly(F, [0, one, 0, one])]
    polys += [sparse_poly(F, rng) for _ in range(30 if q < 7 else 4)]
    chunks = [None, {2: 1 << 5, 8: 1 << 12}.get(q, 1 << 7)]
    refs = [(whole_field_dickson_reference(f, True),
             whole_field_dickson_reference(f, False)) for f in polys]
    assert sum(bool(full) for full, _ in refs) > len(polys) // 2
    for chunk in chunks:
        with_chunk(F, chunk)
        for f, (full, first) in zip(polys, refs):
            v = is_scattered_dickson(f)
            assert v.witnesses == full, f
            assert ([] if v.witness is None else [v.witness]) == first, f


def test_truncated_determinant_only_at_multiple_roots(f7, monkeypatch):
    """Only the multiple roots lambda of det M(lambda g^r) reach the
    truncated determinant: at q = 7 its v_lincomb receives at most R/4
    elements, R = (q^6 - 1)/(q - 1), for case1 and a seeded new_fh, where
    testing every root of det M gives about R."""
    F = f7
    R = F.N // (F.q - 1)
    F._trace_tables()  # built once per field, by a v_lincomb of its own
    sizes = []
    real = gf.Field.v_lincomb

    def counted(self, terms, bases, out=None):
        sizes.append(max(np.size(b) for b in bases))
        return real(self, terms, bases, out=out)

    monkeypatch.setattr(gf.Field, "v_lincomb", counted)
    fh = family_poly(F, "new_fh", random.Random(7).choice(enumerate_h(F)))
    for f, witnesses in ((family_poly(F, "case1"), CASE1[7][1]), (fh, [])):
        sizes.clear()
        v = is_scattered_dickson(f)
        assert [F.format(w) for w in v.witnesses] == witnesses
        assert 0 < sum(sizes) <= R // 4, (f, sum(sizes), R)


def scalar_p_and_derivative(F, lam, c0, t):
    """P(lam) and P'(lam) for P = c0 + sum(lam^k t_k for k in 1..6) over F_q,
    by scalar field arithmetic; the integer k of k lam^(k-1) t_k is the
    field element k mod p."""
    P = c0 + sum((lam ** k * t[k - 1] for k in range(1, 7)), F.zero())
    dP = sum((F.from_int(k) * lam ** (k - 1) * t[k - 1] for k in range(1, 7)), F.zero())
    return P, dP


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (13, 1)])
def test_multiple_root_tables_match_scalar_arithmetic(p, s):
    """low[i] and high[i] match at (t_1..t_3), (t_4..t_6) exactly when
    lambda_i = g^(R i) is a multiple root of c0 + sum(lambda^k t_k), for
    every value of c0.  Every (i, c0, t_1..t_6) at q <= 3; above that, a
    seeded sample with a third of the tuples made multiple roots (t_1 and
    t_2 solved from P = P' = 0) and a third made roots (t_1 from P = 0)."""
    F = make_field(p, s)
    q = F.q
    trace, _ = F._trace_tables()
    fq = [F.fq_elem(k) for k in range(q)]
    rng = random.Random(300 + q)
    matches = 0
    for c in range(q):
        c0 = fq[c]
        low, high = scatter._multiple_root_tables(F, int(np.flatnonzero(trace == c)[0]))
        assert low.shape == high.shape == (q ** 3, q - 1)
        low, high = low.T, high.T  # indexed [i, key] below
        if q <= 3:
            cases = [(i, list(t)) for i in range(q - 1)
                     for t in itertools.product(fq, repeat=6)]
        else:
            cases = []
            for n in range(60):
                i = rng.randrange(q - 1)
                lam, t = fq[1 + i], [rng.choice(fq) for _ in range(6)]
                if n % 3:
                    rest = c0 + sum((lam ** k * t[k - 1] for k in range(3, 7)), F.zero())
                    if n % 3 == 1:  # P = 0: t_1 lam = -(c0 + sum over k >= 2)
                        t[0] = -(rest + lam ** 2 * t[1]) / lam
                    else:  # P = P' = 0: solve for t_1, t_2 (determinant lam^2)
                        drest = sum((F.from_int(k) * lam ** (k - 1) * t[k - 1]
                                     for k in range(3, 7)), F.zero())
                        t[1] = (drest * lam - rest) / lam ** 2
                        t[0] = -drest - F.from_int(2) * lam * t[1]
                cases.append((i, t))
        for i, t in cases:
            x = [F.fq_index(v) for v in t]
            P, dP = scalar_p_and_derivative(F, fq[1 + i], c0, t)
            hit = low[i, (x[0] * q + x[1]) * q + x[2]] == high[i, (x[3] * q + x[4]) * q + x[5]]
            assert hit == (P.is_zero() and dP.is_zero()), (q, c, i, x)
            matches += int(hit)
        if p in (2, 3):  # k t_k vanishes from P' when p | k
            parts = [(low % q).reshape(q - 1, q, q, q), (high % q).reshape(q - 1, q, q, q)]
            for k in range(p, 7, p):
                part = parts[k > 3]
                axis = 1 + (k - 1) % 3
                assert (part == np.take(part, [0], axis=axis)).all(), (q, k)
    assert matches >= q
