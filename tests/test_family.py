"""Family constructors, the h-enumeration, and the auxiliary-lemma checks."""

import random

import pytest

from scatlin import make_field
from scatlin.errors import HypothesisViolated, InvalidParameter
from scatlin.family import (FAMILY_PARAMS, LEMMA_POLYS, enumerate_h, family_poly, h_is_valid,
                            lemma1_checks, lemma_roots, lp_delta_samples,
                            u3_delta_samples, u4_deltas)
from scatlin.scatter import is_scattered_dickson, is_scattered_oracle


def test_enumerate_h_q3(f3):
    hs = enumerate_h(f3)
    assert len(hs) == 28
    # brute force over the whole field
    brute = {f3.packed(x) for x in f3.elements()
             if not x.is_zero() and x ** 28 == -f3.one()}
    assert {f3.packed(h) for h in hs} == brute
    assert not any(f3.in_subfield(h, 1) for h in hs)


def test_enumerate_h_q5(f5):
    hs = enumerate_h(f5)
    assert len(hs) == 126
    in_fq = sorted(f5.packed(h) for h in hs if f5.in_subfield(h, 1))
    assert in_fq == [2, 3]


def test_enumerate_h_even(f2, f4):
    """At even q, -1 = 1: the q^3 + 1 solutions of h^(q^3+1) = 1."""
    for F in (f2, f4):
        hs = enumerate_h(F)
        assert len(hs) == F.q**3 + 1
        assert all(h ** (F.q**3 + 1) == F.one() for h in hs)


def test_build_family_vectors(f3, f5):
    ps = family_poly(f3, "pseudoregulus")
    assert [f3.packed(c) for c in ps.coeffs] == [0, 1, 0, 0, 0, 0]
    f = family_poly(f5, "new_fh", 2)
    one = f5.one()
    assert list(f.coeffs) == [f5.zero(), one, -one, f5.zero(), one, one]
    assert family_poly(f5, "case1") == f


def test_build_validation(f3, f5):
    with pytest.raises(InvalidParameter):
        family_poly(f3, "new_fh", 1)  # 1^(q^3+1) = 1 != -1
    with pytest.raises(InvalidParameter):
        family_poly(f3, "lp", 0)
    # LP: norm of delta must avoid {0, 1}; norm 1 elements are g^(2k) at q=3
    with pytest.raises(InvalidParameter):
        family_poly(f3, "lp", f3.from_exp(2))
    assert family_poly(f3, "lp", f3.from_exp(1)) is not None
    # U4 needs delta^2 + delta = 1
    bad = next(d for d in f3.elements()
               if not d.is_zero() and d * d + d != f3.one())
    with pytest.raises(InvalidParameter):
        family_poly(f3, "csajbok_mz", bad)
    # U4 needs q odd
    f4 = make_field(2, 2)
    with pytest.raises(InvalidParameter):
        family_poly(f4, "csajbok_mz", 1)
    # trinomial needs h in F_{q^2} with h^(q+1) = -1
    with pytest.raises(InvalidParameter):
        family_poly(f5, "trinomial", 1)  # 1^(q+1) = 1 != -1
    with pytest.raises(InvalidParameter):
        family_poly(f5, "trinomial", f5.from_exp(1))  # g is outside F_{q^2}
    # an unknown tag, with or without a parameter
    for param in (None, 1):
        with pytest.raises(InvalidParameter):
            family_poly(f3, "no_such_family", param)
    # a parameter given to a family without one, or missing from one with one
    for tag, name in FAMILY_PARAMS.items():
        with pytest.raises(InvalidParameter):
            family_poly(f3, tag, None if name else "g^2")


def test_u3_tagged_unverified(f3):
    f = family_poly(f3, "csajbok_mp", f3.from_exp(1))
    assert "unverified-baseline" in f.tag


def test_delta_samples(f3):
    assert len(lp_delta_samples(f3)) == 1
    u3 = u3_delta_samples(f3)
    assert len(u3) == 25
    norms = {f3.packed(f3.norm(d, 3)) for d in u3}
    assert len(norms) == 25
    d4 = u4_deltas(f3)
    assert len(d4) == 2
    for d in d4:
        assert d * d + d == f3.one()
        assert f3.in_subfield(d, 2) and not f3.in_subfield(d, 1)


def test_u4_delta_at_q5_is_double_root(f5):
    assert u4_deltas(f5) == [f5.from_int(2)]


def test_trinomial_h_are_fh_parameters(f3):
    hs = [h for h in enumerate_h(f3) if f3.in_subfield(h, 2)]
    assert len(hs) == 4
    for h in hs:
        assert h ** (f3.q + 1) == -f3.one()
        assert h_is_valid(f3, h)
        family_poly(f3, "trinomial", h)


def test_lemma1_q5_h2(f5):
    rec = lemma1_checks(f5.from_int(2))
    assert rec["item1_hq_ne_minus_h"]
    assert rec["item2_norm2_ne_1"]
    assert rec["item3_hq2p1_ne_pm_hq"]
    # 1 + 14 + 1 = 16 = 1 != 0 in F_5
    assert not rec["item4_quartic_vanishes"]
    assert not rec["hypothesis_h4_ne_1"]  # 2^4 = 16 = 1: the F_q case


def test_lemma1_all_h_q3(f3):
    for h in enumerate_h(f3):
        rec = lemma1_checks(h)
        assert rec["item1_hq_ne_minus_h"]
        assert rec["item2_norm2_ne_1"]
        assert rec["item3_hq2p1_ne_pm_hq"]


def test_lemma1_hypothesis_guard(f3):
    with pytest.raises(HypothesisViolated):
        lemma1_checks(f3.one())  # fails h^(q^3+1) = -1


def test_lemma1_item4_classification_q9(f9):
    """q = 9 = 3^2: every admissible h with a vanishing quartic must have
    h^(q^2-q+1) = +-sqrt(-1) (exhaustive over all q^3 + 1 = 730 h)."""
    i = f9.sqrt_of_minus_one()
    assert i * i == -f9.one()
    vanish = 0
    for h in enumerate_h(f9):
        rec = lemma1_checks(h)
        if rec["item4_quartic_vanishes"]:
            vanish += 1
            assert rec["item4_class"] == "sqrt_minus_one"
    assert vanish > 0  # the exceptional class is nonempty at q = 9


def test_lemma2_roots_classified(f3, f5, f7):
    """The Lemma 2 polynomial has exactly the roots {sigma0, -sigma0}: for
    every h at q = 3, and for seeded h at q = 5 (with h = 2 in F_q) and 7."""
    rng = random.Random(2)
    hs = [(f3, h) for h in enumerate_h(f3)]
    hs += [(f5, f5.from_int(2))] + [(f5, h) for h in rng.sample(enumerate_h(f5), 8)]
    hs += [(f7, h) for h in rng.sample(enumerate_h(f7), 3)]
    for F, h in hs:
        sigma0 = h.frob(2) + h.frob(1)
        roots = lemma_roots(h, "lemma2")
        assert {t for t, _ in roots} == {sigma0, -sigma0}
        assert len(roots) == 2
        assert dict((t, cls) for t, cls in roots) == {sigma0: "plus", -sigma0: "minus"}


def _laurent(terms):
    """A Laurent polynomial over Z in X, Y, Z as {(i, j, k): coefficient},
    zero coefficients dropped."""
    out = {}
    for mono, c in terms:
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def _lmul(a, b):
    return _laurent(((tuple(x + y for x, y in zip(m, n)), c * d)
                     for m, c in a.items() for n, d in b.items()))


def _lfrob(a):
    """Frobenius on X = h, Y = h^q, Z = h^(q^2): X -> Y -> Z -> h^(q^3),
    and h^(q^3) = -1/X because h^(q^3+1) = -1."""
    return _laurent((((-k, i, j), c * (-1) ** k) for (i, j, k), c in a.items()))


def _lpower(x, digits):
    """x^(a + b q + c q^2) for digits (a, b, c)."""
    out = {(0, 0, 0): 1}
    for d in digits:
        for _ in range(d):
            out = _lmul(out, x)
        x = _lfrob(x)
    return out


def _lemma_value(rows, t):
    """sum of coefficient * t^power over the rows of a LEMMA_POLYS entry,
    with h^(i + j q + k q^2) = X^i Y^j Z^k."""
    total = {}
    for tpow, monos in rows:
        coeff = _laurent(((digits, sign) for sign, digits in monos))
        total = _laurent(list(total.items()) +
                         list(_lmul(coeff, _lpower(t, tpow)).items()))
    return total


def test_lemma2_polynomial_vanishes_at_plus_minus_sigma0_identically():
    """Field-free: with sigma0 = Y + Z the Lemma 2 polynomial of
    LEMMA_POLYS is the zero Laurent polynomial at t = sigma0 and at
    t = -sigma0, so both are roots for every admissible h and every q.  With
    the signs of c1 and c0 flipped (t -> +c1 t + c0) it is not."""
    rows = LEMMA_POLYS["lemma2"]
    sigma0 = {(0, 1, 0): 1, (0, 0, 1): 1}
    assert _lfrob(_lfrob(_lfrob({(1, 0, 0): 1}))) == {(-1, 0, 0): -1}
    for t in (sigma0, {m: -c for m, c in sigma0.items()}):
        assert _lemma_value(rows, t) == {}
    flipped = rows[:2] + tuple((tpow, tuple((-sign, d) for sign, d in monos))
                               for tpow, monos in rows[2:])
    assert len(_lemma_value(flipped, sigma0)) == 8


def test_lemma3_roots(f5):
    # h = +-2 are the only valid h with h^4 = 1 (q = 5); roots are +-(h^(q^2)+h^q)
    for hv in (2, 3):
        h = f5.from_int(hv)
        roots = lemma_roots(h, "lemma3")
        assert roots
        sigma0 = h.frob(2) + h.frob(1)
        got = {f5.packed(t) for t, _ in roots}
        assert got == {f5.packed(sigma0), f5.packed(-sigma0)}
        assert all(cls in ("plus", "minus") for _, cls in roots)


def test_lemma_roots_independent_of_chunk(f3, f5, with_chunk):
    """Both lemmas give the same roots, in the same order, under two slice
    sizes; t = 0 is decided by the constant term, outside the slices."""
    cases = [(h, "lemma2") for h in enumerate_h(f3)[:6] + enumerate_h(f5)[:6]]
    cases += [(f5.from_int(hv), "lemma3") for hv in (2, 3)]
    runs = []
    for chunk in (None, 1 << 8):
        for F in (f3, f5):
            with_chunk(F, chunk)
        runs.append([lemma_roots(h, which) for h, which in cases])
    assert runs[0] == runs[1]
    assert all(len(roots) == 2 for roots in runs[0])


def test_lemma3_hypothesis_guard(f3):
    h = enumerate_h(f3)[0]
    if (h ** 4) != f3.one():
        with pytest.raises(HypothesisViolated):
            lemma_roots(h, "lemma3")


def test_family_scatteredness_invariant_q3(f3):
    for h in enumerate_h(f3):
        f = family_poly(f3, "new_fh", h)
        assert is_scattered_oracle(f).scattered
        assert is_scattered_dickson(f).scattered
