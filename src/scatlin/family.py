"""The new family f_h and the known maximum scattered families over F_{q^6}.

Families (parameter conditions enforced at build time):

* ``new_fh``        f_h = h^(q-1) x^q - h^(q^2-1) x^(q^2) + x^(q^4) + x^(q^5),
                    with h^(q^3+1) = -1 for odd q, or = +1 for even q (the
                    even variant exists because those f_h are never scattered).
* ``case1``         the h-free specialisation x^q - x^(q^2) + x^(q^4) + x^(q^5)
                    (equals new_fh whenever h lies in F_q, and is the object
                    studied at every odd q, including q = 3 mod 4 where no
                    admissible h in F_q exists).
* ``pseudoregulus`` x^q.
* ``lp``            delta x^q + x^(q^5) with N_{q^6/q}(delta) not in {0, 1}.
* ``csajbok_mp``    x^q + delta x^(q^4) with N_{q^6/q^3}(delta) not in {0, 1};
                    the full admissibility of (delta, q) is settled elsewhere,
                    so the built polynomial is tagged unverified-baseline until
                    a scatteredness check passes.
* ``csajbok_mz``    x^q + x^(q^3) + delta x^(q^5), q odd, delta^2 + delta = 1.
* ``trinomial``     (h^-1 - 1) x^q + x^(q^3) + (h - 1) x^(q^5) for h in
                    F_{q^2} with h^(q+1) = -1 (such h automatically satisfy
                    h^(q^3+1) = -1, so they parametrise f_h too).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ClassificationGap, HypothesisViolated, InternalInvariant,
                     InvalidParameter, ParityMismatch)
from .gf import Field, FieldElem
from .qpoly import QPoly

FAMILY_TAGS = ("new_fh", "case1", "pseudoregulus", "lp", "csajbok_mp",
               "csajbok_mz", "trinomial")


@dataclass
class FamilySpec:
    ctx: Field
    tag: str
    param: FieldElem | None = None

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidParameter("unknown family tag %r" % self.tag)
        if self.param is not None:
            self.param = self.ctx.element(self.param)


def h_is_valid(ctx: Field, h: FieldElem, variant: str | None = None) -> bool:
    """h^(q^3+1) = -1 (odd variant) or +1 (even variant)."""
    if variant is None:
        variant = "even" if ctx.p == 2 else "odd"
    target = ctx.one() if variant == "even" else -ctx.one()
    return ctx.norm(h, 3) == target


def enumerate_h(ctx: Field, variant: str | None = None) -> list[FieldElem]:
    """All q^3 + 1 solutions of h^(q^3+1) = -1 (odd q) or = 1 (even q).

    Solved on exponents: with h = g^j and N = q^6 - 1 = (q^3+1)(q^3-1), the
    equation (q^3+1) j = target log (mod N) reduces to j = j0 (mod q^3 - 1).
    Every returned h is validated by a direct power.
    """
    q = ctx.q
    if variant is None:
        variant = "even" if ctx.p == 2 else "odd"
    if variant == "odd":
        if ctx.p == 2:
            raise ParityMismatch("odd variant needs odd q")
        j0 = (q**3 - 1) // 2
    elif variant == "even":
        if ctx.p != 2:
            raise ParityMismatch("even variant needs q a power of 2")
        j0 = 0
    else:
        raise ParityMismatch("variant must be 'odd' or 'even'")
    step = q**3 - 1
    out = []
    for t in range(q**3 + 1):
        h = ctx.from_exp(j0 + t * step)
        if not h_is_valid(ctx, h, variant):
            raise InternalInvariant("enumerated h = %s is not admissible (bug)" % h)
        out.append(h)
    return out


def u4_deltas(ctx: Field) -> list[FieldElem]:
    """The roots of delta^2 + delta = 1 (they live in F_{q^2})."""
    one = ctx.one()
    out = [d for d in ctx.subfield_elements(2) if d * d + d == one]
    return out


def lp_delta_samples(ctx: Field) -> list[FieldElem]:
    """One admissible LP delta per value of N_{q^6/q}; smallest exponent wins."""
    seen: dict[int, FieldElem] = {}
    bad = (ctx.zero().val, ctx.one().val)
    for j in range(ctx.q - 1):
        d = ctx.from_exp(j)
        nv = ctx.norm(d, 1)
        if nv.val in bad or nv.val in seen:
            continue
        seen[nv.val] = d
    # exponents 0 .. q-2 already hit every norm value: N(g^j) = g^(j*(q^6-1)/(q-1))
    return list(seen.values())


def u3_delta_samples(ctx: Field) -> list[FieldElem]:
    """One csajbok_mp delta per value of N_{q^6/q^3} (excluding 0 and 1).

    N(g^t) = g^(t*(q^3+1)) walks every norm value as t runs over 0..q^3-2,
    so the exponents 1..q^3-2 give exactly one delta per admissible class.
    """
    deltas = []
    seen = set()
    bad = (ctx.zero().val, ctx.one().val)
    for t in range(1, ctx.q**3 - 1):
        d = ctx.from_exp(t)
        nv = ctx.norm(d, 3)
        if nv.val in bad or nv.val in seen:
            continue
        seen.add(nv.val)
        deltas.append(d)
    return deltas


def build(spec: FamilySpec) -> QPoly:
    """The exact coefficient vector of the requested family member."""
    ctx, tag, prm = spec.ctx, spec.tag, spec.param
    one, zero = ctx.one(), ctx.zero()

    if tag == "pseudoregulus":
        return QPoly(ctx, [zero, one], tag=tag)

    if tag == "case1":
        return QPoly(ctx, [zero, one, -one, zero, one, one], tag=tag)

    if prm is None:
        raise InvalidParameter("family %r needs a parameter" % tag)

    if tag == "new_fh":
        variant = "even" if ctx.p == 2 else "odd"
        if not h_is_valid(ctx, prm, variant):
            raise InvalidParameter("h fails h^(q^3+1) = %s" %
                                   ("1" if variant == "even" else "-1"))
        hq1 = prm ** (ctx.q - 1)
        hq21 = prm ** (ctx.q**2 - 1)
        return QPoly(ctx, [zero, hq1, -hq21, zero, one, one], tag=tag)

    if tag == "lp":
        nv = ctx.norm(prm, 1)
        if nv.is_zero() or nv == one:
            raise InvalidParameter("LP needs N_{q^6/q}(delta) outside {0,1}")
        return QPoly(ctx, [zero, prm, zero, zero, zero, one], tag=tag)

    if tag == "csajbok_mp":
        nv = ctx.norm(prm, 3)
        if nv.is_zero() or nv == one:
            raise InvalidParameter("U3 needs N_{q^6/q^3}(delta) outside {0,1}")
        return QPoly(ctx, [zero, one, zero, zero, prm, zero],
                     tag="csajbok_mp:unverified-baseline")

    if tag == "csajbok_mz":
        if ctx.p == 2:
            raise InvalidParameter("U4 needs q odd")
        if prm * prm + prm != one:
            raise InvalidParameter("U4 needs delta^2 + delta = 1")
        return QPoly(ctx, [zero, one, zero, one, zero, prm], tag=tag)

    if tag == "trinomial":
        if not ctx.in_subfield(prm, 2):
            raise InvalidParameter("trinomial needs h in F_{q^2}")
        if prm ** (ctx.q + 1) != -one:
            raise InvalidParameter("trinomial needs h^(q+1) = -1")
        hinv = prm.inv()
        return QPoly(ctx, [zero, hinv - one, zero, one, zero, prm - one], tag=tag)

    raise InvalidParameter("unknown family tag %r" % tag)


def family_poly(ctx: Field, tag: str, param=None) -> QPoly:
    prm = None if param is None else ctx.element(param)
    return build(FamilySpec(ctx, tag, prm))


# ---------------------------------------------------------------------------
# auxiliary-lemma checks on concrete h
# ---------------------------------------------------------------------------

def _require_h(ctx: Field, h: FieldElem, need_h4: str):
    if ctx.norm(h, 3) != -ctx.one():
        raise HypothesisViolated("need h^(q^3+1) = -1")
    h4_is_one = (h ** 4) == ctx.one()
    # Valid h with h^4 = 1 are exactly +-sqrt(-1), which lie in F_q; the
    # lemma conclusions list that case explicitly, so only lemma3's converse
    # demand (h^4 = 1) is a hard requirement.
    if need_h4 == "eq1" and not h4_is_one:
        raise HypothesisViolated("need h^4 = 1")


def lemma1_checks(h: FieldElem) -> dict:
    """The four no-degeneracy conditions on h (with h^(q^3+1) = -1).

    Items 1-3 report that the stated inequations hold; item 4 reports whether
    the quartic h^(4q^2+4) + 14 h^(2q^2+2q+2) + h^(4q) vanishes and, if it
    does, which of the two exceptional classes h^(q^2-q+1) falls into.  The
    record also flags whether h^4 = 1 (the lemmas assume it does not; such h
    exist only inside F_q).
    """
    ctx = h.ctx
    _require_h(ctx, h, "ne1")
    q = ctx.q
    one = ctx.one()
    item1 = h.frob(1) != -h
    item2 = h ** (q**2 + 1) != one
    hq = h.frob(1)
    hq2p1 = h ** (q**2 + 1)
    item3 = (ctx.p == 2) or (hq2p1 != hq and hq2p1 != -hq)
    quartic = (h ** (4 * q**2 + 4) + ctx.from_int(14) * h ** (2 * q**2 + 2 * q + 2)
               + h ** (4 * q))
    out = {
        "hypothesis_h4_ne_1": (h ** 4) != one,
        "item1_hq_ne_minus_h": item1,
        "item2_norm2_ne_1": item2,
        "item3_hq2p1_ne_pm_hq": item3,
        "item4_quartic_vanishes": quartic.is_zero(),
    }
    if quartic.is_zero():
        w = h ** (q**2 - q + 1)
        if ctx.p == 2:
            out["item4_class"] = "char2" if w == one else "unclassified"
        else:
            i = ctx.sqrt_of_minus_one()
            out["item4_class"] = ("sqrt_minus_one" if w == i or w == -i
                                  else "unclassified")
    return out


def _lemma2_value(h: FieldElem, t: FieldElem) -> FieldElem:
    ctx = h.ctx
    q = ctx.q
    c3 = h ** (q + 1)
    c2 = h ** (q**2 + q + 2) + h ** (2 * q**2 + 2)
    c1 = h ** (2 * q**2 + 2) - h ** (q**2 + 1)
    c0 = (h ** (q**2 + 2 * q + 1) + h ** (2 * q**2 + q + 1)
          - h ** (2 * q) - h ** (q**2 + q))
    return c3 * t ** (q + 1) + c2 * t.frob(1) + c1 * t + c0


def _lemma3_value(h: FieldElem, t: FieldElem) -> FieldElem:
    ctx = h.ctx
    q = ctx.q
    return h ** (q + 1) * t ** (q**2 + 1) + (h.frob(1) + h) ** (q + 1)


def lemma_roots(h: FieldElem, which: str) -> list[tuple[FieldElem, str]]:
    """All F_{q^6}-roots of the auxiliary T-polynomial, each classified.

    Classes: 'plus' / 'minus' for sigma = +-(h^(q^2) + h^q); 'h_in_Fq';
    'char2_exception' (p = 2, h^(q^2-q+1) = 1); 'sqrt_exception'
    (q an even power of 3, h^(q^2-q+1) = +-sqrt(-1)).  A root matching no
    class raises ClassificationGap: that would mean an implementation bug.
    """
    ctx = h.ctx
    if which == "lemma2":
        _require_h(ctx, h, "ne1")
        value = _lemma2_value
    elif which == "lemma3":
        _require_h(ctx, h, "eq1")
        value = _lemma3_value
    else:
        raise HypothesisViolated("which must be 'lemma2' or 'lemma3'")

    sigma0 = h.frob(2) + h.frob(1)
    q = ctx.q
    is_even_power_of_3 = (ctx.p == 3 and ctx.s % 2 == 0)
    w = h ** (q**2 - q + 1)
    i = ctx.sqrt_of_minus_one() if ctx.p != 2 else None

    out = []
    for t in ctx.elements():
        if not value(h, t).is_zero():
            continue
        if t == sigma0:
            cls = "plus"
        elif t == -sigma0:
            cls = "minus"
        elif which == "lemma2" and ctx.in_subfield(h, 1):
            cls = "h_in_Fq"
        elif which == "lemma2" and ctx.p == 2 and w == ctx.one():
            cls = "char2_exception"
        elif (which == "lemma2" and is_even_power_of_3
              and (w == i or w == -i)):
            cls = "sqrt_exception"
        else:
            raise ClassificationGap("root %s of %s matches no listed case" %
                                    (t, which))
        out.append((t, cls))
    return out
