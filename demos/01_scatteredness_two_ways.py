"""Scatteredness decided two independent ways.

The family under study is

    f_h(x) = h^(q-1) x^q - h^(q^2-1) x^(q^2) + x^(q^4) + x^(q^5),
    h in F_{q^6},  h^(q^3+1) = -1,  q odd.

A q-polynomial is scattered when every point <(1, m)> of the projective line
sees a kernel dim ker(f - m x) of at most 1.  We decide that twice:

* oracle     -- bucket f(x)/x over the multiplicative cosets and read off
                every point weight;
* criterion  -- scan m for a common root of det M(m) and the determinant of
                its truncation, where M(m) is the Dickson matrix with the
                diagonal replaced by m, m^q, ..., m^(q^5).

Run:  python demos/01_scatteredness_two_ways.py
"""

from scatlin import make_field, family_poly, enumerate_h
from scatlin.scatter import (is_scattered_dickson, is_scattered_oracle,
                             weight_spectrum)

print(__doc__)

# -- the h-free specialisation: scattered exactly when q = 1 (mod 4) --------

for q in (5, 3):
    F = make_field(q, 1)
    f = family_poly(F, "case1")      # x^q - x^(q^2) + x^(q^4) + x^(q^5)
    oracle = is_scattered_oracle(f)
    dickson = is_scattered_dickson(f)
    print(f"q = {q} ({'1' if q % 4 == 1 else '3'} mod 4):")
    print(f"  oracle verdict   : scattered={oracle.scattered}")
    print(f"  criterion verdict: scattered={dickson.scattered}")
    print(f"  weight spectrum  : {oracle.spectrum.counts}"
          f"  (mass {oracle.spectrum.mass()} = q^6 - 1 = {F.order - 1})")
    if not dickson.scattered:
        w = dickson.witness
        print(f"  criterion witness m = {w} with m^2 = {w * w}"
              f" = -4 = {F.from_int(-4)},"
              f" m in F_q2 \\ F_q: {F.in_subfield(w, 2) and not F.in_subfield(w, 1)}")
    print()

# -- the general family: every admissible h at q = 3 is scattered -----------

F3 = make_field(3, 1)
hs = enumerate_h(F3)
print(f"q = 3: {len(hs)} admissible h (all outside F_3); checking each with")
print("both deciders ...")
assert all(is_scattered_oracle(family_poly(F3, "new_fh", h)).scattered
           and is_scattered_dickson(family_poly(F3, "new_fh", h)).scattered
           for h in hs)
print("  all 28 scattered.\n")

# -- even q: never scattered, with an explicit witness ----------------------

F4 = make_field(2, 2)
h = enumerate_h(F4)[3]
f = family_poly(F4, "new_fh", h)
mbar = h.frob(2) + h.frob(1)
verdict = is_scattered_dickson(f)
print(f"q = 4, h = {h}: scattered={verdict.scattered};"
      f" h^(q^2) + h^q = {mbar} is a witness:"
      f" {any(w == mbar for w in verdict.witnesses)}")

# -- the spectrum is an adjoint invariant ------------------------------------

f = family_poly(F3, "new_fh", hs[0])
print(f"\nadjoint invariance at q = 3: spectrum(f) ="
      f" {weight_spectrum(f).counts} = spectrum(adjoint f) ="
      f" {weight_spectrum(f.adjoint()).counts}")
