"""Deciding GammaL(2, q^6)-equivalence by exhaustive semilinear search.

A witness is an automorphism rho together with an invertible matrix
[[a, b], [c, d]]; it moves the graph U_f = {(x, f(x))} onto U_g exactly when

    g o (a id + b f^rho) = c id + d f^rho     and    ad - bc != 0.

(c, d) are solved from two coefficient slots and verified on the rest, so the
scan only enumerates (rho, a, b): 6s * q^12 triples, all chunk-vectorised.
The slot identity is F_q-linear, so against x^q + x^(q^3) + delta x^(q^5)
no scan is needed: the (a, b) that pass the other slots form an F_p-subspace
W_rho, one small nullspace per rho.

Run:  python demos/03_equivalence_hunt.py
"""

import time

from scatlin import make_field, enumerate_h, family_poly, u4_deltas
from scatlin.equiv import EquivWitness, check_system_L4, gl_equivalent, verify_witness
from scatlin.family import lp_delta_samples

print(__doc__)

F = make_field(3, 1)
one = F.one()

# -- h in F_9: the trinomial form, with its closed-form witness -------------

h = next(h for h in enumerate_h(F) if F.in_subfield(h, 2))
fh = family_poly(F, "new_fh", h)
tri = family_poly(F, "trinomial", h)
hinv = h.inv()
w = EquivWitness(rho=0, a=-h + hinv, b=one,
                 c=hinv - one - h**3 + h**2, d=h - h**2 - one)
print(f"h = {h} (in F_9): closed-form witness a=-h+1/h, b=1 verifies over all"
      f" 729 vectors: {verify_witness(fh, tri, w)}")
res = gl_equivalent(fh, tri)
print(f"independent search agrees after {res.searched} triples:"
      f" {res.witness.to_json()}\n")

# -- h outside F_9: not equivalent to anything known -------------------------

h = next(h for h in enumerate_h(F) if not F.in_subfield(h, 2))
fh = family_poly(F, "new_fh", h)
print(f"h = {h} (outside F_9): exhaustive sweeps against the known families")
targets = [("pseudoregulus", family_poly(F, "pseudoregulus"))]
targets += [("lp delta=%s" % d, family_poly(F, "lp", d))
            for d in lp_delta_samples(F)]
targets += [("u4 delta=%s" % d, family_poly(F, "csajbok_mz", d))
            for d in u4_deltas(F)]
for name, g in targets:
    t0 = time.time()
    r = gl_equivalent(fh, g)
    print(f"  vs {name:18s}: {r.status:15s}"
          f" ({r.searched} triples, {time.time() - t0:.1f}s)")

# -- the power-of-5 exception -------------------------------------------------

F5 = make_field(5, 1)
h5 = F5.from_int(2)
delta = u4_deltas(F5)[0]
hit = check_system_L4(h5, delta, "trin")
if not hit["solvable"]:
    hit = check_system_L4(h5, delta, "trin2")
k = hit["k"]
print(f"\nq = 5, h = 2: the U^4 system ({hit['variant']}) is solvable;")
print(f"  k = h^rho = {k} satisfies 9k^2 - 3k + 5 ="
      f" {F5.from_int(9) * k * k - F5.from_int(3) * k + F5.from_int(5)}")
print("  (solvable exactly because q is a power of 5 and h lies in F_q)")
