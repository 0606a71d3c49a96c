"""The projection vertex in PG(5, q^6) and its intersection number.

The linear set of a q-polynomial f = sum a_i x^(q^i) arises by projecting
the canonical subgeometry

    Sigma = { <(x, x^q, ..., x^(q^5))> : x != 0 }

from the 3-dimensional vertex read off f's coefficients (geom.vertex)

    Gamma:  x_0 = 0,   a_1 x_1 + a_2 x_2 + a_3 x_3 + a_4 x_4 + a_5 x_5 = 0,

which for f_h is x_0 = 0, h^(q-1) x_1 - h^(q^2-1) x_2 + x_4 + x_5 = 0.

The collineation sigma_hat: <(x_0..x_5)> -> <(x_5^q, x_0^q, ..., x_4^q)>
fixes exactly Sigma, and the invariant

    intn(Gamma) = least r with dim(Gamma cap ... cap Gamma^(sigma^r)) > k - 2r

separates this family from the pseudoregulus and LP constructions, whose
vertices have intersection number 1 or 2.

Run:  python demos/02_geometry_of_the_vertex.py
"""

from scatlin import make_field, enumerate_h, family_poly
from scatlin.family import lp_delta_samples
from scatlin.geom import (disjoint_from_sigma, gamma_of, intersect, intn,
                          sigma_hat, vertex)

print(__doc__)

F = make_field(3, 1)
h = enumerate_h(F)[0]
G = gamma_of(h)
print(f"h = {h}; Gamma has projective dimension {G.pdim}")
print(f"Gamma avoids Sigma: Gamma lies in x_0 = 0 and every Sigma point has "
      f"x_0 != 0 -> {disjoint_from_sigma(G)}\n")

G1 = sigma_hat(G, 1)
G2 = sigma_hat(G, 2)
q = F.q
print("the closed-form equations of the images hold on every basis vector:")
ok1 = all(r[1].is_zero()
          and (h**(q*q - q) * r[2] + h**(-q - 1) * r[3] + r[5] + r[0]).is_zero()
          for r in G1.rows)
ok2 = all(r[2].is_zero()
          and (-(h**(-1 - q*q)) * r[3] + h**(-q*q - q) * r[4] + r[0] + r[1]).is_zero()
          for r in G2.rows)
print(f"  Gamma^sigma  : x_1 = 0, h^(q^2-q) x_2 + h^(-q-1) x_3 + x_5 + x_0 = 0  -> {ok1}")
print(f"  Gamma^sigma^2: x_2 = 0, -h^(-1-q^2) x_3 + h^(-q^2-q) x_4 + x_0 + x_1 = 0 -> {ok2}\n")

print("dimension chain of the iterated intersections:")
I1 = intersect(G, G1)
I2 = intersect(I1, G2)
print(f"  dim Gamma                                = {G.pdim}")
print(f"  dim Gamma cap Gamma^sigma                = {I1.pdim}")
print(f"  dim Gamma cap Gamma^sigma cap Gamma^s^2  = {I2.pdim}   (empty)\n")

r1, dims1 = intn(G, 1)
r5, dims5 = intn(G, 5)
print(f"intn under sigma_hat   : r = {r1}, chain {dims1}")
print(f"intn under sigma_hat^5 : r = {r5}, chain {dims5}")
print("\nthe same invariant of the pseudoregulus and LP vertices:")
for name, param in (("pseudoregulus", None), ("lp", lp_delta_samples(F)[0])):
    r, dims = intn(vertex(family_poly(F, name, param)), 1)
    print(f"  {name:13s}: r = {r}, chain {dims}")
print("an intersection number of 3 rules out both of them.")

print("\nsweeping every admissible h at q = 3 and q = 5:")
for q in (3, 5):
    Fq = make_field(q, 1)
    rs = {intn(gamma_of(h), 1)[0] for h in enumerate_h(Fq)}
    print(f"  q = {q}: intn values over all h -> {rs}")
