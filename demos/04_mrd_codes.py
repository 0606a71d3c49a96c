"""From scattered polynomials to maximum rank distance codes.

C_f = {x -> a f(x) + b x : a, b in F_{q^6}} is a set of q^12 F_q-linear maps
on F_{q^6}, i.e. 6x6 matrices over F_q.  When f is scattered every nonzero
codeword has rank at least 5, which meets the Singleton-like bound

    |C| <= q^(max(m,n) (min(m,n) - d + 1))

with equality: parameters (6, 6, q; 5).  The code's invariants are its left
and right idealisers: the left one is exactly the scalar maps F_{q^6} id,
and the right one has dimension 2 over F_q for every f_h.  The right one is
the set of (a, b) with f o (a f + b id) in C, and its basis prints in the
canonical echelon form of the base-p digits of a and b (their coefficients
of X^j, as in Field.packed).

Run:  python demos/04_mrd_codes.py
"""

from scatlin import make_field, enumerate_h, family_poly
from scatlin.equiv import gl_equivalent
from scatlin.mrd import code_from, idealisers, mrd_report, rank_distribution

print(__doc__)

F = make_field(3, 1)
h = enumerate_h(F)[0]
fh = family_poly(F, "new_fh", h)
C = code_from(fh)

print(f"h = {h}, q = 3.  Codeword ranks on a few (a, b):")
for a, b in ((0, 0), (0, 1), (1, 0), ("g^5", "g^100")):
    print(f"  rank(a f + b id) at (a, b) = ({a}, {b}): {C.codeword_rank(a, b)}")

rep = mrd_report(C)
dist = rep["distribution"]
print(f"\nfull rank distribution over 3^12 = {rep['cardinality']} codewords"
      f" (one bucketing pass, cross-checked by elimination):")
for r, c in sorted(dist.counts.items()):
    print(f"  rank {r}: {c}")
print(f"minimum distance {rep['min_distance']};"
      f" Singleton equality: {rep['singleton_equality']}  -> MRD: {rep['mrd']}")

left, right = idealisers(C)
print(f"\nleft idealiser: dimension {len(left)} over F_3, every basis element a"
      f" scalar map b id: {all(a.is_zero() for a, _ in left)}")
print(f"right idealiser: dimension {len(right)} over F_3, basis (a, b) of a f + b id:")
for a, b in right:
    print(f"  ({a}, {b})")
for name, param in (("pseudoregulus", None), ("lp", "g^1")):
    L, R = idealisers(code_from(family_poly(F, name, param)))
    print(f"  for comparison, {name}: (left, right) = ({len(L)}, {len(R)})")

# a non-scattered polynomial drops the distance
bad = family_poly(F, "case1")
print(f"\nnon-scattered comparison (x^q - x^q^2 + x^q^4 + x^q^5 at q = 3):")
print(f"  distribution {rank_distribution(code_from(bad)).to_json()}")

# C_f and C_g are equivalent iff U_f and U_g are GammaL-equivalent (Sheekey)
ps = code_from(family_poly(F, "pseudoregulus"))
verdict = gl_equivalent(C.f, ps.f)
print(f"\nC_fh vs the Gabidulin-like code of x^q: {verdict.status}")
print("so the family's codes are genuinely new at q = 3 (for h outside F_9).")
