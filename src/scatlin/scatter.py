"""Scatteredness of q-polynomials, decided two independent ways.

Oracle route: bucket f(x)/x.  The map x -> f(x)/x is constant on F_q*-cosets
of the multiplicative group, so one pass over the (q^6-1)/(q-1) coset
representatives recovers every point weight: a point <(1, m)> of PG(1, q^6)
receives (q^w - 1)/(q - 1) cosets exactly when dim ker(f - m x) = w.

Criterion route: scan m over F_{q^6} and test whether the determinants of the
matrix M(m) and of its truncation (first column and last row removed) vanish
simultaneously.  M(m) is QPoly.dickson() of f with a_0 replaced by m, so its
diagonal slots hold m^(q^i).  A common root at m0 certifies a point of
weight >= 2, namely <(1, a_0 - m0)>; no common root means scattered.

Each decider returns every violation, in enumeration order (m = 0 first,
then g^0, g^1, ...): the oracle the points of weight >= 2, the criterion the
common roots m0.  is_scattered runs both and demands that the roots certify
exactly the oracle's points.

Both scans run on the field's Zech-table kernels (every field make_field
builds has them) and walk the R = (q^6-1)/(q-1) coset representatives g^r
slice by slice.  f is F_p-linear, so the oracle takes f(g^r) from
Field.linear_slices, which sums f's images of the low and high halves of
g^r's packed digits (two small gathers and one Zech add, however many terms
f has), divides by g^r in exponents, then sorts the values in place and
counts their runs.

The criterion expands det M(m) in the six conjugates m^(q^v): the coefficient
c_S of prod(m^(q^v) for v in S) is a principal minor of M(0), and
c_{S+1} = c_S^q (indices mod 6), so each Frobenius orbit of keys S sums to
one trace Tr_{q^6/q}(w m^(e_S)) with e_S = sum(q^v for v in S).  For lambda
in F_q^*, (lambda m)^(q^v) = lambda m^(q^v), so an orbit trace with |S| = k
scales by lambda^k:

    det M(lambda m) = c_0 + sum(lambda^k T_k(m) for k in 1..6),  T_k(m) in F_q.

Each orbit term Tr(w m^(e_S)) reads the exponent progression w + r e_S
that Field.conjugate_slices yields, and each T_k(g^r) is one
Field.v_trace_lincomb over the orbit terms of size k: one gather from the
field's trace table per term, and one from a q x q addition table per term
after the first, no Zech gather.  The one size-6 term is the norm:
T_6(g^r) = g^(r R), whose F_q index 1 + r mod (q - 1) needs no gather.

A point of weight >= 2 has rank M(m) <= 4, so adj M(m) = 0.  By Jacobi's
formula, P(lambda) = det M(lambda m) = det(M(0) + lambda D), with
D = diag(m^(q^v)), has the derivative tr(adj M(lambda m) D), so such a point
sits at a multiple root: P(lambda) = P'(lambda) = 0, where
P'(lambda) = sum(k lambda^(k-1) T_k(m)) with k read mod p.  Two
q^3 x (q - 1) tables, one for k = 1..3 and one for c_0 and k = 4..6, give
the multiple roots lambda = g^(R i): a key (T_1, T_2, T_3) or (T_4, T_5,
T_6) gathers one contiguous row, with one equality test per i, about R/q
candidates in all.  The truncated determinant has no such symmetry; it stays
a v_lincomb and is evaluated once, after the scan, at the multiple roots
g^e, e = r + R i, of every slice, each term's exponent c + e e_S formed
directly from e.  The witnesses are sorted by exponent.  m = 0 is decided
by the constant terms alone.  Results do not depend on the slice size.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InternalInvariant
from . import gf
from .gf import EXP, TOWER, Field, FieldElem
from .qpoly import QPoly, multilinear_det_expansion
from . import linalg

_SAMPLE_SEED = 20191005  # fixed, so a cross-check sample repeats run to run


@dataclass
class WeightSpectrum:
    """Weight w >= 1 -> number of points of PG(1,q^6) with that weight.

    The point <(0,1)> is not on the graph subspace U_f and always has weight
    0; that is the class constant infinity_weight, not an entry of the map.
    """

    counts: dict[int, int]
    q: int
    order: int
    infinity_weight: ClassVar[int] = 0

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    @property
    def scattered(self) -> bool:
        return all(w == 1 for w in self.counts)

    def mass(self) -> int:
        """sum over points of (q^w - 1); equals q^6 - 1 for any F_q-linear f."""
        return sum(c * (self.q**w - 1) for w, c in self.counts.items())

    def mass_ok(self) -> bool:
        return self.mass() == self.order - 1

    def to_json(self):
        return {str(w): c for w, c in sorted(self.counts.items())}


@dataclass
class ScatterVerdict:
    """One decider's answer: every witness it found, in enumeration order
    (the oracle's points m, the criterion's roots m0)."""

    method: str
    witnesses: list[FieldElem]
    spectrum: WeightSpectrum | None = None

    @property
    def scattered(self) -> bool:
        return not self.witnesses

    @property
    def witness(self) -> FieldElem | None:
        return self.witnesses[0] if self.witnesses else None

    def to_json(self):
        out = {"scattered": self.scattered, "method": self.method,
               "witnesses": [w.ctx.format(w) for w in self.witnesses]}
        if self.witness is not None:
            out["witness"] = self.witness.ctx.format(self.witness)
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum.to_json()
        return out


def point_weight(f: QPoly, m) -> int:
    """dim_{F_q} ker(f - m*x), from its digit matrix (QPoly.kernel_dim): the
    weight of the point <(1, m)>."""
    return f.minus_m_x(m).kernel_dim()


# ---------------------------------------------------------------------------
# oracle route
# ---------------------------------------------------------------------------

def _exp_quotient(y, e, N: int, out, tmp) -> None:
    """out <- y - e mod N, the exponent of g^y / g^e, for exponents y <= N
    and e < N, by one conditional subtraction; the sentinel y = N (zero)
    stays N."""
    np.subtract(y, e, out=out)
    np.add(out, N, out=tmp)
    np.minimum(out, tmp, out=out)
    np.copyto(out, N, where=y == N)


def _coset_counts(f: QPoly):
    """(keys, cosets): every value of f(x)/x as its exponent key (N for the
    zero element), ascending, with the number of F_q*-cosets x mapping to it
    (uint32).

    f is F_p-linear, so Field.linear_slices gives f(g^e) on each slice of
    the coset representatives e < (q^6 - 1)/(q - 1) from f's images of the
    half-basis elements (QPoly.v_evaluate), and f(x)/x is f(g^e) - e; a zero
    value keeps the sentinel N.  The values are sorted in place and counted
    between their run boundaries.
    """
    ctx = f.ctx
    N, q = ctx.N, ctx.q
    vals = np.empty(N // (q - 1), dtype=EXP)
    images = [f.v_evaluate(x) for x in ctx.half_basis()]
    n = min(gf._CHUNK, vals.size)
    e, tmp = np.arange(n, dtype=EXP), np.empty(n, dtype=EXP)
    for lo, y in ctx.linear_slices(vals.size, *images):
        _exp_quotient(y, e[:y.size], N, vals[lo:lo + y.size], tmp[:y.size])
        e += n
    del y, e, tmp  # the walk's buffers, not needed for the counting
    vals.sort()
    start = np.empty(vals.size, dtype=bool)  # where a run of equal values starts
    start[0] = True
    np.not_equal(vals[1:], vals[:-1], out=start[1:])
    keys = vals[start]
    del vals
    pos = np.arange(start.size, dtype=np.uint32)[start]
    cosets = np.empty_like(pos)
    np.subtract(pos[1:], pos[:-1], out=cosets[:-1])
    cosets[-1] = start.size - pos[-1]
    return keys, cosets


def _buckets(f: QPoly):
    """(witness elements, keys, coset counts) from one bucketing pass over
    f(x)/x.

    There is one bucket per point <(1, m)> of the graph.  Its key is m.val,
    the element's exponent (N for zero).  Keys are ascending, and cosets[i]
    counts the F_q*-cosets mapping to keys[i].  The witnesses are the m
    receiving at least q + 1 cosets (weight >= 2), in enumeration order.
    """
    ctx = f.ctx
    keys, cosets = _coset_counts(f)
    bad = keys[cosets >= ctx.q + 1].tolist()
    if bad and bad[-1] == ctx.N:  # the zero element comes first
        bad.insert(0, bad.pop())
    return [ctx.elem_of_exp(k) for k in bad], keys, cosets


def _bucket_weight(ctx: Field, keys, cosets, key: int) -> int:
    """Weight of the point <(1, m)> with m.val == key, read from the bucket
    arrays: w where its coset count is (q^w - 1)/(q - 1), 0 if no x hits m."""
    i = int(np.searchsorted(keys, key))
    if i == keys.size or keys[i] != key:
        return 0
    return _weight_of(ctx, int(cosets[i]))


def _bucket_sample(ctx: Field, keys, cosets, size: int):
    """size distinct points (m, weight) to cross-check the buckets by
    elimination, weights read from the bucket arrays.  They are the smallest
    key of each weight class present, the smallest key that no x hits
    (weight 0) if there is one, then keys drawn from a generator seeded with
    _SAMPLE_SEED; keys run over range(order), the exponents and N."""
    out = keys[np.unique(cosets, return_index=True)[1]].tolist()
    if keys.size < ctx.order:
        gaps = np.flatnonzero(keys != np.arange(keys.size))
        out.append(int(gaps[0]) if gaps.size else keys.size)
    rng = random.Random(_SAMPLE_SEED)
    while len(out) < size:
        key = rng.randrange(ctx.order)
        if key not in out:
            out.append(key)
    return [(FieldElem(ctx, k), _bucket_weight(ctx, keys, cosets, k)) for k in out]


def _weight_of(ctx: Field, cosets: int) -> int:
    q = ctx.q
    for w in range(1, TOWER + 1):
        if cosets == (q**w - 1) // (q - 1):
            return w
    raise InternalInvariant("impossible coset count %d (bug)" % cosets)


def _spectrum(ctx: Field, cosets) -> WeightSpectrum:
    q, counts, left = ctx.q, {}, cosets.size
    for w in range(1, TOWER + 1):
        if not left:
            break
        n = int(np.count_nonzero(cosets == (q**w - 1) // (q - 1)))
        if n:
            counts[w], left = n, left - n
    if left:  # a count that is no (q^w - 1)/(q - 1)
        sizes = [(q**w - 1) // (q - 1) for w in range(1, TOWER + 1)]
        _weight_of(ctx, int(cosets[~np.isin(cosets, sizes)][0]))
    return WeightSpectrum(counts=counts, q=ctx.q, order=ctx.order)


def weight_spectrum(f: QPoly) -> WeightSpectrum:
    return _spectrum(f.ctx, _buckets(f)[2])


def is_scattered_oracle(f: QPoly) -> ScatterVerdict:
    """Every m whose point <(1, m)> has weight >= 2, and the spectrum, from
    one bucketing pass."""
    witnesses, _, cosets = _buckets(f)
    return ScatterVerdict("oracle", witnesses, _spectrum(f.ctx, cosets))


# ---------------------------------------------------------------------------
# criterion route
# ---------------------------------------------------------------------------

def _criterion_matrices(f: QPoly, m):
    """(M(m), M1(m)): the Dickson matrix of f with a_0 replaced by m, so
    m^(q^i) sits at (i, i), and its truncation without the first column and
    the last row, where m^(q^i) sits at (i, i - 1) for i = 1..4."""
    M = QPoly(f.ctx, (m,) + f.coeffs[1:]).dickson()
    return M, [row[1:] for row in M[:TOWER - 1]]


def dickson_dets_at(f: QPoly, m) -> tuple[FieldElem, FieldElem]:
    """(det M(m), det of its truncation) by direct elimination.

    Deliberately independent of the expansion used by the bulk scan, so a
    reported witness can be re-certified along a second path.
    """
    M, M1 = _criterion_matrices(f, m)
    return linalg.det(f.ctx, M), linalg.det(f.ctx, M1)


def _expansion_terms(f: QPoly, drop: int):
    """Expansion of det M(m) (drop = 0) or of its truncation (drop = 1) as
    v_lincomb terms [(log coeff, key)]: each term contributes
    coeff * prod(m^(q^v) for v in key).  The constant term has the empty key.

    At m = 0 the variable slots hold zero, so each coefficient is a principal
    minor.  In the truncation, moving the last column to the front (a
    5-cycle, which keeps the determinant) puts m^(q^i) on the diagonal.
    """
    ctx = f.ctx
    A = _criterion_matrices(f, ctx.zero())[drop]
    if drop:
        A = [row[-1:] + row[:-1] for row in A]
    terms = multilinear_det_expansion(ctx, A, range(drop, TOWER - drop))
    return [(coeff.val, tuple(sorted(key))) for key, coeff in terms.items()]


def _orbit_terms(f: QPoly):
    """det M(m) as v_trace_lincomb terms [(log w, key)], one per Frobenius
    orbit of the expansion keys: det M(m) = sum Tr_{q^6/q}(w m^(e_key)) with
    e_key = sum(q^v for v in key).

    The expansion coefficients c_S satisfy c_{S+1} = c_S^q (indices mod 6),
    so an orbit of length L sums to Tr_{q^L/q}(c_S m^(e_S)), which is
    Tr_{q^6/q}(z_L c_S m^(e_S)) for any z_L with Tr_{q^6/q^L}(z_L) = 1.  A
    coefficient that breaks the symmetry raises InternalInvariant.
    """
    ctx = f.ctx
    N, q = ctx.N, ctx.q
    coeff = {key: c for c, key in _expansion_terms(f, 0)}
    terms, seen = [], set()
    for key in sorted(coeff):
        if key in seen:
            continue
        orbit = [key]
        while True:
            nxt = tuple(sorted((v + 1) % TOWER for v in orbit[-1]))
            if coeff.get(nxt, N) != coeff[orbit[-1]] * q % N:
                raise InternalInvariant("Dickson minors at %s and %s are not "
                                        "Frobenius conjugates (bug)" % (orbit[-1], nxt))
            if nxt == key:
                break
            orbit.append(nxt)
        seen.update(orbit)
        z = ctx.unit_trace(len(orbit)).val
        terms.append(((z + coeff[key]) % N, key))
    return terms


@functools.lru_cache(maxsize=None)
def _multiple_root_tables(ctx: Field, const: int):
    """(low, high): uint8 arrays of shape (q^3, q - 1) that find the
    multiple roots lambda in F_q^* of P(lambda) = c0 + sum(lambda^k t_k for
    k in 1..6), a polynomial over F_q in F_q indices, where
    c0 = Tr_{q^6/q}(g^const) (const = N for zero).

    For lambda = g^(R i) and indices (a, b, c) at row (a q + b) q + c,
    low[row, i] holds x q + y, with x the index of lambda a + lambda^2 b +
    lambda^3 c and y that of a + 2 lambda b + 3 lambda^2 c; high[row, i]
    holds the indices of -(c0 + lambda^4 a + lambda^5 b + lambda^6 c) and
    -(4 lambda^3 a + 5 lambda^4 b + 6 lambda^5 c) in the same way.  So
    P(lambda) = P'(lambda) = 0 iff low[(t_1 q + t_2) q + t_3, i] ==
    high[(t_4 q + t_5) q + t_6, i], and a lookup gathers one contiguous
    row per key.  The integer factors k of P' are read mod p, so a term
    with p | k vanishes, and x q + y < q^2 <= 256 fits a uint8.  Kept per
    (field, const), at most q pairs per field (one per value of c0), and
    read-only.
    """
    q = ctx.q
    trace, add = ctx._trace_tables()
    add = add.reshape(q, q)
    a = np.arange(q)
    i = np.arange(q - 1)[:, None]

    def half(terms):  # index of the sum of k lambda^e t_j over (k, e) in terms
        s = []
        for k, e in terms:
            u = ctx.fq_index(ctx.from_int(k))  # k mod p, 0 when p | k
            s.append(np.where((a == 0) | (u == 0), 0, 1 + (a + u - 2 + i * e) % (q - 1)))
        ab = add[s[0][:, :, None], s[1][:, None, :]]
        return add[ab[:, :, :, None], s[2][:, None, None, :]].reshape(q - 1, -1)

    minus_c0 = ctx.fq_index(-ctx.fq_elem(int(trace[const])))
    tables = (half([(1, k) for k in (1, 2, 3)]) * q +
              half([(k, k - 1) for k in (1, 2, 3)]),
              add[minus_c0, half([(-1, k) for k in (4, 5, 6)])] * q +
              half([(-k, k - 1) for k in (4, 5, 6)]))
    tables = tuple(np.ascontiguousarray(t.T, dtype=np.uint8) for t in tables)
    for t in tables:
        t.flags.writeable = False
    return tables


def _key_exp(ctx: Field, key) -> int:
    """e_key = sum(q^v for v in key) mod N: m^(e_key) is the product of the
    conjugates m^(q^v) that an expansion key names."""
    return sum(pow(ctx.q, v, ctx.N) for v in key) % ctx.N


def is_scattered_dickson(f: QPoly) -> ScatterVerdict:
    """Every m in F_{q^6} where the two determinants vanish together."""
    ctx = f.ctx
    witnesses: list[FieldElem] = []

    N, q = ctx.N, ctx.q
    R = N // (q - 1)
    terms6 = _orbit_terms(f)
    terms5 = _expansion_terms(f, 1)
    # at m = 0 only the constant terms (empty key) survive
    if not any(key == () for terms in (terms6, terms5) for _, key in terms):
        witnesses.append(ctx.zero())
    # det M(g^(r + R i)) = c0 + sum(lambda^k T_k(g^r)) with lambda = g^(R i);
    # c0 is the trace of the one constant orbit term, T_6 is the norm
    # Tr(w g^(r R)) = g^(r R), and every other orbit term (c, S) reads the
    # progression c + r e_S, so it is the term (0, (j,))
    c6 = next((c for c, key in terms6 if len(key) == TOWER), N)
    if ctx.trace(ctx.elem_of_exp(c6)) != ctx.one():
        raise InternalInvariant("the size-6 orbit term is not the norm (bug)")
    live = [(c, key) for c, key in terms6 if 0 < len(key) < TOWER]
    by_size = [[(0, (j,)) for j, (_, key) in enumerate(live) if len(key) == k]
               for k in range(TOWER)]
    # F_q index 1 + r mod (q - 1) of the norm g^(r R), read as a window
    norm = np.tile(np.arange(1, q, dtype=np.uint16), min(gf._CHUNK, R) // (q - 1) + 2)
    low, high = _multiple_root_tables(ctx, next((c for c, key in terms6 if not key), N))
    cand = []  # the multiple roots g^e of det M, e = r + R i, of each slice
    for lo, bases in ctx.conjugate_slices(R, [_key_exp(ctx, key) for _, key in live],
                                          [c for c, _ in live]):
        # T_k(g^r) as F_q indices, three to a key; a degree without
        # terms adds nothing
        key_low, key_high = np.zeros((2, min(gf._CHUNK, R - lo)), dtype=np.uint16)
        for k in range(1, TOWER):
            key = key_low if k <= 3 else key_high
            key *= q
            if by_size[k]:
                key += ctx.v_trace_lincomb(by_size[k], bases)
        key_high *= q
        key_high += norm[lo % (q - 1):lo % (q - 1) + key_high.size]
        # candidates (r, i): one contiguous table row per key
        hit = np.flatnonzero(low.take(key_low, axis=0) == high.take(key_high, axis=0))
        r, i = np.divmod(hit, q - 1)
        cand.append(lo + r + R * i)
    # the truncated determinant at every candidate g^e, each term's exponent
    # c + e e_S formed from e; out= keeps the shape when it has no terms (f = 0)
    e = np.concatenate(cand)
    exps = [((c + e * _key_exp(ctx, key)) % N).astype(EXP) for c, key in terms5]
    roots = ctx.v_lincomb([(0, (j,)) for j in range(len(exps))], exps,
                          out=np.empty(e.size, dtype=EXP)) == N
    witnesses.extend(ctx.from_exp(k) for k in np.sort(e[roots]).tolist())
    return ScatterVerdict("dickson", witnesses)


def dickson_witness_point(f: QPoly, m0: FieldElem) -> FieldElem:
    """Map a criterion root m0 to the projective point it certifies.

    det M(m0) = 0 with the diagonal replacing a_0 means ker(f - (a_0 - m0) x)
    is nontrivial, so the offending point is <(1, a_0 - m0)>.
    """
    return f.coeffs[0] - m0


def is_scattered(f: QPoly) -> dict:
    """Run both deciders, {"oracle": ..., "dickson": ...}.  Raises
    InternalInvariant unless the criterion's roots certify exactly the
    oracle's points of weight >= 2."""
    out = {"oracle": is_scattered_oracle(f), "dickson": is_scattered_dickson(f)}
    points = set(out["oracle"].witnesses)
    certified = {dickson_witness_point(f, m0) for m0 in out["dickson"].witnesses}
    if points != certified:
        raise InternalInvariant("decider disagreement: %d oracle points, %d certified "
                                "by Dickson roots, %d in only one (bug)" %
                                (len(points), len(certified), len(points ^ certified)))
    return out
