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

Both deciders short-circuit on the first violation in enumeration order
(m = 0 first, then g^0, g^1, ...) and offer an exhaustive mode that reports
every violation, which the reproduction suite uses to match the known
closed-form witnesses.

On Zech-mode contexts both scans walk their range in _CHUNK slices, and each
slice is one call of the fused kernel Field.v_lincomb on uint32 exponent
arrays.  The oracle sums a_j x^(q^j - 1) over the coset representatives; the
criterion evaluates each determinant as its multilinear expansion in the six
conjugates m^(q^v).  Its coefficients are principal minors of M(0); the
exponents e * q^v mod N are formed once per slice (in int64) and then summed
per term in 32-bit.  The truncated determinant is evaluated only at the
roots of the full one.  A 2^16-element slice keeps the working set (six
conjugate arrays and four kernel buffers) near L2 size; the Zech table
gathers are the remaining cost.  Results do not depend on _CHUNK.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariant, TooLarge
from .gf import EXP, TOWER, Field, FieldElem
from .qpoly import QPoly, multilinear_det_expansion
from . import linalg

DEFAULT_SCAN_LIMIT = 1 << 24
_CHUNK = 1 << 16  # scan slice: a slice's working set stays in L2
_SAMPLE_SEED = 20191005  # fixed, so a cross-check sample repeats run to run


@dataclass
class WeightSpectrum:
    """Weight w >= 1 -> number of points of PG(1,q^6) with that weight.

    The point <(0,1)> is not on the graph subspace U_f and always has weight
    0; it is recorded separately instead of polluting the map.
    """

    counts: dict[int, int]
    q: int
    order: int
    infinity_weight: int = 0

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
    scattered: bool
    method: str
    witness: FieldElem | None = None
    witnesses: list | None = None
    spectrum: WeightSpectrum | None = None

    def to_json(self):
        out = {"scattered": self.scattered, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness.ctx.format(self.witness)
        if self.witnesses is not None:
            out["witnesses"] = [w.ctx.format(w) for w in self.witnesses]
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum.to_json()
        return out


def point_weight(f: QPoly, m) -> int:
    """dim_{F_q} ker(f - m*x): the weight of the point <(1, m)>."""
    return f.minus_m_x(m).kernel_dim()


def _guard(ctx: Field, limit: int):
    if ctx.order > limit:
        raise TooLarge("scan over %d elements exceeds the budget %d" %
                       (ctx.order, limit))


# ---------------------------------------------------------------------------
# oracle route
# ---------------------------------------------------------------------------

def _coset_counts(f: QPoly):
    """(keys, cosets): every value of f(x)/x as its exponent key (N for the
    zero element), ascending, with the number of F_q*-cosets x mapping to it.
    Zech mode only.

    At x = g^i the value is sum_j a_j g^(i (q^j - 1)), one v_lincomb over the
    coset representatives i < (q^6 - 1)/(q - 1), taken in _CHUNK slices.
    """
    ctx = f.ctx
    T = ctx.N // (ctx.q - 1)
    terms = [(ctx.exp_of(a), (j - 1,) if j else ()) for j, a in enumerate(f.coeffs)]
    vals = np.empty(T, dtype=EXP)
    for lo in range(0, T, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, T), dtype=np.int64)
        bases = [ctx.v_pow(i, ctx._qpow[j] - 1) for j in range(1, TOWER)]
        ctx.v_lincomb(terms, bases, out=vals[lo:lo + i.size])
    return np.unique(vals, return_counts=True)


def _buckets(f: QPoly, scan_limit: int = DEFAULT_SCAN_LIMIT):
    """(witness elements, keys, coset counts) from one bucketing pass over
    f(x)/x, under the scan guard.

    There is one bucket per point <(1, m)> of the graph.  Its key is m.val,
    the element's own encoding: the exponent (N for zero) in Zech mode, the
    packed value in poly mode.  Keys are ascending, and cosets[i] counts the
    F_q*-cosets mapping to keys[i].  The witnesses are the m receiving at
    least q + 1 cosets (weight >= 2), in enumeration order.
    """
    ctx = f.ctx
    _guard(ctx, scan_limit)
    bad_at = ctx.q + 1
    if ctx.mode == "zech":
        keys, cosets = _coset_counts(f)
        bad = keys[cosets >= bad_at].tolist()
        if bad and bad[-1] == ctx.N:  # the zero element comes first
            bad.insert(0, bad.pop())
        return [ctx.elem_of_exp(k) for k in bad], keys, cosets
    # poly mode has no discrete log, so the enumeration records each
    # element's position, indexed by packed value
    counts: dict[int, int] = {}
    position = np.empty(ctx.order, dtype=np.int64)
    for idx, x in enumerate(ctx.elements()):
        position[x.val] = idx
        if not x.is_zero():
            m = f(x) / x
            counts[m.val] = counts.get(m.val, 0) + 1
    keys = np.array(sorted(counts), dtype=np.int64)
    cosets = np.array([counts[k] for k in keys.tolist()]) // (ctx.q - 1)
    bad = sorted(keys[cosets >= bad_at].tolist(), key=position.__getitem__)
    return [ctx.from_packed(v) for v in bad], keys, cosets


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
    _SAMPLE_SEED; keys run over range(order) in both modes."""
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
    sizes, points = np.unique(cosets, return_counts=True)
    counts = {_weight_of(ctx, c): n for c, n in zip(sizes.tolist(), points.tolist())}
    return WeightSpectrum(counts=counts, q=ctx.q, order=ctx.order)


def weight_spectrum(f: QPoly, scan_limit: int = DEFAULT_SCAN_LIMIT) -> WeightSpectrum:
    return _spectrum(f.ctx, _buckets(f, scan_limit)[2])


def is_scattered_oracle(f: QPoly, exhaustive: bool = False,
                        scan_limit: int = DEFAULT_SCAN_LIMIT) -> ScatterVerdict:
    """True iff no point has weight >= 2; witness = smallest offending m.

    The verdict, the witnesses and the spectrum come from one bucketing pass.
    """
    ctx = f.ctx
    witnesses, _, cosets = _buckets(f, scan_limit)
    scattered = not witnesses
    return ScatterVerdict(
        scattered=scattered,
        method="oracle",
        witness=None if scattered else witnesses[0],
        witnesses=witnesses if exhaustive else None,
        spectrum=_spectrum(ctx, cosets),
    )


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
    return [(ctx.exp_of(coeff), tuple(sorted(key))) for key, coeff in terms.items()]


def _eval_expansion(ctx: Field, terms, e):
    """Vector of det values (exponent encoding) at m = g^e for the int64
    exponent array e (N for m = 0): the six conjugates m^(q^v) are the bases
    of one v_lincomb."""
    return ctx.v_lincomb(terms, [ctx.v_frob(e, v) for v in range(TOWER)])


def is_scattered_dickson(f: QPoly, exhaustive: bool = False,
                         scan_limit: int = DEFAULT_SCAN_LIMIT) -> ScatterVerdict:
    """Scan all m in F_{q^6} for a common root of the two determinants."""
    ctx = f.ctx
    _guard(ctx, scan_limit)
    witnesses: list[FieldElem] = []

    if ctx.mode == "zech":
        terms6 = _expansion_terms(f, 0)
        terms5 = _expansion_terms(f, 1)
        N = ctx.N
        # enumeration index k is m = 0 for k = 0 and m = g^(k-1) otherwise
        for lo in range(0, ctx.order, _CHUNK):
            e = np.arange(lo - 1, min(lo + _CHUNK, ctx.order) - 1, dtype=np.int64)
            if lo == 0:
                e[0] = N
            cand = e[_eval_expansion(ctx, terms6, e) == N]
            if cand.size:
                hits = cand[_eval_expansion(ctx, terms5, cand) == N]
                witnesses.extend(ctx.elem_of_exp(int(h)) for h in hits.tolist())
                if witnesses and not exhaustive:
                    break
    else:
        for m in ctx.elements():
            d6, d5 = dickson_dets_at(f, m)
            if d6.is_zero() and d5.is_zero():
                witnesses.append(m)
                if not exhaustive:
                    break

    scattered = not witnesses
    return ScatterVerdict(
        scattered=scattered,
        method="dickson",
        witness=None if scattered else witnesses[0],
        witnesses=witnesses if exhaustive else None,
    )


def is_scattered(f: QPoly, method: str = "both",
                 scan_limit: int = DEFAULT_SCAN_LIMIT) -> dict:
    """Run one or both deciders; raises if the two routes disagree."""
    out: dict = {}
    if method in ("oracle", "both"):
        out["oracle"] = is_scattered_oracle(f, scan_limit=scan_limit)
    if method in ("dickson", "both"):
        out["dickson"] = is_scattered_dickson(f, scan_limit=scan_limit)
    if method == "both":
        if out["oracle"].scattered != out["dickson"].scattered:
            raise InternalInvariant("decider disagreement: oracle=%s dickson=%s (bug)" %
                                    (out["oracle"].scattered, out["dickson"].scattered))
    return out


def dickson_witness_point(f: QPoly, m0: FieldElem) -> FieldElem:
    """Map a criterion root m0 to the projective point it certifies.

    det M(m0) = 0 with the diagonal replacing a_0 means ker(f - (a_0 - m0) x)
    is nontrivial, so the offending point is <(1, a_0 - m0)>.
    """
    return f.coeffs[0] - m0
