"""Field tower arithmetic: construction, axioms, Frobenius, norms, subfields,
enumeration order, and agreement with coefficient-vector arithmetic."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from scatlin import QPoly, gf, make_field, parse_field_spec
from scatlin.errors import (BadSubfield, CtxMismatch, DivisionByZero,
                            InternalInvariant, NotPrime, TooLarge)
from scatlin.gf import (EXP, Field, _det_mod_p, _digits, _is_irreducible,
                        _matpow, _mult_matrix, _pack_digits, _wide_layout)


def test_make_field_sizes(f3, f5, f4):
    assert f3.order == 729 and f3.q == 3
    assert f5.order == 15625 and f5.q == 5
    assert f4.order == 4096 and f4.q == 4


def test_make_field_guards(monkeypatch):
    """A field above DEFAULT_ZECH_LIMIT elements (q = 17, 2^5; 2^11 and
    3^(10^9) without forming the order) or with s < 1 raises TooLarge
    before any modulus search or table build; primality is checked first."""
    def built(self):
        raise AssertionError("a refused field was built")
    monkeypatch.setattr(Field, "_find_modulus", built)
    monkeypatch.setattr(Field, "_build_tables", built)
    for p, s in ((17, 1), (2, 5), (2, 11), (3, 10**9), (3, 0)):
        with pytest.raises(TooLarge):
            make_field(p, s)
    for p, s in ((9, 1), (1, 1), (0, -1)):
        with pytest.raises(NotPrime):
            make_field(p, s)


@pytest.mark.parametrize("p,k,count", [(2, 6, 9), (3, 6, 116), (2, 12, 335)])
def test_irreducible_count_is_gauss(p, k, count):
    """Of all p^k monic candidates of degree k, those with constant term 0
    included, _is_irreducible accepts exactly Gauss's number
    (1/k) sum_{d | k} mu(d) p^(k/d)."""
    assert sum(_is_irreducible(tuple(_digits(v, p, k)) + (1,), p)
               for v in range(p**k)) == count


def test_search_without_a_result_is_a_bug(monkeypatch):
    """A modulus search that finds nothing is a bug signal, not bad input."""
    monkeypatch.setattr(gf, "_is_irreducible", lambda mod, p: False)
    with pytest.raises(InternalInvariant):
        gf.Field(3, 1)


def test_one_context_per_field():
    a = make_field(3, 1)
    assert make_field(p=3, s=1) is a
    b = make_field(3, s=1)
    assert b is a
    assert a.one() + b.gen() == b.gen() + a.one()  # no CtxMismatch


def test_check_tables_catches_corruption():
    F = Field(3, 1)  # fresh: the cached context must stay intact
    F._check_tables()
    F._log[int(F._pow_packed[10])] = 11
    with pytest.raises(InternalInvariant):
        F._check_tables()
    G = Field(3, 1)
    G._Z[5] = G.N + 1  # would not survive a 32-bit exponent encoding
    with pytest.raises(InternalInvariant):
        G._check_tables()


def _matmul_tables(F):
    """Reference power, log and Zech tables: the g-orbit doubled as an int8
    digit matrix by int64 matmuls, then packed with the base-p weights."""
    p, k, N = F.p, F.deg, F.N
    G = _mult_matrix(F.modulus, F.gen_coeffs, p)
    C = np.zeros((N, k), dtype=np.int8)
    C[0, 0] = 1
    m = 1
    while m < N:
        b = min(m, N - m)
        gm = _mult_matrix(F.modulus, C[m - 1], p) @ G % p  # g^(m-1) g
        T = gm.T  # row-vector action
        C[m:m + b] = (C[:b].astype(np.int64) @ T) % p
        m += b
    pow_packed = (C.astype(np.int64) @ p ** np.arange(k)).astype(EXP)
    log = np.full(F.order, N, dtype=EXP)
    log[pow_packed] = np.arange(N, dtype=EXP)
    c0 = pow_packed % p
    Z = np.append(log[pow_packed - c0 + (c0 + 1) % p], EXP(0))
    return {"_pow_packed": pow_packed, "_log": log, "_Z": Z}


ZECH_UP_TO_2_20 = [(p, s) for p in (2, 3, 5, 7) for s in (1, 2, 3)
                   if p ** (6 * s) <= 1 << 20]


@pytest.mark.parametrize("p,s", ZECH_UP_TO_2_20)
def test_tables_match_matmul_doubling(p, s):
    """Every Zech field of order at most 2^20: the wide-word doubling gives
    the same three tables as the matmul doubling, bit for bit."""
    F = make_field(p, s)
    for name, ref in _matmul_tables(F).items():
        got = getattr(F, name)
        assert got.dtype == EXP and np.array_equal(got, ref), name


# sha256 of the tables' bytes, and the summary fingerprint, as built by the
# matmul doubling
PINNED_TABLES = {
    (13, 1): ("328a717da22e",
              "04d39e6a04fd49065eb42593786e603f6a8438e688b59cc631d783aa69630f33",
              "0279f7af0ba76e973229d1d94c642152ce1fbda4b8475404dd2d0c23d9e87f22",
              "d5826abc27707bdfe8a872037bafa9525c0d8ea8fac2a9c68aa209d9db0678de"),
    (2, 4): ("b0c0e928e9f0",
             "f1fbb21fbdeb625646698cbe56ca570b0306014e543bd1a77413b7e171f266e6",
             "2c90762d026efe965cd9415b2fae40f94295ce3795dfde0d425c4c2300c90f50",
             "1608027e1b2fe8989433d024aba57672b488fadfba7f2bb7fac79341b9f066e1"),
}


@pytest.mark.parametrize("p,s", sorted(PINNED_TABLES))
def test_tables_pinned_digests(p, s):
    """The largest fields, q = 13 (uint32 words) and q = 16 (uint64)."""
    F = make_field(p, s) if (p, s) == (13, 1) else Field(p, s)
    got = tuple(hashlib.sha256(getattr(F, name).tobytes()).hexdigest()
                for name in ("_pow_packed", "_log", "_Z"))
    assert (F.summary()["fingerprint"],) + got == PINNED_TABLES[p, s]


def test_norm_is_determinant(f3, f5, f7, f9):
    """det M(a) over F_p, by elimination, is the norm a^((p^k-1)/(p-1)) of
    a = sum c_i X^i to F_p, the identity behind the generator search's
    tests at the primes dividing p - 1: seeded candidates, zero included,
    at p = 3, 5, 7 and at q = 9 (k = 12)."""
    rng = random.Random(17)
    for F in (f3, f5, f7, f9):
        p, k = F.p, F.deg
        cands = [[0] * k] + [[rng.randrange(p) for _ in range(k)] for _ in range(20)]
        for c in cands:
            M = _mult_matrix(F.modulus, c, p)
            norm = _matpow(M, (p**k - 1) // (p - 1), p)
            assert np.array_equal(norm, _det_mod_p(M, p) * np.eye(k, dtype=np.int64))


def test_digit_matrix_of_multiplication(f3, f4, f5, f9):
    """The digit matrix of x -> a x is _mult_matrix of a's digits, the
    construction-time builder: 50 seeded a per field, zero included."""
    rng = random.Random(18)
    for F in (f3, f4, f5, f9):
        for e in [F.N] + [rng.randrange(F.N) for _ in range(49)]:
            a = _digits(F.packed(F.elem_of_exp(e)), F.p, F.deg)
            M = F.digit_matrix([e] + [F.N] * 5)
            assert np.array_equal(M, _mult_matrix(F.modulus, a, F.p))


def test_digit_matrix_batches(f3, f9):
    """A batch of coefficient rows, zeros included, gives the matrices of
    the rows one by one, and column j of each holds the digits of the
    scalar image of X^j."""
    rng = np.random.default_rng(19)
    for F in (f3, f9):
        coeffs = rng.integers(0, F.N + 1, size=(3, 4, 6))
        coeffs[0, 0] = F.N
        coeffs[1, :, 2:] = F.N
        M = F.digit_matrix(coeffs)
        assert M.shape == (3, 4, F.deg, F.deg)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(M[i, j], F.digit_matrix(coeffs[i, j]))
            f = QPoly(F, [F.elem_of_exp(e) for e in coeffs[i, j]])
            images = [F.packed(f(F.from_packed(F.p ** c))) for c in range(F.deg)]
            assert M[i, j].T.tolist() == [_digits(v, F.p, F.deg) for v in images]


def test_from_digits_inverts_packed(f3):
    """from_digits reads every element of F_(3^6) back from the base-p
    digits of its packed value, zero included."""
    elems = list(f3.elements())
    digits = [_digits(f3.packed(x), f3.p, f3.deg) for x in elems]
    assert f3.from_digits(digits).tolist() == [x.val for x in elems]


def test_wide_layout():
    """Digit width B is the least with 2^(B-1) >= p; the word is uint64
    exactly when the B deg bits overflow 32; no chunk table passes 2^16."""
    width = {2: 2, 3: 3, 5: 4, 7: 4, 11: 5, 13: 5}
    for p, B in width.items():
        for k in range(6, 25, 6):
            b, word, chunks = _wide_layout(p, k)
            assert b == B and 1 << (B - 1) >= p > 1 << (B - 2)
            assert word is (np.uint64 if B * k > 32 else np.uint32)
            assert [lo for lo, _ in chunks] == list(range(0, k, 16 // B))
            assert sum(n for _, n in chunks) == k and B * max(n for _, n in chunks) <= 16
    assert _wide_layout(13, 6)[1] is np.uint32 and _wide_layout(2, 18)[1] is np.uint64


def test_construction_is_deterministic(f3):
    fresh = Field(3, 1)  # bypass the make_field cache
    assert fresh.modulus == f3.modulus
    assert fresh.gen_coeffs == f3.gen_coeffs
    assert fresh.summary()["fingerprint"] == f3.summary()["fingerprint"]


def test_field_axioms_sampled(f3):
    rng = random.Random(11)
    one, zero = f3.one(), f3.zero()
    for _ in range(100):
        x = f3.elem_at(rng.randrange(f3.order))
        y = f3.elem_at(rng.randrange(f3.order))
        z = f3.elem_at(rng.randrange(f3.order))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        if not x.is_zero():
            assert x * x.inv() == one
    g = f3.gen()
    assert g ** f3.N == one
    assert g ** (f3.N + 5) == g ** 5  # exponent reduced mod group order


def test_division_by_zero(f3):
    with pytest.raises(DivisionByZero):
        f3.zero().inv()
    with pytest.raises(DivisionByZero):
        f3.one() / f3.zero()
    assert (f3.zero() ** 0) == f3.one()
    assert (f3.zero() ** 7).is_zero()


def test_ctx_mismatch(f3, f5):
    with pytest.raises(CtxMismatch):
        f3.one() + f5.one()


def test_h_squared_is_minus_one_at_q5(f5):
    h = f5.from_int(2)
    assert h * h == -f5.one()


def test_frobenius_basics(f3):
    rng = random.Random(3)
    for _ in range(50):
        x = f3.elem_at(rng.randrange(f3.order))
        assert x.frob(0) == x
        assert x.frob(3).frob(3) == x
        assert x.frob(1) == x ** 3


def test_frobenius_is_automorphism(f3, f9):
    for F in (f3, f9):
        rng = random.Random(17)
        for _ in range(60):
            x = F.elem_at(rng.randrange(F.order))
            y = F.elem_at(rng.randrange(F.order))
            for i in (1, 2, 5):
                assert (x + y).frob(i) == x.frob(i) + y.frob(i)
                assert (x * y).frob(i) == x.frob(i) * y.frob(i)


def test_valid_h_norm_condition(f3):
    # the smallest admissible h comes straight from the exponent congruence
    h = f3.from_exp((f3.q**3 - 1) // 2)
    assert h.frob(3) * h == -f3.one()


def test_x_to_q6_fixes_everything(f3):
    for x in f3.elements():
        assert x.frob(6) == x  # frob(6) == frob(0)
        assert x ** (3**6) == x


def test_norm_trace(f3):
    rng = random.Random(5)
    one = f3.one()
    assert f3.norm(one, 1) == one
    for _ in range(40):
        x = f3.elem_at(rng.randrange(f3.order))
        y = f3.elem_at(rng.randrange(f3.order))
        assert f3.norm(x, 3) == x ** (f3.q**3 + 1)
        for m in (1, 2, 3):
            assert f3.in_subfield(f3.norm(x, m), m)
            assert f3.in_subfield(f3.trace(x, m), m)
            assert f3.norm(x, m) * f3.norm(y, m) == f3.norm(x * y, m)
            assert f3.trace(x, m) + f3.trace(y, m) == f3.trace(x + y, m)
    with pytest.raises(BadSubfield):
        f3.norm(one, 4)


def test_in_subfield_via_trinomial_h(f3):
    # h^(q+1) = -1 forces h in F_{q^2}
    for h in f3.elements():
        if h.is_zero():
            continue
        if h ** (f3.q + 1) == -f3.one():
            assert f3.in_subfield(h, 2)


def test_enumeration(f3, f5):
    els = list(f3.elements())
    assert len(els) == 729
    assert els[0].is_zero() and els[1] == f3.one() and els[2] == f3.gen()
    assert len({f3.packed(e) for e in els}) == 729
    assert len(list(f3.subfield_elements(1))) == 3
    assert all(f3.in_subfield(e, 1) for e in f3.subfield_elements(1))
    assert len(list(f3.subfield_elements(2))) == 9
    big = {f5.packed(e) for e in f5.elements()}
    assert len(big) == 15625


def test_enum_index_roundtrip(f3):
    # valid indices are 0 (zero element) through order - 1 (g^(N-1))
    for i in (0, 1, 2, 77, 728):
        assert f3.enum_index(f3.elem_at(i)) == i


def test_elem_at_rejects_out_of_range(f3):
    # elem_at(order) would otherwise wrap to g^0, and elem_at(-1) to g^(N-2)
    for i in (f3.order, -1):
        with pytest.raises(ValueError):
            f3.elem_at(i)


def test_element_parsing(f3):
    assert f3.element("0").is_zero()
    assert f3.element("g^5") == f3.gen() ** 5
    assert f3.element(2) == f3.one() + f3.one()
    assert f3.element("2") == f3.from_int(2)
    assert f3.element("poly:0,1") == f3.gen()
    assert parse_field_spec("5^1") == (5, 1)
    assert parse_field_spec("13") == (13, 1)


class VectorArith:
    """Reference arithmetic of F on coefficient vectors mod F.modulus, with
    gf's own multiplication matrices; elements are packed base-p values."""

    def __init__(self, F):
        self.p, self.k, self.mod = F.p, F.deg, F.modulus
        self.order = F.order
        # enumeration order: 0, then g^0, g^1, ... by repeated multiplication
        self.elements = [0, 1]
        gen = _pack_digits(F.gen_coeffs, F.p)
        while len(self.elements) < F.order:
            self.elements.append(self.mul(self.elements[-1], gen))

    def _vec(self, u):
        return _digits(u, self.p, self.k)

    def _matrix(self, u):
        return _mult_matrix(self.mod, self._vec(u), self.p)

    def add(self, u, v):
        return _pack_digits([(a + b) % self.p for a, b in
                             zip(self._vec(u), self._vec(v))], self.p)

    def neg(self, u):
        return _pack_digits([-a % self.p for a in self._vec(u)], self.p)

    def mul(self, u, v):
        return _pack_digits(self._matrix(u) @ self._vec(v) % self.p, self.p)

    def pow(self, u, e):
        return _pack_digits(_matpow(self._matrix(u), e, self.p)[:, 0], self.p)

    def inv(self, u):
        return self.pow(u, self.order - 2)


def test_zech_poly_mode_agreement_q2_full(f2):
    """Zech arithmetic equals coefficient-vector arithmetic on every
    element and every pair at q = 2."""
    ref = VectorArith(f2)
    els = list(f2.elements())
    assert [f2.packed(a) for a in els] == ref.elements
    assert len(set(ref.elements)) == f2.order  # g is primitive
    for a, u in zip(els, ref.elements):
        for b, v in zip(els, ref.elements):
            assert f2.packed(a + b) == ref.add(u, v)
            assert f2.packed(a * b) == ref.mul(u, v)
        assert f2.packed(a.frob(1)) == ref.pow(u, f2.q)
        if not a.is_zero():
            assert f2.packed(a.inv()) == ref.inv(u)


def test_zech_poly_mode_agreement_q3(f3):
    """Zech arithmetic equals coefficient-vector arithmetic at q = 3: the
    unary operations on every element, the binary ones on 5000 seeded
    pairs."""
    ref = VectorArith(f3)
    assert [f3.packed(a) for a in f3.elements()] == ref.elements
    inv = [None] + [ref.inv(u) for u in ref.elements[1:]]
    for i, u in enumerate(ref.elements):
        a = f3.elem_at(i)
        assert f3.packed(-a) == ref.neg(u)
        for j in (1, 2, 3):
            assert f3.packed(a.frob(j)) == ref.pow(u, f3.q**j)
    rng = random.Random(23)
    for _ in range(5000):
        i, j = rng.randrange(f3.order), rng.randrange(f3.order)
        a, b = f3.elem_at(i), f3.elem_at(j)
        u, v = ref.elements[i], ref.elements[j]
        assert f3.packed(a + b) == ref.add(u, v)
        assert f3.packed(a * b) == ref.mul(u, v)
        if not b.is_zero():
            assert f3.packed(a / b) == ref.mul(u, inv[j])


def test_p_power_automorphisms(f9):
    # x -> x^(p^e): 12 distinct automorphisms at q = 9, frob(i) = p_power(2i)
    rng = random.Random(31)
    for _ in range(30):
        x = f9.elem_at(rng.randrange(f9.order))
        assert f9.p_power(x, 2) == x.frob(1)
        assert f9.p_power(x, f9.deg) == x


def test_summary_schema(f3):
    info = f3.summary()
    for key in ("p", "s", "q", "order", "modulus", "generator", "fingerprint"):
        assert key in info


# ---------------------------------------------------------------------------
# vectorised exponent kernels against the scalar arithmetic
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def q3_tables(f3):
    """Addition and multiplication tables of F_{3^6} from the scalar
    Field.add / Field.mul, indexed by exponent (index N is zero)."""
    els = [f3.elem_of_exp(e) for e in range(f3.N + 1)]
    add = np.array([[(x + y).val for y in els] for x in els])
    mul = np.array([[(x * y).val for y in els] for x in els])
    return add, mul


def _all_pairs(F):
    """Every ordered pair of exponents, the zero sentinel N included."""
    u, v = np.meshgrid(np.arange(F.N + 1), np.arange(F.N + 1), indexing="ij")
    return u.ravel(), v.ravel()


def test_v_add_v_sub_match_scalar_all_pairs(f3, q3_tables):
    add, _ = q3_tables
    N = f3.N
    u, v = _all_pairs(f3)
    neg = np.array([(-f3.elem_of_exp(e)).val for e in range(N + 1)])
    s, d = f3.v_add(u, v), f3.v_sub(u, v)
    assert s.dtype == EXP and d.dtype == EXP
    assert np.array_equal(s, add[u, v])
    assert np.array_equal(d, add[u, neg[v]])
    assert (d[u == v] == N).all()  # x - x cancels, zero included
    assert np.count_nonzero(s == N) == N + 1  # one cancelling v per u


def test_v_lincomb_matches_scalar_all_pairs(f3, q3_tables):
    add, mul = q3_tables
    N, half = f3.N, f3.N // 2
    u, v = _all_pairs(f3)
    c1, c2, c3, c4 = 5, 300, 17, 700
    terms = [(c1, (0,)), (c2, (1,)), (N, (0,)), (c3, (0, 1)), (c4, ())]
    ref = add[add[add[mul[c1, u], mul[c2, v]], mul[c3, mul[u, v]]], c4]
    assert np.array_equal(f3.v_lincomb(terms, (u, v)), ref)
    # the running sum hits zero, then continues from zero
    terms = [(0, (0,)), (half, (0,)), (c2, (1,))]
    assert np.array_equal(f3.v_lincomb(terms, (u, v)), mul[c2, v])
    terms = [(0, (0,)), (0, (1,)), (half, (0,)), (half, (1,))]
    assert (f3.v_lincomb(terms, (u, v)) == N).all()
    assert (f3.v_lincomb([], (u, v)) == N).all()
    assert np.array_equal(f3.v_mul(u, v), mul[u, v])
    assert np.array_equal(f3.v_mul_const(c1, v), mul[c1, v])
    assert np.array_equal(f3.v_neg(v), mul[half, v])


def test_scaling_kernels_match_scalar(f3, f9):
    for F in (f3, f9):
        e = np.arange(F.N + 1)
        els = [F.elem_of_exp(int(x)) for x in e]
        assert F.v_frob(e, 1).tolist() == [x.frob(1).val for x in els]
        assert F.v_p_power(e, 1).tolist() == [F.p_power(x, 1).val for x in els]
        assert F.v_pow(e, 7).tolist() == [(x ** 7).val for x in els]
        assert F.v_inv(e[:-1]).tolist() == [x.inv().val for x in els[:-1]]
        with pytest.raises(DivisionByZero):
            F.v_inv(e)


def test_trace_table_matches_scalar(f2, f3, f4, f9):
    """The trace table, built from the coset representatives, equals the
    scalar Tr_{q^6/q} at every element (zero included) for p = 2, 3 and
    s = 1, 2, and at a seeded sample for q = 9; the addition table is F_q
    addition."""
    rng = random.Random(11)
    for F in (f2, f3, f4, f9):
        trace, add = F._trace_tables()
        assert F._trace_tables()[0] is trace  # built once per context
        es = range(F.N + 1) if F.order < 10**4 else \
            [0, F.N] + [rng.randrange(F.N) for _ in range(3000)]
        assert [int(trace[e]) for e in es] == \
            [F.fq_index(F.trace(F.elem_of_exp(e))) for e in es]
        fq = [F.fq_elem(k) for k in range(F.q)]
        assert [F.fq_index(x) for x in fq] == list(range(F.q))
        assert all(F.in_subfield(x, 1) for x in fq)
        assert add.tolist() == [F.fq_index(a + b) for a in fq for b in fq]
    with pytest.raises(BadSubfield):
        f3.fq_index(f3.gen())


def test_trace_table_is_lazy():
    F = Field(3, 1)  # fresh: make_field leaves the table unbuilt
    assert F._fq_tables is None
    F.v_trace_lincomb([(1, (0,))], [np.arange(5)])
    assert F._fq_tables is not None


def test_conjugate_slices_match_v_frob(f3, f4, with_chunk):
    """Slice by slice, bases[v] is v_frob of the slice's exponents, from the
    32-bit walk in one slice or over several with a partial last slice, up
    to N or to a shorter stop."""
    for F in (f3, f4):
        for chunk in (None, 100):
            with_chunk(F, chunk)
            for stop in (F.N, F.N // (F.q - 1), 250):
                spans = []
                for lo, bases in F.conjugate_slices(stop):
                    e = np.arange(lo, min(lo + gf._CHUNK, stop))
                    assert len(bases) == 6
                    for v in range(6):
                        assert bases[v].dtype == EXP
                        assert np.array_equal(bases[v], F.v_frob(e, v))
                    spans.append((lo, e.size))
                assert spans[0][0] == 0 and sum(n for _, n in spans) == stop
                assert [lo for lo, _ in spans] == list(range(0, stop, gf._CHUNK))
                if chunk is not None and stop % chunk:
                    assert spans[-1][1] == stop % chunk < chunk


def test_conjugate_slices_any_multiplier(f2, f3, f4, with_chunk, monkeypatch):
    """conjugate_slices(stop, mults) yields e K mod N, as int64 arithmetic
    gives it, for K in {0, 1, q^j - 1, e_S, R} (e_S = sum(q^v for v in
    S)): at q = 2, 3, 4 across several slices, with the doubling started
    from one or a few direct terms, and at q = 13 over its default slices."""
    runs = [(f2, 1 << 4, 1), (f3, 1 << 6, 1), (f3, None, 5), (f4, 1 << 6, 3),
            (f4, None, gf._SEED), (make_field(13, 1), None, gf._SEED)]
    for F, chunk, seed in runs:
        N, q = F.N, F.q
        R = N // (q - 1)
        mults = [0, 1, q - 1, q**3 - 1, q**5 - 1, 1 + q**2, 1 + q + q**3, R]
        monkeypatch.setattr(gf, "_SEED", seed)
        with_chunk(F, chunk)
        for stop in (R, N, 250) if F.order < 10**4 else (R,):
            spans = []
            for lo, bases in F.conjugate_slices(stop, mults):
                e = np.arange(lo, min(lo + gf._CHUNK, stop), dtype=np.int64)
                assert len(bases) == len(mults)
                for b, K in zip(bases, mults):
                    assert b.dtype == EXP and np.array_equal(b, e * K % N), (F, K)
                spans.append(lo)
            assert spans == list(range(0, stop, gf._CHUNK))


def test_trace_tables_independent_of_chunk(with_chunk):
    tables = []
    for chunk in (None, 1 << 6):
        F = Field(3, 1)  # fresh: the tables are kept on the context
        with_chunk(F, chunk)
        tables.append(F._trace_tables())
    assert all(np.array_equal(a, b) for a, b in zip(*tables))


def test_build_peak_memory_near_table_size():
    """Building the q = 13 tables allocates little beyond the tables
    themselves: every whole-field step works in _CHUNK slices."""
    tracemalloc.start()
    try:
        F = Field(13, 1)  # fresh, so the build is traced
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = F._pow_packed.nbytes + F._log.nbytes + F._Z.nbytes
    assert peak < 1.5 * tables


def test_unit_trace(f2, f3, f4, f9):
    for F in (f2, f3, f4, f9):
        for m in (1, 2, 3, 6):
            assert F.trace(F.unit_trace(m), m) == F.one()


def test_v_trace_lincomb_matches_scalar(f3, f4, q3_tables):
    """Sum of traces of terms, against scalar arithmetic: over every pair of
    exponents at q = 3 (the sentinel included), and at q = 4 on a sample."""
    add, mul = q3_tables
    u, v = _all_pairs(f3)
    N = f3.N
    terms = [(5, (0,)), (300, (1,)), (N, (0,)), (17, (0, 1)), (700, ()), (3, ())]
    x = add[add[add[mul[5, u], mul[300, v]], mul[17, mul[u, v]]], add[700, 3]]
    tr = [f3.fq_index(f3.trace(f3.elem_of_exp(e))) for e in range(N + 1)]
    assert f3.v_trace_lincomb(terms, (u, v)).tolist() == [tr[e] for e in x.tolist()]
    assert (f3.v_trace_lincomb([], (u, v)) == 0).all()
    rng = random.Random(7)
    e = np.array([rng.randrange(f4.N + 1) for _ in range(300)])
    terms = [(9, (0,)), (40, (0, 0, 0)), (f4.N - 1, ())]
    got = f4.v_trace_lincomb(terms, [e])
    for k, x in zip(got.tolist(), e.tolist()):
        m = f4.elem_of_exp(x)
        s = f4.from_exp(9) * m + f4.from_exp(40) * m ** 3 + f4.from_exp(f4.N - 1)
        assert f4.fq_elem(k) == f4.trace(s)
