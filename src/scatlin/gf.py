"""Exact arithmetic in F_{p^(6s)} = F_{q^6}, q = p^s, with its subfield tower.

A Field carries a monic irreducible modulus of degree 6s over F_p, a verified
primitive element g, and Zech-logarithm tables.  Every nonzero element is
stored as its discrete log e (so the element is g^e) and zero as the sentinel
exponent N = q^6 - 1.  Addition uses the Zech table Z[k] = log(1 + g^k);
multiplication is exponent addition mod N.  The power, log and Zech tables
are uint32 numpy arrays (every stored value is at most N < 2^24), and Z
carries one padding entry Z[N] = 0 = log(1 + 0), so the sentinel is a valid
index.  make_field refuses fields above DEFAULT_ZECH_LIMIT elements with
TooLarge, before any table is built.

Field construction works on one representation: an element of
F_p[X]/(modulus) is its k x k matrix of multiplication over F_p (k = 6s,
_mult_matrix), and powers are matrix powers (_matpow).  The same pair runs
Rabin's irreducibility test of each modulus candidate, the order test of
each generator candidate, and the squarings g^m -> g^(2m) of the orbit
doubling; there is no F_p[X] polynomial arithmetic.  At the primes l | p - 1
the order test needs no power: a^(N/l) is the norm det M(a), taken by
elimination over F_p (_det_mod_p), to the power (p - 1)/l.

The tables also power the vectorised exponent kernels (v_lincomb and its thin
wrappers v_add, v_mul, ...) used by the exhaustive scans.  v_trace_lincomb
sums traces Tr_{q^6/q} instead; its uint8 trace table is built from the Zech
tables on first use, not with the field.  The power table comes from doubling
the g-orbit on carry-free packed words: each F_p digit gets its own B-bit
field (2^(B-1) >= p), so multiplying a block of powers by g^m is a sum of
gathers from per-chunk tables of that F_p-linear map, reduced mod p digit by
digit with two bit operations after every add.  Whole-field scans walk
the exponents slice by slice in one of two ways.  Field.linear_slices
evaluates an F_p-linear map L (the scatteredness oracle's f, the trace of
the trace table) at g^e: the low and high halves of the packed value of g^e
index two q^3-entry tables of L's images, and one Zech add sums them.
Field.conjugate_slices yields the progressions c + e K mod N for the
offsets c and multipliers K a scan names (by default the conjugates e q^v),
in 32-bit adds, for the Dickson criterion and the lemma roots.  The table
build and the scans share one slice size, _CHUNK, so no pass allocates
N-element temporaries beyond the tables themselves.

Determinism: the modulus is the first irreducible in ascending packed
coefficient order (constant term is the least significant base-p digit), the
generator is the smallest packed value of full multiplicative order, and
enumeration always yields 0 first and then g^0, g^1, ...  Two constructions
with the same (p, s) therefore agree bit for bit, and make_field returns one
shared context per (p, s).
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from .errors import (
    BadSubfield,
    CtxMismatch,
    DivisionByZero,
    InternalInvariant,
    NotPrime,
    TooLarge,
)

TOWER = 6  # extension degree over F_q; the subfield lattice is {1, 2, 3, 6}

DEFAULT_ZECH_LIMIT = 1 << 24  # largest field order make_field builds
EXP = np.uint32  # dtype of exponent arrays and of the Zech tables
_ACC_ZERO = 1 << 31  # zero inside a v_lincomb accumulator; see v_lincomb
_CHUNK = 1 << 16  # elements per slice of every whole-field pass; see _spans
# terms of each progression c + e K mod N that conjugate_slices forms by int64
# division before it doubles in 32-bit; below about this length a doubling
# step costs more in call overhead than the divisions it saves
_SEED = 1 << 10

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _spans(n: int):
    """(lo, hi) for the _CHUNK slices of range(n).  Whole-field passes (the
    table build and the scans through Field.linear_slices and
    Field.conjugate_slices) work slice by slice, so a slice's working set
    stays in L2 and no pass allocates N-element temporaries."""
    return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _add_reduce(x, y, N: int, out, tmp) -> None:
    """out <- x + y mod N for exponents x, y < N, in 32-bit, by the one
    conditional subtraction described at the exponent kernels."""
    np.add(x, y, out=out)
    np.subtract(out, N, out=tmp)
    np.minimum(out, tmp, out=out)


def _exp_arrays(bases) -> list:
    """bases as EXP arrays of one shape; broadcast only when shapes differ,
    since a call on equal shapes is the common case of every scan."""
    xs = [np.asarray(x, dtype=EXP) for x in bases]
    return np.broadcast_arrays(*xs) if len({x.shape for x in xs}) > 1 else xs


def _sentinel_bases(xs, terms, N: int) -> set:
    """Indices of the exponent arrays in xs that a live term (c != N) of
    terms reads and that hold the zero sentinel N somewhere."""
    used = {i for c, idx in terms if c != N for i in idx}
    return {i for i in used if xs[i].size and int(xs[i].max()) >= N}


# ---------------------------------------------------------------------------
# integer number theory
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division
    (every n factored here is at most DEFAULT_ZECH_LIMIT)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# F_p-linear algebra of F_p[X]/(mod): every element is its k x k matrix of
# multiplication, so the modulus test, the generator test and the orbit
# doubling all run on one multiply-and-power pair
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> tuple[int, ...]:
    """Coefficient tuple, low degree first, without trailing zeros."""
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _matpow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e over F_p (e >= 0) by repeated squaring.  Entries are reduced
    below p, and every field here has p <= 13 and k <= 24, so the int64
    products stay below 24 * 12^2."""
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _det_mod_p(M: np.ndarray, p: int) -> int:
    """det M over F_p by exact elimination on Python integers, each row
    operation reduced mod p and each pivot inverted by Fermat."""
    A = [[x % p for x in row] for row in M.tolist()]
    k, det = len(A), 1
    for c in range(k):
        piv = next((r for r in range(c, k) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv], det = A[piv], A[c], -det
        det = det * A[c][c] % p
        inv = pow(A[c][c], p - 2, p)
        for r in range(c + 1, k):
            f = A[r][c] * inv % p
            if f:
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return det % p


def _mult_matrix(mod, coeffs, p: int) -> np.ndarray:
    """k x k matrix over F_p of multiplication by sum c_i X^i on
    F_p[X]/(mod), mod monic of degree k and len(coeffs) <= k.  Column j
    holds the element times X^j, so it is the companion matrix of mod
    times column j - 1."""
    k = len(mod) - 1
    comp = np.eye(k, k, -1, dtype=np.int64)  # X^j -> X^(j+1) ...
    comp[:, -1] = [-c % p for c in mod[:k]]  # ... and X^(k-1) -> X^k mod mod
    M = np.zeros((k, k), dtype=np.int64)
    M[:len(coeffs), 0] = coeffs
    for j in range(1, k):
        M[:, j] = comp @ M[:, j - 1] % p
    return M


def _is_irreducible(mod, p: int) -> bool:
    """Monic mod of degree k is irreducible over F_p (Rabin's test).

    Once X^(p^k) = X, mod divides X^(p^k) - X, so F_p[X]/(mod) is a product
    of fields F_(p^d) with d | k, and u is a unit exactly when
    u^(p^k - 1) = 1.  mod is then irreducible iff D = X^(p^(k/l)) - X is a
    unit, gcd(D, mod) = 1, for every prime l | k: no factor has a degree
    dividing k/l, and these maximal proper divisors cover all of k's.
    """
    k = len(mod) - 1
    X = _mult_matrix(mod, (0, 1), p)
    if not np.array_equal(_matpow(X, p**k, p), X):
        return False
    one = np.eye(k, dtype=np.int64)
    for ell in _prime_factors(k):
        D = (_matpow(X, p ** (k // ell), p) - X) % p
        if not np.array_equal(_matpow(D, p**k - 1, p), one):
            return False
    return True


def _digits(v: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _pack_digits(coeffs, p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + int(c)
    return v


# ---------------------------------------------------------------------------
# carry-free packed words (the orbit doubling of Field._build_tables)
# ---------------------------------------------------------------------------

def _wide_layout(p: int, k: int):
    """Layout of k F_p digits in one word: (B, word dtype, chunks).

    Digit j sits in bits [B j, B j + B), where B is the smallest width with
    2^(B-1) >= p: the sum of two reduced digits (at most 2p - 2) then fits in
    its field, so adding two words never carries from one digit into the
    next.  The word is uint32 when B k <= 32 and uint64 otherwise (every
    Zech field has B k <= 48).  chunks lists (first digit, count) for runs
    of at most 16 // B digits, so no gather table has more than 2^16 entries.
    """
    B = (p - 1).bit_length() + 1
    word = np.uint32 if B * k <= 32 else np.uint64
    c = 16 // B
    return B, word, [(lo, min(c, k - lo)) for lo in range(0, k, c)]


def _chunk_tables(p: int, B: int, chunks, M, weights, dtype):
    """Gather tables of the F_p-linear map d -> M d on packed words.

    For the chunk (lo, n), the table maps the raw bits of digits lo .. lo+n-1
    to sum_i weights[i] * (M[:, lo:lo+n] d mod p)_i, where d is the vector of
    those n digits; entries whose bits hold a digit >= p stay 0 and are never
    read.  Returns [(shift, mask, table)], one triple per chunk.
    """
    out = []
    for lo, n in chunks:
        d = np.indices((p,) * n).reshape(n, -1).T  # every digit vector
        table = np.zeros(1 << B * n, dtype=dtype)
        table[d @ (1 << B * np.arange(n))] = (d @ M[:, lo:lo + n].T) % p @ weights
        out.append((B * lo, (1 << B * n) - 1, table))
    return out


def _wide_map(src, tables, out, reduce=None) -> None:
    """out <- the sum over chunks of table[(src >> shift) & mask].

    With reduce = (bias, high, B - 1, p), the sum is a packed word of digits
    and each digit is reduced mod p after every add: t = acc + bias, where
    bias holds 2^(B-1) - p in every digit, has the top bit of a digit set
    exactly where that digit of acc is >= p, and
    acc -= p * ((t & high) >> (B - 1)) subtracts p there.  out must share no
    memory with src.
    """
    idx = np.empty(src.shape, dtype=np.intp)
    part = np.empty_like(out)
    for i, (shift, mask, table) in enumerate(tables):
        np.right_shift(src, shift, out=idx)
        np.bitwise_and(idx, mask, out=idx)
        np.take(table, idx, out=out if i == 0 else part)
        if i == 0:
            continue
        np.add(out, part, out=out)
        if reduce is not None:
            bias, high, shift_high, p = reduce
            np.add(out, bias, out=part)
            np.bitwise_and(part, high, out=part)
            np.right_shift(part, shift_high, out=part)
            np.multiply(part, p, out=part)
            np.subtract(out, part, out=out)


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class Field:
    """Immutable context for F_{p^(6s)}; construct through make_field()."""

    def __init__(self, p: int, s: int):
        if not is_prime(p):
            raise NotPrime("p = %d is not prime" % p)
        # 2^(6s) already exceeds the limit once 6s reaches its bit length,
        # so p^(6s) is only formed when it can fit
        if (s < 1 or TOWER * s >= DEFAULT_ZECH_LIMIT.bit_length()
                or p ** (TOWER * s) > DEFAULT_ZECH_LIMIT):
            raise TooLarge("need s >= 1 and p^(6s) <= %d, got p = %d, s = %d"
                           % (DEFAULT_ZECH_LIMIT, p, s))
        self.p = p
        self.s = s
        self.q = p**s
        self.deg = TOWER * s
        self.order = p**self.deg
        self.N = self.order - 1

        self.modulus = self._find_modulus()
        self.gen_coeffs = self._find_generator()

        # q^i mod N (Frobenius on exponents) and p^e mod N (automorphisms)
        self._qpow = [pow(self.q, i, self.N) for i in range(TOWER)]
        self._ppow = [pow(self.p, e, self.N) for e in range(self.deg)]
        self._half = self.N // 2 if p != 2 else 0  # g^half = -1 for odd p

        self._fq_tables = None  # (trace, add), see _trace_tables
        self._build_tables()
        self._zero = FieldElem(self, self.N)
        self._one = FieldElem(self, 0)

    # -- construction helpers ------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.deg
        for v in range(p**k):
            if v % p == 0:  # constant term 0 => divisible by x
                continue
            cand = _ptrim(_digits(v, p, k) + [1])
            if _is_irreducible(cand, p):
                return cand
        raise InternalInvariant("no irreducible of degree %d over F_%d (bug)" % (k, p))

    def _find_generator(self) -> tuple[int, ...]:
        """The first candidate a with a^(N/l) != 1 for every prime l | N.

        For l | p - 1 the power is N(a)^((p-1)/l), where the norm
        N(a) = a^((p^k - 1)/(p - 1)) is det M(a) in F_p, so those tests take
        one elimination; the other primes take a matrix power each.
        """
        p, k, N = self.p, self.deg, self.N
        by_norm = [(p - 1) // ell for ell in _prime_factors(p - 1)]
        checks = [N // ell for ell in _prime_factors(N) if (p - 1) % ell]
        one = np.eye(k, dtype=np.int64)
        for v in range(2, self.order):
            cand = _ptrim(_digits(v, p, k))
            M = _mult_matrix(self.modulus, cand, p)
            if by_norm:
                norm = _det_mod_p(M, p)
                if any(pow(norm, c, p) == 1 for c in by_norm):
                    continue
            if not any(np.array_equal(_matpow(M, c, p), one) for c in checks):
                return cand
        raise InternalInvariant("no primitive element of F_%d^%d (bug)" % (p, k))

    def _build_tables(self) -> None:
        """Power, log and Zech tables from the g-orbit, built by doubling.

        The orbit g^0 .. g^(N-1) is held as carry-free packed words (see
        _wide_layout): digit j of an element sits in its own B-bit field.  A
        doubling step writes g^(m + i) = g^m * g^i for i < min(m, N - m);
        multiplication by g^m is F_p-linear, with matrix Gm, squared after
        each step, so each word's image is a sum of gathers from per-chunk
        tables of Gm (_chunk_tables), reduced digit by digit mod p after
        every add (_wide_map).  One more gather per chunk, from
        tables of base-p digit weights, turns the words into packed values
        (two gathers at q = 13).  The log table inverts the power table, and
        Z is log gathered at 1 + g^k, both slice by slice (_spans), so the
        build's peak memory stays close to the finished tables'.
        """
        p, k, N, order = self.p, self.deg, self.N, self.order
        B, word, chunks = _wide_layout(p, k)
        ones = sum(1 << B * j for j in range(k))
        reduce = (((1 << B - 1) - p) * ones, ones << B - 1, B - 1, p)
        wide = 1 << B * np.arange(k, dtype=np.int64)  # packed digit weights
        W = np.empty(N, dtype=word)
        W[0] = 1
        Gm, m = _mult_matrix(self.modulus, self.gen_coeffs, p), 1  # times g^m
        while m < N:
            b = min(m, N - m)
            tables = _chunk_tables(p, B, chunks, Gm, wide, word)
            for lo, hi in _spans(b):
                _wide_map(W[lo:hi], tables, W[m + lo:m + hi], reduce)
            m += b
            Gm = Gm @ Gm % p
        tables = _chunk_tables(p, B, chunks, np.eye(k, dtype=np.int64),
                               p ** np.arange(k, dtype=np.int64), EXP)
        pow_packed = np.empty(N, dtype=EXP)
        for lo, hi in _spans(N):
            _wide_map(W[lo:hi], tables, pow_packed[lo:hi])
        del W
        log = np.full(order, N, dtype=EXP)  # log[0] stays N: zero's exponent
        Z = np.empty(N + 1, dtype=EXP)
        Z[N] = 0  # padding: log(1 + 0) = 0, so the sentinel is an index
        for lo, hi in _spans(N):
            log[pow_packed[lo:hi]] = np.arange(lo, hi, dtype=EXP)
        for lo, hi in _spans(N):
            # 1 + g^k adds 1 to the constant digit; Z[k] = N where 1 + g^k = 0
            pp = pow_packed[lo:hi]
            c0 = pp % p
            np.take(log, pp - c0 + (c0 + 1) % p, out=Z[lo:hi])
        self._Z = Z
        self._pow_packed = pow_packed
        self._log = log
        self._check_tables()

    def _check_tables(self) -> None:
        """Sanity checks of the tables; raise InternalInvariant.

        g^(N/2) = -1 for odd p, log and power tables are inverse bijections,
        and every stored value is at most N (so the 32-bit storage is exact).
        """
        N, p = self.N, self.p
        log, pow_packed, Z = self._log, self._pow_packed, self._Z
        if max(int(log.max()), int(Z.max())) > N or int(pow_packed.max()) > N:
            raise InternalInvariant("Zech table value above N = %d (bug)" % N)
        if p != 2 and int(log[p - 1]) != self._half:
            raise InternalInvariant("log(-1) != N/2 (bug)")
        if int(log[0]) != N or int(Z[N]) != 0:
            raise InternalInvariant("zero sentinel entries corrupted (bug)")
        for lo, hi in _spans(N):
            if not np.array_equal(log[pow_packed[lo:hi]],
                                  np.arange(lo, hi, dtype=EXP)):
                raise InternalInvariant("log/power tables disagree (bug)")

    # -- identity / representation -------------------------------------------

    def __repr__(self):
        return "Field(p=%d, s=%d, q=%d, order=%d)" % (self.p, self.s, self.q, self.order)

    def __hash__(self):
        return hash((self.p, self.s))

    def summary(self) -> dict:
        info = {
            "p": self.p,
            "s": self.s,
            "q": self.q,
            "order": self.order,
            "mode": "zech",  # kept, so fingerprints and reports stay unchanged
            "modulus": list(self.modulus),
            "generator": list(self.gen_coeffs),
        }
        blob = json.dumps(info, sort_keys=True).encode()
        info["fingerprint"] = hashlib.sha256(blob).hexdigest()[:12]
        return info

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def gen(self) -> "FieldElem":
        return self.from_exp(1)

    def from_exp(self, e: int) -> "FieldElem":
        """g^e."""
        return FieldElem(self, e % self.N)

    def from_packed(self, v: int) -> "FieldElem":
        if not 0 <= v < self.order:
            raise ValueError("packed value out of range")
        return FieldElem(self, int(self._log[v]))  # log[0] = N, the zero

    def from_int(self, n: int) -> "FieldElem":
        """Image of the integer n in the prime subfield."""
        return self.from_packed(n % self.p)

    def element(self, spec) -> "FieldElem":
        """Parse an element: FieldElem, int, '0', 'g^k', or 'poly:c0,c1,...'."""
        if isinstance(spec, FieldElem):
            if spec.ctx is not self:
                raise CtxMismatch("element from a different field context")
            return spec
        if isinstance(spec, int):
            return self.from_int(spec)
        text = str(spec).strip()
        if text == "0":
            return self._zero
        if text.startswith("g^"):
            return self.from_exp(int(text[2:]))
        if text == "g":
            return self.gen()
        if text.startswith("poly:"):
            coeffs = [int(c) % self.p for c in text[5:].split(",")]
            if len(coeffs) > self.deg:
                raise ValueError("too many coefficients")
            coeffs += [0] * (self.deg - len(coeffs))
            return self.from_packed(_pack_digits(coeffs, self.p))
        return self.from_int(int(text))

    def packed(self, x: "FieldElem") -> int:
        return 0 if x.val == self.N else int(self._pow_packed[x.val])

    def format(self, x: "FieldElem") -> str:
        if x.is_zero():
            return "0"
        return "g^%d" % x.val

    # -- F_p digits ----------------------------------------------------------
    # Digit j of an element is its coefficient of X^j (base-p digit j of its
    # packed value); F_q-linear algebra on F_p goes through these two methods.

    def digit_matrix(self, coeffs) -> np.ndarray:
        """The k x k F_p-matrix, k = 6s, of each q-polynomial sum a_t x^(q^t)
        whose coefficient exponents a_0 .. a_5 (N for zero) lie on the last
        axis of coeffs; other axes batch.  Entry [..., i, j] is digit i of
        the image of X^j."""
        k, p, N = self.deg, self.p, self.N
        place = p ** np.arange(k)  # the packed value of X^j
        xq = np.outer(self._qpow, self._log[place]) % N  # (X^j)^(q^t) by (t, j)
        c = np.asarray(coeffs, dtype=np.int64)[..., None]
        terms = np.where(c == N, 0, self._pow_packed[(c + xq) % N])  # by (..., t, j)
        return (terms[..., None, :] // place[:, None] % p).sum(axis=-3) % p

    def from_digits(self, d) -> np.ndarray:
        """Exponents (N for zero) of the elements whose digits 0 .. k - 1 lie
        on the last axis of d."""
        return self._log[np.asarray(d, dtype=np.int64) @ self.p ** np.arange(self.deg)]

    # -- enumeration -----------------------------------------------------------

    def elements(self):
        """All q^6 elements: 0 first, then g^0, g^1, ... (documented order)."""
        yield self._zero
        for e in range(self.N):
            yield FieldElem(self, e)

    def subfield_elements(self, m: int):
        """All q^m elements of F_{q^m}: 0 first, then powers of g^((q^6-1)/(q^m-1))."""
        self._check_subfield(m)
        step = self.N // (self.q**m - 1)
        yield self._zero
        for j in range(self.q**m - 1):
            yield self.from_exp(step * j)

    def enum_index(self, x: "FieldElem") -> int:
        """Position of x in the enumeration order (0 for zero, e+1 for g^e)."""
        if x.is_zero():
            return 0
        return x.val + 1

    def elem_at(self, index: int) -> "FieldElem":
        """The element at position index of the enumeration order."""
        if not 0 <= index < self.order:
            raise ValueError("index %d outside [0, %d)" % (index, self.order))
        return self._zero if index == 0 else self.from_exp(index - 1)

    # -- scalar arithmetic on exponents ----------------------------------------

    def _check(self, x: "FieldElem"):
        if x.ctx is not self:
            raise CtxMismatch("operands from different field contexts")

    def add(self, x, y):
        self._check(x); self._check(y)
        N, u, v = self.N, x.val, y.val
        if u == N:
            return y
        if v == N:
            return x
        z = int(self._Z[(v - u) % N])  # g^u + g^v = g^u (1 + g^(v - u))
        return self._zero if z == N else FieldElem(self, (u + z) % N)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        self._check(x)
        if self.p == 2 or x.val == self.N:
            return x
        return FieldElem(self, (x.val + self._half) % self.N)

    def mul(self, x, y):
        self._check(x); self._check(y)
        if x.val == self.N or y.val == self.N:
            return self._zero
        return FieldElem(self, (x.val + y.val) % self.N)

    def inv(self, x):
        self._check(x)
        if x.is_zero():
            raise DivisionByZero("inverse of zero")
        return FieldElem(self, (self.N - x.val) % self.N)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, e: int):
        self._check(x)
        if x.is_zero():
            if e > 0:
                return self._zero
            if e == 0:
                return self._one
            raise DivisionByZero("negative power of zero")
        return FieldElem(self, x.val * e % self.N)

    def frobenius(self, x, i: int):
        """x^(q^i), the i-th power of the tower Frobenius."""
        self._check(x)
        if x.val == self.N:
            return x
        return FieldElem(self, x.val * self._qpow[i % TOWER] % self.N)

    def p_power(self, x, e: int):
        """x^(p^e): the full automorphism group is e = 0 .. 6s-1."""
        self._check(x)
        if x.val == self.N:
            return x
        return FieldElem(self, x.val * self._ppow[e % self.deg] % self.N)

    # -- norms, traces, subfields ----------------------------------------------

    def _check_subfield(self, m: int):
        if m not in (1, 2, 3, 6):
            raise BadSubfield("m = %d does not divide 6" % m)

    def norm(self, x, m: int = 1):
        """N_{q^6 / q^m}(x): product of the 6/m conjugates under x -> x^(q^m)."""
        self._check_subfield(m)
        out = self._one
        for j in range(TOWER // m):
            out = self.mul(out, self.frobenius(x, m * j))
        self._check_in_subfield(out, m, "norm")
        return out

    def trace(self, x, m: int = 1):
        """Tr_{q^6 / q^m}(x): sum of the 6/m conjugates under x -> x^(q^m)."""
        self._check_subfield(m)
        out = self._zero
        for j in range(TOWER // m):
            out = self.add(out, self.frobenius(x, m * j))
        self._check_in_subfield(out, m, "trace")
        return out

    def _check_in_subfield(self, y, m: int, what: str):
        if self.frobenius(y, m) != y:
            raise InternalInvariant("%s does not lie in F_(q^%d) (bug)" % (what, m))

    def in_subfield(self, x, m: int) -> bool:
        self._check_subfield(m)
        return self.frobenius(x, m) == x

    def unit_trace(self, m: int):
        """An element z with Tr_{q^6 / q^m}(z) = 1: the first x in enumeration
        order with a nonzero trace t, divided by t (the trace is
        F_(q^m)-linear).  z = 1 only when p does not divide 6/m."""
        for x in self.elements():
            t = self.trace(x, m)
            if not t.is_zero():
                return x / t
        raise InternalInvariant("Tr_{q^6/q^%d} vanishes identically (bug)" % m)

    # F_q as indices: k = 0 is zero and k = 1 + j is g^(R j), with
    # R = N / (q - 1), so g^R generates F_q^*.  Every field has q <= 16,
    # so an index and the flat index a * q + b of a pair fit in a uint8.

    def fq_index(self, x) -> int:
        """Index of x in F_q; raises BadSubfield when x lies outside F_q."""
        e, R = x.val, self.N // (self.q - 1)
        if e == self.N:
            return 0
        if e % R:
            raise BadSubfield("%s does not lie in F_q" % self.format(x))
        return 1 + e // R

    def fq_elem(self, k: int):
        """The element of F_q with index k."""
        return self._zero if k == 0 else self.from_exp(self.N // (self.q - 1) * (k - 1))

    def sqrt_of_minus_one(self):
        """An element i with i^2 = -1 (odd p only): g^(N/4)."""
        if self.p == 2:
            return self._one
        return self.from_exp(self.N // 4)

    # -- vectorised exponent kernels ------------------------------------------
    #
    # Bulk scans work on uint32 (EXP) numpy arrays of exponents: g^e is stored
    # as e in [0, N) and zero as the sentinel N, which is FieldElem.val.  Every
    # kernel is total on that encoding and returns a fresh EXP array unless it
    # is given out=.
    #
    # Products in int64, sums in 32-bit.  A sum or difference of two reduced
    # exponents lies in [0, 2N) (after adding N to a difference) and is reduced
    # by one conditional subtraction, np.minimum(x, x - N): for x < N the
    # uint32 subtraction wraps to a huge value and the minimum keeps x
    # (_add_reduce).  A product e * K (Frobenius, p-powers, inverses, the
    # first terms of a conjugate_slices progression, the truncated Dickson
    # terms) can exceed 2^32; it is formed in int64, reduced mod N, then cast.
    #
    # All additive work goes through v_lincomb; v_add, v_sub, v_mul,
    # v_mul_const and v_neg are thin uses of it.

    def elem_of_exp(self, e: int) -> "FieldElem":
        return self._zero if e == self.N else self.from_exp(int(e))

    def v_lincomb(self, terms, bases, out=None):
        """Sum of g^c * prod(g^bases[i] for i in idx) over (c, idx) in terms.

        Exponent encoding in and out.  c is a scalar exponent (c = N drops the
        term) and idx a tuple of indices into bases, a sequence of same-shape
        exponent arrays that may hold the sentinel N; an empty idx is the
        constant g^c.  The sum is written to out (an EXP array that shares no
        memory with bases) when given, and returned.

        Each term after the first costs one Zech gather, and no temporaries
        unless a factor holds the sentinel.  Inside the loop the accumulator
        encodes zero as _ACC_ZERO = 2^31 instead of N: the difference
        acc - t (mod N) then lies above N exactly when acc is zero, and a
        gather in clip mode reads the padding entry Z[N] = 0 there, so the
        new sum is t with no fix-up.  A cancellation (Z entry N) is fixed up
        with np.copyto(where=), and the final clamp turns _ACC_ZERO back
        into N.
        """
        N, Z = self.N, self._Z
        xs = _exp_arrays(bases)
        if out is None:
            out = np.empty(xs[0].shape if xs else (), dtype=EXP)
        has_zero = _sentinel_bases(xs, terms, N)
        t, d, z = (np.empty(out.shape, dtype=EXP) for _ in range(3))
        cancel = np.empty(out.shape, dtype=bool)
        first = True
        for c, idx in terms:
            if c == N:
                continue
            te = self._term_exp(c, [xs[i] for i in idx], t, d)
            zero = None  # where a factor of the term is the zero element
            for i in idx:
                if i in has_zero:
                    zero = (xs[i] == N) if zero is None else zero | (xs[i] == N)
            if first:
                np.copyto(out, te)
                if zero is not None:
                    np.copyto(out, _ACC_ZERO, where=zero)
                first = False
                continue
            kept = None if zero is None else out[zero]
            # d <- acc - t (mod N); where acc is zero d lies far above N and
            # the clipped gather reads the padding entry Z[N] = 0
            np.subtract(out, te, out=d)
            np.add(d, N, out=z)
            np.minimum(d, z, out=d)
            # acc <- t + Z[d] (mod N), zero where the two summands cancel
            Z.take(d, None, z, "clip")  # clip: d > N reads Z[N]
            np.equal(z, N, out=cancel)
            _add_reduce(z, te, N, out, d)
            np.copyto(out, _ACC_ZERO, where=cancel)
            if zero is not None:
                out[zero] = kept
        if first:
            out.fill(N)
        else:
            np.minimum(out, N, out=out)
        return out

    def _term_exp(self, c: int, factors, t, tmp):
        """Exponent of g^c * prod(g^x for x in factors), reduced into [0, N),
        built in buffer t (a scalar or an input array when nothing is added).
        Where a factor is the sentinel N the value is meaningless."""
        if not factors:
            return c
        if c == 0 and len(factors) == 1:
            return factors[0]
        src = factors[0]
        for addend in list(factors[1:]) + ([c] if c else []):
            _add_reduce(src, addend, self.N, t, tmp)
            src = t
        return t

    def _trace_tables(self):
        """(trace, add), built on first use and kept on the context.

        trace[e] is the F_q index of Tr_{q^6/q}(g^e), with trace[N] = 0 for
        the zero element; add[a * q + b] is the index of the sum of the
        elements with indices a and b.  Write e = r + R i with r < R: g^e is
        g^r times lambda = g^(R i) in F_q^*, and Tr(lambda x) = lambda Tr(x),
        so one linear_slices walk of the trace, an F_p-linear map, over the
        R coset representatives gives every entry.
        """
        if self._fq_tables is not None:
            return self._fq_tables
        N, q = self.N, self.q
        R = N // (q - 1)
        rep = np.empty(R, dtype=np.uint8)  # F_q index of Tr(g^r)
        terms = [(0, (v,)) for v in range(TOWER)]
        images = [self.v_lincomb(terms, [self.v_frob(x, v) for v in range(TOWER)])
                  for x in self.half_basis()]
        for lo, tr in self.linear_slices(R, *images):
            zero = tr == N
            if np.any(tr[~zero] % R):
                raise InternalInvariant("a trace lies outside F_q (bug)")
            rep[lo:lo + tr.size] = np.where(zero, 0, tr // R + 1)
        trace = np.empty(N + 1, dtype=np.uint8)
        trace[N] = 0
        for i in range(q - 1):  # times g^(R i): index 1 + j -> 1 + (i + j) % (q - 1)
            times = np.array([0] + [1 + (i + j) % (q - 1) for j in range(q - 1)],
                             dtype=np.uint8)
            np.take(times, rep, out=trace[i * R:(i + 1) * R])
        for e in (0, 1, (R + 1) % N, N - 1):
            if trace[e] != self.fq_index(self.trace(self.from_exp(e))):
                raise InternalInvariant("trace table disagrees at g^%d (bug)" % e)
        add = np.array([self.fq_index(self.fq_elem(a) + self.fq_elem(b))
                        for a in range(q) for b in range(q)], dtype=np.uint8)
        self._fq_tables = (trace, add)
        return self._fq_tables

    def conjugate_slices(self, stop: int, mults=None, starts=None):
        """Yield (lo, bases) for the _CHUNK slices [lo, hi) of the exponents
        e < stop (stop <= N), where bases[j] holds c + e K mod N for the j-th
        multiplier K of mults (integers >= 0) and the j-th offset c of
        starts (exponents < N, all 0 by default), the exponent of g^c m^K at
        m = g^e.  The default multipliers are the six q^v, so bases[v] is
        the exponent of the conjugate m^(q^v).  Every exponent-progression
        scan takes its ranges from here.

        The first _SEED entries of each array are int64 products reduced
        mod N, and the rest is 32-bit adds, each reduced by one conditional
        subtraction (_add_reduce): the first slice doubles, [m, 2m) being
        [0, m) plus m K, and each later slice adds _CHUNK K.  The arrays are
        overwritten by the next slice, so a caller copies what it keeps.
        """
        N = self.N
        mults = self._qpow if mults is None else mults
        starts = [0] * len(mults) if starts is None else starts
        n = min(_CHUNK, stop)
        m = min(_SEED, n)
        e = np.arange(m, dtype=np.int64)
        bases = [np.empty(n, dtype=EXP) for _ in mults]
        for b, K, c in zip(bases, mults, starts):
            b[:m] = (c + e * K) % N
        tmp = np.empty(n, dtype=EXP)
        while m < n:
            w = min(m, n - m)
            for b, K in zip(bases, mults):
                _add_reduce(b[:w], m * K % N, N, b[m:m + w], tmp[:w])
            m += w
        for lo, hi in _spans(stop):
            yield lo, [b[:hi - lo] for b in bases]
            for b, K in zip(bases, mults):
                _add_reduce(b, n * K % N, N, b, tmp)

    def half_basis(self):
        """(low, high): the exponents (N for zero) of the elements with
        packed values j and j q^3, j < q^3.  The low and high 3s base-p
        digits of x's packed value split x = x_low + x_high, so an
        F_p-linear map L is known on all of F_(q^6) from its images of
        these 2 q^3 elements (linear_slices)."""
        h = self.q**3
        j = np.arange(h)
        return self._log[j], self._log[j * h]

    def linear_slices(self, stop: int, low, high):
        """Yield (lo, y) for the _CHUNK slices [lo, hi) of the exponents
        e < stop (stop <= N), where y holds the exponent (N for zero) of
        L(g^e) for the F_p-linear map L whose images of the half_basis
        elements have the exponents low[j] and high[j].  Every linear-map
        scan over the field takes its values from here.

        With j_high, j_low = divmod(packed g^e, q^3), L(g^e) is
        L(x_low) + L(x_high): two gathers from the q^3-entry image tables
        and one Zech add, however many terms L has.  The summands encode
        zero as _ACC_ZERO, so with a = min and b = max of the two, b - a
        lies above N exactly when b is zero, and the clipped gather then
        reads Z[N] = 0, giving a; when both are zero, a + Z[0] stays above
        N and the final clamp gives N.  A cancellation (Z entry N) is fixed
        up as in v_lincomb.  y is overwritten by the next slice.
        """
        N, h, Z = self.N, self.q**3, self._Z
        low, high = (np.where(np.asarray(t) == N, _ACC_ZERO, t).astype(EXP)
                     for t in (low, high))
        n = min(_CHUNK, stop)
        j = np.empty(n, dtype=np.intp)
        a, b, y = (np.empty(n, dtype=EXP) for _ in range(3))
        cancel = np.empty(n, dtype=bool)
        for lo, hi in _spans(stop):
            k = hi - lo
            packed, jk, ak, bk, yk, ck = (self._pow_packed[lo:hi], j[:k], a[:k],
                                          b[:k], y[:k], cancel[:k])
            np.floor_divide(packed, h, out=jk)
            high.take(jk, None, bk, "clip")
            np.multiply(jk, h, out=jk)
            np.subtract(packed, jk, out=jk)
            low.take(jk, None, ak, "clip")
            # a <- min, b <- max - min; b > N exactly where max is zero
            np.maximum(ak, bk, out=yk)
            np.minimum(ak, bk, out=ak)
            np.subtract(yk, ak, out=bk)
            Z.take(bk, None, yk, "clip")  # clip: b > N reads Z[N] = 0
            np.equal(yk, N, out=ck)
            _add_reduce(ak, yk, N, yk, bk)
            np.copyto(yk, N, where=ck)
            np.minimum(yk, N, out=yk)
            yield lo, yk

    def v_trace_lincomb(self, terms, bases):
        """F_q indices of the sum of Tr_{q^6/q}(g^c * prod(g^bases[i] for i in
        idx)) over (c, idx) in terms, as a uint8 array.

        Terms and bases are as in v_lincomb (the sentinel N is allowed).  The
        constant terms are summed once, and every other term costs its
        exponent sum, one gather from the trace table and one from the q x q
        addition table; no Zech gather.  While the sum is still the constant
        0, a term's trace is gathered straight into it, so a lone term costs
        one gather.
        """
        trace, add = self._trace_tables()
        N, q = self.N, self.q
        xs = _exp_arrays(bases)
        shape = xs[0].shape if xs else ()
        # a term (0, (i,)) gathers trace[x] straight from x, and trace[N] = 0
        has_zero = _sentinel_bases(xs, [t for t in terms if t[0] or len(t[1]) != 1], N)
        const = 0
        for c, idx in terms:
            if not idx:
                const = int(add[const * q + trace[c]])
        acc = np.full(shape, const, dtype=np.uint8)
        tr, pair = (np.empty(shape, dtype=np.uint8) for _ in range(2))
        t, d = (np.empty(shape, dtype=EXP) for _ in range(2))
        fresh = const == 0  # acc is still 0, so acc + Tr(x) is Tr(x)
        for c, idx in terms:
            if c == N or not idx:
                continue
            te = self._term_exp(c, [xs[i] for i in idx], t, d)
            zero = [xs[i] == N for i in idx if i in has_zero]
            if zero:
                te = np.where(np.logical_or.reduce(zero), N, te)
            if fresh:
                trace.take(te, None, acc, "clip")
                fresh = False
                continue
            trace.take(te, None, tr, "clip")
            np.multiply(acc, q, out=pair)
            np.add(pair, tr, out=pair)
            add.take(pair, None, acc, "clip")
        return acc

    def v_add(self, u, v):
        return self.v_lincomb([(0, (0,)), (0, (1,))], (u, v))

    def v_sub(self, u, v):
        return self.v_lincomb([(0, (0,)), (self._half, (1,))], (u, v))

    def v_neg(self, u):
        return self.v_lincomb([(self._half, (0,))], (u,))

    def v_mul(self, u, v):
        return self.v_lincomb([(0, (0, 1))], (u, v))

    def v_mul_const(self, c: int, v):
        return self.v_lincomb([(c, (0,))], (v,))

    def v_pow(self, u, k: int):
        """x -> x^k (k >= 1): exponents u * k mod N, the product in int64."""
        u = np.asarray(u, dtype=np.int64)
        out = (u * k % self.N).astype(EXP)
        np.copyto(out, self.N, where=(u == self.N))
        return out

    def v_inv(self, u):
        if np.any(np.asarray(u) == self.N):
            raise DivisionByZero("vector inverse of zero")
        return self.v_pow(u, self.N - 1)  # -u mod N

    def v_frob(self, u, i: int):
        return self.v_pow(u, self._qpow[i % TOWER])

    def v_p_power(self, u, e: int):
        return self.v_pow(u, self._ppow[e % self.deg])


class FieldElem:
    """One element of a Field: val is its exponent e for g^e, N for zero."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: Field, val: int):
        self.ctx = ctx
        self.val = val

    def is_zero(self) -> bool:
        return self.val == self.ctx.N

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx is other.ctx and self.val == other.val

    def __hash__(self):
        return hash((id(self.ctx), self.val))

    def __add__(self, other):
        return self.ctx.add(self, other)

    def __sub__(self, other):
        return self.ctx.sub(self, other)

    def __neg__(self):
        return self.ctx.neg(self)

    def __mul__(self, other):
        return self.ctx.mul(self, other)

    def __truediv__(self, other):
        return self.ctx.div(self, other)

    def __pow__(self, e: int):
        return self.ctx.pow(self, e)

    def inv(self):
        return self.ctx.inv(self)

    def frob(self, i: int):
        return self.ctx.frobenius(self, i)

    def __repr__(self):
        return self.ctx.format(self)


def make_field(p: int, s: int) -> Field:
    """Build (or fetch the cached) F_{p^(6s)} context.

    Deterministic for fixed (p, s): same modulus, same generator, same
    enumeration order on every run.  Positional and keyword spellings of the
    same request return the one shared context.  Raises NotPrime for a
    composite p and TooLarge when s < 1 or the field has more than
    DEFAULT_ZECH_LIMIT elements.
    """
    return _cached_field(p, s)


@functools.lru_cache(maxsize=16)
def _cached_field(p: int, s: int) -> Field:
    return Field(p, s)


def parse_field_spec(text: str) -> tuple[int, int]:
    """Parse 'p^s' (or a bare prime, meaning s = 1)."""
    text = text.strip()
    if "^" in text:
        ps, ss = text.split("^", 1)
        return int(ps), int(ss)
    return int(text), 1
