"""Exact arithmetic in F_{p^(6s)} = F_{q^6}, q = p^s, with its subfield tower.

A Field carries a monic irreducible modulus of degree 6s over F_p, a verified
primitive element g, and one of two arithmetic backends:

* ``zech``  -- every nonzero element is stored as its discrete log e (so the
  element is g^e) and zero as the sentinel exponent N = q^6 - 1.  Addition
  uses a Zech-logarithm table Z[k] = log(1 + g^k); multiplication is exponent
  addition mod N.  The power, log and Zech tables are uint32 numpy arrays
  (every stored value is at most N < 2^24), and Z carries one padding entry
  Z[N] = 0 = log(1 + 0), so the sentinel is a valid index.  The tables also
  power the vectorised exponent kernels (v_lincomb and its thin wrappers
  v_add, v_mul, ...) used by the exhaustive scans.
* ``poly``  -- elements are stored as base-p packed coefficient vectors and
  multiplied by schoolbook convolution plus reduction.  This backend has no
  table-size limit and exists for fields above the Zech threshold; scans are
  not attempted there.

Determinism: the modulus is the first irreducible in ascending packed
coefficient order (constant term is the least significant base-p digit), the
generator is the smallest packed value of full multiplicative order, and
enumeration always yields 0 first and then g^0, g^1, ...  Two constructions
with the same (p, s) therefore agree bit for bit, independent of backend, and
make_field returns one shared context per (p, s, backend).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

from .errors import (
    BadSubfield,
    CtxMismatch,
    DivisionByZero,
    InternalInvariant,
    NoIrreducibleFound,
    NotPrime,
    TooLarge,
)

TOWER = 6  # extension degree over F_q; the subfield lattice is {1, 2, 3, 6}

DEFAULT_ZECH_LIMIT = 1 << 24  # largest field order for which tables are built
EXP = np.uint32  # dtype of exponent arrays and of the Zech tables
_ACC_ZERO = 1 << 31  # zero inside a v_lincomb accumulator; see v_lincomb
MAX_DEGREE = 64  # guard: 6s <= 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def _pollard_factor(n: int, budget: int) -> tuple[int, int]:
    """Find a nontrivial factor of composite n; returns (factor, used_iters)."""
    if n % 2 == 0:
        return 2, 0
    used = 0
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            used += 1
            if used > budget:
                raise TooLarge("factor budget exhausted for %d" % n)
        if d != n:
            return d, used
    raise TooLarge("pollard rho gave up on %d" % n)


def factorize(n: int, budget: int = 2_000_000) -> dict[int, int]:
    """Prime factorisation {prime: multiplicity} with an iteration budget."""
    out: dict[int, int] = {}
    for sp in _SMALL_PRIMES:
        while n % sp == 0:
            out[sp] = out.get(sp, 0) + 1
            n //= sp
    t = 41
    while t * t <= n and t < 100_000:
        while n % t == 0:
            out[t] = out.get(t, 0) + 1
            n //= t
        t += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f, used = _pollard_factor(m, budget)
        budget -= used
        stack.extend((f, m // f))
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def _cyclotomic_value(d: int, p: int) -> int:
    """Phi_d(p) as an exact integer, via the Moebius product over p^e - 1."""
    num, den = 1, 1
    for e in _divisors(d):
        mu = _mobius(d // e)
        if mu == 1:
            num *= p**e - 1
        elif mu == -1:
            den *= p**e - 1
    if num % den:
        raise InternalInvariant("Phi_%d(%d) is not an integer (bug)" % (d, p))
    return num // den


def factorize_field_order(p: int, k: int, budget: int = 2_000_000) -> dict[int, int]:
    """Factor p^k - 1 by splitting into cyclotomic values first."""
    out: dict[int, int] = {}
    for d in _divisors(k):
        for prime, mult in factorize(_cyclotomic_value(d, p), budget).items():
            out[prime] = out.get(prime, 0) + mult
    return out


# ---------------------------------------------------------------------------
# F_p[x] helpers (coefficient tuples, low degree first, no trailing zeros)
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Polynomial division; b need not be monic."""
    a = list(a)
    db, db_lead = len(b) - 1, b[-1]
    inv_lead = pow(db_lead, p - 2, p)
    q = [0] * max(len(a) - db, 1)
    while len(_ptrim(a)) - 1 >= db and _ptrim(a):
        a = list(_ptrim(a))
        da = len(a) - 1
        if da < db:
            break
        coef = a[-1] * inv_lead % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pmulmod(a, b, mod, p):
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(a, e, mod, p):
    result = (1,)
    base = _pmod(a, mod, p)
    while e > 0:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = _ptrim([c * inv % p for c in a])
    return a


def _pinvmod(a, mod, p):
    """Inverse of a modulo mod via extended Euclid."""
    r0, r1 = mod, _pmod(a, mod, p)
    t0, t1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if len(r0) != 1:
        raise DivisionByZero("element not invertible")
    inv_lead = pow(r0[0], p - 2, p)
    return _ptrim([c * inv_lead % p for c in t0])


def _is_irreducible(mod, p, k):
    """Degree-k monic mod is irreducible over F_p.

    Test: x^(p^k) == x (mod f) and gcd(x^(p^(k/l)) - x, f) = 1 for every prime
    l | k.  The gcd conditions at the maximal proper divisors k/l imply the
    same for every proper divisor of k.
    """
    x = (0, 1)
    if _ppowmod(x, p**k, mod, p) != x:
        return False
    for ell in factorize(k):
        xe = _ppowmod(x, p ** (k // ell), mod, p)
        if len(_pgcd(mod, _psub(xe, x, p), p)) != 1:
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
# field context
# ---------------------------------------------------------------------------

def _default_mode(p: int, deg: int) -> str:
    """Backend for F_{p^deg} when none is asked for: Zech tables if the
    order is at most DEFAULT_ZECH_LIMIT, else polynomial arithmetic.  deg is
    clamped so that an out-of-range request, which Field rejects, neither
    builds a huge power nor fails here."""
    order = p ** min(max(deg, 0), MAX_DEGREE + 1)
    return "zech" if order <= DEFAULT_ZECH_LIMIT else "poly"


class Field:
    """Immutable context for F_{p^(6s)}; construct through make_field()."""

    def __init__(self, p: int, s: int, mode: str | None = None):
        if not is_prime(p):
            raise NotPrime("p = %d is not prime" % p)
        if s < 1 or TOWER * s > MAX_DEGREE:
            raise TooLarge("need 1 <= 6s <= %d, got 6s = %d" % (MAX_DEGREE, TOWER * s))
        self.p = p
        self.s = s
        self.q = p**s
        self.deg = TOWER * s
        self.order = p**self.deg
        self.N = self.order - 1
        if mode is None:
            mode = _default_mode(p, self.deg)
        if mode not in ("zech", "poly"):
            raise ValueError("mode must be 'zech' or 'poly'")
        if mode == "zech" and self.order > DEFAULT_ZECH_LIMIT:
            raise TooLarge("order %d exceeds Zech table limit %d" %
                           (self.order, DEFAULT_ZECH_LIMIT))
        self.mode = mode

        self.order_factors = factorize_field_order(p, self.deg)
        self.modulus = self._find_modulus()
        self.gen_coeffs = self._find_generator()
        self.gen_packed = _pack_digits(self.gen_coeffs + (0,) * self.deg, p)

        # q^i mod N (Frobenius on exponents) and p^e mod N (automorphisms)
        self._qpow = [pow(self.q, i, self.N) for i in range(TOWER)]
        self._ppow = [pow(self.p, e, self.N) for e in range(self.deg)]
        self._half = self.N // 2 if p != 2 else 0  # g^half = -1 for odd p

        self._frob_mats: dict[int, np.ndarray] = {}
        if mode == "zech":
            self._build_tables()
        self._zero = FieldElem(self, self.N if mode == "zech" else 0)
        self._one = FieldElem(self, 0 if mode == "zech" else 1)

    # -- construction helpers ------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.deg
        for v in range(p**k):
            if v % p == 0:  # constant term 0 => divisible by x
                continue
            cand = _ptrim(_digits(v, p, k) + [1])
            if _is_irreducible(cand, p, k):
                return cand
        raise NoIrreducibleFound("no irreducible of degree %d over F_%d" % (k, p))

    def _find_generator(self) -> tuple[int, ...]:
        p, k, N = self.p, self.deg, self.N
        checks = [N // ell for ell in self.order_factors]
        for v in range(2, self.order):
            cand = _ptrim(_digits(v, p, k))
            if all(_ppowmod(cand, c, self.modulus, p) != (1,) for c in checks):
                return cand
        raise NoIrreducibleFound("no primitive element found (impossible)")

    def _mult_matrix(self, coeffs) -> np.ndarray:
        """k x k matrix over F_p of multiplication by the given element."""
        k, p = self.deg, self.p
        M = np.zeros((k, k), dtype=np.int64)
        cur = coeffs
        for j in range(k):
            for i, c in enumerate(cur):
                M[i, j] = c
            cur = _pmulmod(cur, (0, 1), self.modulus, p)
        return M

    def _build_tables(self) -> None:
        """Power, log and Zech tables by doubling the g-orbit with matmuls."""
        p, k, N, order = self.p, self.deg, self.N, self.order
        C = np.zeros((N, k), dtype=np.int8)
        C[0, 0] = 1
        m = 1
        while m < N:
            b = min(m, N - m)
            gm = _pmulmod(tuple(int(c) for c in C[m - 1]), self.gen_coeffs,
                          self.modulus, p)
            T = self._mult_matrix(gm).T  # row-vector action
            step = 1 << 19
            for lo in range(0, b, step):
                hi = min(lo + step, b)
                C[m + lo:m + hi] = ((C[lo:hi].astype(np.int64) @ T) % p).astype(np.int8)
            m += b
        pvec = self.p ** np.arange(k, dtype=np.int64)
        pow_packed = np.empty(N, dtype=EXP)
        step = 1 << 20
        for lo in range(0, N, step):
            hi = min(lo + step, N)
            pow_packed[lo:hi] = C[lo:hi].astype(np.int64) @ pvec
        del C
        log = np.full(order, N, dtype=EXP)  # log[0] stays N: zero's exponent
        log[pow_packed] = np.arange(N, dtype=EXP)
        if np.count_nonzero(log == N) != 1:
            raise NoIrreducibleFound("generator orbit is degenerate (bug)")
        # 1 + g^k adds 1 to the constant digit; Z[k] = N where 1 + g^k = 0
        c0 = pow_packed % p
        one_plus = pow_packed - c0 + (c0 + 1) % p
        del c0
        Z = np.empty(N + 1, dtype=EXP)
        np.take(log, one_plus, out=Z[:N])
        Z[N] = 0  # padding: log(1 + 0) = 0, so the sentinel is an index
        self._Z = Z
        self._pow_packed = pow_packed
        self._log = log
        self._check_tables()

    def _check_tables(self) -> None:
        """Sanity checks of the Zech-mode tables; raise InternalInvariant.

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
        step = 1 << 20
        for lo in range(0, N, step):
            hi = min(lo + step, N)
            if not np.array_equal(log[pow_packed[lo:hi]],
                                  np.arange(lo, hi, dtype=EXP)):
                raise InternalInvariant("log/power tables disagree (bug)")

    # -- identity / representation -------------------------------------------

    def __repr__(self):
        return "Field(p=%d, s=%d, q=%d, order=%d, mode=%s)" % (
            self.p, self.s, self.q, self.order, self.mode)

    def __hash__(self):
        return hash((self.p, self.s, self.mode))

    def summary(self) -> dict:
        info = {
            "p": self.p,
            "s": self.s,
            "q": self.q,
            "order": self.order,
            "mode": self.mode,
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
        """g^e; in poly mode computed by square-and-multiply."""
        e %= self.N
        if self.mode == "zech":
            return FieldElem(self, e)
        coeffs = _ppowmod(self.gen_coeffs, e, self.modulus, self.p)
        return FieldElem(self, _pack_digits(coeffs + (0,) * self.deg, self.p))

    def from_packed(self, v: int) -> "FieldElem":
        if not 0 <= v < self.order:
            raise ValueError("packed value out of range")
        if self.mode == "poly":
            return FieldElem(self, v)
        if v == 0:
            return self._zero
        return FieldElem(self, int(self._log[v]))

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
        if self.mode == "poly":
            return x.val
        return 0 if x.val == self.N else int(self._pow_packed[x.val])

    def format(self, x: "FieldElem") -> str:
        if x.is_zero():
            return "0"
        if self.mode == "zech":
            return "g^%d" % x.val
        return "poly:" + ",".join(str(c) for c in _digits(x.val, self.p, self.deg))

    # -- enumeration -----------------------------------------------------------

    def elements(self):
        """All q^6 elements: 0 first, then g^0, g^1, ... (documented order)."""
        yield self._zero
        if self.mode == "zech":
            for e in range(self.N):
                yield FieldElem(self, e)
        else:
            cur = self._one
            for _ in range(self.N):
                yield cur
                cur = cur * self.gen()

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
        if self.mode == "zech":
            return x.val + 1
        return int(self.discrete_log(x)) + 1

    def elem_at(self, index: int) -> "FieldElem":
        return self._zero if index == 0 else self.from_exp(index - 1)

    def discrete_log(self, x: "FieldElem") -> int:
        if x.is_zero():
            raise DivisionByZero("log of zero")
        if self.mode == "zech":
            return x.val
        raise TooLarge("discrete log unavailable in poly mode")

    # -- scalar arithmetic (mode dispatch) --------------------------------------

    def _check(self, x: "FieldElem"):
        if x.ctx is not self:
            raise CtxMismatch("operands from different field contexts")

    def add(self, x, y):
        self._check(x); self._check(y)
        if self.mode == "zech":
            return FieldElem(self, self._z_add(x.val, y.val))
        return FieldElem(self, self._y_add(x.val, y.val))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        self._check(x)
        if self.p == 2:
            return x
        if self.mode == "zech":
            return FieldElem(self, x.val if x.val == self.N else (x.val + self._half) % self.N)
        coeffs = [(-c) % self.p for c in _digits(x.val, self.p, self.deg)]
        return FieldElem(self, _pack_digits(coeffs, self.p))

    def mul(self, x, y):
        self._check(x); self._check(y)
        if self.mode == "zech":
            if x.val == self.N or y.val == self.N:
                return self._zero
            return FieldElem(self, (x.val + y.val) % self.N)
        return FieldElem(self, self._y_mul(x.val, y.val))

    def inv(self, x):
        self._check(x)
        if x.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.mode == "zech":
            return FieldElem(self, (self.N - x.val) % self.N)
        coeffs = _pinvmod(self._unpack(x.val), self.modulus, self.p)
        return FieldElem(self, _pack_digits(coeffs + (0,) * self.deg, self.p))

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
        e %= self.N
        if self.mode == "zech":
            return FieldElem(self, x.val * e % self.N)
        coeffs = _ppowmod(self._unpack(x.val), e, self.modulus, self.p)
        return FieldElem(self, _pack_digits(coeffs + (0,) * self.deg, self.p))

    def frobenius(self, x, i: int):
        """x^(q^i), the i-th power of the tower Frobenius."""
        self._check(x)
        i %= TOWER
        if self.mode == "zech":
            if x.val == self.N:
                return x
            return FieldElem(self, x.val * self._qpow[i] % self.N)
        return self._poly_linear_power(x, self.s * i)

    def p_power(self, x, e: int):
        """x^(p^e): the full automorphism group is e = 0 .. 6s-1."""
        self._check(x)
        e %= self.deg
        if self.mode == "zech":
            if x.val == self.N:
                return x
            return FieldElem(self, x.val * self._ppow[e] % self.N)
        return self._poly_linear_power(x, e)

    def _poly_linear_power(self, x, e: int):
        """x^(p^e) in poly mode via a cached F_p-linear matrix."""
        e %= self.deg
        if e == 0:
            return x
        M = self._frob_mats.get(e)
        if M is None:
            cols = []
            for j in range(self.deg):
                img = _ppowmod((0, 1) if j == 1 else ((1,) if j == 0 else
                                                      (0,) * j + (1,)),
                               self.p**e, self.modulus, self.p)
                cols.append(list(img) + [0] * (self.deg - len(img)))
            M = np.array(cols, dtype=np.int64).T % self.p
            self._frob_mats[e] = M
        vec = np.array(_digits(x.val, self.p, self.deg), dtype=np.int64)
        out = (M @ vec) % self.p
        return FieldElem(self, _pack_digits([int(c) for c in out], self.p))

    def _unpack(self, v: int):
        return _ptrim(_digits(v, self.p, self.deg))

    # zech scalar kernels ------------------------------------------------------

    def _z_add(self, u: int, v: int) -> int:
        N = self.N
        if u == N:
            return v
        if v == N:
            return u
        z = int(self._Z[(v - u) % N])
        if z == N:
            return N
        return (u + z) % N

    def _y_add(self, u: int, v: int) -> int:
        p, out, mult = self.p, 0, 1
        for _ in range(self.deg):
            out += ((u % p + v % p) % p) * mult
            u //= p
            v //= p
            mult *= p
        return out

    def _y_mul(self, u: int, v: int) -> int:
        prod = _pmulmod(self._unpack(u), self._unpack(v), self.modulus, self.p)
        return _pack_digits(prod + (0,) * self.deg, self.p)

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

    def sqrt_of_minus_one(self):
        """An element i with i^2 = -1 (odd p only): g^(N/4)."""
        if self.p == 2:
            return self._one
        return self.from_exp(self.N // 4)

    # -- vectorised exponent kernels (zech mode only) ---------------------------
    #
    # Bulk scans work on uint32 (EXP) numpy arrays of exponents: g^e is stored
    # as e in [0, N) and zero as the sentinel N.  Every kernel is total on that
    # encoding and returns a fresh EXP array unless it is given out=.
    #
    # Products in int64, sums in 32-bit.  A sum or difference of two reduced
    # exponents lies in [0, 2N) (after adding N to a difference) and is reduced
    # by one conditional subtraction, np.minimum(x, x - N): for x < N the
    # uint32 subtraction wraps to a huge value and the minimum keeps x.  A
    # product e * K (Frobenius, p-powers, inverses, the Dickson terms) can
    # exceed 2^32; it is formed in int64, reduced mod N, then cast.
    #
    # All additive work goes through v_lincomb; v_add, v_sub, v_mul,
    # v_mul_const and v_neg are thin uses of it.

    def _need_tables(self):
        if self.mode != "zech":
            raise TooLarge("vectorised scan needs Zech tables (order %d too big)" %
                           self.order)

    def exp_of(self, x: "FieldElem") -> int:
        """Exponent encoding of a single element (N for zero)."""
        if x.is_zero():
            return self.N
        return self.discrete_log(x)

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
        self._need_tables()
        N, Z = self.N, self._Z
        xs = np.broadcast_arrays(*(np.asarray(x, dtype=EXP) for x in bases))
        if out is None:
            out = np.empty(xs[0].shape if xs else (), dtype=EXP)
        has_zero = [x.size > 0 and int(x.max()) >= N for x in xs]
        t, d, z = (np.empty(out.shape, dtype=EXP) for _ in range(3))
        cancel = np.empty(out.shape, dtype=bool)
        first = True
        for c, idx in terms:
            if c == N:
                continue
            te = self._term_exp(c, [xs[i] for i in idx], t, d)
            zero = None  # where a factor of the term is the zero element
            for i in idx:
                if has_zero[i]:
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
            np.take(Z, d, out=z, mode="clip")
            np.equal(z, N, out=cancel)
            np.add(z, te, out=out)
            np.subtract(out, N, out=d)
            np.minimum(out, d, out=out)
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
        N = self.N
        src = factors[0]
        for addend in list(factors[1:]) + ([c] if c else []):
            np.add(src, addend, out=t)
            np.subtract(t, N, out=tmp)
            np.minimum(t, tmp, out=t)
            src = t
        return t

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
    """One element of a Field; value encoding depends on the backend."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: Field, val: int):
        self.ctx = ctx
        self.val = val

    def is_zero(self) -> bool:
        return self.val == (self.ctx.N if self.ctx.mode == "zech" else 0)

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


def make_field(p: int, s: int, mode: str | None = None) -> Field:
    """Build (or fetch the cached) F_{p^(6s)} context.

    Deterministic for fixed (p, s): same modulus, same generator, same
    enumeration order on every run.  The cache key is normalised, so every
    spelling of the same request (positional or keyword, mode omitted, None
    or the backend it resolves to) returns the one shared context.
    """
    if mode is None:
        mode = _default_mode(p, TOWER * s)
    return _cached_field(p, s, mode)


@functools.lru_cache(maxsize=16)
def _cached_field(p: int, s: int, mode: str) -> Field:
    return Field(p, s, mode=mode)


def parse_field_spec(text: str) -> tuple[int, int]:
    """Parse 'p^s' (or a bare prime, meaning s = 1)."""
    text = text.strip()
    if "^" in text:
        ps, ss = text.split("^", 1)
        return int(ps), int(ss)
    return int(text), 1
