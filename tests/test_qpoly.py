"""q-polynomials: evaluation, composition, adjoint, Dickson matrices, exact
determinants, and kernel dimensions (all against enumeration oracles)."""

import random

import pytest

from scatlin import QPoly
from scatlin.errors import DegenerateInput
from scatlin.linalg import det
from scatlin.family import family_poly
from scatlin.scatter import _criterion_matrices

from conftest import dickson_rank, mat_rank, monomial


def mat_mul(ctx, A, B):
    """The matrix product A B over ctx, the reference for compose."""
    out = [[ctx.zero() for _ in B[0]] for _ in A]
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            for t, x in enumerate(row):
                out[i][j] = out[i][j] + x * B[t][j]
    return out


def rand_poly(F, rng):
    return QPoly(F, [F.elem_at(rng.randrange(F.order)) for _ in range(6)])


def test_evaluate_monomial(f3):
    xq = monomial(f3, 1)
    x = f3.from_exp(5)
    assert xq(x) == x.frob(1)
    assert xq(f3.zero()).is_zero()


def test_evaluate_family_at_one(f5):
    # h in F_q makes both h-power coefficients equal 1, so f(1) = 1 - 1 + 1 + 1
    f = family_poly(f5, "new_fh", 2)
    assert f(f5.one()) == f5.from_int(2)


def test_evaluate_is_linear(f3):
    rng = random.Random(2)
    for _ in range(10):
        f = rand_poly(f3, rng)
        x = f3.elem_at(rng.randrange(f3.order))
        y = f3.elem_at(rng.randrange(f3.order))
        for lam in f3.subfield_elements(1):
            assert f(lam * x + y) == lam * f(x) + f(y)


def test_compose(f3):
    xq = monomial(f3, 1)
    idp = QPoly.identity(f3)
    assert xq.compose(idp) == xq
    assert idp.compose(xq) == xq
    assert xq.compose(monomial(f3, 5)) == idp  # exponents add mod 6
    rng = random.Random(4)
    for _ in range(6):
        f, g = rand_poly(f3, rng), rand_poly(f3, rng)
        fg = f.compose(g)
        for x in list(f3.elements())[::31]:
            assert fg(x) == f(g(x))


def test_compose_double_evaluation_family(f3):
    h = f3.from_exp((f3.q**3 - 1) // 2)
    f = family_poly(f3, "new_fh", h)
    ff = f.compose(f)
    rng = random.Random(9)
    for _ in range(40):
        x = f3.elem_at(rng.randrange(f3.order))
        assert ff(x) == f(f(x))


def test_adjoint(f3):
    assert monomial(f3, 1).adjoint() == monomial(f3, 5)
    rng = random.Random(6)
    for _ in range(8):
        f = rand_poly(f3, rng)
        assert f.adjoint().adjoint() == f
    f = family_poly(f3, "new_fh", f3.from_exp((f3.q**3 - 1) // 2))
    fhat = f.adjoint()
    for _ in range(100):
        x = f3.elem_at(rng.randrange(f3.order))
        y = f3.elem_at(rng.randrange(f3.order))
        assert f3.trace(x * f(y), 1) == f3.trace(y * fhat(x), 1)


def test_adjoint_preserves_kernel_dim(f3):
    rng = random.Random(8)
    for _ in range(20):
        f = rand_poly(f3, rng)
        assert f.kernel_dim() == f.adjoint().kernel_dim()


def test_dickson_autocirculant(f3):
    rng = random.Random(10)
    f = rand_poly(f3, rng)
    M = f.dickson()
    for i in range(5):
        for j in range(6):
            assert M[i + 1][(j + 1) % 6] == M[i][j].frob(1)


def test_dickson_golden_case1(f5):
    """The constant pattern of the reference 6x6 matrix for the h-free
    polynomial: first row (m, 1, -1, 0, 1, 1), each later row the cyclic
    shift (constants are in F_q, so the q-powers fix them)."""
    f = family_poly(f5, "case1")
    m = f5.from_exp(7)
    M, M5 = _criterion_matrices(f, m)
    one, zero = f5.one(), f5.zero()
    first = [None, one, -one, zero, one, one]
    for i in range(6):
        for j in range(6):
            if i == j:
                assert M[i][j] == m.frob(i)
            else:
                assert M[i][j] == first[(j - i) % 6]
    assert M5[1][0] == m.frob(1) and M5[4][3] == m.frob(4)
    assert M5[0][0] == one and M5[0][1] == -one


def test_dickson_golden_case2(f3):
    """Entries of the reference matrices for f_h, rewritten through
    h^(q^3) = -1/h; independently recomputed h-powers must match."""
    q = f3.q
    h = f3.from_exp((q**3 - 1) // 2)
    f = family_poly(f3, "new_fh", h)
    m = f3.from_exp(11)
    M, M5 = _criterion_matrices(f, m)
    expect = {
        (0, 1): h ** (q - 1), (0, 2): -(h ** (q**2 - 1)),
        (0, 3): f3.zero(), (0, 4): f3.one(), (0, 5): f3.one(),
        (1, 2): h ** (q**2 - q), (1, 3): h ** (-q - 1),
        (2, 3): -(h ** (-q**2 - 1)), (2, 4): h ** (-q**2 - q),
        (3, 4): h ** (1 - q), (3, 5): -(h ** (1 - q**2)),
        (4, 0): h ** (q + 1), (4, 5): h ** (q - q**2),
        (5, 0): -(h ** (q**2 + 1)), (5, 1): h ** (q**2 + q),
    }
    for (i, j), val in expect.items():
        assert M[i][j] == val, (i, j)
    for i in range(6):
        assert M[i][i] == m.frob(i)
    # the truncation is exactly rows 0..4 x columns 1..5
    for i in range(5):
        for j in range(5):
            assert M5[i][j] == M[i][j + 1]


def test_dickson_multiplicativity(f3):
    rng = random.Random(12)
    for _ in range(8):
        f, g = rand_poly(f3, rng), rand_poly(f3, rng)
        assert f.compose(g).dickson() == mat_mul(f3, f.dickson(), g.dickson())


def test_det_rank_basics(f3):
    one, zero = f3.one(), f3.zero()
    I6 = [[one if i == j else zero for j in range(6)] for i in range(6)]
    assert det(f3, I6) == one and mat_rank(f3, I6) == 6
    M = [list(r) for r in I6]
    M[3] = list(M[2])
    assert det(f3, M).is_zero()
    # x^q has a_0 = 0 = m: the 6-cycle permutation matrix, determinant -1
    xq = monomial(f3, 1)
    assert det(f3, xq.dickson()) == -one


def test_det_case1_witness_identity(f3, f7):
    # at the closed-form witness m, det of the truncated matrix is (m^2+4)^2
    for F in (f3, f7):
        f = family_poly(F, "case1")
        minus4 = F.from_int(-4)
        mbar = next(m for m in F.elements() if m * m == minus4)
        t = mbar * mbar + F.from_int(4)
        M, M5 = _criterion_matrices(f, mbar)
        assert det(F, M5) == t * t
        assert det(F, M) == -(t * t * t)


def test_det_nonzero_iff_full_rank(f3):
    rng = random.Random(14)
    for _ in range(15):
        M = [[f3.elem_at(rng.randrange(f3.order)) for _ in range(4)] for _ in range(4)]
        assert (not det(f3, M).is_zero()) == (mat_rank(f3, M) == 4)


@pytest.mark.parametrize("fixture", ["f3", "f4", "f9"])
def test_rank_special_maps(fixture, request):
    """QPoly.rank against dickson_rank on the zero map (0), on x -> a x and
    on each monomial a x^(q^i) (6 for every a != 0)."""
    F = request.getfixturevalue(fixture)
    rng = random.Random(15)
    maps = [(QPoly.zero(F), 0)]
    for _ in range(5):
        a = F.from_exp(rng.randrange(F.N))
        maps += [(monomial(F, i, a), 6) for i in range(6)]
    for f, r in maps:
        assert f.rank() == dickson_rank(f) == r


def test_kernel_dim(f3):
    assert monomial(f3, 1).kernel_dim() == 0
    f = QPoly(f3, [-f3.one(), f3.one()])  # x^q - x has kernel F_q
    assert f.kernel_dim() == 1
    tr = QPoly(f3, [f3.one()] * 6)
    count = sum(1 for x in f3.elements() if tr(x).is_zero())
    assert count == 3**5 and tr.kernel_dim() == 5


def test_kernel_dim_counts_roots(f3):
    rng = random.Random(16)
    for _ in range(100):
        f = rand_poly(f3, rng)
        k = f.kernel_dim()
        assert sum(1 for x in f3.elements() if f(x).is_zero()) == 3**k


def test_first_q_term(f3):
    """The first i >= 1 with a_i != 0, whatever a_0 is; a multiple of x has
    none."""
    for i in range(1, 6):
        for a0 in (f3.zero(), f3.gen()):
            f = monomial(f3, i, "g^2") + monomial(f3, 5) + QPoly(f3, [a0])
            assert f.first_q_term() == i
    for coeffs in ([], ["g^1"]):
        with pytest.raises(DegenerateInput):
            QPoly(f3, coeffs).first_q_term()


def test_json_roundtrip(f3):
    rng = random.Random(18)
    f = rand_poly(f3, rng)
    assert QPoly.from_json(f3, f.to_json()) == f
