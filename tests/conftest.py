import pytest

from scatlin import QPoly, gf, make_field
from scatlin.linalg import rref


@pytest.fixture(scope="session")
def f2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def f7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture
def with_chunk(monkeypatch):
    """with_chunk(F, size) sets gf._CHUNK, the slice size of every
    whole-field pass, for the rest of the test; size None restores the
    default.  A given size must split F's shortest scan, the one over the
    (q^6 - 1)/(q - 1) coset representatives, into more than one slice, so a
    chunk-independence test really compares slicings."""
    default = gf._CHUNK

    def set_chunk(F, size):
        monkeypatch.setattr(gf, "_CHUNK", default if size is None else size)
        if size is not None:
            assert sum(1 for _ in F.conjugate_slices(F.N // (F.q - 1))) > 1
    return set_chunk


def monomial(F, i, c=1):
    """c x^(q^i), c an element or anything F.element reads."""
    return QPoly(F, [F.element(c) if j == i % 6 else F.zero() for j in range(6)])


def mat_rank(ctx, mat) -> int:
    """Rank of a matrix over ctx: the pivots of its scalar rref."""
    return len(rref(ctx, mat)[1])


def dickson_rank(f) -> int:
    """The reference route for QPoly.rank: the rank over F_{q^6} of f's
    Dickson matrix, which is f's F_q-rank."""
    return mat_rank(f.ctx, f.dickson())


def compose_inverse(P):
    """The inverse of an invertible q-polynomial: solve Q o P = id, which is
    linear in Q's six coefficients.  The rref of [M | I] is [I | M^-1]."""
    ctx = P.ctx
    one, zero = ctx.one(), ctx.zero()
    aug = [[ctx.frobenius(P.coeffs[(t - k) % 6], k) for k in range(6)]
           + [one if j == t else zero for j in range(6)] for t in range(6)]
    rows, pivots = rref(ctx, aug)
    assert pivots == list(range(6)), "P is not invertible"
    return QPoly(ctx, [rows[k][6] for k in range(6)])


def semilinear_image(f, w):
    """The g with U_g the image of U_f under the witness map w, or None when
    w is singular or a id + b f^rho is not invertible."""
    ctx = f.ctx
    if w.determinant().is_zero():
        return None
    frho = f.automorphism_image(w.rho)
    P = QPoly.identity(ctx).scale(w.a) + frho.scale(w.b)
    if P.kernel_dim() != 0:
        return None
    Q = QPoly.identity(ctx).scale(w.c) + frho.scale(w.d)
    return Q.compose(compose_inverse(P))
