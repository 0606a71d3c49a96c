"""Projective subspaces, the subgeometry collineation, and intersection
numbers, pinned against the closed-form images of the projection vertex."""

import random

import pytest

from scatlin import QPoly, geom, reproduce
from scatlin.errors import (DegenerateInput, InternalInvariant, InvalidParameter,
                            PreconditionFailed)
from scatlin.family import (enumerate_h, family_poly, lp_delta_samples,
                            u3_delta_samples, u4_deltas)
from scatlin.geom import (ProjSubspace, disjoint_from_sigma, gamma_of,
                          intersect, intn, sigma_hat, sigma_hat_vector, vertex)
from scatlin.linalg import rref


def sigma_points(F):
    """Every point <(x, x^q, ..., x^(q^5))> of the canonical subgeometry, one
    per F_q^*-coset: the reference enumeration behind the certificate."""
    for e in range(F.N // (F.q - 1)):
        x = F.from_exp(e)
        yield [F.frobenius(x, i) for i in range(6)]


def contains_point(S, vec):
    """Is <vec> inside S?  Reduce vec against S's RREF rows, each at its
    pivot (the row's first nonzero entry, which is 1); in S iff nothing is
    left."""
    v = list(vec)
    for row in S.rows:
        pc = next(j for j, c in enumerate(row) if not c.is_zero())
        v = [a - v[pc] * b for a, b in zip(v, row)]
    return all(c.is_zero() for c in v)


def basis_subspace(F, idxs):
    one, zero = F.one(), F.zero()
    return ProjSubspace.from_basis(
        F, [[one if j == i else zero for j in range(6)] for i in idxs])


def test_gamma_dimension_and_equations(f3, f5):
    """The vertex read off f_h's coefficients satisfies the closed-form
    equations x_0 = 0, h^(q-1) x_1 - h^(q^2-1) x_2 + x_4 + x_5 = 0 for every
    admissible h; h = 0 is not a parameter of f_h."""
    for F in (f3, f5):
        q = F.q
        for h in enumerate_h(F):
            G = gamma_of(h)
            assert G.pdim == 3
            c1 = h ** (q - 1)
            c2 = -(h ** (q**2 - 1))
            for row in G.rows:
                assert row[0].is_zero()
                assert (c1 * row[1] + c2 * row[2] + row[4] + row[5]).is_zero()
    with pytest.raises(InvalidParameter):
        gamma_of(f3.zero())


@pytest.mark.parametrize("q", [3, 5])
def test_vertex_intn_of_known_families(q, f3, f5):
    """(intn, chain) of the vertex of each known family, the same under
    sigma_hat and sigma_hat^5: the invariant separates the pseudoregulus and
    LP from the rest."""
    F = {3: f3, 5: f5}[q]
    expected = [
        (family_poly(F, "pseudoregulus"), (1, [3, 2])),
        (family_poly(F, "lp", lp_delta_samples(F)[0]), (2, [3, 1, 0])),
        (family_poly(F, "csajbok_mp", u3_delta_samples(F)[0]), (3, [3, 1, -1, -1])),
        (family_poly(F, "case1"), (3, [3, 1, -1, -1])),
    ]
    expected += [(family_poly(F, "csajbok_mz", d), (3, [3, 1, -1, -1]))
                 for d in u4_deltas(F)]
    for f, want in expected:
        G = vertex(f)
        assert (intn(G, 1), intn(G, 5)) == (want, want), f.tag


def test_vertex_of_a_line_is_degenerate(f3):
    """x -> a x has U_f a line, so it has no projection vertex."""
    for a in (f3.one(), f3.gen(), f3.zero()):
        with pytest.raises(DegenerateInput):
            vertex(QPoly(f3, [a]))


def test_gamma_disjoint_from_sigma_full_enumeration(f3):
    # all 28 vertices against all 364 subgeometry points: the reference
    # enumeration agrees with the coordinate-hyperplane certificate
    pts = list(sigma_points(f3))
    assert len(pts) == 364
    for h in enumerate_h(f3):
        G = gamma_of(h)
        assert not any(contains_point(G, vec) for vec in pts)
        assert disjoint_from_sigma(G)


def test_gamma_meeting_sigma_raises(f3, monkeypatch):
    """A vertex basis that meets Sigma, here at the point <(1, ..., 1)>,
    lies in no coordinate hyperplane.  The real vertex lies in x_0 = 0, so
    a failed certificate in gamma_of is a bug: InternalInvariant."""
    one, zero = f3.one(), f3.zero()
    rows = [[one] * 6] + [[one if j == i else zero for j in range(6)] for i in (1, 2, 3)]
    meets = ProjSubspace.from_basis(f3, rows)
    assert meets.pdim == 3 and contains_point(meets, [one] * 6)
    assert not disjoint_from_sigma(meets)
    monkeypatch.setattr(geom.ProjSubspace, "from_constraints",
                        classmethod(lambda cls, ctx, constraints: meets))
    with pytest.raises(InternalInvariant):
        gamma_of(enumerate_h(f3)[0])


def test_sigma_hat_fixes_subgeometry(f3):
    for vec in list(sigma_points(f3))[:25]:
        img = sigma_hat_vector(f3, vec)
        assert ProjSubspace.from_basis(f3, [vec]) == ProjSubspace.from_basis(f3, [img])


def test_sigma_hat_order_six(f3):
    G = gamma_of(enumerate_h(f3)[3])
    assert sigma_hat(G, 6) == G
    assert sigma_hat(sigma_hat(G, 2), 4) == G


def test_sigma_hat_golden_images(f3):
    """The closed-form equations of the first and second images."""
    q = f3.q
    for h in enumerate_h(f3)[:6]:
        G = gamma_of(h)
        G1 = sigma_hat(G, 1)
        for row in G1.rows:
            assert row[1].is_zero()
            v = h ** (q**2 - q) * row[2] + h ** (-q - 1) * row[3] + row[5] + row[0]
            assert v.is_zero()
        G2 = sigma_hat(G, 2)
        for row in G2.rows:
            assert row[2].is_zero()
            v = (-(h ** (-1 - q**2)) * row[3] + h ** (-q**2 - q) * row[4]
                 + row[0] + row[1])
            assert v.is_zero()


def test_intersect_properties(f3):
    G = gamma_of(enumerate_h(f3)[0])
    G1 = sigma_hat(G)
    G2 = sigma_hat(G, 2)
    assert intersect(G, G) == G
    assert intersect(G, G1) == intersect(G1, G)
    assert (intersect(intersect(G, G1), G2)
            == intersect(G, intersect(G1, G2)))
    E = ProjSubspace.empty(f3)
    assert E.pdim == -1
    assert intersect(G, E).pdim == -1
    # canonicalisation is idempotent
    R = ProjSubspace(f3, [list(r) for r in G.rows])
    assert R == G


def test_intersect_dimension_lower_bound(f3):
    rng = random.Random(77)
    for _ in range(15):
        A = ProjSubspace.from_basis(
            f3, [[f3.elem_at(rng.randrange(f3.order)) for _ in range(6)]
                 for _ in range(rng.randrange(1, 5))])
        B = ProjSubspace.from_basis(
            f3, [[f3.elem_at(rng.randrange(f3.order)) for _ in range(6)]
                 for _ in range(rng.randrange(1, 5))])
        got = intersect(A, B).pdim
        assert got >= A.pdim + B.pdim - 5
        assert got <= min(A.pdim, B.pdim)


def zassenhaus_intersect(S, T):
    """The reference route intersect replaced: reduce the rows [[A|A],[B|0]];
    the rows whose left half vanished have right halves spanning S cap T."""
    ctx, zero = S.ctx, S.ctx.zero()
    stacked = [list(r) + list(r) for r in S.rows] + [list(r) + [zero] * 6 for r in T.rows]
    if not stacked:
        return ProjSubspace.empty(ctx)
    reduced, _ = rref(ctx, stacked)
    return ProjSubspace(ctx, [row[6:] for row in reduced
                              if all(c.is_zero() for c in row[:6])])


def random_subspace(F, rng, k):
    """The span of k random vectors: k = 0 is the empty subspace, and k = 6
    is nearly always the full space."""
    return ProjSubspace(F, [[F.elem_at(rng.randrange(F.order)) for _ in range(6)]
                            for _ in range(k)])


def test_intersect_matches_zassenhaus(f3):
    """600 pairs at q = 3 of every vector dimension 0..6, the empty and the
    full space included; a third of them share a random subspace, so that
    intersections of every dimension occur."""
    rng = random.Random(78)
    seen = set()
    for n in range(600):
        S, T = (random_subspace(f3, rng, rng.randrange(7)) for _ in range(2))
        if n % 3 == 0:
            common = random_subspace(f3, rng, rng.randrange(1, 4))
            S = ProjSubspace(f3, list(S.rows) + list(common.rows))
            T = ProjSubspace(f3, list(T.rows) + list(common.rows))
        got = intersect(S, T)
        assert got == zassenhaus_intersect(S, T)
        seen.add((S.pdim, T.pdim, got.pdim))
    assert {d for _, _, d in seen} == set(range(-1, 6))
    assert {s for s, _, _ in seen} == set(range(-1, 6))


@pytest.mark.parametrize("fixture", ["f3", "f5"])
def test_intn_matches_zassenhaus(fixture, request, monkeypatch):
    """intn of every vertex, under sigma_hat and sigma_hat^5, is the same
    chain with the reference intersection."""
    F = request.getfixturevalue(fixture)
    vertices = [gamma_of(h) for h in enumerate_h(F)]
    got = [(intn(G, 1), intn(G, 5)) for G in vertices]
    monkeypatch.setattr(geom, "intersect", zassenhaus_intersect)
    assert got == [(intn(G, 1), intn(G, 5)) for G in vertices]


def test_intn_chain_q3(f3):
    for h in enumerate_h(f3)[:8]:
        G = gamma_of(h)
        r1, dims1 = intn(G, 1)
        r5, dims5 = intn(G, 5)
        assert r1 == 3 and r5 == 3
        assert dims1[:3] == [3, 1, -1]
        assert dims5[:3] == [3, 1, -1]


def test_intn_run_checks_sigma5_chain(monkeypatch):
    """The intn-q3 reproduce run fails when only the sigma_hat^5 chain is
    wrong, with the intersection number still 3."""
    def wrong_sigma5(S, power=1):
        return (3, [3, 2, 0, -1]) if power == 5 else intn(S, power)
    monkeypatch.setattr(reproduce, "intn", wrong_sigma5)
    assert reproduce.run_tag("intn-q3")["ok"] is False


def test_intn_trivial_arithmetic(f3):
    """dim(S cap S^sigma) = k means intn = 1 regardless of deeper terms."""
    S = basis_subspace(f3, [0, 1, 2, 3])
    # sigma maps e_i to e_{i+1}: S^sigma = <e1..e4>, pdim of meet = 2 = k-1
    r, dims = intn(S, 1)
    assert r == 1 and dims[:2] == [3, 2]


def test_intn_preconditions(f3):
    # alternating coordinates: S^sigma is completely skew to S
    S = basis_subspace(f3, [0, 2, 4])
    with pytest.raises(PreconditionFailed):
        intn(S, 1)
    with pytest.raises(PreconditionFailed):
        intn(ProjSubspace.empty(f3), 1)
    with pytest.raises(PreconditionFailed):
        intn(basis_subspace(f3, [0, 1]), 2)  # power must be 1 or 5


def test_intn_refuses_uncertified_subspace(f3):
    """<(1, 1, 1, 1, 1, g)> avoids Sigma, as the enumeration shows, but it
    lies in no coordinate hyperplane, so the certificate does not decide it
    and intn refuses it."""
    P = ProjSubspace.from_basis(f3, [[f3.one()] * 5 + [f3.gen()]])
    assert not any(contains_point(P, vec) for vec in sigma_points(f3))
    assert not disjoint_from_sigma(P)
    with pytest.raises(PreconditionFailed):
        intn(P, 1)


def test_intn_rejects_subspace_meeting_sigma(f3):
    full = ProjSubspace.from_basis(
        f3, [[f3.one() if j == i else f3.zero() for j in range(6)]
             for i in range(6)])
    with pytest.raises(PreconditionFailed):
        intn(full, 1)
