"""The numpy elimination over F_p against the scalar FieldElem route."""

import numpy as np
import pytest

from scatlin import make_field
from scatlin.linalg import nullspace, nullspace_mod_p


def matrices(p):
    """Zero, full-rank, random, low-rank and wide integer matrices, some
    with entries outside [0, p)."""
    rng = np.random.default_rng(p)
    full = np.vstack([np.eye(12, dtype=np.int64)[rng.permutation(12)],
                      rng.integers(0, p, (12, 12))])
    return [np.zeros((24, 12), dtype=np.int64), np.zeros((3, 12), dtype=np.int64), full,
            rng.integers(0, p, (24, 12)), rng.integers(-p, 2 * p, (48, 24)),
            rng.integers(0, p, (24, 3)) @ rng.integers(0, p, (3, 12)),
            rng.integers(0, p, (48, 5)) @ rng.integers(0, p, (5, 24)),
            rng.integers(0, p, (5, 12)), rng.integers(0, p, (2, 24))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_mod_p_matches_scalar(p):
    """The same canonical basis as the scalar nullspace over the prime
    subfield of F_(p^6), and every basis row is a solution."""
    F = make_field(p, 1)
    for A in matrices(p):
        got = nullspace_mod_p(A, p)
        ref = nullspace(F, [[F.from_int(int(x)) for x in row] for row in A], A.shape[1])
        assert got.dtype == np.int64 and got.shape == (len(ref), A.shape[1])
        assert [[F.from_int(int(x)) for x in row] for row in got] == ref
        assert not (A @ got.T % p).any()
    assert nullspace_mod_p(matrices(p)[2], p).shape == (0, 12)  # full rank
    assert len(nullspace_mod_p(np.zeros((24, 12), dtype=np.int64), p)) == 12
