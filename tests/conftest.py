import pytest

from scatlin import gf, make_field


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
