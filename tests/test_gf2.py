import numpy as np
from hypothesis import given, strategies as st

from zxfault import gf2


def random_matrix(draw_rows, draw_cols):
    return st.integers(1, 6).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r, max_size=r).map(lambda rows: np.array(rows, dtype=np.uint8))))


matrices = random_matrix(None, None)


@given(matrices)
def test_nullspace_vectors_annihilate(a):
    ns = gf2.nullspace(a)
    for v in ns:
        assert not np.any((a @ v) % 2)


@given(matrices)
def test_rank_nullity(a):
    assert gf2.rank(a) + gf2.nullspace(a).shape[0] == a.shape[1]


@given(matrices)
def test_solve_consistency(a):
    x = np.random.default_rng(0).integers(0, 2, a.shape[1], dtype=np.uint8)
    b = (a @ x) % 2
    sol = gf2.solve(a, b)
    assert sol is not None
    assert np.array_equal((a @ sol) % 2, b)


def test_solve_inconsistent():
    a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    b = np.array([1, 0], dtype=np.uint8)
    assert gf2.solve(a, b) is None


def test_in_span():
    basis = [0b110, 0b011]
    assert gf2.in_span(basis, 0b101)
    assert not gf2.in_span(basis, 0b100)
    assert gf2.in_span([], 0)


@given(matrices, st.data())
def test_in_span_matches_rank(a, data):
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=a.shape[1],
                                    max_size=a.shape[1])), dtype=np.uint8)

    def row(bits) -> int:
        return int("".join(str(b) for b in bits), 2)

    expected = gf2.rank(np.vstack([a, v])) == gf2.rank(a)
    assert gf2.in_span([row(r) for r in a], row(v)) == expected
