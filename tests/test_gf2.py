import numpy as np
from hypothesis import given, strategies as st

from reference import least_weights
from zxfault import gf2


# -- reference: dense elimination on numpy uint8 matrices ---------------------

def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref matrix, pivot columns)."""
    m = a.copy().astype(np.uint8) % 2
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        i = r + hit[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        for j in np.nonzero(m[:, c])[0]:
            if j != r:
                m[j] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rref_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the right null space of ``a`` over GF(2), one vector per row."""
    _, cols = a.shape
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = m[r, fc]
    return basis


def to_array(rows, n: int) -> np.ndarray:
    """Bit rows as a dense matrix: bit i of a row is column i."""
    return np.array([[(r >> c) & 1 for c in range(n)] for r in rows],
                    dtype=np.uint8).reshape(len(rows), n)


def to_int(v) -> int:
    return sum(int(b) << c for c, b in enumerate(v))


def reference_nullspace(rows, n: int) -> list[int]:
    """``gf2.nullspace`` through the dense reference."""
    return [to_int(v) for v in rref_nullspace(to_array(list(rows), n))]


def rank(rows, n: int) -> int:
    return len(rref(to_array(rows, n))[1])


def parity(x: int) -> int:
    return x.bit_count() % 2


systems = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, 2 ** n - 1), max_size=8),
                        st.just(n)))


@given(systems)
def test_nullspace_vectors_annihilate(system):
    rows, n = system
    for v in gf2.nullspace(rows, n):
        assert v and v < 2 ** n
        assert not any(parity(r & v) for r in rows)


@given(systems)
def test_nullspace_matches_reference(system):
    rows, n = system
    assert gf2.nullspace(rows, n) == reference_nullspace(rows, n)


@given(systems)
def test_rank_nullity(system):
    rows, n = system
    assert len(gf2.echelon(rows)) == rank(rows, n)
    assert len(gf2.echelon(rows)) + len(gf2.nullspace(rows, n)) == n


@given(systems, st.data())
def test_solve_consistency(system, data):
    rows, n = system
    x = data.draw(st.integers(0, 2 ** n - 1))
    b = sum(parity(r & x) << i for i, r in enumerate(rows))
    sol = gf2.solve(rows, b, n)
    assert sol is not None and sol < 2 ** n
    assert all(parity(r & sol) == (b >> i) & 1 for i, r in enumerate(rows))


def test_solve_inconsistent():
    assert gf2.solve([0b01, 0b01], 0b01, 2) is None


def test_in_span():
    basis = [0b110, 0b011]
    assert gf2.in_span(basis, 0b101)
    assert not gf2.in_span(basis, 0b100)
    assert gf2.in_span([], 0)


@given(systems, st.data())
def test_in_span_matches_rank(system, data):
    rows, n = system
    v = data.draw(st.integers(0, 2 ** n - 1))
    assert gf2.in_span(rows, v) == (rank([*rows, v], n) == rank(rows, n))


@given(st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=20))
def test_parity_of_ints_and_arrays(values):
    width = max(values).bit_length()
    want = [bin(v).count("1") % 2 for v in values]
    assert [gf2.parity(v, width) for v in values] == want
    assert gf2.parity(np.array(values), width).tolist() == want


# nonzero, distinct keys over few bits, so that the span has many sums of
# several keys, each with a random payload
step_dicts = st.dictionaries(st.integers(1, 2 ** 6 - 1),
                             st.integers(0, 2 ** 8 - 1), max_size=9)


@given(step_dicts, st.integers(0, 5))
def test_layers_match_the_search_that_keeps_every_element(steps, max_weight):
    layers = list(gf2.layers(steps, max_weight))
    assert len(layers) == max_weight + 1
    got = [(s, w, k) for w, layer in enumerate(layers)
           for s, k in layer.items()]
    assert got == list(least_weights(steps, max_weight))


def test_a_step_back_two_layers_reaches_nothing_new():
    # X on two edges: the weight-3 search reaches only the two weight-1
    # faults again, from the weight-2 fault, so its layer is empty
    assert list(gf2.layers({0b01: 1, 0b10: 2}, 3)) == [
        {0: 0}, {0b01: 1, 0b10: 2}, {0b11: 3}, {}]
