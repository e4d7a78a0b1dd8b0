"""Small dense GF(2) linear algebra on numpy uint8 arrays, and span
membership on integer bit rows."""

from __future__ import annotations

import numpy as np


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
        others = np.nonzero(m[:, c])[0]
        for j in others:
            if j != r:
                m[j] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the right null space of ``a`` over GF(2), one vector per row."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    _, cols = a.shape
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = m[r, fc]
    return basis


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of a x = b over GF(2), or None if inconsistent."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.asarray(b, dtype=np.uint8) % 2
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    m, pivots = rref(aug)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, cols]
    return x


def rank(a: np.ndarray) -> int:
    _, pivots = rref(np.atleast_2d(np.asarray(a, dtype=np.uint8)))
    return len(pivots)


def in_span(rows, v: int) -> bool:
    """Whether the bit row ``v`` is a GF(2) sum of the integer bit ``rows``."""
    pivots: dict[int, int] = {}  # leading bit -> the basis row that leads there
    for r in [*rows, v]:
        while r and (p := pivots.get(r.bit_length() - 1)):
            r ^= p
        if r:
            pivots[r.bit_length() - 1] = r
    return not r
