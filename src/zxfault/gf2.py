"""GF(2) linear algebra on integer bit rows: bit i of a row is column i."""

from __future__ import annotations


def echelon(rows) -> dict[int, int]:
    """Reduced row echelon form of the bit ``rows``: a map from each pivot
    column to its basis row, whose lowest set bit is that column and which
    is 0 at every other pivot column."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            c = (r & -r).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r ^= p
    # back-substitution: clear each row's higher pivot columns, top down
    done = 0  # the pivot columns whose rows are already reduced
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        high = r & done
        while high:
            low = high & -high
            r ^= pivots[low.bit_length() - 1]
            high ^= low
        pivots[c] = r
        done |= 1 << c
    return pivots


def nullspace(rows, n: int) -> list[int]:
    """Basis of {x in GF(2)^n : r.x = 0 for every bit row r}: one vector per
    free column in increasing order, 1 at that column and 0 at the others."""
    pivots = echelon(rows)
    basis = {f: 1 << f for f in range(n) if f not in pivots}
    for c, r in pivots.items():
        free = r ^ (1 << c)
        while free:
            low = free & -free
            basis[low.bit_length() - 1] |= 1 << c
            free ^= low
    return list(basis.values())


def solve(rows, b: int, n: int) -> int | None:
    """One x with r_i.x = bit i of ``b`` for each bit row r_i over ``n``
    columns, or None if the system is inconsistent."""
    pivots = echelon(r | ((b >> i) & 1) << n for i, r in enumerate(rows))
    if n in pivots:
        return None
    return sum(((r >> n) & 1) << c for c, r in pivots.items())


def reduce(pivots: dict[int, int], v: int) -> int:
    """``v`` with the pivot columns of the echelon form ``pivots`` cleared:
    equal for two rows exactly when they differ by a sum of its rows."""
    for c, r in pivots.items():
        if v >> c & 1:
            v ^= r
    return v


def in_span(rows, v: int) -> bool:
    """Whether the bit row ``v`` is a GF(2) sum of the bit ``rows``."""
    return not reduce(echelon(rows), v)


def parity(v, width: int):
    """The parity of the bits of ``v``, an int or an int array (one parity
    per entry), all of whose bits are below ``width``: the bits are folded
    in halves down to bit 0, so an array takes one pass per halving."""
    shift = 1 << max(width - 1, 0).bit_length()  # a power of two >= width
    while shift > 1:
        shift >>= 1
        v = v ^ (v >> shift)
    return v & 1


def layers(steps: dict[int, int], max_weight: int):
    """Breadth-first search of the GF(2) span of ``steps``' nonzero,
    distinct keys from 0: yield, for w = 0 to ``max_weight``, the layer
    {s: payload} of the s whose fewest keys with XOR s number w, in the
    order first reached (the last layer times each key, in ``steps``
    order), with payload the XOR of the values of the keys on that path.
    A key is its own inverse, so a neighbour of layer w - 1 is in layer
    w - 2, w - 1 or w, and only two layers are kept.  Layer 1 is the keys
    in order, so weight 2 pairs each only with those after it: (j, i) with
    j < i reaches what (i, j) reached, with the same payload."""
    older, last = {}, {0: 0}
    yield last
    items = list(steps.items())
    for w in range(1, max_weight + 1):
        layer: dict[int, int] = {}
        for i, (p, kp) in enumerate(last.items()):
            for a, k in items[i + 1:] if w == 2 else items:
                s = p ^ a
                if s not in layer:  # the first path to s wins
                    layer[s] = kp ^ k
        for s in last:  # reached by a shorter path
            layer.pop(s, None)
        for s in older:
            layer.pop(s, None)
        older, last = last, layer
        yield layer
