"""Dense-tensor evaluation of small diagrams, in complex128.

The package decides its semantic facts on the webs; the dense tensors only
guard the syndrome map (:class:`~zxfault.feq.SyndromeMap`) and print
``zxfault eval``.  Outcome variables are handled exactly: every variable
becomes an extra binary tensor leg (tied across its occurrences by a copy
tensor), so one contraction yields the full outcome-indexed family.

There is one contraction path, :func:`evaluate`: it builds a diagram's
leaf tensors (:func:`_leaves`), plans its whole pairwise contraction order
(:func:`_plan`) and runs the steps.  The only thing kept between calls is a
bounded table of small spider leaves (:func:`_spider_leaf`), read-only
arrays that every contraction shares.  A faulted diagram is contracted as
``evaluate(apply_fault(d, f))``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

from . import gf2
from .diagram import ZxDiagram

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# A bare wire's leaf, read-only: the identity, or H on a hadamard edge.
_WIRE, _HAD_WIRE = np.eye(2, dtype=complex), H.copy()
_WIRE.flags.writeable = _HAD_WIRE.flags.writeable = False
# Spider leaves of at most _LEAF_CAP entries are kept in a table of at most
# _LEAF_SLOTS leaves; a contraction meets few distinct ones.
_LEAF_CAP = 2**10
_LEAF_SLOTS = 256

DEFAULT_BUDGET = 2**22
# Absolute tolerance of every float comparison of tensor entries: zero tests,
# scalar-equality checks and the sign tests of web-syndrome read-outs.
TOL = 1e-9


class OracleBudgetError(Exception):
    pass


def _z_core(degree: int, qturns: int) -> np.ndarray:
    """Z-spider tensor: all-zeros entry 1, all-ones entry i**qturns."""
    if degree == 0:
        return np.array(1 + 1j**qturns, dtype=complex)
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1
    t[(1,) * degree] = 1j**qturns
    return t


def _spider_leaf(colour: str, degree: int, qturns: int, had_legs: list | tuple,
                 n_vars: int) -> np.ndarray:
    """A spider's leaf tensor, whose axes are its ``degree`` legs and then
    ``n_vars`` outcome-variable legs, with an H on each leg in ``had_legs``.
    A leaf of at most ``_LEAF_CAP`` entries comes from a bounded table and
    is read-only."""
    key = (colour, degree, qturns, tuple(had_legs), n_vars)
    if 2 ** (degree + n_vars) > _LEAF_CAP:
        return _build_leaf(*key)
    return _leaf_table(*key)


@functools.lru_cache(maxsize=_LEAF_SLOTS)
def _leaf_table(*key) -> np.ndarray:
    t = _build_leaf(*key)
    t.flags.writeable = False
    return t


def _build_leaf(colour: str, degree: int, qturns: int, had_legs: tuple,
                n_vars: int) -> np.ndarray:
    """:func:`_spider_leaf`, built.  An X spider is a Z spider with H on
    every leg, and H twice is none, so the leaf is a Z spider with H on the
    legs of a set S.  With x the legs' bits and v the variables', its entry
    is 2^(-|S|/2) ([x off S = 0] + phase (-1)^|x on S| [x off S = 1]), where
    phase = i^(qturns + 2|v|), built on the flat index, whose bit n - 1 - j
    is axis j of n axes.  A leaf with no H and no variable is ``_z_core``."""
    n = degree + n_vars
    h_mask = ((1 << degree) - 1) << n_vars if colour == "X" else 0
    for ax in had_legs:
        h_mask ^= 1 << (n - 1 - ax)
    if not (h_mask or n_vars):
        return _z_core(degree, qturns)
    j = np.arange(2 ** n)
    off = ((1 << degree) - 1) << n_vars & ~h_mask
    sign = 1 - 2 * gf2.parity(j & (h_mask | (1 << n_vars) - 1), n)
    t = ((j & off) == 0) + 1j**qturns * sign * ((j & off) == off)
    return (t * 2.0 ** (-h_mask.bit_count() / 2)).reshape((2,) * n)


def _self_loops(labels: list) -> tuple[list, list]:
    """The axis pairs that trace out repeated labels on one tensor
    (self-loops), in tracing order, and the labels left after them."""
    traces = []
    while True:
        seen: dict = {}
        dup = None
        for i, l in enumerate(labels):
            if l in seen:
                dup = (seen[l], i)
                break
            seen[l] = i
        if dup is None:
            return traces, labels
        traces.append(dup)
        labels = [l for k, l in enumerate(labels) if k not in dup]


def _trace(t: np.ndarray, traces: list) -> np.ndarray:
    for i, j in traces:
        t = np.trace(t, axis1=i, axis2=j)
    return t


class OutcomeTensor:
    """Outcome-indexed family of linear-map tensors.

    ``array`` has shape (2,)*len(variables) + (2**n_in, 2**n_out); the entry
    at (assignment, a, b) is <b| D |a> for that outcome assignment, up to one
    global scalar shared by the whole family.
    """

    def __init__(self, variables: list[str], n_in: int, n_out: int, array: np.ndarray):
        self.variables = list(variables)
        self.n_in = n_in
        self.n_out = n_out
        self.array = array

    def assignments(self):
        return itertools.product((0, 1), repeat=len(self.variables))

    def __getitem__(self, assignment) -> np.ndarray:
        return self.array[tuple(assignment)]

    def max_abs(self) -> float:
        return float(np.abs(self.array).max()) if self.array.size else 0.0


def _port_label(d: ZxDiagram, eid: int, port: tuple):
    """Open tensor label carrying the given boundary port of edge eid."""
    e = d.edges[eid]
    if any(ep[0] == "s" for ep in e.ends()):
        return ("e", eid)
    return ("e", eid) if e.a == port else ("e", eid, "b")


def _leaves(d: ZxDiagram, limit: int) -> tuple[list, list]:
    """The leaf tensors of ``d``, one per spider, bare wire and outcome
    variable, each with its self-loops traced, and each leaf's labels.  A
    spider's leaf is built in closed form when it carries an H or an outcome
    variable; an untraced leaf may be read-only.  A leaf of more than
    ``limit`` entries is refused before it is built."""
    leaves: list = []
    labels_of: list = []

    def add(what: str, labels: list, build, looped: bool = False) -> None:
        if 2 ** len(labels) > limit:
            raise OracleBudgetError(f"{what} tensor exceeds budget")
        t = build()
        if looped:
            loops, labels = _self_loops(labels)
            t = _trace(t, loops)
        leaves.append(t)
        labels_of.append(labels)

    inc = d.incidence()
    var_occurrences: dict[str, int] = {v: 0 for v in d.variables}
    for sid, s in sorted(d.spiders.items()):
        legs: list = []
        had_legs: list[int] = []
        looped = False
        # a self-loop appears twice; its first leg is its a-end
        for eid in sorted([eid for eid, _ in inc[sid]]):
            e = d.edges[eid]
            again = bool(legs) and legs[-1][1] == eid
            looped |= again
            # absorb the H of a hadamard edge exactly once, at the
            # a-side endpoint if that is a spider, else here
            if e.had and (e.a[0] != "s" or e.a == ("s", sid) and not again):
                had_legs.append(len(legs))
            legs.append(("e", eid))
        vlegs = sorted(s.phase.pivars)
        labels = legs + [("v", v, var_occurrences[v]) for v in vlegs]
        for v in vlegs:
            var_occurrences[v] += 1
        add(f"spider {sid}", labels, lambda: _spider_leaf(
            s.colour, len(legs), s.phase.qturns, had_legs, len(vlegs)),
            looped)

    # bare wires (both endpoints are ports)
    for eid, e in sorted(d.edges.items()):
        if all(ep[0] != "s" for ep in e.ends()):
            add(f"wire {eid}", [("e", eid), ("e", eid, "b")],
                lambda: _HAD_WIRE if e.had else _WIRE)

    # copy tensor per variable ties its occurrences and exposes one open leg
    for v in d.variables:
        occ = var_occurrences[v]
        add(f"variable {v}", [("v", v, i) for i in range(occ)] + [("var", v)],
            lambda: _spider_leaf("Z", occ + 1, 0, (), 0))
    return leaves, labels_of


def _plan(labels_of: list, limit: int) -> tuple[list, list]:
    """The greedy pairwise order of the leaves with labels ``labels_of``,
    each step laid out as ``np.tensordot`` would, and the final labels.

    The smallest node goes first, by (number of labels, label strings,
    slot), with its cheapest partner among the nodes that share a label
    with it, ties going to the smallest, or else the next smallest node (an
    outer product); each step's result takes the next slot after the
    leaves.  A step is (slot a, slot b, the transpose that puts a's
    contracted axes last, a's matrix shape, the transpose that puts b's
    first, b's matrix shape, the result's shape).  A step of more than
    ``limit`` entries is refused.  A step's labels are its operands' free
    labels, and no label is on more than two leaves, so no step needs a
    trace."""
    # Labels are planned as their ranks in string order, so a list of ranks
    # orders as the list of strings.  A heap holds every node's order key,
    # and a popped key whose node is gone is skipped.
    names = sorted({l for labels in labels_of for l in labels}, key=str)
    rank = {l: r for r, l in enumerate(names)}
    nodes: dict = {}  # live slot -> its order key
    holders: list = [[] for _ in names]  # rank -> the live slots holding it
    heap: list = []

    def push(slot: int, labels: list) -> None:
        nodes[slot] = order = (len(labels), labels, slot)
        for l in labels:
            holders[l].append(slot)
        heapq.heappush(heap, order)

    def pop(slot: int) -> list:
        labels = nodes.pop(slot)[1]
        for l in labels:
            holders[l].remove(slot)
        return labels

    def smallest() -> int:
        while heap[0][2] not in nodes:
            heapq.heappop(heap)
        return heapq.heappop(heap)[2]

    for i, labels in enumerate(labels_of):
        push(i, [rank[l] for l in labels])
    steps: list = []
    while len(nodes) > 1:
        a = smallest()
        la = pop(a)
        shared: dict = {}  # slot -> the number of labels it shares with a
        for l in la:
            for o in holders[l]:
                shared[o] = shared.get(o, 0) + 1
        if shared:
            b = min(shared, key=lambda o: (
                len(la) + nodes[o][0] - 2 * shared[o], nodes[o]))
        else:
            b = smallest()
        at_b = {l: k for k, l in enumerate(pop(b))}  # left: b's free labels
        free_a, ax_a, ax_b = [], [], []
        for k, l in enumerate(la):
            j = at_b.pop(l, None)
            if j is None:
                free_a.append(k)
            else:
                ax_a.append(k)
                ax_b.append(j)
        free_b = list(at_b.values())
        out = [la[k] for k in free_a] + list(at_b)
        if 2 ** len(out) > limit:
            raise OracleBudgetError(
                f"contraction intermediate of {len(out)} open legs"
                f" exceeds budget")
        steps.append((
            a, b, free_a + ax_a, (2 ** len(free_a), 2 ** len(ax_a)),
            ax_b + free_b, (2 ** len(ax_b), 2 ** len(free_b)),
            (2,) * len(out)))
        push(len(labels_of) + len(steps) - 1, out)
    final = next(iter(nodes.values()), None)
    return steps, [names[l] for l in final[1]] if final else []


def evaluate(d: ZxDiagram, budget: int = DEFAULT_BUDGET) -> OutcomeTensor:
    """Contract the diagram into its outcome-indexed tensor family.

    The leaves are built and the whole order is planned before any product
    runs, so an over-budget leaf or step is refused up front; a leaf or an
    intermediate may have ``budget`` times 2^(number of variables)
    entries.  Each step then runs as transpose-reshape-``np.dot``."""
    limit = budget * 2 ** len(d.variables)
    tensors, labels_of = _leaves(d, limit)
    steps, final_labels = _plan(labels_of, limit)
    ins, outs = d.boundary()
    in_labels = [_port_label(d, eid, ("b", "in", i))
                 for i, eid in enumerate(ins)]
    out_labels = [_port_label(d, eid, ("b", "out", i))
                  for i, eid in enumerate(outs)]
    wanted = [("var", v) for v in d.variables] + in_labels + out_labels
    if sorted(map(str, wanted)) != sorted(map(str, final_labels)):
        raise ValueError(f"contraction label mismatch: wanted {wanted},"
                         f" got {final_labels}")
    for a, b, pa, sa, pb, sb, out in steps:
        if tensors[b] is tensors[a]:  # one shared leaf twice, which np.dot
            tensors[b] = tensors[b].copy()  # would multiply as A A^T
        t = np.dot(tensors[a].transpose(pa).reshape(sa),
                   tensors[b].transpose(pb).reshape(sb)).reshape(out)
        tensors[a] = tensors[b] = None
        tensors.append(t)
    final = tensors[-1] if tensors else np.array(1, dtype=complex)
    if not final.flags.writeable:  # a shared leaf, with no step
        final = np.array(final)
    t = np.transpose(final, [final_labels.index(l) for l in wanted])
    shape = (2,) * len(d.variables) + (2 ** len(ins), 2 ** len(outs))
    return OutcomeTensor(d.variables, len(ins), len(outs), t.reshape(shape))


def ports(d: ZxDiagram) -> list[tuple[int, tuple, int, bool]]:
    """Each port of ``d`` as (edge id, port, bit, swapped): the port's bit
    on the flat index of an :class:`OutcomeTensor` of d's boundary shape,
    whose lowest bits are the ports (output i at bit n_out - 1 - i, input i
    at bit n_in + n_out - 1 - i), and whether X and Z swap between the
    edge and the port's leg, as at the b end of a hadamard edge."""
    ins, outs = d.boundary()
    out = []
    for kind, eids, top in (("in", ins, len(ins) + len(outs)),
                            ("out", outs, len(outs))):
        for i, eid in enumerate(eids):
            e, port = d.edges[eid], ("b", kind, i)
            out.append((eid, port, 1 << (top - 1 - i),
                        e.had and e.b == port))
    return out


def port_masks(d: ZxDiagram, paulis: list) -> list[tuple[int, int]]:
    """Each Pauli's letters on ``d``'s ports as bit masks (x, z) on the flat
    index of an :class:`OutcomeTensor` of d's boundary shape (see
    :func:`ports`).  A letter acts on its port's leg, with X and Z swapped
    at the b end of a hadamard edge, so the Pauli sends entry j to
    (-1)^|(j ^ x) & z| times entry j ^ x (Y is the matrix product XZ, as
    :func:`~zxfault.diagram.apply_fault`'s chain of an X and a Z spider).
    A Pauli web's edge Paulis give the boundary half of its stabiliser."""
    legs = ports(d)
    out = []
    for p in paulis:
        x = z = 0
        for eid, _, bit, swapped in legs:
            letter = p.letter(eid)
            if swapped:
                letter = {"X": "Z", "Z": "X"}.get(letter, letter)
            if letter in "XY":
                x |= bit
            if letter in "YZ":
                z |= bit
        out.append((x, z))
    return out


class OutcomeMap:
    """Affine GF(2) map from a source outcome registry to a target registry.

    Each target variable is an XOR of source variables plus a constant bit.
    ``rows`` maps target variable -> (frozenset of source vars, const).
    """

    def __init__(self, source_vars: list[str], target_vars: list[str],
                 rows: dict[str, tuple[frozenset, int]]):
        self.source_vars = list(source_vars)
        self.target_vars = list(target_vars)
        self.rows = {t: (frozenset(vs), c % 2) for t, (vs, c) in rows.items()}
        for t in target_vars:
            if t not in self.rows:
                raise ValueError(f"no expression for target variable {t!r}")
        unknown = sorted(self.rows.keys() - set(target_vars))
        if unknown:
            raise ValueError(f"expressions for unknown target variables {unknown}")
        for t, (vs, _) in self.rows.items():
            bad = vs - set(source_vars)
            if bad:
                raise ValueError(f"expression for {t!r} uses unknown variables {sorted(bad)}")

    @classmethod
    def identity(cls, variables: list[str]) -> "OutcomeMap":
        return cls(variables, variables, {v: (frozenset([v]), 0) for v in variables})

    @classmethod
    def parse(cls, source_vars: list[str], target_vars: list[str],
              exprs: dict[str, str]) -> "OutcomeMap":
        """Expressions like ``k1^k2^1`` or ``0``."""
        rows = {}
        for t, expr in exprs.items():
            vs, c = set(), 0
            for term in expr.split("^"):
                term = term.strip()
                if term in ("0", ""):
                    continue
                if term == "1":
                    c ^= 1
                else:
                    vs.symmetric_difference_update([term])
            rows[t] = (frozenset(vs), c)
        return cls(source_vars, target_vars, rows)

    def sign_mask(self, targets) -> tuple[int, int]:
        """(mask, const) such that the sum of the ``targets`` variables at
        the image of a source assignment a is |a & mask| + const mod 2, a
        read as an int whose highest bit is the first source variable (the
        order of :meth:`OutcomeTensor.assignments`)."""
        n = len(self.source_vars)
        bit = {v: 1 << (n - 1 - i) for i, v in enumerate(self.source_vars)}
        mask = const = 0
        for t in targets:
            vs, c = self.rows[t]
            for v in vs:
                mask ^= bit[v]
            const ^= c
        return mask, const

    def images(self) -> np.ndarray:
        """Entry a is the target assignment of source assignment a, both
        read as ints as in :meth:`sign_mask`."""
        n, top = len(self.source_vars), len(self.target_vars) - 1
        a = np.arange(2 ** n)
        y = np.zeros_like(a)
        for k, t in enumerate(self.target_vars):
            mask, c = self.sign_mask([t])
            y |= (gf2.parity(a & mask, n) ^ c) << (top - k)
        return y

    def inverted(self) -> "OutcomeMap":
        """Inverse map; requires a bijection (square invertible linear part)."""
        n = len(self.source_vars)
        if len(self.target_vars) != n:
            raise ValueError("only square correspondences can be inverted")
        # bit row k is column k of the linear part: the targets reading source k
        cols = [sum(1 << i for i, t in enumerate(self.target_vars)
                    if s in self.rows[t][0]) for s in self.source_vars]
        const = sum(self.rows[t][1] << i for i, t in enumerate(self.target_vars))
        rows = {}
        for j, s in enumerate(self.source_vars):
            y = gf2.solve(cols, 1 << j, n)  # row j of the inverse
            if y is None:
                raise ValueError("correspondence is not invertible")
            rows[s] = (frozenset(t for i, t in enumerate(self.target_vars)
                                 if y >> i & 1), (y & const).bit_count() % 2)
        return OutcomeMap(self.target_vars, self.source_vars, rows)


def equal_up_to_scalar(t1: OutcomeTensor, t2: OutcomeTensor,
                       correspondence: OutcomeMap | None = None) -> bool:
    """True iff scalars c_b of one common magnitude satisfy
    t2[b] = c_b*t1[corr(b)] for every assignment b, and every t1 assignment
    outside the correspondence image is the zero tensor.

    The magnitude is global across the family, so outcome probabilities must
    agree exactly; the phase may vary with the assignment, because commuting a
    Pauli past an outcome spider produces outcome-dependent signs (closed
    scalar sub-diagrams such as (-1)^k), which diagram equality quotients out.
    Tensors are compared after normalising each family to unit max-magnitude."""
    if (t1.n_in, t1.n_out) != (t2.n_in, t2.n_out):
        raise ValueError("incompatible shapes")
    if correspondence is None:
        if t1.variables != t2.variables:
            raise ValueError("different registries need an explicit correspondence")
        correspondence = OutcomeMap.identity(t1.variables)
    else:
        if correspondence.source_vars != t2.variables or \
           correspondence.target_vars != t1.variables:
            raise ValueError("correspondence registries do not match the tensors")

    m1, m2 = t1.max_abs(), t2.max_abs()
    if m1 < TOL and m2 < TOL:
        return True  # two zero families
    if m1 < TOL or m2 < TOL:
        return False
    # one row per assignment, normalised a block of rows at a time
    b1 = t1.array.reshape(2 ** len(t1.variables), -1)
    b2 = t2.array.reshape(2 ** len(t2.variables), -1)
    step = max(1, 2 ** 12 // b2.shape[1])  # rows per block of temporaries

    # every nonzero branch of t2 must be a scalar multiple of t1 at its image,
    # all scalars sharing one magnitude; zero branches are impossible outcomes
    # and impose nothing by themselves, but every nonzero t1 assignment must
    # be hit by some nonzero branch.  Each scalar is read at the branch's
    # largest entry.
    image = correspondence.images()
    hit = np.zeros(len(b1), dtype=bool)
    scalars = []
    for lo in range(0, len(b2), step):
        tb = b2[lo:lo + step] / m2
        mags = np.abs(tb)
        cols = mags.argmax(axis=1)
        live = np.flatnonzero(mags[np.arange(len(tb)), cols] > TOL)
        if not live.size:
            continue
        target = image[lo + live]
        tb, ta = tb[live], b1[target] / m1
        pick = np.arange(len(live)), cols[live]
        if np.any(np.abs(ta[pick]) <= TOL):
            return False
        c = tb[pick] / ta[pick]
        diff = ta * c[:, None]
        diff -= tb
        if not np.abs(diff).max() <= TOL:  # as np.allclose, NaN is unequal
            return False
        hit[target] = True
        scalars.append(c)
    mag = np.abs(np.concatenate(scalars))  # t2 has a nonzero branch
    if np.any(np.abs(mag - mag[0]) > TOL):
        return False
    for lo in range(0, len(b1), step):
        rest = b1[lo:lo + step][~hit[lo:lo + step]] / m1
        if rest.size and np.abs(rest).max() > TOL:
            return False
    return True

