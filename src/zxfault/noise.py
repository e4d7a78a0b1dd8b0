"""Noise models as atomic-fault generating sets.

A noise model is a list of atomic faults (phase-free Pauli strings over fault
locations); the weight of a fault is the minimal number of atoms whose product
equals it.  Diagram fault locations are edge ids; circuit fault locations are
``(qubit, timestep)`` pairs, with segment ``(q, t)`` entering moment ``t``.

The group is the GF(2) span of the atoms' symplectic bits: one breadth-first
search of it (:func:`~zxfault.gf2.layers`) lists, weighs and counts faults.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from . import gf2
from .circuit import Circuit
from .diagram import ZxDiagram
from .pauli import LETTERS, Nibbles, PauliString

ABOVE_CAP = "above-cap"


@dataclass(frozen=True)
class AtomicFault:
    pauli: PauliString
    provenance: str  # qubit-flip | gate-fault | measurement-flip |
    #                  measurement-flip+outputs | edge-flip


class NoiseModel:
    def __init__(self, atoms, label: str):
        self.label = label
        self.atoms: list[AtomicFault] = []
        seen = set()
        for a in atoms:  # dedup as group elements, first provenance wins
            if a.pauli:
                n = len(seen)
                seen.add(a.pauli)
                if len(seen) > n:
                    self.atoms.append(a)

    def paulis(self) -> list[PauliString]:
        return [a.pauli for a in self.atoms]

    def to_json(self) -> dict:
        return {"label": self.label,
                "atoms": [{"pauli": a.pauli.to_text(), "provenance": a.provenance}
                          for a in self.atoms]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def edge_flip_atoms(d: ZxDiagram) -> NoiseModel:
    atoms = [AtomicFault(PauliString({eid: letter}), "edge-flip")
             for eid in sorted(d.non_ideal_edges()) for letter in LETTERS]
    return NoiseModel(atoms, "edge-flip")


def x_flip_atoms(d: ZxDiagram) -> NoiseModel:
    """Bit-flip-only model: a single X on each fault-prone edge (the setting
    in which repetition-code examples have their nominal distance)."""
    atoms = [AtomicFault(PauliString({eid: "X"}), "edge-flip")
             for eid in sorted(d.non_ideal_edges())]
    return NoiseModel(atoms, "x-flip")


def _flip_letter(op) -> str:
    """Lexicographically least letter anticommuting with the measured Pauli's
    letter on the operation's first support qubit."""
    measured = {"MZ": "Z", "MX": "X"}.get(op.kind) or op.pauli[0]
    return next(l for l in LETTERS if l != measured)


def _output_subsets(locs) -> list[PauliString]:
    """All 4^k - 1 non-identity Paulis over the given locations."""
    out = []
    for letters in itertools.product(("I",) + LETTERS, repeat=len(locs)):
        p = PauliString({loc: l for loc, l in zip(locs, letters) if l != "I"})
        if p:
            out.append(p)
    return out


def operation_atoms(t: int, op) -> list[AtomicFault]:
    """The atomic faults of one operation at moment ``t``; none if ideal.

    A gate or preparation may leave any Pauli on its output segments.  A
    measurement flips the segment before it (and after it, unless it is
    destructive), alone and with each output fault: one letter on one output
    segment if fault-tolerant, any output Pauli otherwise."""
    if op.ideal:
        return []
    outputs = [] if op.is_destructive() else [(q, t + 1) for q in op.qubits]
    if not op.is_measurement():
        return [AtomicFault(p, "gate-fault") for p in _output_subsets(outputs)]
    q0 = op.qubits[0]
    flip_locs = [(q0, t)] if op.is_destructive() else [(q0, t), (q0, t + 1)]
    flip = PauliString({loc: _flip_letter(op) for loc in flip_locs})
    if op.ft:
        after = [PauliString({loc: l}) for loc in outputs for l in LETTERS]
    else:
        after = _output_subsets(outputs)
    return ([AtomicFault(flip, "measurement-flip")]
            + [AtomicFault(flip * p, "measurement-flip+outputs") for p in after])


def circuit_level_atoms(c: Circuit) -> NoiseModel:
    # gate and measurement atoms first: a single-qubit gate fault on an output
    # segment is the same group element as the qubit flip there, and dedup
    # keeps the first occurrence's provenance
    atoms = [a for t, op in c.operations() for a in operation_atoms(t, op)]
    # qubit flips on every remaining live, non-ideal wire segment
    for q in range(c.qubits):
        for first, last in c.intervals(q):
            for t in range(first, last + 1):
                if c.wire_is_ideal(q, t):
                    continue
                for letter in LETTERS:
                    atoms.append(AtomicFault(PauliString({(q, t): letter}),
                                             "qubit-flip"))
    return NoiseModel(atoms, "circuit-level")


def fault_weight(f: PauliString, m: NoiseModel, cap: int):
    """Exact minimal generator count if <= cap, else ABOVE_CAP.

    The phase-free group is the GF(2) span of the atoms, packed
    (:class:`~zxfault.pauli.Nibbles`), so a fault outside it is rejected by
    one membership test; otherwise its weight is that of the first layer of
    the breadth-first search of the span (:func:`~zxfault.gf2.layers`) that
    holds it."""
    paulis = [f, *m.paulis()]
    target, *atoms = map(Nibbles(paulis).pack, paulis)
    if not gf2.in_span(atoms, target):
        return ABOVE_CAP
    for w, layer in enumerate(gf2.layers(dict.fromkeys(atoms, 0), cap)):
        if target in layer:
            return w
    return ABOVE_CAP


def enumerate_faults(m: NoiseModel, max_weight: int):
    """Yield each element of the generated group with weight <= max_weight,
    exactly once, as (PauliString, weight), in nondecreasing weight order
    and, within a weight, in ``PauliString.sort_key`` order.  The
    breadth-first search (:func:`~zxfault.gf2.layers`) runs on packed ints
    (:class:`~zxfault.pauli.Nibbles`), and each layer is sorted by
    ``Nibbles.key`` and unpacked as it is yielded."""
    atoms = m.paulis()
    code = Nibbles(atoms)
    steps = dict.fromkeys(map(code.pack, atoms), 0)
    for w, layer in enumerate(gf2.layers(steps, max_weight)):
        for k in sorted(layer, key=Nibbles.key):
            yield code.unpack(k), w


def _convolve(p: list[int], q: list[int], max_weight: int) -> list[int]:
    """Per-weight counts of a product of two groups with disjoint supports,
    up to ``max_weight``."""
    return [sum(c * q[w - i] for i, c in enumerate(p) if 0 <= w - i < len(q))
            for w in range(max_weight + 1)]


def count_faults(m: NoiseModel, max_weight: int) -> int:
    """The number of faults :func:`enumerate_faults` yields, without the
    walk.  Atoms fall into blocks with pairwise disjoint supports, and a
    product's weight is the sum of its parts' weights in their blocks, so
    the count per weight is the convolution of the blocks' counts.  A block
    on one location is counted in closed form: its group is {I, P}, with
    counts [1, 1], or all four Paulis, with counts [1, 3] when X, Y and Z
    are atoms and [1, 2, 1] = (1 + x)^2 when two are, since the third has
    weight 2.  So n locations with X, Y and Z each give C(n, k)·3^k.  A
    block over several locations is counted by the sizes of the layers of
    the breadth-first search of its span (:func:`~zxfault.gf2.layers`), on
    its atoms packed as :func:`enumerate_faults` packs them.
    The walk yields the identity at any bound, so a negative one counts as
    0."""
    max_weight = max(max_weight, 0)
    by_mask: dict[int, list] = {}  # location mask -> atoms
    for a in m.paulis():
        x, z = a.xz
        by_mask.setdefault(x | z, []).append(a)
    blocks: dict[int, list] = {}  # the same, with overlapping masks merged
    for mask, group in by_mask.items():
        for other in [b for b in blocks if b & mask]:
            mask |= other
            group = blocks.pop(other) + group
        blocks[mask] = group
    ones = threes = 0  # one-location blocks: (1 + x)^ones (1 + 3x)^threes
    counts = [1]
    for mask, group in blocks.items():
        if mask & mask - 1:
            steps = dict.fromkeys(map(Nibbles(group).pack, group), 0)
            walked = gf2.layers(steps, max_weight)
            counts = _convolve(counts, list(map(len, walked)), max_weight)
        elif len(group) == 3:
            threes += 1
        else:
            ones += len(group)
    closed = [0] * (max_weight + 1)
    for i in range(min(ones, max_weight) + 1):
        for j in range(min(threes, max_weight - i) + 1):
            closed[i + j] += math.comb(ones, i) * math.comb(threes, j) * 3 ** j
    return sum(_convolve(counts, closed, max_weight))
