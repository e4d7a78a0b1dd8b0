"""Noise models as atomic-fault generating sets.

A noise model is a list of atomic faults (phase-free Pauli strings over fault
locations); the weight of a fault is the minimal number of atoms whose product
equals it.  Diagram fault locations are edge ids; circuit fault locations are
``(qubit, timestep)`` pairs, with segment ``(q, t)`` entering moment ``t``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import Circuit, PREPS
from .diagram import ZxDiagram
from .pauli import LETTERS, PauliString

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
            if a.pauli and a.pauli not in seen:
                seen.add(a.pauli)
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


def circuit_level_atoms(c: Circuit) -> NoiseModel:
    atoms: list[AtomicFault] = []
    # gate and measurement atoms first: a single-qubit gate fault on an output
    # segment is the same group element as the qubit flip there, and dedup
    # keeps the first occurrence's provenance
    for t, op in c.operations():
        if op.ideal:
            continue
        if op.is_measurement():
            q0 = op.qubits[0]
            flip_letter = _flip_letter(op)
            flip_locs = [(q0, t)] if op.is_destructive() else [(q0, t), (q0, t + 1)]
            flip = PauliString({loc: flip_letter for loc in flip_locs})
            atoms.append(AtomicFault(flip, "measurement-flip"))
            outputs = [] if op.is_destructive() else [(q, t + 1) for q in op.qubits]
            if op.ft:
                for q, tt in outputs:
                    for letter in LETTERS:
                        atoms.append(AtomicFault(
                            flip * PauliString({(q, tt): letter}),
                            "measurement-flip+outputs"))
            else:
                for p in _output_subsets(outputs):
                    atoms.append(AtomicFault(flip * p, "measurement-flip+outputs"))
        elif op.kind in PREPS or op.kind in ("H", "S", "X", "Y", "Z", "CNOT",
                                             "CZ", "CPAULI"):
            outputs = [(q, t + 1) for q in op.qubits]
            for p in _output_subsets(outputs):
                atoms.append(AtomicFault(p, "gate-fault"))
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


def _generates(atoms: list[PauliString], f: PauliString) -> bool:
    """Whether f is a product of atoms: the phase-free group is the GF(2)
    span of the atoms' symplectic (x, z) vectors."""
    index: dict = {}
    for p in atoms:
        for loc in p.support:
            index.setdefault(loc, len(index))
    if not f.support <= index.keys():
        return False

    def vec(p: PauliString) -> np.ndarray:
        v = np.zeros(2 * len(index), dtype=np.uint8)
        for loc, letter in p.entries.items():
            v[2 * index[loc]] = letter != "Z"
            v[2 * index[loc] + 1] = letter != "X"
        return v

    return gf2.in_span(np.array([vec(p) for p in atoms]), vec(f))


def fault_weight(f: PauliString, m: NoiseModel, cap: int):
    """Exact minimal generator count if <= cap, else ABOVE_CAP.

    A fault outside the generated group is rejected by one GF(2) membership
    test; otherwise a breadth-first product search over the fault group with
    visited-set dedup finds its weight.
    """
    if not f:
        return 0
    atoms = m.paulis()
    if not _generates(atoms, f):
        return ABOVE_CAP
    seen = {PauliString()}
    frontier = [PauliString()]
    for w in range(1, cap + 1):
        nxt = []
        for g in frontier:
            for a in atoms:
                h = g * a
                if h in seen:
                    continue
                if h == f:
                    return w
                seen.add(h)
                nxt.append(h)
        frontier = nxt
    return ABOVE_CAP


def enumerate_faults(m: NoiseModel, max_weight: int):
    """Yield each element of the generated group with weight <= max_weight,
    exactly once, as (PauliString, weight), in nondecreasing weight order.
    Deterministic given the model's atom order."""
    yield PauliString(), 0
    atoms = m.paulis()
    seen = {PauliString()}
    frontier = [PauliString()]
    for w in range(1, max_weight + 1):
        layer = set()
        for g in frontier:
            for a in atoms:
                h = g * a
                if h not in seen:
                    layer.add(h)
        frontier = sorted(layer, key=PauliString.sort_key)
        seen |= layer
        for h in frontier:
            yield h, w
