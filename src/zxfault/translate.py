"""Circuit -> ZX translation with fault gadgets and fault-equivalent templates.

Two strategies:

* ``gadget-complete``: translate with every internal edge fault-free, then
  insert one fault gadget per atomic circuit fault.  The resulting diagram's
  fault locations are exactly the gadget edges plus the boundary edges.
* ``template``: use lighter translations that are fault-equivalent on their
  own — fault-free gates, single-qubit unitaries and preparations,
  fault-tolerant Pauli measurements, CNOT followed by a destructive Z
  measurement of its target, |+>-preparation feeding a CNOT control, and the
  bare CNOT with four gadgets — falling back to per-operation gadgets
  anywhere else.

A fault gadget for a Pauli P over edges consists of a Pauli box on each
targeted edge (a green box for Z, a red box behind a hadamard stem for X,
both in series for Y), all stems running over fault-free edges to a red hub,
which hangs onto a green tip through the gadget's single fault-prone edge.
The gadget is the identity noise-free; a Z flip on the gadget edge applies P;
X flips there are trivial.
"""

from __future__ import annotations

from .circuit import Circuit, Operation
from .diagram import Edge, ZxDiagram
from .noise import (NoiseModel, circuit_level_atoms, edge_flip_atoms,
                    operation_atoms)
from .pauli import PauliString


def _split_edge(d: ZxDiagram, eid: int, chain: list[int]) -> None:
    """Splice a chain of spiders into edge ``eid``.

    The original id, fault flag and port adjacency stay on one end segment
    (the port-adjacent one if the edge touches a port at its b end, otherwise
    the a side); every other new wire segment is fault-free.  A hadamard mark
    always stays on the b-most segment, so the chain acts before it.
    """
    orig = d.edges[eid]
    points = [orig.a] + [("s", s) for s in chain] + [orig.b]
    if orig.b[0] == "b":
        # a -- new ideal segments -- chain -- [eid: flags, had] -- port
        for a, b in zip(points, points[1:-1]):
            d.add_edge(a, b, ideal=True)
        d.edges[eid] = Edge(points[-2], orig.b, had=orig.had, ideal=orig.ideal)
    else:
        # a -- [eid: flags] -- chain -- new ideal segment (had) -- b
        d.edges[eid] = Edge(orig.a, points[1], had=False, ideal=orig.ideal)
        for a, b in zip(points[1:-2], points[2:-1]):
            d.add_edge(a, b, ideal=True)
        d.add_edge(points[-2], orig.b, had=orig.had, ideal=True)


def insert_fault_gadget(d: ZxDiagram, p: PauliString) -> ZxDiagram:
    """Return a copy of the diagram with a fault gadget for p added.

    The only new fault location is the hub-tip edge: a Z flip there applies
    p, an X flip there is trivial, and the gadget is the identity otherwise.
    """
    if not p:
        raise ValueError("fault gadget needs a nonempty Pauli")
    for eid in p.support:
        if eid not in d.edges:
            raise ValueError(f"fault gadget targets unknown edge {eid}")
    d = d.copy()
    hub = d.add_spider("X", 0)
    tip = d.add_spider("Z", 0)
    d.add_edge(("s", hub), ("s", tip))  # the gadget's single fault location
    for eid in sorted(p.support, key=str):
        letter = p.letter(eid)
        boxes = []
        if letter in ("Z", "Y"):
            boxes.append((d.add_spider("Z", 0), False))  # plain stem
        if letter in ("X", "Y"):
            boxes.append((d.add_spider("X", 0), True))   # hadamard stem
        _split_edge(d, eid, [box for box, _ in boxes])
        for box, stem_had in boxes:
            d.add_edge(("s", box), ("s", hub), had=stem_had, ideal=True)
    return d


class _Translator:
    def __init__(self, c: Circuit, strategy: str):
        if strategy not in ("gadget-complete", "template"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.c = c
        self.gc = strategy == "gadget-complete"
        self.d = ZxDiagram()
        self.cur: dict[int, tuple | None] = {}
        self.next_seg: dict[int, int] = {}
        self.seg_edge: dict[tuple, int] = {}
        self.fresh_plus: dict[int, bool] = {}
        self.pending_had: dict[int, bool] = {}
        self.gadget_requests: list[PauliString] = []  # over (q, t) locations

    # -- wire plumbing -----------------------------------------------------

    def _seg_ideal(self, q: int, t: int) -> bool:
        # gadget-complete idealises every wire; template follows the circuit
        return True if self.gc else self.c.wire_is_ideal(q, t)

    def _connect(self, q: int, endpoint: tuple, upto: int) -> None:
        """Wire qubit q's dangling end to ``endpoint``, covering segments
        next_seg[q]..upto; split where idealisation changes."""
        segs = list(range(self.next_seg[q], upto + 1))
        self.next_seg[q] = upto + 1
        src = self.cur[q]
        had = self.pending_had.pop(q, False)
        if not segs:  # zero-length link inside a composite operation
            self.d.add_edge(src, endpoint, had=had, ideal=True)
            return
        runs: list[list[int]] = [[segs[0]]]
        for t in segs[1:]:
            if self._seg_ideal(q, t) == self._seg_ideal(q, runs[-1][0]):
                runs[-1].append(t)
            else:
                runs.append([t])
        points = [src]
        for _ in runs[:-1]:
            points.append(("s", self.d.add_spider("Z", 0)))
        points.append(endpoint)
        for run, a, b in zip(runs, points, points[1:]):
            ideal = self._seg_ideal(q, run[0])
            if a[0] == "b" or b[0] == "b":
                ideal = False if self.gc else ideal
            eid = self.d.add_edge(a, b, had=had and b is endpoint, ideal=ideal)
            for t in run:
                self.seg_edge[(q, t)] = eid

    def _new_spider(self, q: int, colour: str, qturns: int = 0, pivars=(),
                    t: int | None = None) -> int:
        s = self.d.add_spider(colour, qturns, pivars)
        if self.cur[q] is not None:
            self._connect(q, ("s", s), t)
        self.cur[q] = ("s", s)
        self.fresh_plus[q] = False
        return s

    # -- main walk -----------------------------------------------------------

    def run(self) -> ZxDiagram:
        c = self.c
        in_idx = 0
        for q in range(c.qubits):
            first, _ = c.lifetime(q)
            if first == 0:
                self.cur[q] = ("b", "in", in_idx)
                in_idx += 1
                self.next_seg[q] = 0
            else:
                self.cur[q] = None
            self.fresh_plus[q] = False
        fused_meas, consumed = self._scan_peepholes()
        for t, op in c.operations():
            if id(op) in consumed:
                continue
            self._emit(t, op, fused_meas.get(id(op)))
        out_idx = 0
        for q in range(c.qubits):
            _, last = c.lifetime(q)
            if self.cur[q] is not None and last == len(c.moments):
                self._connect(q, ("b", "out", out_idx), len(c.moments))
                out_idx += 1
        self._resolve_gadgets()
        return self.d

    def _scan_peepholes(self):
        """A non-ideal CNOT whose target's next operation is a non-ideal
        destructive Z measurement fuses with it (template strategy only)."""
        fused: dict[int, Operation] = {}
        consumed: set[int] = set()
        if self.gc:
            return fused, consumed
        by_qubit: dict[int, list[Operation]] = {}
        for _, op in self.c.operations():
            for q in op.qubits:
                by_qubit.setdefault(q, []).append(op)
        for _, op in self.c.operations():
            if op.kind != "CNOT" or op.ideal:
                continue
            seq = by_qubit[op.qubits[1]]
            i = seq.index(op)
            if i + 1 < len(seq) and seq[i + 1].kind == "MZ" and not seq[i + 1].ideal:
                fused[id(op)] = seq[i + 1]
                consumed.add(id(seq[i + 1]))
        return fused, consumed

    def _emit(self, t: int, op: Operation, fused_mz: Operation | None) -> None:
        kind = op.kind
        if kind == "PREP_Z":
            self._prep(op.qubits[0], "X", 0, t)
        elif kind == "PREP_X":
            self._prep(op.qubits[0], "Z", 0, t)
            if not self.gc:
                self.fresh_plus[op.qubits[0]] = True
        elif kind == "PREP_MINUS":
            self._prep(op.qubits[0], "Z", 2, t)
        elif kind == "H":
            q = op.qubits[0]
            self.pending_had[q] = True  # lands next to the new spider
            self._new_spider(q, "Z", 0, t=t)
        elif kind == "S":
            self._new_spider(op.qubits[0], "Z", 1, t=t)
        elif kind == "Z":
            self._new_spider(op.qubits[0], "Z", 2, t=t)
        elif kind == "X":
            self._new_spider(op.qubits[0], "X", 2, t=t)
        elif kind == "Y":
            q = op.qubits[0]
            self._new_spider(q, "X", 2, t=t)
            self._new_spider(q, "Z", 2, t=t)
        elif kind == "CPAULI":
            q = op.qubits[0]
            vs, const = op.condition
            qturns = 2 * const
            if op.pauli in ("X", "Y"):
                self._new_spider(q, "X", qturns, vs, t=t)
            if op.pauli in ("Z", "Y"):
                self._new_spider(q, "Z", qturns, vs, t=t)
        elif kind in ("CNOT", "CZ"):
            self._two_qubit(t, op, fused_mz)
        elif kind in ("MZ", "MX"):
            q = op.qubits[0]
            var = self._declare(op.var)
            colour = "X" if kind == "MZ" else "Z"
            self._new_spider(q, colour, 0, [var], t=t)
            self.cur[q] = None
        elif kind == "MPP":
            self._mpp(t, op)
        else:
            raise ValueError(f"unsupported operation {kind!r}")

    def _declare(self, var: str) -> str:
        self.d.add_variable(var)
        return var

    def _prep(self, q: int, colour: str, qturns: int, t: int) -> None:
        s = self.d.add_spider(colour, qturns)
        self.cur[q] = ("s", s)
        self.next_seg[q] = t + 1

    def _two_qubit(self, t: int, op: Operation, fused_mz: Operation | None) -> None:
        qc, qt = op.qubits
        prep_fused = (not self.gc and op.kind == "CNOT" and not op.ideal
                      and self.fresh_plus.get(qc, False))
        c_spider = self.d.add_spider("Z", 0)
        if prep_fused:
            # drop the separate |+> spider; the control spider is the state
            del self.d.spiders[self.cur[qc][1]]
            self.next_seg[qc] = t + 1
        else:
            self._connect(qc, ("s", c_spider), t)
        self.cur[qc] = ("s", c_spider)
        self.fresh_plus[qc] = False
        if fused_mz is not None:
            var = self._declare(fused_mz.var)
            x_spider = self.d.add_spider("X", 0, [var])
            self._connect(qt, ("s", x_spider), t)
            self.cur[qt] = None
        else:
            x_spider = self.d.add_spider("X" if op.kind == "CNOT" else "Z", 0)
            self._connect(qt, ("s", x_spider), t)
            self.cur[qt] = ("s", x_spider)
        self.fresh_plus[qt] = False
        self.d.add_edge(("s", c_spider), ("s", x_spider),
                        had=op.kind == "CZ", ideal=self.gc or op.ideal)
        if self.gc or op.ideal:
            return
        if op.kind == "CNOT" and (prep_fused or fused_mz is not None):
            return  # the composite templates account for every fault
        if op.kind == "CNOT":
            # two-qubit output faults the bare CNOT shape lacks natively
            for lc, lt in (("X", "Y"), ("X", "Z"), ("Y", "Y"), ("Y", "Z")):
                self.gadget_requests.append(
                    PauliString({(qc, t + 1): lc, (qt, t + 1): lt}))
        else:
            self.gadget_requests.extend(a.pauli for a in operation_atoms(t, op))

    def _mpp(self, t: int, op: Operation) -> None:
        var = self._declare(op.var)
        hub = self.d.add_spider("X", 0, [var])
        internal_ideal = self.gc or op.ideal or not op.ft
        for q, letter in zip(op.qubits, op.pauli):
            w = self._new_spider(q, "Z" if letter == "Z" else "X", 0, t=t)
            self.d.add_edge(("s", w), ("s", hub), had=letter == "X",
                            ideal=internal_ideal)
        if self.gc or op.ideal or op.ft:
            return
        # plain multi-qubit measurement: gadget every one of its atoms
        self.gadget_requests.extend(a.pauli for a in operation_atoms(t, op))

    # -- gadget resolution -----------------------------------------------------

    def _edge_pauli(self, p: PauliString) -> PauliString:
        out = PauliString()
        for (q, t), letter in p.entries.items():
            eid = self.seg_edge.get((q, t))
            if eid is None:
                raise ValueError(f"no wire segment for fault location ({q}, {t})")
            out = out * PauliString({eid: letter})
        return out

    def _resolve_gadgets(self) -> None:
        if self.gc:
            requests = [a.pauli for a in circuit_level_atoms(self.c).atoms]
        else:
            requests = self.gadget_requests
        for p in requests:
            ep = self._edge_pauli(p)
            if ep:
                # split segments keep their edge id, so seg_edge stays valid
                self.d = insert_fault_gadget(self.d, ep)


def to_zx(c: Circuit, strategy: str = "template") -> tuple[ZxDiagram, NoiseModel]:
    """Translate a circuit to a fault-equivalent ZX diagram; the returned
    noise model is the induced edge-flip model of the diagram."""
    errs = c.validate()
    if errs:
        raise ValueError("invalid circuit: " + "; ".join(errs))
    d = _Translator(c, strategy).run()
    return d, edge_flip_atoms(d)
