"""Quantum-circuit IR: Clifford gates, Pauli measurements, classical control.

Fault locations on circuits are (qubit, timestep) pairs: segment (q, t) is the
stretch of wire entering moment t (t = len(moments) is the output segment).
Operations and wire segments carry idealisation flags; measurements may
additionally be flagged fault-tolerant (``ft``).

Text format, one operation per line (each line is one moment):

    PREP_X 4 !ideal
    CNOT 0 1
    MZ 2 -> k1
    MPP Z0*Z1*Z2*Z3 -> k2 !ft
    CPAULI X 0 IF k1^k2
"""

from __future__ import annotations

from dataclasses import dataclass

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "CNOT": 2, "CZ": 2,
              "PREP_Z": 1, "PREP_X": 1, "PREP_MINUS": 1}
PREPS = {"PREP_Z", "PREP_X", "PREP_MINUS"}
DESTRUCTIVE = {"MZ", "MX"}


@dataclass(frozen=True)
class Operation:
    kind: str
    qubits: tuple
    var: str | None = None          # measurement outcome variable
    pauli: str | None = None        # MPP letter string / CPAULI letter
    condition: tuple | None = None  # CPAULI: (frozenset of vars, const bit)
    ideal: bool = False
    ft: bool = False

    def is_measurement(self) -> bool:
        return self.kind in ("MZ", "MX", "MPP")

    def is_destructive(self) -> bool:
        return self.kind in DESTRUCTIVE


class Circuit:
    def __init__(self, qubits: int):
        self.qubits = qubits
        self.moments: list[list[Operation]] = []
        self.ideal_wires: set[tuple] = set()   # (qubit, timestep) pairs
        self.all_wires_ideal = False
        self.non_implementable = False  # specification-only circuit

    # -- construction -------------------------------------------------------

    def append(self, op: Operation) -> None:
        self.moments.append([op])

    def gate(self, kind: str, *qubits: int, ideal: bool = False) -> None:
        if kind not in GATE_ARITY:
            raise ValueError(f"unsupported gate {kind!r}")
        if len(qubits) != GATE_ARITY[kind]:
            raise ValueError(f"{kind} takes {GATE_ARITY[kind]} qubits")
        self.append(Operation(kind, tuple(qubits), ideal=ideal))

    def measure(self, kind: str, qubits, var: str, pauli: str | None = None,
                ideal: bool = False, ft: bool = False) -> None:
        qubits = tuple(qubits) if isinstance(qubits, (tuple, list)) else (qubits,)
        if kind == "MPP":
            if pauli is None or len(pauli) != len(qubits) or any(l not in "XZ" for l in pauli):
                raise ValueError("MPP needs an X/Z letter per qubit")
        elif kind in DESTRUCTIVE:
            if len(qubits) != 1:
                raise ValueError(f"{kind} is single-qubit")
        else:
            raise ValueError(f"unknown measurement {kind!r}")
        self.append(Operation(kind, qubits, var=var, pauli=pauli, ideal=ideal, ft=ft))

    def cpauli(self, letter: str, qubit: int, vars, const: int = 0,
               ideal: bool = False) -> None:
        if letter not in "XYZ":
            raise ValueError("CPAULI letter must be X, Y or Z")
        self.append(Operation("CPAULI", (qubit,), pauli=letter,
                              condition=(frozenset(vars), const % 2), ideal=ideal))

    def copy(self) -> "Circuit":
        c = Circuit(self.qubits)
        c.moments = [list(m) for m in self.moments]
        c.ideal_wires = set(self.ideal_wires)
        c.all_wires_ideal = self.all_wires_ideal
        c.non_implementable = self.non_implementable
        return c

    # -- views ---------------------------------------------------------------

    def operations(self):
        for t, moment in enumerate(self.moments):
            for op in moment:
                yield t, op

    def intervals(self, q: int) -> list[tuple[int, int]]:
        """Existing wire-segment stretches for qubit q as (first, last) pairs,
        segments running t = first..last inclusive.  A qubit may live through
        several stretches when it is re-prepared after a destructive
        measurement (ancilla reuse)."""
        out = []
        first = 0
        alive = True
        for t, op in self.operations():
            if q not in op.qubits:
                continue
            if op.kind in PREPS:
                first = t + 1
                alive = True
            if op.is_destructive():
                out.append((first, t))
                alive = False
        if alive:
            out.append((first, len(self.moments)))
        return [iv for iv in out if iv[0] <= iv[1]]

    def lifetime(self, q: int) -> tuple[int, int]:
        """(first, last) timestep of existing wire segments for qubit q.

        Spans all stretches; an empty range is (1, 0).
        """
        ivs = self.intervals(q)
        if not ivs:
            return (1, 0)
        return ivs[0][0], ivs[-1][1]

    def wire_is_ideal(self, q: int, t: int) -> bool:
        return self.all_wires_ideal or (q, t) in self.ideal_wires

    def validate(self) -> list[str]:
        errs = []
        produced: dict[str, int] = {}
        for t, op in self.operations():
            for q in op.qubits:
                if not 0 <= q < self.qubits:
                    errs.append(f"moment {t}: qubit {q} out of range")
            if op.is_measurement():
                if op.var in produced:
                    errs.append(f"moment {t}: outcome {op.var} measured twice")
                produced[op.var] = t
        for t, op in self.operations():
            if op.kind == "CPAULI" and not self.non_implementable:
                for v in op.condition[0]:
                    if v not in produced:
                        errs.append(f"moment {t}: condition uses unmeasured outcome {v}")
                    elif produced[v] >= t:
                        errs.append(f"moment {t}: condition on future outcome {v}")
        # no operation on a dead wire
        for q in range(self.qubits):
            ivs = self.intervals(q)
            for t, op in self.operations():
                if q not in op.qubits:
                    continue
                if op.kind in PREPS:
                    ok = any(first == t + 1 for first, _ in ivs)
                else:
                    ok = any(first <= t <= last for first, last in ivs)
                if not ok:
                    errs.append(f"moment {t}: qubit {q} used outside its lifetime")
        return errs

    # -- counting (resource checks) -------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for _, op in self.operations() if op.kind == kind)

    def count_measurements(self) -> int:
        return sum(1 for _, op in self.operations() if op.is_measurement())

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"QUBITS {self.qubits}"]
        if self.non_implementable:
            lines.append("!non-implementable")
        if self.all_wires_ideal:
            lines.append("!ideal-wires")
        for q, t in sorted(self.ideal_wires):
            lines.append(f"!ideal-wire {q} {t}")
        for _, op in self.operations():
            lines.append(_op_to_text(op))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        c = None
        pending_ideal_wires = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.startswith("QUBITS"):
                    c = cls(int(line.split()[1]))
                    continue
                if c is None:
                    raise ValueError("first line must be QUBITS <n>")
                if line == "!non-implementable":
                    c.non_implementable = True
                    continue
                if line == "!ideal-wires":
                    c.all_wires_ideal = True
                    continue
                if line.startswith("!ideal-wire "):
                    _, q, t = line.split()
                    pending_ideal_wires.append((int(q), int(t)))
                    continue
                c.append(_op_from_text(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
            except (IndexError, KeyError):
                raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
        if c is None:
            raise ValueError("line 1: missing QUBITS header")
        c.ideal_wires = set(pending_ideal_wires)
        return c


def _op_to_text(op: Operation) -> str:
    flags = (" !ideal" if op.ideal else "") + (" !ft" if op.ft else "")
    if op.kind == "MPP":
        body = "*".join(f"{l}{q}" for l, q in zip(op.pauli, op.qubits))
        return f"MPP {body} -> {op.var}{flags}"
    if op.kind in ("MZ", "MX"):
        return f"{op.kind} {op.qubits[0]} -> {op.var}{flags}"
    if op.kind == "CPAULI":
        vars, const = op.condition
        expr = "^".join(sorted(vars) + (["1"] if const else [])) or "0"
        return f"CPAULI {op.pauli} {op.qubits[0]} IF {expr}{flags}"
    return f"{op.kind} {' '.join(map(str, op.qubits))}{flags}"


def _op_from_text(line: str) -> Operation:
    ideal = ft = False
    parts = line.split()
    while parts and parts[-1] in ("!ideal", "!ft"):
        flag = parts.pop()
        ideal = ideal or flag == "!ideal"
        ft = ft or flag == "!ft"
    kind = parts[0]
    if kind in GATE_ARITY:
        return Operation(kind, tuple(int(p) for p in parts[1:]), ideal=ideal, ft=ft)
    if kind in ("MZ", "MX"):
        if parts[2] != "->":
            raise ValueError("expected '->' in measurement")
        return Operation(kind, (int(parts[1]),), var=parts[3], ideal=ideal, ft=ft)
    if kind == "MPP":
        if parts[2] != "->":
            raise ValueError("expected '->' in measurement")
        letters, qubits = [], []
        for term in parts[1].split("*"):
            letters.append(term[0])
            qubits.append(int(term[1:]))
        if any(l not in "XZ" for l in letters):
            raise ValueError("MPP letters must be X or Z")
        return Operation("MPP", tuple(qubits), var=parts[3], pauli="".join(letters),
                         ideal=ideal, ft=ft)
    if kind == "CPAULI":
        if parts[3] != "IF":
            raise ValueError("expected 'IF' in CPAULI")
        vars, const = set(), 0
        for term in parts[4].split("^"):
            if term == "1":
                const ^= 1
            elif term not in ("0", ""):
                vars.symmetric_difference_update([term])
        return Operation("CPAULI", (int(parts[2]),), pauli=parts[1],
                         condition=(frozenset(vars), const), ideal=ideal, ft=ft)
    raise ValueError(f"unknown operation {kind!r}")
