"""Diagram IR for the Clifford ZX fragment with outcome variables.

Spiders carry quarter-turn phases plus boolean outcome-variable pi-terms.
Hadamard is an edge attribute.  Edges carry an ``ideal`` mark (fault-free by
assumption).  The boundary is an ordered list of input and output edges; a
boundary edge has one endpoint at a port.  Linear parity constraints over the
outcome variables complete the object.

Diagrams are treated as immutable values by all operations: mutating builder
methods exist for construction, but every operation returns a fresh copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .pauli import PauliString


@dataclass(frozen=True)
class Phase:
    """qturns * pi/2 plus pi for every pi-variable whose value is 1."""

    qturns: int = 0
    pivars: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "qturns", self.qturns % 4)
        object.__setattr__(self, "pivars", frozenset(self.pivars))

    def __add__(self, other: "Phase") -> "Phase":
        return Phase((self.qturns + other.qturns) % 4, self.pivars ^ other.pivars)

    def is_pauli(self) -> bool:
        return self.qturns in (0, 2)


@dataclass(frozen=True)
class Spider:
    colour: str  # "Z" or "X"
    phase: Phase = Phase()

    def __post_init__(self):
        if self.colour not in ("Z", "X"):
            raise ValueError(f"bad spider colour {self.colour!r}")


# Endpoints are ("s", spider_id) or ("b", "in"|"out", index).
@dataclass(frozen=True)
class Edge:
    a: tuple
    b: tuple
    had: bool = False
    ideal: bool = False

    def ends(self) -> tuple:
        return (self.a, self.b)


class ZxDiagram:
    def __init__(self):
        self.spiders: dict[int, Spider] = {}
        self.edges: dict[int, Edge] = {}
        self.constraints: list[tuple[frozenset, int]] = []
        self.variables: list[str] = []
        self._next_spider = 0
        self._next_edge = 0

    # -- construction -----------------------------------------------------

    def add_spider(self, colour: str, qturns: int = 0, pivars: Iterable[str] = ()) -> int:
        sid = self._next_spider
        self._next_spider += 1
        self.spiders[sid] = Spider(colour, Phase(qturns, frozenset(pivars)))
        return sid

    def add_edge(self, a, b, had: bool = False, ideal: bool = False) -> int:
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = Edge(a, b, had, ideal)
        return eid

    def add_variable(self, name: str) -> str:
        if name in self.variables:
            raise ValueError(f"variable {name!r} declared twice")
        self.variables.append(name)
        return name

    def add_constraint(self, vars: Iterable[str], rhs: int) -> None:
        self.constraints.append((frozenset(vars), rhs % 2))

    def set_ideal(self, eid: int, ideal: bool = True) -> None:
        e = self.edges[eid]
        self.edges[eid] = Edge(e.a, e.b, e.had, ideal)

    def copy(self) -> "ZxDiagram":
        d = ZxDiagram()
        d.spiders = dict(self.spiders)
        d.edges = dict(self.edges)
        d.constraints = list(self.constraints)
        d.variables = list(self.variables)
        d._next_spider = self._next_spider
        d._next_edge = self._next_edge
        return d

    # -- views ------------------------------------------------------------

    def boundary(self) -> tuple[list[int], list[int]]:
        """The input and the output edge ids, each in port order, read in
        one scan of the edges."""
        ports: dict = {"in": [], "out": []}
        for eid, e in self.edges.items():
            for ep in e.ends():
                if ep[0] == "b" and ep[1] in ports:
                    ports[ep[1]].append((ep[2], eid))
        return tuple([eid for _, eid in sorted(p)] for p in ports.values())

    @property
    def inputs(self) -> list[int]:
        return self.boundary()[0]

    @property
    def outputs(self) -> list[int]:
        return self.boundary()[1]

    def boundary_edges(self) -> set[int]:
        return {eid for eid, e in self.edges.items()
                if e.a[0] == "b" or e.b[0] == "b"}

    def incidence(self) -> dict[int, list[tuple[int, tuple]]]:
        """spider id -> list of (edge id, this-spider endpoint) incidences.

        An edge with both endpoints on the same spider appears twice.
        """
        inc: dict[int, list[tuple[int, tuple]]] = {sid: [] for sid in self.spiders}
        for eid, e in self.edges.items():
            for ep in e.ends():
                if ep[0] == "s":
                    inc[ep[1]].append((eid, ep))
        return inc

    def non_ideal_edges(self) -> list[int]:
        return sorted(eid for eid, e in self.edges.items() if not e.ideal)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Returns the list of invariant violations (empty means ok)."""
        out: list[str] = []
        ports_seen: dict[tuple, int] = {}
        for eid, e in self.edges.items():
            for flag in ("had", "ideal"):
                if not isinstance(getattr(e, flag), bool):
                    out.append(f"edge {eid}: {flag} flag {getattr(e, flag)!r} is not a bool")
            for ep in e.ends():
                if ep[0] == "s":
                    if ep[1] not in self.spiders:
                        out.append(f"edge {eid}: dangling endpoint (spider {ep[1]} undeclared)")
                elif ep[0] == "b":
                    key = (ep[1], ep[2])
                    if key in ports_seen:
                        out.append(f"edge {eid}: port {ep[1]}:{ep[2]} already used by edge {ports_seen[key]}")
                    ports_seen[key] = eid
                else:
                    out.append(f"edge {eid}: malformed endpoint {ep!r}")
        for kind in ("in", "out"):
            idxs = sorted(i for k, i in ports_seen if k == kind)
            if idxs != list(range(len(idxs))):
                out.append(f"{kind} ports are not contiguous from 0: {idxs}")
        declared = set(self.variables)
        if len(self.variables) != len(declared):
            out.append("duplicate variable declaration")
        for sid, s in self.spiders.items():
            for v in s.phase.pivars:
                if v not in declared:
                    out.append(f"spider {sid}: unregistered variable {v}")
        for vars, _ in self.constraints:
            for v in vars:
                if v not in declared:
                    out.append(f"constraint: unregistered variable {v}")
        return out

    # -- serialisation ------------------------------------------------------

    @staticmethod
    def _ep_to_json(ep) -> dict:
        if ep[0] == "s":
            return {"spider": ep[1]}
        return {"port": f"{ep[1]}:{ep[2]}"}

    @staticmethod
    def _ep_from_json(j) -> tuple:
        if "spider" in j:
            return ("s", j["spider"])
        kind, _, idx = j["port"].partition(":")
        return ("b", kind, int(idx))

    def to_json(self) -> dict:
        return {
            "spiders": [{"id": sid, "colour": s.colour, "qturns": s.phase.qturns,
                         "pivars": sorted(s.phase.pivars)}
                        for sid, s in sorted(self.spiders.items())],
            "edges": [{"id": eid, "a": self._ep_to_json(e.a), "b": self._ep_to_json(e.b),
                       "h": e.had, "ideal": e.ideal}
                      for eid, e in sorted(self.edges.items())],
            "inputs": self.inputs,
            "outputs": self.outputs,
            "constraints": [{"vars": sorted(vs), "rhs": rhs} for vs, rhs in self.constraints],
            "variables": list(self.variables),
        }

    @classmethod
    def from_json(cls, j: dict) -> "ZxDiagram":
        d = cls()
        for s in j.get("spiders", []):
            d.spiders[s["id"]] = Spider(s["colour"], Phase(s["qturns"], frozenset(s.get("pivars", []))))
        for e in j.get("edges", []):
            d.edges[e["id"]] = Edge(cls._ep_from_json(e["a"]), cls._ep_from_json(e["b"]),
                                    e.get("h", False), e.get("ideal", False))
        d.variables = list(j.get("variables", []))
        for c in j.get("constraints", []):
            d.constraints.append((frozenset(c["vars"]), c["rhs"] % 2))
        d._next_spider = max(d.spiders, default=-1) + 1
        d._next_edge = max(d.edges, default=-1) + 1
        errs = d.validate()
        if errs:
            raise ValueError("invalid diagram: " + "; ".join(errs))
        return d

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ZxDiagram":
        return cls.from_json(json.loads(text))

    def __repr__(self) -> str:
        return (f"ZxDiagram({len(self.spiders)} spiders, {len(self.edges)} edges, "
                f"{len(self.inputs)}->{len(self.outputs)}, vars={self.variables})")


# -- operations -------------------------------------------------------------


def compose(d1: ZxDiagram, d2: ZxDiagram, mode: str = "sequential") -> ZxDiagram:
    """Sequential splicing (outputs of d1 into inputs of d2) or parallel union."""
    if set(d1.variables) & set(d2.variables):
        raise ValueError("variable registries overlap; rename before composing")
    if mode not in ("sequential", "parallel"):
        raise ValueError(f"unknown composition mode {mode!r}")
    if mode == "sequential" and len(d1.outputs) != len(d2.inputs):
        raise ValueError(f"arity mismatch: {len(d1.outputs)} outputs into {len(d2.inputs)} inputs")

    out = d1.copy()
    smap = {}
    for sid, s in sorted(d2.spiders.items()):
        smap[sid] = out._next_spider
        out.spiders[out._next_spider] = s
        out._next_spider += 1

    if mode == "parallel":
        shift = {"in": len(d1.inputs), "out": len(d1.outputs)}
    else:
        shift = {"in": 0, "out": 0}
        # d1's out-ports and d2's in-ports become temporary mid markers.
        for eid, e in list(out.edges.items()):
            ends = tuple(("m", ep[2]) if ep[0] == "b" and ep[1] == "out" else ep
                         for ep in e.ends())
            out.edges[eid] = Edge(ends[0], ends[1], e.had, e.ideal)

    def remap_ep(ep):
        if ep[0] == "s":
            return ("s", smap[ep[1]])
        if mode == "sequential" and ep[1] == "in":
            return ("m", ep[2])
        return ("b", ep[1], ep[2] + shift[ep[1]])

    for eid, e in sorted(d2.edges.items()):
        out.add_edge(remap_ep(e.a), remap_ep(e.b), e.had, e.ideal)

    if mode == "sequential":
        _eliminate_markers(out)

    for v in d2.variables:
        out.variables.append(v)
    for vs, rhs in d2.constraints:
        out.constraints.append((vs, rhs))
    return out


def _eliminate_markers(d: ZxDiagram) -> None:
    """Merge the two edges at every ("m", i) marker into one (h XOR, ideal AND)."""
    while True:
        marker = None
        for eid, e in sorted(d.edges.items()):
            for ep in e.ends():
                if ep[0] == "m":
                    marker = ep
                    break
            if marker:
                break
        if marker is None:
            return
        hits = [eid for eid, e in sorted(d.edges.items()) if marker in e.ends()]
        if len(hits) == 1 and d.edges[hits[0]].a == d.edges[hits[0]].b == marker:
            # closed loop: a scalar, dropped (the IR does not track scalars)
            del d.edges[hits[0]]
            continue
        if len(hits) != 2:
            raise ValueError(f"marker {marker} used {len(hits)} times")
        e1, e2 = d.edges[hits[0]], d.edges[hits[1]]
        far1 = e1.b if e1.a == marker else e1.a
        far2 = e2.b if e2.a == marker else e2.a
        # keep the lower edge id for the merged edge
        d.edges[hits[0]] = Edge(far1, far2, e1.had != e2.had, e1.ideal and e2.ideal)
        del d.edges[hits[1]]


def apply_fault(d: ZxDiagram, f: PauliString) -> ZxDiagram:
    """Insert Pauli pi-spiders on the faulted edges (X then Z along a->b)."""
    out = d.copy()
    for eid, letter in sorted(f.entries.items(), key=lambda kv: str(kv[0])):
        e = out.edges[eid]
        if e.ideal:
            raise ValueError(f"fault touches ideal edge {eid}")
        letters = {"X": ["X"], "Z": ["Z"], "Y": ["X", "Z"]}[letter]
        # chain from a: [a] --plain-- P1 --plain-- ... Pn --(had)-- [b]
        cur = e.a
        for i, col in enumerate(letters):
            sid = out.add_spider(col, qturns=2)
            if i == 0:
                out.edges[eid] = Edge(cur, ("s", sid), False, False)
            else:
                out.add_edge(cur, ("s", sid), False, False)
            cur = ("s", sid)
        out.add_edge(cur, e.b, e.had, False)
    return out
