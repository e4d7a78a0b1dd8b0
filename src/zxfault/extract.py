"""Template-based extraction of circuits from ZX diagrams.

The template library pairs small diagram shapes with the circuit components
they are fault-equivalent to (each entry carries a replayable equivalence
certificate).  Extraction partitions the diagram's spiders into template
instances -- fault gadgets, parity-measurement hubs with their taps, CNOT/CZ
pairs, fused CNOT-plus-measurement, single-qubit gates, preparations,
measurements and plain wire spiders -- then traces the qubit worldlines
through the remaining wire edges and rebuilds a circuit, mapping fault-free
edges back to fault-free wire segments.

Where several partitions cover the diagram the matcher is deterministic:
larger templates are tried first, then candidates in spider-id order.  The
depth-first cover search skips dead branches by conflict-directed
backjumping: a spider that runs out of roles sends the search back to the
latest earlier choice its failures depend on, past choices that cannot
matter.  A skipped branch holds no cover, so the first cover found is the
one chronological backtracking finds.  With no cover, the error names the
latest of the deepest failures met, and the tests compare it with
chronological backtracking's on builders, rules, proof scripts and random
circuits.  Only a diagram on which chronological backtracking ran out of its
node budget may read differently: it may now extract, or fail with another
error.  Any spider no template accounts for raises :class:`ExtractionError`
listing the offending spiders; diagrams whose only readings need a
classically-controlled operation before its outcome exists
(specification-only objects) are refused the same way.

Out of scope: outcome constraints on the diagram are post-selection metadata
with no circuit counterpart and are ignored, and a plain (neither fault-free
nor fault-tolerant) parity measurement, of one qubit or more, extracts as a
fault-free one because its fault bookkeeping lives in separate gadgets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .circuit import Circuit, Operation
from .diagram import ZxDiagram
from .feq import EquivalenceSpec, Side, Verdict, check_w_fault_equivalence
from .noise import edge_flip_atoms
from .oracle import DEFAULT_BUDGET
from .pauli import PauliString
from .translate import insert_fault_gadget, to_zx


class ExtractionError(ValueError):
    def __init__(self, message: str, spiders=()):
        self.spiders = sorted(spiders)
        if self.spiders:
            message = f"{message} (spiders {self.spiders})"
        super().__init__(message)


@dataclass(frozen=True)
class Template:
    """A sub-diagram shape with its fault-equivalent circuit component.

    The component is the unit circuit as text; its template translation is
    the shape.  The certificate replays the proof obligation: the component's
    light translation is w-fault-equivalent to its gadget-complete reference
    (for the fault gadget itself: a wire with a gadget is w-fault-equivalent
    to the bare wire, so adding one preserves the tensor, as the weight-0
    class must match, and the gadget edge's flips act as claimed)."""

    name: str
    kind: str       # matcher hook; several templates may share one
    component: str  # unit circuit text ("" for the diagram-level gadget)
    w: int = 3

    def unit_circuit(self) -> Circuit | None:
        return Circuit.from_text(self.component) if self.component else None

    def shape(self) -> ZxDiagram:
        if not self.component:
            d = ZxDiagram()
            eid = d.add_edge(("b", "in", 0), ("b", "out", 0))
            return insert_fault_gadget(d, PauliString({eid: "X"}))
        return to_zx(self.unit_circuit(), "template")[0]

    def certificate(self, budget: int = DEFAULT_BUDGET) -> Verdict:
        if not self.component:
            db = ZxDiagram()
            eid = db.add_edge(("b", "in", 0), ("b", "out", 0))
            da = insert_fault_gadget(db, PauliString({eid: "X"}))
            ma, mb = edge_flip_atoms(da), edge_flip_atoms(db)
        else:
            da, ma = to_zx(self.unit_circuit(), "template")
            db, mb = to_zx(self.unit_circuit(), "gadget-complete")
        spec = EquivalenceSpec(Side(da, ma), Side(db, mb), None, self.w, budget)
        return check_w_fault_equivalence(spec)


DEFAULT_TEMPLATES = (
    Template("fault-gadget", "fault-gadget", "", 2),
    Template("ft-parity-measurement", "mpp",
             "QUBITS 2\nMPP Z0*Z1 -> k !ft"),
    Template("cnot-measure", "cnot-mz", "QUBITS 2\nCNOT 0 1\nMZ 1 -> k"),
    Template("prep-plus-cnot", "cnot-prep", "QUBITS 2\nPREP_X 0\nCNOT 0 1"),
    Template("cnot", "cnot", "QUBITS 2\nCNOT 0 1"),
    Template("cz", "cz", "QUBITS 2\nCZ 0 1"),
    Template("measure-z", "measure", "QUBITS 1\nMZ 0 -> k"),
    Template("measure-x", "measure", "QUBITS 1\nMX 0 -> k"),
    Template("prep-zero", "prep", "QUBITS 1\nPREP_Z 0"),
    Template("prep-plus", "prep", "QUBITS 1\nPREP_X 0"),
    Template("prep-minus", "prep", "QUBITS 1\nPREP_MINUS 0"),
    Template("hadamard", "gate", "QUBITS 1\nH 0"),
    Template("phase", "gate", "QUBITS 1\nS 0"),
    Template("pauli-z", "gate", "QUBITS 1\nZ 0"),
    Template("pauli-x", "gate", "QUBITS 1\nX 0"),
    Template("conditional-pauli", "cpauli",
             "QUBITS 2\nMZ 1 -> k\nCPAULI X 0 IF k"),
)


class _Fail(Exception):
    """A failed choice of the cover search.  It is control flow, so each
    catch drops its traceback: kept, the traceback's frames hold the failure
    and the matcher, and free them only at a full pass of the collector."""

    def __init__(self, reason: str, spiders=()):
        self.reason = reason
        self.spiders = set(spiders)


_WIRE_VALENCE = {"gadget-hub": (0,), "gadget-tip": (0,), "mpp": (0,),
                 "measure": (1,), "fused-mz": (1,), "prep": (1,),
                 "gate": (2,), "cpauli": (2,), "tap": (2,),
                 "gadget-box": (2,), "auto": (1, 2)}
# Candidate roles the cover search may try before it gives up.
_NODE_BUDGET = 500_000


class _Matcher:
    def __init__(self, d: ZxDiagram):
        self.d = d
        # sid -> sorted (edge id, far endpoint); a self-loop is listed once
        self.inc: dict[int, list] = {sid: [] for sid in d.spiders}
        for eid, e in d.edges.items():
            if e.a[0] == "s":
                self.inc[e.a[1]].append((eid, e.b))
            if e.b[0] == "s" and e.b != e.a:
                self.inc[e.b[1]].append((eid, e.a))
        for edges in self.inc.values():
            edges.sort()
        # spiders with outcome variables first: they claim their taps
        self.order = sorted(d.spiders,
                            key=lambda s: (not d.spiders[s].phase.pivars, s))
        self.level = {sid: i for i, sid in enumerate(self.order)}
        self.ball: dict[int, tuple] = {}      # sid -> spiders within distance 2
        self.claims: dict[int, tuple] = {}    # roles imposed by other spiders
        self.decided: dict[int, tuple] = {}   # roles chosen at a spider's turn
        self.internal: dict[int, str] = {}    # edge id -> internal label
        self.done: set[int] = set()           # spiders with a committed role
        self.best_fail: tuple[int, _Fail] | None = None
        self.node_budget = _NODE_BUDGET

    # -- candidate generation ------------------------------------------------

    def _free_spider(self, ep, colours=("Z", "X")) -> int | None:
        """The endpoint's spider id if it is a plain (phase-free, variable-
        free) spider not yet committed to a specific role."""
        if ep[0] != "s":
            return None
        sid = ep[1]
        sp = self.d.spiders[sid]
        if sp.colour not in colours or sp.phase.qturns or sp.phase.pivars:
            return None
        if sid in self.claims or self.decided.get(sid, ("auto",)) != ("auto",):
            return None
        return sid

    def _claimable(self, sid: int) -> bool:
        """A spider may be claimed as tap/box/tip only while none of its
        edges is already committed to another template instance."""
        return all(eid not in self.internal for eid, _ in self.inc[sid])

    def _tap(self, sid: int, eid: int, far) -> int | None:
        """The spider at ``far`` if it can be a tap or Pauli box of ``sid``:
        a free, claimable three-legged spider, reached through a hadamard
        exactly when it is red."""
        t = self._free_spider(far)
        if (t is None or t == sid or len(self.inc[t]) != 3
                or not self._claimable(t)
                or self.d.edges[eid].had != (self.d.spiders[t].colour == "X")):
            return None
        return t

    def _try_mpp(self, sid: int, var: str):
        taps, letters_ideal = [], []
        for eid, far in self.inc[sid]:
            if eid in self.internal:
                return None
            tap = self._tap(sid, eid, far)
            if tap is None:
                return None
            taps.append((tap, eid, self.d.spiders[tap].colour))
            letters_ideal.append(self.d.edges[eid].ideal)
        if len({t for t, _, _ in taps}) != len(taps) or len(set(letters_ideal)) != 1:
            return None
        flag = "ideal" if letters_ideal[0] else "ft"
        role = ("mpp", var, tuple(taps), flag)
        return (role, {t: ("tap", sid, eid, l) for t, eid, l in taps},
                {eid: "stem" for _, eid, _ in taps})

    def _try_gadget(self, sid: int):
        tip, boxes, labels = None, [], {}
        for eid, far in self.inc[sid]:
            if eid in self.internal:
                return None
            e = self.d.edges[eid]
            if not e.ideal:
                if tip is not None or e.had:
                    return None
                t = self._free_spider(far, colours=("Z",))
                if t is None or len(self.inc[t]) != 1:
                    return None
                tip, labels[eid] = t, "gadget"
            else:
                b = self._tap(sid, eid, far)
                if b is None:
                    return None
                boxes.append(b)
                labels[eid] = "stem"
        if tip is None or not boxes or len(set(boxes) | {tip}) != len(boxes) + 1:
            return None
        claims = {tip: ("gadget-tip",)}
        claims.update({b: ("gadget-box",) for b in boxes})
        return (("gadget-hub",), claims, labels)

    def _partner_options(self, sid: int, want_had: bool):
        opts = []
        for eid, far in self.inc[sid]:
            if eid in self.internal or self.d.edges[eid].had != want_had:
                continue
            partner = self._free_spider(far, colours=("Z",))
            if partner is not None and partner != sid:
                opts.append((abs(partner - (sid - 1)), eid))
        return [eid for _, eid in sorted(opts)]

    def _candidates(self, sid: int):
        sp = self.d.spiders[sid]
        g = len(self.inc[sid])
        q, pivars = sp.phase.qturns, sp.phase.pivars
        out = []
        if pivars:
            if len(pivars) == 1 and q == 0:
                var = next(iter(pivars))
                if sp.colour == "X":
                    if g >= 2:
                        cand = self._try_mpp(sid, var)
                        if cand:
                            out.append(cand)
                    if g == 2:
                        for eid in self._partner_options(sid, want_had=False):
                            if not self.d.edges[eid].ideal:
                                out.append((("fused-mz", var, eid), {},
                                            {eid: "cnot-mz"}))
                    if g == 1:
                        out.append((("measure", "MZ", var), {}, {}))
                        cand = self._try_mpp(sid, var)  # one-qubit MPP
                        if cand:
                            out.append(cand)
                elif g == 1:
                    out.append((("measure", "MX", var), {}, {}))
            if g == 2 and q in (0, 2):
                out.append((("cpauli", sp.colour, tuple(sorted(pivars)),
                             q // 2), {}, {}))
        elif q == 0:
            if sp.colour == "X" and g >= 2:
                cand = self._try_gadget(sid)
                if cand:
                    out.append(cand)
            if sp.colour == "X" and g >= 3:
                for eid in self._partner_options(sid, want_had=False):
                    out.append((("auto",), {}, {eid: "cnot"}))
            if sp.colour == "Z" and g >= 2:
                for eid in self._partner_options(sid, want_had=True):
                    out.append((("auto",), {}, {eid: "cz"}))
            out.append((("auto",), {}, {}))
        elif q == 2:
            if g == 1 and sp.colour == "Z":
                out.append((("prep", "PREP_MINUS"), {}, {}))
            if g == 2:
                out.append((("gate", sp.colour), {}, {}))
        elif q == 1 and g == 2 and sp.colour == "Z":
            out.append((("gate", "S"), {}, {}))
        return out

    # -- search ---------------------------------------------------------------

    def run(self) -> Circuit:
        try:
            return self._search()
        except _Fail as f:
            fail = f.with_traceback(None)
        raise ExtractionError(f"no template cover: {fail.reason}", fail.spiders)

    def _note(self, depth: int, fail: _Fail) -> None:
        if self.best_fail is None or depth >= self.best_fail[0]:
            self.best_fail = (depth, fail)

    def _local_fail(self, fresh) -> _Fail | None:
        """Check every spider whose whole neighbourhood now carries committed
        roles: its number of wire edges must fit its role.  Catching bad
        combinations here keeps the cover search from exploring them."""
        around = set(fresh)
        for t in fresh:
            around.update(far[1] for _, far in self.inc[t]
                          if far[0] == "s")
        for t in sorted(around):
            if t not in self.done:
                continue
            if any(far[0] == "s" and far[1] not in self.done
                   for _, far in self.inc[t]):
                continue
            role = self.claims.get(t) or self.decided[t]
            valence = sum(1 for eid, _ in self.inc[t]
                          if eid not in self.internal)
            if valence not in _WIRE_VALENCE[role[0]]:
                return _Fail(f"{role[0]} spider has {valence} wire edges",
                             {t})
        return None

    def _blame(self, sid: int) -> set[int]:
        """The levels of the decided spiders within distance 2 of ``sid``.

        Whatever the search reads about a spider is set within that distance:
        its role by itself or by a neighbour that claims it, the labels on its
        edges by itself or a neighbour, whether a neighbour is free or done by
        that neighbour or by a spider next to it, and whether a tap is
        claimable by the labels its neighbours put on its edges.  So the
        candidates of ``sid`` and a wire count that fails at ``sid`` depend on
        no other choice."""
        ball = self.ball.get(sid)
        if ball is None:
            ring = {far[1] for _, far in self.inc[sid] if far[0] == "s"}
            near = {sid} | ring
            for u in ring:
                near.update(far[1] for _, far in self.inc[u] if far[0] == "s")
            ball = self.ball[sid] = tuple(near)
        return {self.level[u] for u in ball if u in self.decided}

    def _search(self) -> Circuit:
        """Depth-first cover search over ``order``: one choice generator per
        deciding spider on a list, as a diagram may have more spiders than
        the recursion limit.

        Each level keeps the set of earlier levels its failures depend on
        (conflict-directed backjumping, Prosser 1993).  An exhausted level
        hands its _Fail down to the deepest level in its set, closing the
        generators above it; their choices cannot matter, so the branches
        skipped hold no cover and the first cover found is that of plain
        chronological backtracking.  The target merges the set and tries its
        next choice.  A failure of the builder, which checks the whole
        diagram, and running out of budget blame every level, and so step
        back one level."""
        stack: list[tuple] = []  # (order index, choice generator, conflict set)
        i = 0
        while True:
            while i < len(self.order) and self.order[i] in self.claims:
                i += 1
            if i == len(self.order):
                try:
                    return _Builder(self.d, self._roles(), self.internal).build()
                except _Fail as f:
                    fail = f.with_traceback(None)
                    self._note(i, fail)
                blame = {j for j, _, _ in stack}
            else:
                conflict: set[int] = set()
                stack.append((i, self._choices(i, conflict), conflict))
                blame = None
            while True:
                if blame is not None:
                    target = max(blame, default=-1)
                    while stack and stack[-1][0] > target:
                        stack.pop()[1].close()
                    if not stack:
                        raise fail
                    stack[-1][2].update(j for j in blame if j < stack[-1][0])
                i, level, conflict = stack[-1]
                try:
                    next(level)
                    break
                except _Fail as f:
                    stack.pop()
                    fail = f.with_traceback(None)
                    blame = conflict
            i += 1

    def _choices(self, i: int, conflict: set[int]):
        """Commit the candidate roles of spider ``order[i]`` one at a time,
        yielding while one stands and undoing it when resumed or closed;
        raise the level's failure once none is left.  ``conflict`` gathers
        the earlier levels that the candidates and each failed choice
        depend on."""
        sid = self.order[i]
        conflict.update(self._blame(sid))
        cands = self._candidates(sid)
        if not cands:
            fail = _Fail("no template matches spider", {sid})
            self._note(i, fail)
            raise fail
        for role, claims, labels in cands:
            if self.node_budget <= 0:  # every level reports this from now on
                conflict.update(range(i))
                self.best_fail = (len(self.order) + 1, _Fail(
                    "cover search budget exhausted", {sid}))
                raise self.best_fail[1]
            self.node_budget -= 1
            if any(t in self.claims
                   or self.decided.get(t, ("auto",)) != ("auto",)
                   for t in claims):
                continue
            if any(eid in self.internal for eid in labels):
                continue
            self.decided[sid] = role
            self.claims.update(claims)
            self.internal.update(labels)
            fresh = {sid, *claims} - self.done
            self.done.update(fresh)
            try:
                fail = self._local_fail({sid, *claims})
                if fail is None:
                    yield
                else:
                    self._note(i, fail)
                    for t in fail.spiders:
                        conflict.update(self._blame(t))
                    conflict.discard(i)
            finally:
                del self.decided[sid]
                for t in claims:
                    del self.claims[t]
                for eid in labels:
                    del self.internal[eid]
                self.done -= fresh
        raise self.best_fail[1] if self.best_fail else _Fail(
            "no consistent reading", {sid})

    def _roles(self) -> dict[int, tuple]:
        roles = dict(self.decided)
        roles.update(self.claims)
        return roles


class _Builder:
    """Turns a committed role assignment into a circuit (or raises _Fail)."""

    def __init__(self, d: ZxDiagram, roles: dict[int, tuple],
                 internal: dict[int, str]):
        self.d = d
        self.roles = roles
        self.internal = internal

    def build(self) -> Circuit:
        self._wire_graph()
        self._trace_paths()
        self._number_qubits()
        self._collect_ops()
        return self._place()

    # -- worldlines -----------------------------------------------------------

    def _wire_graph(self) -> None:
        self.adj: dict[tuple, list] = {}
        for eid in sorted(self.d.edges):
            if eid in self.internal:
                continue
            e = self.d.edges[eid]
            a = e.a if e.a[0] == "b" else ("s", e.a[1])
            b = e.b if e.b[0] == "b" else ("s", e.b[1])
            if a == b:
                raise _Fail("wire self-loop", {a[1]} if a[0] == "s" else ())
            self.adj.setdefault(a, []).append((eid, b))
            self.adj.setdefault(b, []).append((eid, a))

    def _terminal(self, sid: int) -> str:
        """'start', 'end', 'pass' or a failure, per role and wire valence."""
        kind = self.roles[sid][0]
        valence = len(self.adj.get(("s", sid), ()))
        if valence not in _WIRE_VALENCE[kind]:
            label = "plain" if kind == "auto" else kind
            raise _Fail(f"{label} spider has {valence} wire edges", {sid})
        if valence == 1:  # measurements end a wire; preparations start one
            return "end" if kind in ("measure", "fused-mz") else "start"
        return "pass" if valence == 2 else "none"

    def _trace_paths(self) -> None:
        kinds = {sid: self._terminal(sid) for sid in self.roles}
        starts = [p for p in sorted(self.adj) if p[0] == "b" and p[1] == "in"]
        starts += [("s", sid) for sid in sorted(self.roles)
                   if kinds[sid] == "start"]
        self.paths = []          # list of item lists
        self.pos = {}            # spider id -> (path, links before it)
        seen_edges, seen_nodes = set(), set()
        for start in starts:
            items = [("start", start)]
            if start[0] == "s":
                self.pos[start[1]] = (len(self.paths), 0)
            seen_nodes.add(start)
            node, in_eid, links = start, None, 0
            link: list | None = None
            while True:
                step = [(eid, far) for eid, far in self.adj[node]
                        if eid != in_eid and eid not in seen_edges]
                if len(step) != 1:
                    raise _Fail("wire does not continue past spider",
                                {node[1]} if node[0] == "s" else ())
                eid, node = step[0]
                seen_edges.add(eid)
                e = self.d.edges[eid]
                if link is None:
                    link = [[eid], e.had, e.ideal]
                else:  # merging through a fault gadget's Pauli box
                    link = [link[0] + [eid], link[1] != e.had,
                            link[2] and e.ideal]
                if node[0] == "s" and self.roles[node[1]][0] == "gadget-box":
                    seen_nodes.add(node)
                    in_eid = eid
                    continue
                items.append(("link", tuple(link[0]), link[1], link[2]))
                links += 1
                link, in_eid = None, eid
                if node in seen_nodes:
                    raise _Fail("wires cross", {node[1]} if node[0] == "s" else ())
                seen_nodes.add(node)
                if node[0] == "b":
                    if node[1] != "out":
                        raise _Fail("wire runs into an input port")
                    items.append(("end", node))
                    break
                kind = kinds[node[1]]
                self.pos[node[1]] = (len(self.paths), links)
                if kind == "end":
                    items.append(("end", node))
                    break
                if kind != "pass":
                    raise _Fail("wire runs into a wire-starting spider",
                                {node[1]})
                items.append(("node", node[1]))
            self.paths.append(items)
        leftovers = {ep[1] for ep in self.adj if ep[0] == "s"
                     and ep not in seen_nodes}
        if leftovers or any(eid not in seen_edges for eid in self.d.edges
                            if eid not in self.internal):
            raise _Fail("wire edges left over (disconnected loop?)", leftovers)

    def _number_qubits(self) -> None:
        """Qubit indices must respect both boundary orders: input wires in
        input-port order and surviving wires in output-port order."""
        n = len(self.paths)
        after = {p: set() for p in range(n)}
        for chain in ("in", "out"):
            ranked = sorted(
                (items[0 if chain == "in" else -1][1][2], p)
                for p, items in enumerate(self.paths)
                if items[0 if chain == "in" else -1][1][0] == "b"
                and items[0 if chain == "in" else -1][1][1] == chain)
            for (_, a), (_, b) in zip(ranked, ranked[1:]):
                after[a].add(b)

        def anchor(p):
            start = self.paths[p][0][1]
            return (0, start[2]) if start[0] == "b" else (1, start[1])

        order = _topological_order(after, anchor)
        if len(order) != n:
            raise _Fail("boundary port orders conflict")
        self.qubit = {p: i for i, p in enumerate(order)}

    # -- operations -----------------------------------------------------------

    def _add_op(self, slots, rank, anchor, op: Operation) -> None:
        self.ops.append({"slots": slots, "rank": rank, "anchor": anchor,
                         "op": op})

    def _collect_ops(self) -> None:
        self.ops: list[dict] = []
        d, roles, Q = self.d, self.roles, self.qubit
        for p, items in enumerate(self.paths):
            links = 0
            start = items[0][1]
            if start[0] == "s":
                sid = start[1]
                role = roles[sid]
                kind = (role[1] if role[0] == "prep" else
                        "PREP_Z" if d.spiders[sid].colour == "X" else "PREP_X")
                self._add_op([(p, 0)], 0, (0, sid), Operation(kind, (Q[p],)))
            for item in items[1:]:
                if item[0] == "link":
                    links += 1
                    if item[2]:  # hadamard mark on a wire link
                        self._add_op([(p, links)], 1, (1, item[1][0]),
                                     Operation("H", (Q[p],)))
                elif item[0] == "node":
                    self._spider_op(item[1], p, links)
            end = items[-1][1]
            if end[0] == "s":
                self._spider_op(end[1], p, links)
        for sid in sorted(roles):
            role = roles[sid]
            if role[0] != "mpp":
                continue
            pairs = sorted((Q[self.pos[t][0]], l) for t, _, l in role[2])
            self._add_op([self.pos[t] for t, _, _ in role[2]], 2, (0, sid),
                         Operation("MPP", tuple(q for q, _ in pairs),
                                   var=role[1],
                                   pauli="".join(l for _, l in pairs),
                                   ideal=role[3] == "ideal",
                                   ft=role[3] == "ft"))
        for eid, label in sorted(self.internal.items()):
            if label not in ("cnot", "cz", "cnot-mz"):
                continue
            e = self.d.edges[eid]
            a, b = e.a[1], e.b[1]
            if label == "cz":
                qa, qb = sorted((Q[self.pos[a][0]], Q[self.pos[b][0]]))
                self._add_op([self.pos[a], self.pos[b]], 2, (0, min(a, b)),
                             Operation("CZ", (qa, qb), ideal=e.ideal))
                continue
            target = a if self.d.spiders[a].colour == "X" else b
            control = b if target == a else a
            qc, qt = Q[self.pos[control][0]], Q[self.pos[target][0]]
            self._add_op([self.pos[control], self.pos[target]], 2,
                         (0, target), Operation("CNOT", (qc, qt),
                                                ideal=e.ideal))

    def _spider_op(self, sid: int, p: int, links: int) -> None:
        role, Q = self.roles[sid], self.qubit
        here = [(p, links)]
        if role[0] == "gate":
            self._add_op(here, 2, (0, sid), Operation(role[1], (Q[p],)))
        elif role[0] == "cpauli":
            self._add_op(here, 2, (0, sid),
                         Operation("CPAULI", (Q[p],), pauli=role[1],
                                   condition=(frozenset(role[2]), role[3])))
        elif role[0] == "measure":
            self._add_op(here, 2, (0, sid),
                         Operation(role[1], (Q[p],), var=role[2]))
        elif role[0] == "fused-mz":
            # its CNOT partner is emitted from the internal edge; the
            # destructive measurement follows at the same wire position
            self._add_op(here, 3, (0, sid),
                         Operation("MZ", (Q[p],), var=role[1]))

    # -- scheduling -----------------------------------------------------------

    def _place(self) -> Circuit:
        ops = self.ops
        by_path: dict[int, list] = {}
        for i, op in enumerate(ops):
            for p, links in op["slots"]:
                by_path.setdefault(p, []).append(
                    (links, op["rank"], op["anchor"], i))
        measured = {op["op"].var: i for i, op in enumerate(ops)
                    if op["op"].is_measurement()}
        after = {i: set() for i in range(len(ops))}
        for seq in by_path.values():
            seq.sort()
            for (_, _, _, a), (_, _, _, b) in zip(seq, seq[1:]):
                after[a].add(b)
        for i, op in enumerate(ops):
            if op["op"].kind == "CPAULI":
                for v in op["op"].condition[0]:
                    if v not in measured:
                        raise _Fail(f"condition on unmeasured outcome {v!r}")
                    after[measured[v]].add(i)

        order = _topological_order(after, lambda i: ops[i]["anchor"])
        if len(order) != len(ops):
            raise _Fail("a classically-controlled operation precedes its "
                        "outcome; the diagram reads as specification-only")

        links_of = {(p, idx): item
                    for p, items in enumerate(self.paths)
                    for idx, item in enumerate(
                        it for it in items if it[0] == "link")}
        moments: list[list] = []
        last_m = {p: -1 for p in range(len(self.paths))}
        done = {p: 0 for p in range(len(self.paths))}
        ideal_wires: set[tuple] = set()

        def mark(p: int, upto_links: int, upto_moment: int) -> None:
            s0, k = last_m[p] + 1, upto_links - done[p]
            for j in range(k):
                item = links_of[(p, done[p] + j)]
                if item[3]:
                    hi = s0 + j if j < k - 1 else upto_moment
                    ideal_wires.update(
                        (self.qubit[p], t) for t in range(s0 + j, hi + 1))
            done[p] = upto_links

        for i in order:
            op = ops[i]
            m = max([len(moments)]
                    + [last_m[p] + (links - done[p])
                       for p, links in op["slots"]])
            while len(moments) < m:
                moments.append([])
            moments.append([op["op"]])
            for p, links in op["slots"]:
                mark(p, links, m)
                last_m[p] = m

        total_links = {p: sum(1 for it in items if it[0] == "link")
                       for p, items in enumerate(self.paths)}
        trailing = [p for p, items in enumerate(self.paths)
                    if items[-1][1][0] == "b"]
        need = max([len(moments)] + [last_m[p] + total_links[p] - done[p]
                                     for p in trailing])
        while len(moments) < need:
            moments.append([])
        for p in trailing:
            mark(p, total_links[p], len(moments))

        c = Circuit(len(self.paths))
        c.moments = moments
        c.ideal_wires = ideal_wires
        errs = c.validate()
        if errs:
            raise _Fail("extracted circuit invalid: " + "; ".join(errs))
        return c


def _topological_order(after: dict, key) -> list:
    """Kahn's order of the nodes of ``after`` (node -> set of successors),
    taking the ready node of least ``(key(node), node)`` first.  A cycle
    leaves its nodes out."""
    indeg = {i: 0 for i in after}
    for i in after:
        for j in after[i]:
            indeg[j] += 1
    heap = [(key(i), i) for i in after if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for j in after[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (key(j), j))
    return order


def extract_circuit(d: ZxDiagram) -> Circuit:
    """Rebuild a circuit from a diagram covered by the template library.

    Raises :class:`ExtractionError` when some spiders match no template, when
    no globally consistent reading exists, or when every reading needs a
    correction before its outcome (a specification-only diagram)."""
    errs = d.validate()
    if errs:
        raise ExtractionError("invalid diagram: " + "; ".join(errs))
    return _Matcher(d).run()
