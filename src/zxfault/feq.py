"""Fault correspondence search, w-fault-equivalence verdicts and circuit
distance.

Two noisy diagrams are w-fault-equivalent when every fault of weight below w
on either side is detectable there, or is matched by a fault of no greater
weight on the other side whose faulted diagram is equal (up to a global
magnitude and per-outcome phase, under the outcome correspondence).

Every match is a lookup in one engine, :class:`SyndromeMap`, on the web
syndromes (:meth:`~zxfault.webs.FaultClasses.syndrome`, the set of a
diagram's Pauli webs a fault anticommutes with) in the two sides'
least-weight tables (:class:`~zxfault.webs.ClassTable`).  On a diagram
D != 0, two faults give equal diagrams up to a global scalar and
per-outcome signs exactly when their syndromes are equal.  Across the
sides, each side-b web is a stabiliser of D_b, so the signs with which a
side-a tensor, read through the correspondence, is an eigenvector of those
stabilisers name the side-b class it equals.  That is an affine map M of
side-a syndromes, solved by GF(2) algebra on the webs: its offset, M at
side a's reference, by the sign and support facts (:func:`_offset`), and
the rest by the push-out, since every side-a class is the reference under
a boundary Pauli and outcome flips, whose side-a syndromes and signs
against the side-b stabilisers are bit rows (:func:`_pushout_rows`).
Whether a class makes the diagram zero is read from its syndrome too, by
the zero rule: its :meth:`~zxfault.webs.FaultClasses.pattern`, the
parities of the constant web sums it flips, against
:attr:`~zxfault.webs.FaultClasses.alive`; a zero class matches only zero
classes, and each side's reference is its first nonzero class.  The dense
oracle only guards M, by two checks per map, four contractions
``evaluate(apply_fault(d, f))`` at most: the noise-free diagrams compared,
and one predicted match replayed.  The comparison of two noise-free
diagrams that the rewrite checks make (:func:`equal_on_webs`) needs no
map and no tensor either: the zero rule and the offset at origin 0.  The
circuit distance concerns one diagram: a fault of a diagram D != 0
changes it exactly when its web syndrome is nonzero.

So a verdict and a distance need, per class, only its least weight, its
detection flag and, for a verdict, its image under M: both sides'
least-weight tables (:class:`~zxfault.webs.ClassTable`), from one
breadth-first search over the distinct atom syndromes per side, with the
number of faults counted, not walked.  Only a negative verdict walks
faults, those of its failing classes, to list them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import gf2
from .diagram import ZxDiagram, apply_fault
from .noise import ABOVE_CAP, NoiseModel, fault_weight
from .oracle import (DEFAULT_BUDGET, OutcomeMap, OutcomeTensor,
                     equal_up_to_scalar, evaluate, ports)
from .pauli import PauliString
from .webs import ClassTable, FaultClasses


@dataclass
class Side:
    diagram: ZxDiagram
    noise: NoiseModel


@dataclass
class EquivalenceSpec:
    """side_a is the implementation, side_b the specification it is compared
    against; the correspondence maps each side-b outcome variable to an XOR
    expression in side-a variables (i.e. OutcomeMap source = side-a registry,
    target = side-b registry).  None means identity on a shared registry."""

    side_a: Side
    side_b: Side
    correspondence: OutcomeMap | None
    w: int
    budget: int = DEFAULT_BUDGET

    def corr(self) -> OutcomeMap:
        if self.correspondence is None:
            return OutcomeMap.identity(self.side_a.diagram.variables)
        return self.correspondence

    def swapped(self) -> "EquivalenceSpec":
        return EquivalenceSpec(self.side_b, self.side_a,
                               self.corr().inverted(), self.w, self.budget)


@dataclass(frozen=True)
class Counterexample:
    side: str  # "a" | "b"
    fault: PauliString
    weight: int
    reason: str  # "no-match-found" | "match-heavier"


@dataclass
class Verdict:
    equivalent: bool
    counterexamples: list = field(default_factory=list)
    checked: int = 0

    def to_json(self) -> dict:
        return {"equivalent": self.equivalent,
                "checked": self.checked,
                "counterexamples": [
                    {"side": c.side, "fault": c.fault.to_text(),
                     "weight": c.weight, "reason": c.reason}
                    for c in self.counterexamples]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


class ClassKeyError(Exception):
    """The web-syndrome map and the dense tensor oracle disagree.  Not a
    ValueError, so that no caller can mistake it for a negative verdict or a
    failed step."""


def _stabilisers(b: FaultClasses, corr: OutcomeMap) -> list:
    """Each side-b basis web's stabiliser read through ``corr``: its port
    Paulis x, z and the :meth:`~zxfault.oracle.OutcomeMap.sign_mask` o, c
    of the outcomes it flips, so that on side a's flat index it sends entry
    j to (-1)^(|((j ^ x) & z) ^ (j >> P & o)| + c) times entry j ^ x, P
    the number of ports."""
    names, n = b.diagram.variables, len(b.diagram.variables)
    return [(x, z, *corr.sign_mask(
        [v for i, v in enumerate(names) if o >> n - 1 - i & 1]))
            for x, z, o in b.masks]


def _offset(a: FaultClasses, b: FaultClasses, stabilisers: list,
            corr: OutcomeMap, origin: int) -> int | None:
    """M(origin): the side-b syndrome of side a's reference, of syndrome
    ``origin``, read through ``corr`` against side b's reference, from
    both sides' webs read as stabilisers, with no tensor; None when a
    stabiliser's sign is not constant on side a's support or the two
    supports differ in size.

    Bit j compares side-b web j's stabiliser read through corr
    (``stabilisers[j]``, from :func:`_stabilisers`) on the two
    references.  One echelon of the rows x | z << P | o << 2P of side a's
    :attr:`~zxfault.webs.FaultClasses.masks`, each tagged by its web above
    the data bits, finds a sum of side-a webs, of mask m, with the same
    port Paulis and outcome mask, so the same stabiliser up to the sign
    (-1)^c_j; with none, that stabiliser's sign is not constant on side
    a's support.  By the sign fact, a web's eigenvalue on D != 0 is
    (-1)^count (:meth:`~zxfault.webs.FaultClasses.count`) times i per
    port Y, and a fault, such as a zero side's reference, flips it where
    its syndrome has odd parity on the web.  So bit j is count_a(m) +
    |origin & m| + c_j + count_b(web j) mod 2.  Two factors cancel, so no
    tensor of either side is read: the i per port Y, since both
    stabilisers have the same port Paulis, and side b's reference
    syndrome, which flips side b's eigenvalue exactly where it would flip
    the bit back.  So a dropped i per port Y, or a Y read as Z.X, cannot
    change the offset.  By the support fact
    (:attr:`~zxfault.webs.FaultClasses.support`), side a's reference
    covers as many side-b assignments as side b's exactly when corr's
    linear part keeps, on the directions that side a's support leaves
    free, the dimension of side b's support."""
    ports = sum(map(len, a.diagram.boundary()))
    linear = [corr.sign_mask([t])[0] for t in corr.target_vars]
    free = len(gf2.echelon([*a.support, *linear])) - len(a.support)
    if free != len(b.diagram.variables) - len(b.support):
        return None
    data = 2 * ports + len(a.diagram.variables)
    pivots = gf2.echelon(x | z << ports | o << 2 * ports | 1 << data + k
                         for k, (x, z, o) in enumerate(a.masks))
    offset = 0
    for j, (x, z, o, c) in enumerate(stabilisers):
        v = gf2.reduce(pivots, x | z << ports | o << 2 * ports)
        if v & (1 << data) - 1:
            return None
        m = v >> data
        bit = a.count(m) + (origin & m).bit_count() + c + b.count(1 << j)
        offset |= (bit & 1) << j
    return offset


def equal_on_webs(a: FaultClasses, b: FaultClasses, corr: OutcomeMap) -> bool:
    """Whether the two diagrams, given by their web facts, are equal, up to
    a global magnitude and per-outcome phases, under ``corr`` (side-a
    variables to side-b ones), as the exact comparison of their tensor
    families would say, with no tensor: two diagrams that the zero rule
    calls zero are equal, a zero and a nonzero one are not, and two
    nonzero ones are equal exactly when the offset of side a's noise-free
    diagram (:func:`_offset` at origin 0) is 0.  Boundaries of other
    shapes are a ValueError."""
    if list(map(len, a.diagram.boundary())) != \
            list(map(len, b.diagram.boundary())):
        raise ValueError("incompatible shapes")
    if a.alive or b.alive:
        return bool(a.alive and b.alive)
    return _offset(a, b, _stabilisers(b, corr), corr, 0) == 0


def _pushout_rows(d: ZxDiagram, classes: FaultClasses,
                  stabilisers: list) -> list[int]:
    """The push-out generators of side a, ``d``, as bit rows s | l << n,
    n the number of its webs: s is the generator's side-a web syndrome and
    l the side-b stabilisers ``stabilisers`` (side b's
    :func:`_stabilisers` read through the correspondence) whose sign it
    flips.  The generators are X and Z on each port's leg, each a fault on
    the port's edge (a bare wire's at its a end only, since the edge's one
    Pauli acts on one of its legs), which flips the stabilisers whose port
    Paulis it anticommutes with; and each outcome flip, which flips the
    webs that fire an odd number of the spiders reading the outcome
    (:func:`~zxfault.webs.flipped_by`) and the stabilisers whose sign mask
    reads it."""
    n = len(classes.webs)
    rows = []
    for eid, port, bit, swapped in ports(d):
        a_end = d.edges[eid].a
        if a_end[0] == "b" and a_end != port:
            continue
        for letter, (x, z) in (("X", (bit, 0)), ("Z", (0, bit))):
            if swapped:
                x, z = z, x
            flips = sum(((x & zs ^ z & xs).bit_count() & 1) << j
                        for j, (xs, zs, _, _) in enumerate(stabilisers))
            rows.append(classes.syndrome(PauliString({eid: letter}))
                        | flips << n)
    for i, s in enumerate(classes.outcome_flips):
        bit = 1 << len(d.variables) - 1 - i  # as in OutcomeMap.sign_mask
        flips = sum(bool(o & bit) << j
                    for j, (_, _, o, _) in enumerate(stabilisers))
        rows.append(s | flips << n)
    return rows


class SyndromeMap:
    """Both sides' least-weight tables, the affine map M from side-a web
    syndromes to side-b ones under which classes match, each class's key
    (``keys``, computed once per class), and the replays, counted per side
    in ``replays``.

    Each side's reference is its first nonzero class by the zero rule
    (:meth:`_reference`), the empty fault's when D != 0; side a's is the
    origin.  Zero classes, of another pattern, match only zero classes.
    M(origin), the offset, is solved on the webs of both sides
    (:func:`_offset`).  Every other nonzero class is the origin under a
    boundary Pauli and outcome flips (the push-out): echelon the
    :func:`_pushout_rows`, and M(s) is the offset XOR the side-b flips of
    the generators that sum to s XOR origin.  So no tensor is read to solve
    M.  A class the generators cannot reach, or a kernel row that gives one
    syndrome two images, is a :class:`ClassKeyError`.  The dense oracle only
    confirms M: the offset is 0 exactly when it calls the nonzero noise-free
    diagrams equal, and one predicted match is replayed (:meth:`_guard`),
    which a wrong nonzero offset fails too, as every image is the offset XOR
    a push-out."""

    def __init__(self, spec: EquivalenceSpec, max_weight: int):
        da, db = spec.side_a.diagram, spec.side_b.diagram
        if list(map(len, da.boundary())) != list(map(len, db.boundary())):
            raise ValueError("incompatible boundary shapes")
        corr = spec.corr()
        if corr.source_vars != da.variables or corr.target_vars != db.variables:
            raise ValueError("correspondence registries do not match the"
                             " sides")
        self.tables = {side: ClassTable(FaultClasses(x.diagram), x.noise,
                                        max_weight)
                       for side, x in (("a", spec.side_a), ("b", spec.side_b))}
        self.budget, self.replays = spec.budget, {"a": 0, "b": 0}
        a, b = self.tables.values()
        self._origin = self._reference("a")
        self.offset = None  # M(origin), None when no nonzero class matches
        if self._origin is not None and self._reference("b") is not None:
            stabilisers = _stabilisers(b.classes, corr)
            self.offset = _offset(a.classes, b.classes, stabilisers, corr,
                                  self._origin)
        zero_a, zero_b = bool(a.classes.alive), bool(b.classes.alive)
        same = zero_a and zero_b if zero_a or zero_b else self.offset == 0
        if same != equal_up_to_scalar(self.replay("b", PauliString()),
                                      self.replay("a", PauliString()), corr):
            raise ClassKeyError("web syndromes and the tensor oracle disagree"
                                " on the noise-free diagrams")
        if self.offset is not None:
            self._pivots = gf2.echelon(_pushout_rows(da, a.classes,
                                                     stabilisers))
            if max(self._pivots, default=-1) >= len(a.classes.webs):
                raise ClassKeyError("the push-out gives one side-a web"
                                    " syndrome two side-b images")
        self.keys = {"a": {}, "b": {}}  # syndrome -> class key
        self._first = {"a": {}, "b": {}}  # class key -> its first class
        for side in "ab":
            self._index(side)
        self._guard(corr)

    def replay(self, side: str, f: PauliString) -> OutcomeTensor:
        """The tensor family of one side's diagram with fault ``f`` applied,
        counted in ``replays``."""
        self.replays[side] += 1
        d = self.tables[side].classes.diagram
        return evaluate(apply_fault(d, f) if f else d, self.budget)

    def _index(self, side: str) -> None:
        """Each class's key, and the first class of each key, which has the
        key's least weight, on one side."""
        for s, f in self.tables[side].firsts.items():
            k = self.keys[side][s] = self._key(side, s, f)
            self._first[side].setdefault(k, s)

    def _key(self, side: str, s: int, f: PauliString) -> int | None:
        """The key that two matching classes share, for the class of
        syndrome ``s`` and its fault ``f``: -1 for a zero class, else M(s)
        (:meth:`pushout`) for a side-a class and s for a side-b one; None
        when no nonzero class matches."""
        classes = self.tables[side].classes
        if classes.pattern(s) != classes.alive:
            return -1
        if self.offset is None:
            return None
        if side == "b":
            return s
        image = self.pushout(s)
        if image is None:
            raise ClassKeyError(f"side-a fault {f.to_text()} is out of reach"
                                f" of the push-out generators")
        return image

    def _reference(self, side: str) -> int | None:
        """The syndrome of the side's reference, its first nonzero class by
        the zero rule, the first in ``firsts`` whose pattern is ``alive``
        (0 when D != 0); None if there is none.  It is read on the webs,
        with no replay."""
        classes = self.tables[side].classes
        return next((s for s in self.tables[side].firsts
                     if classes.pattern(s) == classes.alive), None)

    def pushout(self, s: int) -> int | None:
        """M(s) of a nonzero side-a class from the push-out generators;
        None when they cannot reach s."""
        n = len(self.tables["a"].classes.webs)
        v = gf2.reduce(self._pivots, s ^ self._origin)
        return None if v & ((1 << n) - 1) else (v >> n) ^ self.offset

    def _guard(self, corr: OutcomeMap) -> None:
        """Replay the first nonzero side-a class other than the origin, in
        scan order, whose prediction has a side-b class, and check under
        the oracle that it equals that class; with none, replay nothing."""
        keys = self.keys["a"]
        s, f = next(((s, f) for s, f in self.tables["a"].firsts.items()
                     if keys[s] not in (None, -1) and s != self._origin
                     and keys[s] in self._first["b"]), (None, None))
        if f is None:
            return
        g = self.tables["b"].firsts[self._first["b"][keys[s]]]
        if not equal_up_to_scalar(self.replay("b", g), self.replay("a", f),
                                  corr):
            raise ClassKeyError(
                f"side-a fault '{f.to_text()}' is predicted to match side-b"
                f" fault '{g.to_text()}', which the oracle refutes")

    def match(self, side: str, f: PauliString,
              max_weight: int) -> PauliString | None:
        """The first fault of the other side's first class that matches
        ``f``'s, if its least weight is at most ``max_weight``."""
        other = "b" if side == "a" else "a"
        s, keys = self.tables[side].classes.syndrome(f), self.keys[side]
        k = keys[s] if s in keys else self._key(side, s, f)
        g = None if k is None else self._first[other].get(k)
        table = self.tables[other]
        if g is None or table.least[g] > max_weight:
            return None
        return table.firsts[g]


def find_equivalent_fault(spec: EquivalenceSpec, side: str, f: PauliString,
                          syndrome_map: SyndromeMap | None = None,
                          max_weight: int | None = None):
    """A least-weight fault on the other side whose faulted diagram equals
    the faulted source diagram under the correspondence: the first fault
    of the matching class, the first one the breadth-first search of its
    table reaches (:meth:`~zxfault.webs.FaultClasses.search`); None if
    none exists up to ``max_weight``, which defaults to the weight of ``f``
    in its side's noise model."""
    if max_weight is None:
        noise = (spec.side_a if side == "a" else spec.side_b).noise
        max_weight = fault_weight(f, noise, len(noise.atoms))
        if max_weight == ABOVE_CAP:
            raise ValueError(f"fault {f.to_text()} is not generated by the"
                             f" side's noise model")
    if syndrome_map is None:
        syndrome_map = SyndromeMap(spec, max_weight)
    return syndrome_map.match(side, f, max_weight)


def check_w_fault_equivalence(spec: EquivalenceSpec) -> Verdict:
    """The verdict is one comparison per class: an undetectable class of
    least weight w on one side fails exactly when it has no match up to
    weight ``spec.w - 1`` on the other side, or its match's least weight is
    greater than w.  Only a failing class's faults are walked
    (:meth:`~zxfault.webs.ClassTable.faults_below`), up to the weight below
    its match's, to list them as counterexamples."""
    if spec.w < 1:
        raise ValueError(f"w must be at least 1, got {spec.w}")
    syndrome_map = SyndromeMap(spec, spec.w - 1)
    tables = syndrome_map.tables
    counterexamples = []
    for side, other in (("a", tables["b"]), ("b", tables["a"])):
        table = tables[side]
        failing = {}  # syndrome -> the weight its faults fail below
        reasons = {}  # syndrome -> why they fail
        for s, f in table.firsts.items():
            if not table.undetectable[s]:
                continue
            g = find_equivalent_fault(spec, side, f, syndrome_map, spec.w - 1)
            if g is None:
                failing[s], reasons[s] = spec.w, "no-match-found"
            elif (weight := other.least[other.classes.syndrome(g)]) > \
                    table.least[s]:
                failing[s], reasons[s] = weight, "match-heavier"
        if failing:
            counterexamples += [Counterexample(side, f, w, reasons[s])
                                for f, w, s, _ in table.faults_below(failing)]
    counterexamples.sort(key=lambda c: (c.weight, c.fault.sort_key(), c.side))
    checked = sum(t.checked for t in tables.values())
    return Verdict(not counterexamples, counterexamples, checked)


def circuit_distance(d: ZxDiagram, m: NoiseModel, cap: int):
    """Minimum weight of an undetectable fault that changes the diagram,
    ABOVE_CAP if none of weight <= cap exists.  On D != 0 those are the
    faults with a nonzero web syndrome, so the distance is the least weight
    of a nonzero undetectable class, the first that the breadth-first
    search of the classes reaches; on D = 0, which the zero rule
    (:attr:`~zxfault.webs.FaultClasses.alive`) reads from the webs, every
    fault is trivial."""
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    classes = FaultClasses(d)
    if classes.alive:
        return ABOVE_CAP
    for s, w, _, undetectable in classes.search(m, cap):
        if undetectable and s:
            return w
    return ABOVE_CAP
