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
stabilisers name the side-b class it equals.  That read-out is an affine
map M of side-a syndromes.  It is read once, on side a's reference, and
solved from there by GF(2) algebra, with no tensor: by the push-out, every
side-a class is the reference under a boundary Pauli and outcome flips,
whose side-a syndromes and whose signs against the side-b stabilisers are
bit rows (:func:`_pushout_rows`).  Three guards check M against the dense
oracle, with one side-a replay per check; a replay is the contraction of
the faulted diagram, ``evaluate(apply_fault(d, f))``.  Each read costs one
pass over the tensor plus its support: the stabilisers are bit masks on
its flat index (:func:`_stabilisers`), and only the entries that can
exceed the tolerance are compared (:func:`_eigenvalues`).  Whether a
class makes the diagram zero is read from its syndrome too, by the zero
rule: its :meth:`~zxfault.webs.FaultClasses.pattern`, the parities of
the constant web sums it flips, against
:attr:`~zxfault.webs.FaultClasses.alive`; a zero class matches only zero
classes.  The circuit distance concerns one diagram and needs no map
and no tensor: a fault of a diagram D != 0 changes it exactly when its web
syndrome is nonzero.

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

import numpy as np

from . import gf2
from .diagram import ZxDiagram, apply_fault
from .noise import ABOVE_CAP, NoiseModel, fault_weight
from .oracle import (DEFAULT_BUDGET, TOL, OutcomeMap, OutcomeTensor,
                     equal_up_to_scalar, evaluate, port_masks, ports)
from .pauli import PauliString
from .webs import ClassTable, FaultClasses, flipped_by


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


def _stabilisers(d: ZxDiagram, web_list: list, *maps: OutcomeMap) -> list:
    """For each outcome map, each web's stabiliser of ``d`` read through it,
    on the flat index of a tensor of the map's source registry, and the
    map's :meth:`~zxfault.oracle.OutcomeMap.images`.  A stabiliser is
    (x, z, o, c): its Paulis on the ports (:func:`~zxfault.oracle.port_masks`)
    and the sign mask of the outcomes it flips; it sends entry j to
    (-1)^(|((j ^ x) & z) ^ (j >> P & o)| + c) times entry j ^ x, where P is
    the number of ports."""
    legs = port_masks(d, [w.pauli for w in web_list])
    flips = [flipped_by(d, w) for w in web_list]
    return [([(*xz, *m.sign_mask(f)) for xz, f in zip(legs, flips)],
             m.images()) for m in maps]


def _eigenvalues(t: OutcomeTensor, webs: list, images: np.ndarray):
    """The eigenvalue of ``t`` under each of the :func:`_stabilisers`
    ``webs``, and the number of target assignments that t's nonzero
    branches cover under ``images``; None if t is zero or not an
    eigenvector of one, at ``TOL`` times t's max magnitude m.

    Only t's support is read: K, the entries above TOL*m/3, and their
    images K ^ x.  That is exact, because elsewhere both entries that
    S t/lambda - t subtracts are at most TOL*m/3, and |lambda| >= 1 - TOL,
    so the difference is below TOL*m there."""
    flat = t.array.reshape(-1)
    mags = np.abs(flat)
    i = int(np.argmax(mags))
    m = mags[i]
    if m < TOL:
        return None
    ports = t.n_in + t.n_out
    width = flat.size.bit_length() - 1
    support = np.flatnonzero(mags > TOL * m / 3)
    out = []
    for x, z, o, c in webs:
        o <<= ports
        sign = -1.0 if ((i ^ x) & z ^ i & o).bit_count() + c & 1 else 1.0
        lam = flat[i ^ x] * sign / flat[i]
        if abs(abs(lam) - 1) > TOL:  # a stabiliser is unitary
            return None
        j = np.concatenate([support, support ^ x])
        u = flat[j ^ x]
        u *= 1 - 2 * (gf2.parity((j ^ x) & z ^ j & o, width) ^ c)
        u /= lam
        u -= flat[j]
        if np.max(np.abs(u)) > TOL * m:
            return None
        out.append(lam)
    covered = images[np.flatnonzero(mags > TOL * m) >> ports]
    return out, int(np.count_nonzero(np.bincount(covered)))


def _read_out(own: tuple, through: tuple, base: OutcomeTensor,
              base_syndrome: int):
    """The side-b web syndrome of a side-a tensor read through the
    correspondence: ``base_syndrome``, that of the nonzero side-b tensor
    ``base``, with bit i flipped where the tensor's eigenvalue under web
    i's stabiliser is minus base's.  None if an eigenvalue is neither, or if
    the nonzero branches cover another number of side-b assignments than
    base's, a count no fault changes and the signs cannot see.  ``own`` and
    ``through`` are side b's :func:`_stabilisers` read through the identity
    and through the correspondence."""
    first = _eigenvalues(base, *own)
    if first is None:
        raise ClassKeyError("a Pauli web of side b does not stabilise its"
                            " reference diagram")
    sigma, size = first

    def read(t: OutcomeTensor) -> int | None:
        got = _eigenvalues(t, *through)
        if got is None or got[1] != size:
            return None
        s = base_syndrome
        for i, (l, m) in enumerate(zip(got[0], sigma)):
            if abs(l / m + 1) <= TOL:
                s ^= 1 << i
            elif abs(l / m - 1) > TOL:
                return None
        return s
    return read


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

    Each side's reference is its first nonzero class by the zero rule, the
    first whose :meth:`~zxfault.webs.FaultClasses.pattern` is ``alive``:
    the empty fault when D != 0, else one replay, which must be nonzero.
    Zero classes, of another pattern, match only zero classes.  M(origin),
    the offset, is the :func:`_read_out` of side a's reference (the
    origin) against side b's.  Every other nonzero class is the origin
    under a boundary Pauli and outcome flips (the push-out), so M is solved
    without a tensor: echelon the :func:`_pushout_rows`, and M(s) is the
    offset XOR the side-b flips of the generators that sum to s XOR origin.
    A class the generators cannot reach, or a kernel row that gives one
    syndrome two images, is a :class:`ClassKeyError`.  Guards: the offset
    is 0 exactly when the oracle calls the nonzero noise-free diagrams
    equal, and any other match of it is confirmed; one nonzero side-a
    class other than the origin (:meth:`_guard`) is replayed and read, its
    read must be M's prediction, and the side-b class predicted, if any,
    must equal it under the oracle."""

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
        t_a, t_b = (self.replay(side, PauliString()) for side in "ab")
        ref_a, ref_b = self._reference("a", t_a), self._reference("b", t_b)
        self.offset = None  # M(origin), None when no nonzero class matches
        if ref_a and ref_b:
            own, through = _stabilisers(db, b.classes.webs,
                                        OutcomeMap.identity(db.variables),
                                        corr)
            self._read = _read_out(own, through, ref_b[1],
                                   b.classes.syndrome(ref_b[0]))
            self._origin = a.classes.syndrome(ref_a[0])
            self.offset = self._read(ref_a[1])
        zero_a, zero_b = bool(a.classes.alive), bool(b.classes.alive)
        same = zero_a and zero_b if zero_a or zero_b else self.offset == 0
        if same != equal_up_to_scalar(t_b, t_a, corr):
            raise ClassKeyError("web syndromes and the tensor oracle disagree"
                                " on the noise-free diagrams")
        del t_a, t_b  # at most two tensors are kept while the oracle compares
        if self.offset is not None:
            self._pivots = gf2.echelon(_pushout_rows(da, a.classes,
                                                     through[0]))
            if max(self._pivots, default=-1) >= len(a.classes.webs):
                raise ClassKeyError("the push-out gives one side-a web"
                                    " syndrome two side-b images")
        self.keys = {"a": {}, "b": {}}  # syndrome -> class key
        self._first = {"a": {}, "b": {}}  # class key -> its first class
        self._index("b")
        g = None if self.offset is None else self._first_fault("b", self.offset)
        if g and not equal_up_to_scalar(self.replay("b", g), ref_a[1], corr):
            raise ClassKeyError(
                f"side a's reference (fault '{ref_a[0].to_text()}') reads as"
                f" side-b fault {g.to_text()}, which the oracle refutes")
        del ref_a, ref_b
        self._index("a")
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

    def _first_fault(self, side: str, k: int) -> PauliString | None:
        """The first fault of the first class of key ``k`` on one side."""
        s = self._first[side].get(k)
        return None if s is None else self.tables[side].firsts[s]

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

    def _reference(self, side: str, t: OutcomeTensor):
        """(fault, tensor) of the side's first nonzero class by the zero
        rule, the first whose pattern is ``alive``, given its noise-free
        tensor ``t``; None if there is none.  Its replay, ``t`` when D != 0,
        is the only one, and with ``t`` it guards the rule."""
        table, classes = self.tables[side], self.tables[side].classes
        f = next((f for s, f in table.firsts.items()
                  if classes.pattern(s) == classes.alive), None)
        ref = None if f is None else (f, self.replay(side, f) if f else t)
        if (t.max_abs() < TOL) != bool(classes.alive) or \
                ref and ref[1].max_abs() < TOL:
            raise ClassKeyError(f"the zero rule and the tensor oracle"
                                f" disagree on side {side}'s diagram")
        return ref

    def pushout(self, s: int) -> int | None:
        """M(s) of a nonzero side-a class from the push-out generators;
        None when they cannot reach s."""
        n = len(self.tables["a"].classes.webs)
        v = gf2.reduce(self._pivots, s ^ self._origin)
        return None if v & ((1 << n) - 1) else (v >> n) ^ self.offset

    def _guard(self, corr: OutcomeMap) -> None:
        """Replay one nonzero side-a class other than the origin and check
        M's prediction for it: its read must be the prediction, and the
        side-b class predicted, if any, must equal it under the oracle.  The
        class is the first in scan order whose prediction has a side-b
        class, else the first."""
        keys = self.keys["a"]
        live = [(s, f) for s, f in self.tables["a"].firsts.items()
                if keys[s] not in (None, -1) and s != self._origin]
        guard = next(((s, f) for s, f in live if keys[s] in self._first["b"]),
                     next(iter(live), None))
        if guard is None:
            return
        s, f = guard
        t = self.replay("a", f)
        r = self._read(t)
        if r is None:
            raise ClassKeyError(f"side-a fault {f.to_text()} of a nonzero"
                                f" class reads no definite side-b syndrome")
        if r != keys[s]:
            raise ClassKeyError(
                f"side-a fault {f.to_text()} reads as side-b syndrome {r},"
                f" not the push-out's prediction {keys[s]}")
        g = self._first_fault("b", r)
        if g is not None and not equal_up_to_scalar(
                self.replay("b", g), t, corr):
            raise ClassKeyError(
                f"side-a fault {f.to_text()} is predicted to match side-b"
                f" fault {g.to_text()}, which the oracle refutes")

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
