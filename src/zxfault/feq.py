"""Fault triviality, fault correspondence search, w-fault-equivalence
verdicts and circuit distance.

Two noisy diagrams are w-fault-equivalent when every fault of weight below w
on either side is detectable there, or is matched by a fault of no greater
weight on the other side whose faulted diagram is equal (up to a global
magnitude and per-outcome phase, under the outcome correspondence).

Every match is a lookup in one engine, :class:`SyndromeMap`, on the web
syndromes (:meth:`~zxfault.webs.FaultClasses.syndrome`, the set of a
diagram's Pauli webs a fault anticommutes with) in the two sides'
:class:`FaultTable`.
On a diagram D != 0, two faults give equal diagrams up to a global scalar
and per-outcome signs exactly when their syndromes are equal.  Across the
sides, each side-b web is a stabiliser of D_b, so the signs with which a
side-a replay, read through the correspondence, is an eigenvector of those
stabilisers name the side-b class it equals.  That read-out is an affine
map M of side-a syndromes, fixed by one replay per side-a syndrome outside
the span of those already read, and checked against the dense oracle by
three guards.  Each read costs one pass over the replay plus its support:
the stabilisers are bit masks on its flat index (:func:`_stabilisers`),
and only the entries that can exceed the tolerance are compared
(:func:`_eigenvalues`).  A class that makes the diagram zero matches only
such classes.  The circuit distance concerns one diagram and needs no map:
a fault of a diagram D != 0 changes it exactly when its web syndrome is
nonzero.  Each fault's syndrome and detectability come from one
per-diagram pass, :class:`~zxfault.webs.FaultClasses`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .diagram import ZxDiagram, apply_fault
from .noise import ABOVE_CAP, NoiseModel, fault_weight
from .oracle import (DEFAULT_BUDGET, TOL, Contraction, OutcomeMap,
                     OutcomeTensor, equal_up_to_scalar, evaluate, port_masks)
from .pauli import PauliString
from .webs import FaultClasses, flipped_by


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


def is_trivial(d: ZxDiagram, f: PauliString, base: OutcomeTensor | None = None,
               budget: int = DEFAULT_BUDGET) -> bool:
    """True iff applying the fault leaves the diagram's tensor family
    unchanged up to one global scalar (identity correspondence)."""
    if base is None:
        base = evaluate(d, budget)
    return equal_up_to_scalar(base, evaluate(apply_fault(d, f), budget))


class ClassKeyError(Exception):
    """The web-syndrome map and the dense tensor oracle disagree.  Not a
    ValueError, so that no caller can mistake it for a negative verdict or a
    failed step."""


def _constant_regions(d: ZxDiagram, regions: list) -> list[PauliString]:
    """The Paulis of a basis of the detecting regions whose detecting sets
    are empty: the sums of basis ``regions`` whose detecting sets cancel.
    A leg-less Pauli spider is a region too, with no Pauli and its outcome
    variables as detecting set, which the basis leaves out."""
    column = {v: i for i, v in enumerate(d.variables)}
    inc = d.incidence()
    webs = [(r.web.pauli, r.detecting_set) for r in regions] + [
        (PauliString(), s.phase.pivars) for sid, s in d.spiders.items()
        if not inc[sid] and s.phase.is_pauli()]
    sets = [sum(1 << column[v] for v in vs) for _, vs in webs]
    # equation j: the chosen regions' detecting sets cancel at variable j
    equations = [sum((s >> j & 1) << i for i, s in enumerate(sets))
                 for j in range(len(column))]
    out = []
    for v in gf2.nullspace(equations, len(webs)):
        p = PauliString()
        for i, (pauli, _) in enumerate(webs):
            if v >> i & 1:
                p = p * pauli
        out.append(p)
    return out


class FaultTable:
    """One diagram's faults up to a weight in enumeration order (weight,
    then lex), as :meth:`~zxfault.webs.FaultClasses.of` yields them, the
    first fault of each web syndrome, and the diagram's compiled
    :class:`~zxfault.oracle.Contraction`, whose replays are counted."""

    def __init__(self, contraction: Contraction, noise: NoiseModel,
                 max_weight: int):
        self.contraction = contraction
        self.diagram = contraction.diagram
        self.classes = FaultClasses(self.diagram)
        self.faults = list(self.classes.of(noise, max_weight))
        self.weight = {f: w for f, w, _, _ in self.faults}
        self.firsts: dict[int, PauliString] = {}  # syndrome -> first fault
        for f, _, s, _ in self.faults:
            self.firsts.setdefault(s, f)
        self._constant = _constant_regions(self.diagram, self.classes.regions)
        self.replays = 0

    def pattern(self, f: PauliString) -> int:
        """Bit i: the fault flips the i-th region whose detecting set is
        empty.  Such a region fixes the sign of the whole diagram, so the
        faults that leave the diagram nonzero share one pattern."""
        return sum((not p.commutes(f)) << i
                   for i, p in enumerate(self._constant))

    def replay(self, f: PauliString) -> OutcomeTensor:
        self.replays += 1
        return self.contraction.evaluate(f)


def _stabilisers(d: ZxDiagram, web_list: list, *maps: OutcomeMap) -> list:
    """For each outcome map, each web's stabiliser of ``d`` read through it,
    on the flat index of a tensor of the map's source registry, and the
    map's :meth:`~zxfault.oracle.OutcomeMap.images`.  A stabiliser is
    (x, z, o, c): its Paulis on the ports (:func:`~zxfault.oracle.port_masks`)
    and the sign mask of the outcomes it flips; it sends entry j to
    (-1)^(|((j ^ x) & z) ^ (j >> P & o)| + c) times entry j ^ x, where P is
    the number of ports."""
    ports = port_masks(d, [w.pauli for w in web_list])
    flips = [flipped_by(d, w) for w in web_list]
    return [([(*xz, *m.sign_mask(f)) for xz, f in zip(ports, flips)],
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


def _read_out(d: ZxDiagram, web_list: list, base: OutcomeTensor,
              corr: OutcomeMap, base_syndrome: int):
    """The side-b web syndrome of a side-a tensor read through the
    correspondence: ``base_syndrome``, that of the nonzero side-b tensor
    ``base``, with bit i flipped where the tensor's eigenvalue under web
    i's stabiliser is minus base's.  None if an eigenvalue is neither, or if
    the nonzero branches cover another number of side-b assignments than
    base's, a count no fault changes and the signs cannot see."""
    own, read_through = _stabilisers(d, web_list,
                                     OutcomeMap.identity(d.variables), corr)
    first = _eigenvalues(base, *own)
    if first is None:
        raise ClassKeyError("a Pauli web of side b does not stabilise its"
                            " reference diagram")
    sigma, size = first

    def read(t: OutcomeTensor) -> int | None:
        got = _eigenvalues(t, *read_through)
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


class SyndromeMap:
    """Both sides' fault tables and the affine map M from side-a web
    syndromes to side-b ones under which classes match.

    Each side's reference is its first nonzero class: the empty fault when
    D != 0, else one replay per :meth:`FaultTable.pattern` finds it.  Zero
    classes, of another pattern, match only zero classes.  M(s) is the
    :func:`_read_out` of a replay of class s against side b's reference;
    side a's classes are read in scan order, skipping each whose difference
    from side a's reference (read as the offset) is in the GF(2) span of
    those read.  Guards: the offset is 0 exactly when the oracle calls the
    nonzero noise-free diagrams equal, and any other match of it is
    confirmed; the first non-empty side-a replay is compared with a dense
    contraction; the first match M predicts is replayed on both sides."""

    def __init__(self, spec: EquivalenceSpec, max_weight: int):
        da, db = spec.side_a.diagram, spec.side_b.diagram
        if (len(da.inputs), len(da.outputs)) != \
                (len(db.inputs), len(db.outputs)):
            raise ValueError("incompatible boundary shapes")
        corr = spec.corr()
        if corr.source_vars != da.variables or corr.target_vars != db.variables:
            raise ValueError("correspondence registries do not match the"
                             " sides")
        self.tables = {side: FaultTable(Contraction(x.diagram, spec.budget),
                                        x.noise, max_weight)
                       for side, x in (("a", spec.side_a), ("b", spec.side_b))}
        a, b = self.tables.values()
        self._dense_checked = False
        t_a, t_b = a.replay(PauliString()), b.replay(PauliString())
        ref_a, ref_b = self._reference("a", t_a), self._reference("b", t_b)
        self.offset = None  # M(origin), None when no nonzero class matches
        if ref_a and ref_b:
            self._read = _read_out(db, b.classes.webs, ref_b[1], corr,
                                   b.classes.syndrome(ref_b[0]))
            self._origin = a.classes.syndrome(ref_a[0])
            self.offset = self._read(ref_a[1])
        zero_a, zero_b = t_a.max_abs() < TOL, t_b.max_abs() < TOL
        same = zero_a and zero_b if zero_a or zero_b else self.offset == 0
        if same != equal_up_to_scalar(t_b, t_a, corr):
            raise ClassKeyError("web syndromes and the tensor oracle disagree"
                                " on the noise-free diagrams")
        del t_a, t_b  # at most two tensors are kept while the oracle compares
        self._alive = {side: ref and self.tables[side].pattern(ref[0])
                       for side, ref in (("a", ref_a), ("b", ref_b))}
        # rows (s ^ origin) | (M(s) ^ offset) << |webs_a|
        self._pivots: dict[int, int] = {}
        self._first = {"a": {}, "b": {}}  # class key -> first fault
        for f in b.firsts.values():
            self._first["b"].setdefault(self._key("b", f), f)
        g = None if self.offset is None else self._first["b"].get(self.offset)
        if g and not equal_up_to_scalar(b.replay(g), ref_a[1], corr):
            raise ClassKeyError(
                f"side a's reference (fault '{ref_a[0].to_text()}') reads as"
                f" side-b fault {g.to_text()}, which the oracle refutes")
        del ref_a, ref_b
        guard = None  # the first class whose match M predicts, not reads
        for s, f in a.firsts.items():
            replays = a.replays
            k = self._key("a", f)
            self._first["a"].setdefault(k, f)
            if guard is None and a.replays == replays and k is not None \
                    and k >= 0 and s != self._origin and k in self._first["b"]:
                guard = f, self._first["b"][k]
        if guard and not equal_up_to_scalar(b.replay(guard[1]),
                                            self._replay(guard[0]), corr):
            raise ClassKeyError(
                f"side-a fault {guard[0].to_text()} is predicted to match"
                f" side-b fault {guard[1].to_text()}, which the oracle"
                f" refutes")

    def _key(self, side: str, f: PauliString) -> int | None:
        """The key that two matching classes share: -1 for a zero class,
        else M(s) for a side-a class of syndrome s and s for a side-b one;
        None when no nonzero class matches."""
        alive = self._alive[side]
        if alive is None or self.tables[side].pattern(f) != alive:
            return -1
        if self.offset is None:
            return None
        s = self.tables[side].classes.syndrome(f)
        return self._image(f, s) if side == "a" else s

    def _reference(self, side: str, t: OutcomeTensor):
        """(fault, tensor) of the side's first nonzero class, given its
        noise-free tensor ``t``; None if every class is zero."""
        table = self.tables[side]
        if t.max_abs() >= TOL:
            return PauliString(), t
        tried = {0}
        for f in table.firsts.values():
            if table.pattern(f) not in tried:
                tried.add(table.pattern(f))
                t = self._replay(f) if side == "a" else table.replay(f)
                if t.max_abs() >= TOL:
                    return f, t
        return None

    def _replay(self, f: PauliString) -> OutcomeTensor:
        """A side-a replay; the first is compared with a dense contraction."""
        table = self.tables["a"]
        t = table.replay(f)
        if not self._dense_checked:
            self._dense_checked = True
            dense = evaluate(apply_fault(table.diagram, f),
                             table.contraction.budget)
            if not equal_up_to_scalar(dense, t):
                raise ClassKeyError(
                    f"replayed contraction and dense oracle disagree on"
                    f" fault {f.to_text()}")
        return t

    def _image(self, f: PauliString, s: int) -> int:
        """M(s), read from a replay of ``f`` when s is outside the span of
        the classes read so far."""
        n = len(self.tables["a"].classes.webs)
        v = gf2.reduce(self._pivots, s ^ self._origin)
        if not v & ((1 << n) - 1):
            return (v >> n) ^ self.offset
        r = self._read(self._replay(f))
        if r is None:
            raise ClassKeyError(f"side-a fault {f.to_text()} of a nonzero"
                                f" class reads no definite side-b syndrome")
        row = (s ^ self._origin) | (r ^ self.offset) << n
        self._pivots = gf2.echelon([*self._pivots.values(), row])
        return r

    def match(self, side: str, f: PauliString,
              max_weight: int) -> PauliString | None:
        """The first fault of the other side whose class matches ``f``'s,
        if its weight is at most ``max_weight``."""
        other = "b" if side == "a" else "a"
        k = self._key(side, f)
        g = None if k is None else self._first[other].get(k)
        if g is None or self.tables[other].weight[g] > max_weight:
            return None
        return g


def find_equivalent_fault(spec: EquivalenceSpec, side: str, f: PauliString,
                          syndrome_map: SyndromeMap | None = None,
                          max_weight: int | None = None):
    """First fault on the other side, in nondecreasing weight then lex order,
    whose faulted diagram equals the faulted source diagram under the
    correspondence; None if none exists up to ``max_weight``, which defaults
    to the weight of ``f`` in its side's noise model."""
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
    if spec.w < 1:
        raise ValueError(f"w must be at least 1, got {spec.w}")
    syndrome_map = SyndromeMap(spec, spec.w - 1)
    tables = syndrome_map.tables
    counterexamples = []
    for side in ("a", "b"):
        other = tables["b" if side == "a" else "a"]
        for f, w, _, undetectable in tables[side].faults:
            if not undetectable:
                continue
            g = find_equivalent_fault(spec, side, f, syndrome_map, spec.w - 1)
            if g is not None and other.weight[g] <= w:
                continue
            reason = "match-heavier" if g is not None else "no-match-found"
            counterexamples.append(Counterexample(side, f, w, reason))
    counterexamples.sort(key=lambda c: (c.weight, c.fault.sort_key(), c.side))
    checked = sum(len(t.faults) for t in tables.values())
    return Verdict(not counterexamples, counterexamples, checked)


def circuit_distance(d: ZxDiagram, m: NoiseModel, cap: int,
                     budget: int = DEFAULT_BUDGET):
    """Minimum weight of an undetectable fault that changes the diagram,
    ABOVE_CAP if none of weight <= cap exists.  On D != 0 those are the
    faults with a nonzero web syndrome, and the dense oracle confirms the
    first one; on D = 0 every fault is trivial."""
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    base = evaluate(d, budget)
    if base.max_abs() < TOL:
        return ABOVE_CAP
    for f, w, s, undetectable in FaultClasses(d).of(m, cap):
        if undetectable and s:
            if is_trivial(d, f, base, budget):
                raise ClassKeyError(
                    f"fault {f.to_text()} has a nonzero web syndrome but"
                    f" leaves the diagram unchanged")
            return w
    return ABOVE_CAP
