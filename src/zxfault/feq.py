"""Fault triviality, fault correspondence search, w-fault-equivalence
verdicts and circuit distance.

Two noisy diagrams are w-fault-equivalent when every fault of weight below w
on either side is detectable there, or is matched by a fault of no greater
weight on the other side whose faulted diagram is equal (up to a global
magnitude and per-outcome phase, under the outcome correspondence).

Every match is a query on one engine, :class:`FaultTable`.  A table holds
one side's enumerated faults and the side's contraction, compiled once.  A
fault's class key is read from one replay of the contraction with the
fault's Paulis on the leaves, but only for the first fault of each web
syndrome (:func:`~zxfault.webs.syndrome`, the set of the diagram's Pauli
webs it anticommutes with): two faults with one syndrome differ by a Pauli
that commutes with every web, which pushes through the spiders and leaves
only a global scalar and per-outcome signs, and the key forgets both.  The
key reads the tensor through the outcome correspondence, so a side-a fault
can match a side-b one.  A lazy scan of each syndrome's first fault, in
nondecreasing weight order, records the first fault of each key.  The
check queries only undetectable faults, so when the noise-free diagrams are
nonzero and agree, its scans skip the other side's classes that no such fault
can match (:func:`_narrow_scans`): it replays only undetectable and
correspondence-visible classes.  The circuit distance concerns one diagram
and needs no key: a fault of a diagram D != 0 changes it exactly when its
web syndrome is nonzero.  Each fault's syndrome and detectability come from
one per-diagram pass, :class:`~zxfault.webs.FaultClasses`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .diagram import ZxDiagram, apply_fault
from .noise import ABOVE_CAP, NoiseModel, fault_weight
from .oracle import (DEFAULT_BUDGET, TOL, Contraction, OutcomeMap,
                     OutcomeTensor, equal_up_to_scalar, evaluate)
from .pauli import PauliString
from .webs import FaultClasses, anticommutes


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


def _branch_canons(t: OutcomeTensor) -> dict:
    """Per-assignment canonical branch bytes, normalised by the family's
    global max magnitude and each branch's leading phase; b"Z" marks a zero
    branch."""
    m = t.max_abs()
    out = {}
    for b in t.assignments():
        if m < TOL:
            out[b] = b"Z"
            continue
        sub = np.asarray(t.array[b]).ravel() / m
        mags = np.abs(sub)
        mx = mags.max() if sub.size else 0.0
        if mx <= TOL:
            out[b] = b"Z"
            continue
        idx = int(np.argmax(mags > 0.5 * mx))
        phase = sub[idx] / abs(sub[idx])
        # + 0.0 turns -0.0 into +0.0 so byte comparison is well defined
        out[b] = (np.round(sub / phase, 6) + 0.0).tobytes()
    return out


class ClassKeyError(Exception):
    """Class keys, the replayed contraction and the dense tensor oracle
    disagree.  Not a ValueError, so that no caller can mistake it for a
    negative verdict or a failed step."""


class FaultTable:
    """One diagram's faults up to a weight, in enumeration order
    (nondecreasing weight, lex within weight), as the
    (fault, weight, syndrome, undetectable) tuples of
    :meth:`~zxfault.webs.FaultClasses.of`, each with a class key.

    Faults are in one class exactly when their keys are equal.  A key is
    the 32-byte digest of ``key`` applied to one replay of the diagram's
    compiled :class:`~zxfault.oracle.Contraction`, made only for the first
    fault of each web syndrome; later faults with that syndrome take its
    key, so ``replays`` is one per syndrome plus the guard's.  Two checks
    guard this: the first non-empty replay is compared with a dense
    contraction, and the first other fault of a known syndrome is replayed
    and must give the same key.  No tensor is kept.  The map from each key
    to its first fault is filled by a scan of each syndrome's first fault
    that goes only as far as a query needs; :meth:`narrow` leaves out of
    that scan the faults that no query can match."""

    def __init__(self, contraction: Contraction, noise: NoiseModel,
                 max_weight: int, key):
        self.contraction = contraction
        self.diagram = contraction.diagram
        self.classes = FaultClasses(self.diagram)
        self.faults = list(self.classes.of(noise, max_weight))
        self.weight = {f: w for f, w, _, _ in self.faults}
        self._syndrome = {f: s for f, _, s, _ in self.faults}
        firsts: dict[int, PauliString] = {}
        for f, _, s, _ in self.faults:
            firsts.setdefault(s, f)
        self._firsts = list(firsts.values())
        self.replays = 0
        self._key_of_tensor = key
        self._first: dict[bytes, PauliString] = {}
        self._scanned = 0
        self._by_syndrome: dict[int, tuple[PauliString, bytes]] = {}
        self._replay_checked = False
        self._syndrome_checked = False

    def _replay(self, f: PauliString) -> OutcomeTensor:
        self.replays += 1
        return self.contraction.evaluate(f)

    def _digest(self, t: OutcomeTensor) -> bytes:
        return hashlib.blake2b(self._key_of_tensor(t), digest_size=32).digest()

    def noise_free(self) -> OutcomeTensor:
        """The noise-free tensor, not kept; its key is syndrome 0's."""
        t = self._replay(PauliString())
        self._by_syndrome.setdefault(0, (PauliString(), self._digest(t)))
        return t

    def _replayed_key(self, f: PauliString) -> bytes:
        t = self._replay(f)
        if f and not self._replay_checked:
            self._replay_checked = True
            dense = evaluate(apply_fault(self.diagram, f),
                             self.contraction.budget)
            if not equal_up_to_scalar(dense, t):
                raise ClassKeyError(
                    f"replayed contraction and dense oracle disagree on"
                    f" fault {f.to_text()}")
        return self._digest(t)

    def key(self, f: PauliString) -> bytes:
        if f not in self._syndrome:  # not one of the table's faults
            return self._replayed_key(f)
        s = self._syndrome[f]
        if s not in self._by_syndrome:
            self._by_syndrome[s] = (f, self._replayed_key(f))
        g, k = self._by_syndrome[s]
        if g != f and not self._syndrome_checked:
            self._syndrome_checked = True
            if self._replayed_key(f) != k:
                raise ClassKeyError(
                    f"fault {f.to_text()} has a known web syndrome but"
                    f" a different class key")
        return k

    def narrow(self, skip) -> None:
        """Leave out of the scan each syndrome's first fault ``g`` with
        ``skip(g)``: the caller's proof that no query it makes has ``g``'s
        key.  Called before the first query, so that no skipped fault is
        already recorded as the first of its key."""
        self._firsts = [g for g in self._firsts if not skip(g)]

    def first(self, key: bytes, max_weight: int) -> PauliString | None:
        """The first enumerated fault with this key, or None if no fault of
        weight <= max_weight has it."""
        while key not in self._first and self._scanned < len(self._firsts):
            g = self._firsts[self._scanned]
            if self.weight[g] > max_weight:
                break
            self._scanned += 1
            self._first.setdefault(self.key(g), g)
        g = self._first.get(key)
        return g if g is not None and self.weight[g] <= max_weight else None


def _assignments(variables: list) -> list:
    return list(itertools.product((0, 1), repeat=len(variables)))


def _read(canon: dict, sources: list) -> bytes:
    """One target assignment's part of a key: the nonzero source branches
    mapping onto it must agree; none at all reads as zero."""
    cs = sorted({canon[a] for a in sources} - {b"Z"})
    return cs[0] if len(cs) == 1 else b",".join(cs) or b"Z"


def _class_key(b_assigns: list, preimage: dict):
    """Key of a tensor read through a preimage map (target assignment ->
    source assignments)."""
    def key(t: OutcomeTensor) -> bytes:
        canon = _branch_canons(t)
        return b"|".join(_read(canon, preimage[y]) for y in b_assigns)
    return key


def fault_tables(spec: EquivalenceSpec, max_weight: int) -> dict:
    """Both sides' fault tables, keyed so that a side-a and a side-b fault
    share a key exactly when their faulted diagrams are equal under the
    correspondence.  The side-a key folds the correspondence in."""
    da, db = spec.side_a.diagram, spec.side_b.diagram
    if (len(da.inputs), len(da.outputs)) != (len(db.inputs), len(db.outputs)):
        raise ValueError("incompatible boundary shapes")
    corr = spec.corr()
    if corr.source_vars != da.variables or corr.target_vars != db.variables:
        raise ValueError("correspondence registries do not match the sides")
    b_assigns = _assignments(db.variables)
    preimage = {y: [] for y in b_assigns}
    for a in _assignments(da.variables):
        preimage[corr(a)].append(a)
    identity = {y: [y] for y in b_assigns}
    return {"a": FaultTable(Contraction(da, spec.budget), spec.side_a.noise,
                            max_weight, _class_key(b_assigns, preimage)),
            "b": FaultTable(Contraction(db, spec.budget), spec.side_b.noise,
                            max_weight, _class_key(b_assigns, identity))}


def find_equivalent_fault(spec: EquivalenceSpec, side: str, f: PauliString,
                          tables: dict | None = None,
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
    if tables is None:
        tables = fault_tables(spec, max_weight)
    return tables["b" if side == "a" else "a"].first(tables[side].key(f),
                                                    max_weight)


def _visibly_detected(regions: list, corr: OutcomeMap):
    """Predicate on side-a faults: some detecting region of side a (a sum
    of the basis ``regions``) anticommutes with the fault and has its
    detecting set in the GF(2) span of the correspondence's linear rows, so
    that its parity is an affine function of the side-b outcomes.  Those
    regions are a subspace: the sums of basis regions whose detecting sets
    sum to 0 modulo the rows."""
    column = {v: i for i, v in enumerate(corr.source_vars)}

    def row(variables) -> int:
        return sum(1 << column[v] for v in variables)

    pivots = gf2.echelon(row(vs) for vs, _ in corr.rows.values())
    rest = [gf2.reduce(pivots, row(r.detecting_set)) for r in regions]
    # equation j: the chosen regions' reduced sets cancel at variable j
    equations = [sum((r >> j & 1) << i for i, r in enumerate(rest))
                 for j in range(len(column))]
    visible = gf2.nullspace(equations, len(regions))

    def detected(f: PauliString) -> bool:
        flips = sum(anticommutes(r.web, f) << i for i, r in enumerate(regions))
        return any((flips & v).bit_count() % 2 for v in visible)
    return detected


def _narrow_scans(tables: dict, corr: OutcomeMap) -> None:
    """Leave out of each table's scan the classes that no undetectable
    fault of the other side can match, given that the noise-free diagrams
    are nonzero and D_a ~ D_b under the correspondence.

    Side-a queries scan table b and skip every class that side b detects.
    Side-b queries scan table a and skip a class that side a detects only
    when a region that the correspondence can see detects it.  Proof
    sketch: let g be a skipped fault, R a region (Bombin et al., arXiv
    2303.08829) of g's diagram D that detects it, S its detecting set and p
    its expected parity; f is an undetectable fault of the other diagram
    D'.

    * Every nonzero branch of D has S = p, and every nonzero branch of D^g
      has S != p, because g flips R's parity.
    * Read on side b's outcomes, S = p is a condition on them: for side b
      directly, for side a because S is a sum of correspondence rows.  So
      the nonzero branches of D', which match D's, satisfy it.
    * A parity that is constant on D''s nonzero branches is the parity of
      one of D''s regions, and f flips none of them, so D'^f satisfies the
      condition too.  D'^f != 0, because D' != 0 and no region detects f.
    * So D'^f and D^g have no nonzero branch in common on side b's
      outcomes, and their keys differ.

    Without D_a ~ D_b the rule is wrong: two_zz_measurements against itself
    under k1 = k1^1 matches side a's undetectable faults with side b's
    k1-flips, which side b detects.  A side-a region that the
    correspondence cannot see (a many-to-one map, a flag outcome)
    constrains only side a, so the classes it alone detects stay in the
    scan."""
    b = tables["b"]
    detected = {s for _, _, s, undetectable in b.faults if not undetectable}
    b.narrow(lambda g: b._syndrome[g] in detected)
    tables["a"].narrow(_visibly_detected(tables["a"].classes.regions, corr))


def check_w_fault_equivalence(spec: EquivalenceSpec) -> Verdict:
    if spec.w < 1:
        raise ValueError(f"w must be at least 1, got {spec.w}")
    tables = fault_tables(spec, spec.w - 1)
    # the keys must say what the oracle says about the noise-free diagrams
    t_a, t_b = tables["a"].noise_free(), tables["b"].noise_free()
    same = tables["a"].key(PauliString()) == tables["b"].key(PauliString())
    if same != equal_up_to_scalar(t_b, t_a, spec.corr()):
        raise ClassKeyError("class keys and the tensor oracle disagree on the"
                            " noise-free diagrams")
    if same and t_b.max_abs() >= TOL:  # the skip rule's premises
        _narrow_scans(tables, spec.corr())
    del t_a, t_b  # no tensor is kept while the tables are scanned
    counterexamples = []
    for side in ("a", "b"):
        other = tables["b" if side == "a" else "a"]
        for f, w, _, undetectable in tables[side].faults:
            if not undetectable:
                continue
            g = find_equivalent_fault(spec, side, f, tables, spec.w - 1)
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
