"""Pauli webs, detecting regions, signs and per-diagram fault classes.

Each diagram's web facts belong to one :class:`FaultClasses`: one solve of
its web system and one of its bare-boundary web sums.

A fault's class is its web syndrome, the set of basis webs it anticommutes
with, which is linear in the fault.  :class:`ClassTable` holds, per class
up to a weight, the least weight, a least-weight fault and the detection
flag, from one breadth-first search over the distinct atom syndromes
(:func:`~zxfault.gf2.layers`), and the number of faults, counted in closed
form (:func:`~zxfault.noise.count_faults`).  Faults themselves are walked
only to list those of chosen classes (:meth:`ClassTable.faults_below`), by
the same search over packed faults
(:func:`~zxfault.noise.enumerate_faults`).

A web assigns each edge a highlight in {none, green, red, both}; highlights
are stored in the edge's a-side view and swap green<->red across a hadamard
edge.  The defining per-spider rules are encoded as one GF(2) linear system:

* variables: two bits (green, red) per edge plus one indicator bit per spider
  (the all-or-none choice for 0/pi spiders, the branch selector for +-pi/2);
* a 0/pi spider has an even number of own-colour legs, and its opposite-colour
  legs are all-or-none (tied to the indicator);
* a +-pi/2 spider has own-colour parity equal to the indicator and all its
  opposite-colour legs equal to the indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import gf2
from .diagram import ZxDiagram
from .noise import NoiseModel, count_faults, enumerate_faults
from .oracle import port_masks
from .pauli import Nibbles, PauliString

# Each highlight's (green, red) bits in the edge's a-side view, and the Pauli
# it puts on the edge: green is Z, red is X and both is Y.
_HIGHLIGHT = {None: ((0, 0), "I"), "green": ((1, 0), "Z"),
              "red": ((0, 1), "X"), "both": ((1, 1), "Y")}
_HIGHLIGHT_OF = {bits: h for h, (bits, _) in _HIGHLIGHT.items()}


@dataclass(frozen=True)
class PauliWeb:
    """highlight: edge-id -> one of "green", "red", "both" (absent = none),
    in the edge's a-side view; indicators: spider-id -> 0/1."""

    highlight: tuple  # sorted tuple of (edge_id, "green"|"red"|"both")
    indicators: tuple  # sorted tuple of (spider_id, bit)

    @property
    def edges(self) -> dict:
        return dict(self.highlight)

    @cached_property
    def pauli(self) -> PauliString:
        return PauliString({e: _HIGHLIGHT[h][1] for e, h in self.highlight})


@dataclass(frozen=True)
class DetectingRegion:
    web: PauliWeb
    detecting_set: frozenset
    expected_parity: int


def _leg_view(d: ZxDiagram, eid: int, ep: tuple, pair: tuple) -> tuple:
    """(own, opp): which of the edge's (green, red) pair is the colour of the
    spider at endpoint ``ep`` and which is the opposite colour.  The b end of
    a hadamard edge sees the two colours swapped."""
    e = d.edges[eid]
    green, red = pair[::-1] if e.had and ep == e.b else pair
    return (green, red) if d.spiders[ep[1]].colour == "Z" else (red, green)


def _build_system(d: ZxDiagram) -> tuple[list[int], int, dict, dict]:
    """Bit rows of the homogeneous GF(2) system, its number of variables and
    the variable index maps; edge ``eid``'s (green, red) bits are variables
    2i and 2i + 1, i its rank."""
    edge_order = {eid: i for i, eid in enumerate(sorted(d.edges))}
    spider_order = {sid: i for i, sid in enumerate(sorted(d.spiders))}
    rows: list[int] = []
    inc = d.incidence()
    for sid in sorted(d.spiders):
        ind = 1 << (2 * len(edge_order) + spider_order[sid])
        own_row = 0
        for eid, ep in inc[sid]:
            i = 2 * edge_order[eid]
            own_var, opp_var = _leg_view(d, eid, ep, (i, i + 1))
            own_row ^= 1 << own_var
            rows.append((1 << opp_var) ^ ind)  # opp bit == indicator, per leg
        if d.spiders[sid].phase.is_pauli():
            rows.append(own_row)  # even own-colour legs
        else:
            rows.append(own_row ^ ind)  # own parity == indicator
    return rows, 2 * len(edge_order) + len(spider_order), edge_order, spider_order


def _vector_to_web(v: int, edge_order: dict, spider_order: dict) -> PauliWeb:
    hl = []
    for eid, i in edge_order.items():
        h = _HIGHLIGHT_OF[(v >> 2 * i) & 1, (v >> 2 * i + 1) & 1]
        if h is not None:
            hl.append((eid, h))
    base = 2 * len(edge_order)
    ind = [(sid, (v >> base + j) & 1) for sid, j in spider_order.items()]
    return PauliWeb(tuple(sorted(hl)), tuple(sorted(ind)))


def web_basis(d: ZxDiagram) -> list[PauliWeb]:
    """A basis of the diagram's Pauli webs: every basis solution of the web
    system, as one :class:`FaultClasses` solves it."""
    return FaultClasses(d).webs


def local_sign(colour: str, qturns: int, both_legs: int) -> int:
    """Sign with which a fired web (all legs opposite-highlighted) stabilises
    a spider: (-1)^((k - y)/2) for a green spider and (-1)^((k + y)/2) for a
    red one, with k the effective quarter-turns and y the number of legs
    highlighted in both colours (conjugation by H flips the sign of Y, hence
    the colour asymmetry).  Derived from single-spider oracle runs."""
    diff = (qturns - both_legs) % 4 if colour == "Z" else (qturns + both_legs) % 4
    if diff % 2:
        raise ValueError("invalid web: qturns and both-colour legs must share parity")
    return -1 if diff == 2 else 1


def flipped_by(d: ZxDiagram, w: PauliWeb) -> frozenset:
    """The outcome variables whose flip toggles the web's sign: those read
    by an odd number of the spiders the web fires (web indicator 1)."""
    det: set = set()
    for sid, fired in w.indicators:
        if fired:
            det ^= set(d.spiders[sid].phase.pivars)
    return frozenset(det)


def sign_count(d: ZxDiagram, w: PauliWeb, inc: dict) -> int:
    """The spiders the web fires that it stabilises with sign -1 at the
    all-zero outcome assignment (:func:`local_sign`), plus its both-colour
    plain edges; ``inc`` is ``d.incidence()``.  On D != 0 the web's
    stabiliser, its port Paulis and its outcome signs, has eigenvalue
    (-1)^count times i per port Y on D's tensor."""
    hl = w.edges
    count = 0
    for sid, fired in w.indicators:
        if fired:
            s = d.spiders[sid]
            y = sum(1 for eid, _ in inc[sid] if hl.get(eid) == "both")
            count += local_sign(s.colour, s.phase.qturns, y) == -1
    return count + sum(1 for eid, h in w.highlight
                       if h == "both" and not d.edges[eid].had)


def detecting_region_basis(d: ZxDiagram, classes: FaultClasses | None = None
                           ) -> list[DetectingRegion]:
    """A basis of the diagram's detecting regions: the bare-boundary sums
    of ``classes`` (:attr:`FaultClasses.bare_masks`; built here when not
    given) less those with no highlight, the leg-less Pauli spiders', each
    with its :meth:`~FaultClasses.count` parity and :func:`flipped_by`.
    It is the basis, in order, of the web system eliminated with the
    boundary bits zeroed: each basis web is 1 at its own free column and 0
    at the others, and its highest bit is that column; so a sum is 1
    exactly at its terms' columns and its highest bit is its highest
    term's, and the sums, each 1 at its own column of the small solve and
    0 at the others', are the region space's echelon basis reduced by
    highest bits, as :func:`~zxfault.gf2.nullspace` gives it."""
    classes, regions = classes or FaultClasses(d), []
    for m in classes.bare_masks:
        w = classes.web_sum(m)
        if w.highlight:
            regions.append(DetectingRegion(w, flipped_by(d, w),
                                           classes.count(m) & 1))
    return regions


def _check_locations(d: ZxDiagram, f: PauliString) -> None:
    for eid in f.locations():
        e = d.edges.get(eid)
        if e is None:
            raise ValueError(f"fault on unknown edge {eid}")
        if e.ideal:
            raise ValueError(f"fault on ideal edge {eid}")


def is_detectable(d: ZxDiagram, f: PauliString,
                  regions: list[DetectingRegion] | None = None) -> bool:
    """Fault detectable iff it anticommutes with some detecting region
    (checking a basis suffices: anticommutation is linear in the region)."""
    _check_locations(d, f)
    if regions is None:
        regions = detecting_region_basis(d)
    fx, fz = f.xz
    for r in regions:
        x, z = r.web.pauli.xz
        if ((x & fz) ^ (z & fx)).bit_count() & 1:
            return True
    return False


class FaultClasses:
    """One diagram's web facts, from two solves: its web system's, whose
    basis solutions are the basis webs (``webs``), and, when first read,
    the bare-boundary sums' (:attr:`bare_masks`), which its regions,
    support, totality and zero rule read; and the classes of the faults a
    noise model generates.

    A fault's class is its :meth:`syndrome`, which is linear in the fault.
    So the least weight of a class is its distance from 0 in the graph on
    syndromes whose steps are the atoms' syndromes, and :meth:`search`
    finds every class up to a weight by one breadth-first search over the
    distinct atom syndromes, with no walk over faults.  Every detecting
    region is a web with a bare boundary, so a sum of basis webs, and
    anticommutation is bilinear: detection is a function of the syndrome
    and is decided once per class, by :func:`is_detectable` on its first
    fault.  Only :meth:`ClassTable.faults_below` walks the faults
    themselves."""

    def __init__(self, d: ZxDiagram):
        self.diagram = d
        rows, n_vars, self._edge_order, self._spider_order = _build_system(d)
        self._vectors = gf2.nullspace(rows, n_vars)
        self.webs = [_vector_to_web(v, self._edge_order, self._spider_order)
                     for v in self._vectors]
        self._incidence = d.incidence()

    @cached_property
    def bare_masks(self) -> list[int]:
        """The masks (bit j takes web j) of a basis of the sums of the basis
        webs that leave the boundary bare: one small solve, with a row per
        boundary edge bit of the webs that highlight it."""
        return gf2.nullspace([sum((v >> 2 * self._edge_order[eid] + k & 1)
                                  << j for j, v in enumerate(self._vectors))
                              for eid in self.diagram.boundary_edges()
                              for k in (0, 1)], len(self._vectors))

    @cached_property
    def regions(self) -> list[DetectingRegion]:
        """The detecting regions (:func:`detecting_region_basis`)."""
        return detecting_region_basis(self.diagram, self)

    @cached_property
    def _rows(self) -> tuple[dict, dict]:
        """Bit i of a fault's x mask flips the webs whose z mask has bit i,
        and bit i of its z mask those whose x mask has it."""
        out: tuple[dict, dict] = ({}, {})
        for j, web in enumerate(self.webs):
            for rows, mask in zip(out, web.pauli.xz[::-1]):
                while mask:
                    i = (mask & -mask).bit_length() - 1
                    rows[i] = rows.get(i, 0) ^ 1 << j
                    mask &= mask - 1
        return out

    @cached_property
    def outcome_flips(self) -> list[int]:
        """The syndrome of flipping each outcome variable, in
        ``d.variables`` order: bit j is set when web j fires an odd number
        of the spiders reading it (:func:`flipped_by`)."""
        flips = [flipped_by(self.diagram, w) for w in self.webs]
        return [sum((v in fl) << j for j, fl in enumerate(flips))
                for v in self.diagram.variables]

    def outcome_mask(self, mask: int) -> int:
        """The outcome variables that the sum of the basis webs in ``mask``
        flips, as bits of an assignment read as by
        :meth:`~zxfault.oracle.OutcomeMap.sign_mask`, first one highest."""
        n = len(self.outcome_flips)
        return sum(((s & mask).bit_count() & 1) << n - 1 - i
                   for i, s in enumerate(self.outcome_flips))

    @cached_property
    def masks(self) -> list[tuple[int, int, int]]:
        """Each basis web's port Paulis (x, z)
        (:func:`~zxfault.oracle.port_masks`) and :meth:`outcome_mask`."""
        return [(x, z, self.outcome_mask(1 << j)) for j, (x, z) in
                enumerate(port_masks(self.diagram,
                                     [w.pauli for w in self.webs]))]

    @cached_property
    def _bare(self) -> tuple[list[int], list[int]]:
        """One echelon of the bare-boundary sums' (:attr:`bare_masks`)
        :meth:`outcome_mask`, each tagged by its mask above the n outcome
        bits: the rows pivoted below n, tagged, echelon the outcome masks,
        and the tags of the rest span the constant sums, whose is empty."""
        n = len(self.diagram.variables)
        pivots = gf2.echelon(self.outcome_mask(m) | m << n
                             for m in self.bare_masks)
        return ([r for c, r in pivots.items() if c < n],
                [r >> n for c, r in pivots.items() if c >= n])

    @property
    def support(self) -> list[int]:
        """The support fact: on D != 0 the outcome assignments with a
        nonzero branch are those on which every bare-boundary web sum's
        :meth:`outcome_mask` has the parity of its :meth:`count`.  These
        are the echelon rows of those masks (:attr:`_bare`), one per
        dimension the support loses.  Every sum counts: the regions drop
        those that highlight no edge, which may still read outcomes."""
        n = len(self.diagram.variables)
        return [r & (1 << n) - 1 for r in self._bare[0]]

    @cached_property
    def total(self) -> bool:
        """Whether the diagram is nonzero on exactly the outcome assignments
        that meet its constraints, with n outcome variables.  On D != 0 the
        support fact cuts those out: so the rows of :attr:`support`, each
        with its sum's :meth:`count` parity at bit n, and the constraint
        rows must echelon alike.  On D = 0 no assignment may meet the
        constraints: their echelon has a pivot at bit n."""
        names = self.diagram.variables
        n = len(names)
        bit = {v: 1 << n - 1 - i for i, v in enumerate(names)}
        constraints = gf2.echelon(sum(bit[v] for v in vs) | rhs << n
                                  for vs, rhs in self.diagram.constraints)
        if self.alive:
            return n in constraints
        return constraints == gf2.echelon(
            r & (1 << n) - 1 | (self.count(r >> n) & 1) << n
            for r in self._bare[0])

    def web_sum(self, mask: int) -> PauliWeb:
        """The sum of the basis webs in ``mask``."""
        if mask.bit_count() == 1:
            return self.webs[mask.bit_length() - 1]
        v = 0
        for j, u in enumerate(self._vectors):
            if mask >> j & 1:
                v ^= u
        return _vector_to_web(v, self._edge_order, self._spider_order)

    def count(self, mask: int) -> int:
        """The :func:`sign_count` of the sum of the basis webs in ``mask``."""
        return sign_count(self.diagram, self.web_sum(mask), self._incidence)

    @cached_property
    def _constant(self) -> list[tuple[int, int]]:
        """The mask over the basis webs and the :meth:`count` parity of
        each of a basis of the constant sums, the webs with a bare
        boundary and an empty detecting set (:attr:`_bare`).  A leg-less
        Pauli spider needs no case of its own: its indicator is a free
        column, its web a basis web."""
        return [(mask, self.count(mask) & 1) for mask in self._bare[1]]

    @cached_property
    def alive(self) -> int:
        """The zero rule: bit i is the parity of the i-th constant sum, which
        fixes the sign of the whole diagram.  So D != 0 exactly when
        ``alive`` is 0, and D with a fault of syndrome s applied exactly
        when pattern(s) == alive."""
        return sum(parity << i for i, (_, parity) in enumerate(self._constant))

    def pattern(self, s: int) -> int:
        """Bit i: a fault of syndrome ``s`` flips the i-th constant sum's
        parity, as it anticommutes with an odd number of its webs."""
        return sum(((s & mask).bit_count() & 1) << i
                   for i, (mask, _) in enumerate(self._constant))

    def syndrome(self, f: PauliString) -> int:
        """Bit j is set when the fault anticommutes with web j: the XOR of
        the rows of the fault's set bits.  On a diagram D != 0, faults with
        equal syndromes give equal diagrams up to a global scalar and
        per-outcome phases, and only they."""
        s = 0
        for rows, mask in zip(self._rows, f.xz):
            while mask:
                i = (mask & -mask).bit_length() - 1
                s ^= rows.get(i, 0)
                mask &= mask - 1
        return s

    def search(self, noise: NoiseModel, max_weight: int):
        """Yield (syndrome, least weight, first fault, undetectable) for each
        class of a fault of weight at most ``max_weight``, breadth first
        (:func:`~zxfault.gf2.layers`) over the distinct atom syndromes, so
        in nondecreasing weight.  Each step's payload is its first atom in
        the noise model's order, packed, so a class's first fault, the
        product of the atoms on the search's path to it, is a least-weight
        fault of it.  A noise atom on an unknown or ideal edge raises
        ValueError before the search; each location is checked once."""
        atoms, seen = noise.paulis(), 0
        for a in atoms:  # the locations no earlier atom has, as it reaches them
            x, z = a.xz
            if (x | z) & ~seen:
                _check_locations(self.diagram,
                                 PauliString.from_xz((x | z) & ~seen, 0))
                seen |= x | z
        code = Nibbles(atoms)
        steps: dict[int, int] = {}  # atom syndrome -> its first atom, packed
        for a in atoms:
            s = self.syndrome(a)
            if s and s not in steps:
                steps[s] = code.pack(a)
        for w, layer in enumerate(gf2.layers(steps, max_weight)):
            for s, k in layer.items():
                f = code.unpack(k)
                yield s, w, f, not is_detectable(self.diagram, f, self.regions)


class ClassTable:
    """The least-weight table of one diagram's fault classes under a noise
    model up to a weight, ``max_weight``, from :meth:`FaultClasses.search`:
    for each syndrome of a fault of weight at most that, its least weight
    (``least``), its first fault (``firsts``) and whether its faults are
    undetectable (``undetectable``), each in the search's order; and
    ``checked``, the number of faults up to ``max_weight``, counted without
    a walk (:func:`~zxfault.noise.count_faults`)."""

    def __init__(self, classes: FaultClasses, noise: NoiseModel,
                 max_weight: int):
        self.classes, self.noise, self.max_weight = classes, noise, max_weight
        self.least: dict[int, int] = {}
        self.firsts: dict[int, PauliString] = {}
        self.undetectable: dict[int, bool] = {}
        for s, w, f, undetectable in classes.search(noise, max_weight):
            self.least[s], self.firsts[s] = w, f
            self.undetectable[s] = undetectable
        self.checked = count_faults(noise, max_weight)

    def faults_below(self, bounds: dict[int, int]):
        """Yield (fault, weight, syndrome, undetectable) in
        :func:`~zxfault.noise.enumerate_faults` order for each fault whose
        syndrome is a key of ``bounds`` and whose weight is below that
        syndrome's bound, at most the table's ``max_weight`` + 1: the walk
        that lists counterexamples.  Each walked fault's syndrome is read
        by :meth:`FaultClasses.syndrome`, and its detection flag from the
        table."""
        syndrome, undetectable = self.classes.syndrome, self.undetectable
        for f, w in enumerate_faults(self.noise, max(bounds.values()) - 1):
            s = syndrome(f)
            if w < bounds.get(s, 0):
                yield f, w, s, undetectable[s]
