"""Reference code that only the tests use.

* The breadth-first fault walk on PauliString objects that the packed walk
  of :func:`zxfault.noise.enumerate_faults` replaced.
* The breadth-first search of a GF(2) span that keeps every element it has
  reached (:func:`least_weights`), which :func:`zxfault.gf2.layers`, keeping
  only its last two layers, replaced.
* The per-web syndrome rule that the bit rows of
  :meth:`zxfault.webs.FaultClasses.syndrome` replaced.
* The tensor class keys that matched faults across two diagrams before the
  web-syndrome map (:class:`zxfault.feq.SyndromeMap`) replaced them: two
  faulted diagrams have one key exactly when they are equal under the
  outcome correspondence, up to a global magnitude and per-outcome phases.
* The dense web read-out that the sign and support algebra of
  :func:`zxfault.feq._offset` replaced: each web's stabiliser applied to
  the whole tensor (``on_open_legs`` and the outcome signs), the covered
  count from every branch, and their comparison with side b's reference
  (:func:`dense_reader`).
* The per-assignment loop of ``equal_up_to_scalar`` that the row-wise
  :func:`zxfault.oracle.equal_up_to_scalar` replaced.
* Calling an outcome map on one assignment (:func:`map_assignment`),
  which :meth:`zxfault.oracle.OutcomeMap.images` replaced.
* The compiled contraction that runs each step with ``np.tensordot``,
  traces the self-loops of each step's result, and builds and faults its
  leaves by 2x2 matrices on their legs, which the transpose-and-dot steps
  and closed-form leaves of :func:`zxfault.oracle.evaluate` replaced, with
  the same plan: :class:`Contraction`.  Its faulted replay is the
  reference for ``evaluate(apply_fault(d, f))``.
* The side-b syndrome of each side-a class read from a replay of it
  (:func:`replay_read`), which the push-out generators of
  :class:`zxfault.feq.SyndromeMap` replaced.
* The second elimination of the web system, with the boundary bits
  zeroed, that found the detecting regions
  (:func:`detecting_region_basis`), each signed from its own web and the
  diagram's incidence (:func:`region_sign`), and the zero rule's constant
  sums built from those regions and the leg-less Pauli spiders as Paulis
  (:func:`constant_sums`), which the one small solve over the basis webs
  of :class:`zxfault.webs.FaultClasses` and its sign counts replaced.
* Whether a fault leaves a diagram's tensor family unchanged, by two
  dense contractions (:func:`is_trivial`), which the zero rule and the web
  syndromes of :class:`zxfault.webs.FaultClasses` replaced in the circuit
  distance and the push-out.
* A tensor family scaled to a largest magnitude of 1 (:func:`normalised`).
* Whether a diagram's tensor is nonzero on exactly the outcome
  assignments that meet its constraints, by one dense contraction
  (:func:`is_total`), which the support fact of
  :attr:`zxfault.webs.FaultClasses.total` replaced.
* The direct check of a web against the per-spider rules
  (:func:`check_web`), which rechecked every solution of the web system
  until :func:`zxfault.webs.web_basis` trusted its one elimination.
* Graph isomorphism of diagrams with their ports fixed, and a spider's
  degree (:func:`degree`).
* The binding of a rule's inverse that undoes one rewrite step.
* The extraction cover search with chronological backtracking
  (:class:`ChronologicalMatcher`), which the conflict-directed
  backjumping of ``zxfault.extract._Matcher`` replaced: each exhausted
  level hands its failure to the level just below.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from zxfault import gf2, oracle
from zxfault.circuit import Circuit
from zxfault.diagram import ZxDiagram, apply_fault
from zxfault.extract import _Builder, _Fail, _Matcher
from zxfault.noise import NoiseModel
from zxfault.oracle import (DEFAULT_BUDGET, TOL, OracleBudgetError,
                            OutcomeMap, OutcomeTensor, _port_label,
                            _self_loops, _trace, _z_core)
from zxfault.pauli import PauliString
from zxfault.rewrite import RewriteRule, _edge_kind
from zxfault.webs import (DetectingRegion, PauliWeb, _build_system,
                          _vector_to_web, flipped_by, sign_count)


def enumerate_faults(m: NoiseModel, max_weight: int):
    """Each element of the generated group with weight <= max_weight, once,
    as (PauliString, weight): by weight, then by ``PauliString.sort_key``."""
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


def is_trivial(d: ZxDiagram, f: PauliString,
               base: OutcomeTensor | None = None) -> bool:
    """True iff applying the fault leaves the diagram's tensor family
    unchanged up to one global scalar (identity correspondence)."""
    if base is None:
        base = oracle.evaluate(d)
    return oracle.equal_up_to_scalar(base, oracle.evaluate(apply_fault(d, f)))


def is_total(d: ZxDiagram, budget: int = DEFAULT_BUDGET) -> bool:
    """Tensor nonzero exactly on constraint-satisfying outcome assignments."""
    t = oracle.evaluate(d, budget)
    m = t.max_abs()
    arr = t.array / m if m else t.array
    for b in t.assignments():
        vals = dict(zip(d.variables, b))
        sat = all(sum(vals[v] for v in vs) % 2 == rhs for vs, rhs in d.constraints)
        nz = bool(np.max(np.abs(arr[b])) > TOL)
        if nz != sat:
            return False
    return True


def normalised(t: OutcomeTensor) -> OutcomeTensor:
    """The family divided by its largest magnitude, unless it is 0.0: the
    comparison of :func:`zxfault.oracle.equal_up_to_scalar` then reads a
    family of any scale, where its absolute zero test calls every family
    below 1e-9 zero, such as steane-optimised's, of entries about 3.8e-20.
    A zero family with rounding noise becomes noise of magnitude 1, so this
    suits only pairs that the zero rule calls nonzero or exactly zero."""
    m = t.max_abs()
    return OutcomeTensor(t.variables, t.n_in, t.n_out, t.array / m) if m \
        else t


def check_web(d: ZxDiagram, w: PauliWeb) -> bool:
    """Direct (non-linear-algebra) check of the defining per-spider rules."""
    inc = d.incidence()
    hl = w.edges
    for sid, s in d.spiders.items():
        own_is_green = s.colour == "Z"
        own = 0
        opp_bits = []
        for eid, ep in inc[sid]:
            e = d.edges[eid]
            h = hl.get(eid)
            g = h in ("green", "both")
            r = h in ("red", "both")
            if e.had and ep == e.b:
                g, r = r, g
            own += g if own_is_green else r
            opp_bits.append(r if own_is_green else g)
        all_or_none = all(opp_bits) or not any(opp_bits)
        if s.phase.is_pauli():
            if own % 2 != 0 or not all_or_none:
                return False
        else:
            if opp_bits and not all_or_none:
                return False
            fired = bool(opp_bits and all(opp_bits))
            if own % 2 != (1 if fired else 0):
                return False
    return True


def least_weights(steps: dict[int, int], max_weight: int):
    """Breadth-first search of the GF(2) span of the ``steps`` keys from 0,
    stopped at ``max_weight`` steps: yield (s, w, k) for each s reached,
    with w the least number of keys whose XOR is s and k the XOR of their
    values, by weight and, within a weight, in the order the search first
    reaches s (each s of the last layer times each key, in ``steps``
    order)."""
    yield 0, 0, 0
    reached, frontier = {0: 0}, [0]
    for w in range(1, max_weight + 1):
        layer = []
        for p in frontier:
            kp = reached[p]
            for a, k in steps.items():
                s = p ^ a
                if s not in reached:
                    reached[s] = kp ^ k
                    layer.append(s)
                    yield s, w, kp ^ k
        frontier = layer


def anticommutes(w: PauliWeb, f: PauliString) -> bool:
    return not w.pauli.commutes(f)


def syndrome(webs: list[PauliWeb], f: PauliString) -> int:
    """Bit i is set when the fault anticommutes with web i."""
    return sum(anticommutes(w, f) << i for i, w in enumerate(webs))


def map_assignment(corr: OutcomeMap, assignment: tuple) -> tuple:
    """The target assignment of one source assignment under ``corr``."""
    vals = dict(zip(corr.source_vars, assignment))
    return tuple((sum(vals[v] for v in vs) + c) % 2
                 for t in corr.target_vars
                 for vs, c in [corr.rows[t]])


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


def class_keys(spec) -> dict:
    """Each side's key function: the side-a key reads the tensor through
    the correspondence, so that a side-a and a side-b tensor share a key
    exactly when they are equal under it."""
    da, db = spec.side_a.diagram, spec.side_b.diagram
    corr = spec.corr()
    b_assigns = list(itertools.product((0, 1), repeat=len(db.variables)))
    preimage = {y: [] for y in b_assigns}
    for x in itertools.product((0, 1), repeat=len(da.variables)):
        preimage[map_assignment(corr, x)].append(x)
    return {"a": _class_key(b_assigns, preimage),
            "b": _class_key(b_assigns, {y: [y] for y in b_assigns})}


def key_matches(syndrome_map, spec) -> dict:
    """For each side and each web syndrome of its table, the first fault of
    the other side whose key equals the key of the syndrome's first fault,
    or None: the class-key match that the syndrome map must reproduce."""
    keys = class_keys(spec)
    key_of = {side: {s: keys[side](syndrome_map.replay(side, f))
                     for s, f in table.firsts.items()}
              for side, table in syndrome_map.tables.items()}
    first = {}
    for side, table in syndrome_map.tables.items():
        first[side] = {}
        for s, f in table.firsts.items():
            first[side].setdefault(key_of[side][s], f)
    return {side: {s: first["b" if side == "a" else "a"].get(k)
                   for s, k in key_of[side].items()}
            for side in "ab"}


def on_open_legs(d: ZxDiagram, t: OutcomeTensor,
                 p: PauliString) -> OutcomeTensor:
    """``t``, any family of ``d``'s boundary shape, with the letter ``p``
    has on each port's edge acting on the port's leg (X and Z swapped at
    the b end of a hadamard edge; Y is Z then X).  So a Pauli web's edge
    Paulis give the boundary half of its stabiliser."""
    legs = len(t.variables) + t.n_in + t.n_out
    sign = np.ones((1,) * legs)
    flips = []
    for kind, eids, first in (("in", d.inputs, len(t.variables)),
                              ("out", d.outputs, legs - t.n_out)):
        for i, eid in enumerate(eids):
            letter, e = p.letter(eid), d.edges[eid]
            if e.had and e.b == ("b", kind, i):
                letter = {"X": "Z", "Z": "X"}.get(letter, letter)
            axis = first + i
            if letter in "YZ":
                sign = sign * np.array([1.0, -1.0]).reshape(
                    (1,) * axis + (2,) + (1,) * (legs - axis - 1))
            if letter in "XY":
                flips.append(axis)
    a = np.flip(t.array.reshape((2,) * legs), flips) * np.flip(sign, flips)
    return OutcomeTensor(t.variables, t.n_in, t.n_out,
                         a.reshape(t.array.shape))


def images(corr: OutcomeMap) -> np.ndarray:
    """The target assignment of each source assignment: entry [x][j] is
    target variable j at source assignment x."""
    x = np.indices((2,) * len(corr.source_vars), dtype=np.int8)
    column = {v: i for i, v in enumerate(corr.source_vars)}
    y = np.zeros(x.shape[1:] + (len(corr.target_vars),), dtype=np.int8)
    for j, v in enumerate(corr.target_vars):
        vs, c = corr.rows[v]
        y[..., j] = (sum(x[column[u]] for u in vs) + c) % 2
    return y


def eigenvalues(d: ZxDiagram, web_list: list, t: OutcomeTensor,
                signs: list) -> list | None:
    """The eigenvalue of ``t`` under each web's stabiliser of ``d``, its
    Paulis on the open legs times its outcome sign; None if t is zero or
    not an eigenvector of one, at ``TOL`` times t's max magnitude."""
    i = int(np.argmax(np.abs(t.array)))
    m = abs(t.array.flat[i])
    if m < TOL:
        return None
    out = []
    for w, sign in zip(web_list, signs):
        u = on_open_legs(d, t, w.pauli).array
        u *= sign
        lam = u.flat[i] / t.array.flat[i]
        if abs(abs(lam) - 1) > TOL:  # a stabiliser is unitary
            return None
        u /= lam
        u -= t.array
        if np.max(np.abs(u)) > TOL * m:
            return None
        out.append(lam)
    return out


def covered(t: OutcomeTensor, y: np.ndarray) -> int:
    """The number of target assignments, under the images ``y``, of the
    branches of ``t`` with an entry above ``TOL`` times t's max."""
    mags = np.abs(t.array).reshape(y.shape[:-1] + (-1,)).max(axis=-1)
    return len(set(map(tuple, y[mags > TOL * mags.max()].tolist())))


def dense_read(d: ZxDiagram, web_list: list, t: OutcomeTensor,
               corr: OutcomeMap):
    """(eigenvalues, covered) of ``t`` under the webs of side ``d``, read
    through ``corr``, from dense passes over the whole tensor; None where
    :func:`eigenvalues` is."""
    y = images(corr)
    signs = [(1 - 2 * (y @ np.array([v in flipped_by(d, w)
                                     for v in d.variables]) % 2))[..., None,
                                                                   None]
             for w in web_list]
    lam = eigenvalues(d, web_list, t, signs)
    return None if lam is None else (lam, covered(t, y))


def equal_up_to_scalar(t1: OutcomeTensor, t2: OutcomeTensor,
                       correspondence: OutcomeMap | None = None) -> bool:
    """:func:`zxfault.oracle.equal_up_to_scalar`, one assignment of t2 at a
    time (registries assumed checked)."""
    if correspondence is None:
        correspondence = OutcomeMap.identity(t1.variables)
    m1, m2 = t1.max_abs(), t2.max_abs()
    if m1 < TOL and m2 < TOL:
        return True
    if m1 < TOL or m2 < TOL:
        return False
    a1 = t1.array / m1
    a2 = t2.array / m2
    mag = None
    hit: set[tuple] = set()
    for b in t2.assignments():
        tb = a2[b]
        if tb.size == 0 or np.max(np.abs(tb)) <= TOL:
            continue
        target = map_assignment(correspondence, b)
        hit.add(target)
        ta = a1[target]
        idx = np.unravel_index(np.argmax(np.abs(tb)), tb.shape)
        if abs(ta[idx]) <= TOL:
            return False
        c = tb[idx] / ta[idx]
        if not np.allclose(tb, c * ta, atol=TOL, rtol=0):
            return False
        if mag is None:
            mag = abs(c)
        elif abs(abs(c) - mag) > TOL:
            return False
    if mag is None:
        return False
    for a in t1.assignments():
        if a not in hit and np.max(np.abs(a1[a])) > TOL:
            return False
    return True


def dense_reader(spec, syndrome_map):
    """read(t): the side-b web syndrome of a side-a tensor ``t`` read
    through the correspondence, densely: the syndrome of side b's
    reference, its first class whose pattern is ``alive``, with bit j
    flipped where t's eigenvalue under web j is minus the reference's;
    None if an eigenvalue is neither, or if t's nonzero branches cover
    another number of side-b assignments than the reference's."""
    b = syndrome_map.tables["b"]
    classes, db = b.classes, b.classes.diagram
    base_syndrome, f = next((s, f) for s, f in b.firsts.items()
                            if classes.pattern(s) == classes.alive)
    base = dense_read(db, classes.webs, syndrome_map.replay("b", f),
                      OutcomeMap.identity(db.variables))
    assert base is not None, "a web of side b does not stabilise its reference"

    def read(t: OutcomeTensor) -> int | None:
        got = dense_read(db, classes.webs, t, spec.corr())
        if got is None or got[1] != base[1]:
            return None
        s = base_syndrome
        for j, (lam, mu) in enumerate(zip(got[0], base[0])):
            if abs(lam / mu + 1) <= TOL:
                s ^= 1 << j
            elif abs(lam / mu - 1) > TOL:
                return None
        return s
    return read


def dense_offset(spec, syndrome_map) -> int | None:
    """M(origin) by :func:`dense_reader`: the read of side a's reference,
    its first class whose pattern is ``alive``; None when either side has
    no such class."""
    refs = {side: next((f for s, f in table.firsts.items()
                        if table.classes.pattern(s) == table.classes.alive),
                       None)
            for side, table in syndrome_map.tables.items()}
    if None in refs.values():
        return None
    read = dense_reader(spec, syndrome_map)
    return read(syndrome_map.replay("a", refs["a"]))


def replay_read(read, syndrome_map, f: PauliString) -> int | None:
    """The side-b syndrome that a replay of side-a fault ``f``, read
    through the correspondence by ``read`` (:func:`dense_reader`), is an
    eigenvector for: M at f's class as one replay per class read it,
    before the push-out generators."""
    return read(syndrome_map.replay("a", f))


def region_sign(d: ZxDiagram, w: PauliWeb) -> tuple[int, frozenset]:
    """(expected_parity, detecting_set) of a detecting region: the parity
    of its :func:`~zxfault.webs.sign_count` and
    :func:`~zxfault.webs.flipped_by`, from the diagram's incidence; a web
    that highlights a boundary edge is a ValueError."""
    hl = w.edges
    if any(eid in hl for eid in d.boundary_edges()):
        raise ValueError("web touches boundary; not a detecting region")
    return sign_count(d, w, d.incidence()) % 2, flipped_by(d, w)


def detecting_region_basis(d: ZxDiagram) -> list[DetectingRegion]:
    """A basis of the diagram's detecting regions from a second elimination
    of the web system, with rows that zero every boundary edge's bits."""
    rows, n_vars, edge_order, spider_order = _build_system(d)
    for eid in d.boundary_edges():  # a region leaves the boundary bare
        i = 2 * edge_order[eid]
        rows += (1 << i, 1 << i + 1)
    regions = []
    for v in gf2.nullspace(rows, n_vars):
        w = _vector_to_web(v, edge_order, spider_order)
        if w.highlight:
            parity, det = region_sign(d, w)
            regions.append(DetectingRegion(w, det, parity))
    return regions


def constant_sums(d: ZxDiagram) -> list[tuple[PauliString, int]]:
    """The Pauli and expected parity of each of a basis of the constant
    sums: the sums of :func:`detecting_region_basis` and leg-less Pauli
    spiders (regions with no Pauli, their outcome variables as detecting
    set and their half turns as parity) whose detecting sets cancel.  A
    sum's parity is the XOR of its terms'.  So D != 0 exactly when every
    parity is 0, and D with a fault f applied exactly when each sum's
    parity is whether its Pauli anticommutes with f."""
    column = {v: i for i, v in enumerate(d.variables)}
    inc = d.incidence()
    terms = [(r.web.pauli, r.detecting_set, r.expected_parity)
             for r in detecting_region_basis(d)] + [
        (PauliString(), s.phase.pivars, s.phase.qturns // 2)
        for sid, s in d.spiders.items()
        if not inc[sid] and s.phase.is_pauli()]
    sets = [sum(1 << column[v] for v in vs) for _, vs, _ in terms]
    # equation j: the chosen terms' detecting sets cancel at variable j
    equations = [sum((s >> j & 1) << i for i, s in enumerate(sets))
                 for j in range(len(column))]
    out = []
    for v in gf2.nullspace(equations, len(terms)):
        p, parity = PauliString(), 0
        for i, (pauli, _, bit) in enumerate(terms):
            if v >> i & 1:
                p, parity = p * pauli, parity ^ bit
        out.append((p, parity))
    return out


def degree(d: ZxDiagram, sid: int) -> int:
    """The number of edge ends at spider ``sid``; a self-loop counts
    twice."""
    return sum(ep == ("s", sid) for e in d.edges.values() for ep in e.ends())


def isomorphic(d1, d2) -> bool:
    """Spider-relabelling isomorphism with ports, edge attributes, variables
    and constraints matched exactly."""
    if sorted(d1.variables) != sorted(d2.variables):
        return False
    if sorted((tuple(sorted(vs)), r) for vs, r in d1.constraints) != \
            sorted((tuple(sorted(vs)), r) for vs, r in d2.constraints):
        return False
    if len(d1.spiders) != len(d2.spiders) or len(d1.edges) != len(d2.edges):
        return False

    def conn(d):
        out = {}
        for e in d.edges.values():
            key = frozenset([e.a if e.a[0] == "b" else ("s", e.a[1]),
                             e.b if e.b[0] == "b" else ("s", e.b[1])])
            out.setdefault(key, []).append((e.had, e.ideal))
        return {k: sorted(v) for k, v in out.items()}

    def sig(d, sid):
        s = d.spiders[sid]
        return (s.colour, s.phase.qturns, tuple(sorted(s.phase.pivars)),
                degree(d, sid))

    c1, c2 = conn(d1), conn(d2)
    ports1 = {ep for key in c1 for ep in key if ep[0] == "b"}
    ports2 = {ep for key in c2 for ep in key if ep[0] == "b"}
    if ports1 != ports2:
        return False
    order = sorted(d1.spiders)
    cands = {sid: [t for t in sorted(d2.spiders) if sig(d2, t) == sig(d1, sid)]
             for sid in order}

    def extend(i, mapping, taken):
        if i == len(order):
            # final full check of the edge multisets
            for key, attrs in c1.items():
                key2 = frozenset(("s", mapping[ep[1]]) if ep[0] == "s" else ep
                                 for ep in key)
                if c2.get(key2) != attrs:
                    return False
            return len(c1) == len(c2)
        u = order[i]
        for t in cands[u]:
            if t in taken:
                continue
            ok = True
            for key, attrs in c1.items():
                eps = list(key)
                mapped = []
                for ep in eps:
                    if ep[0] == "b":
                        mapped.append(ep)
                    elif ep[1] == u:
                        mapped.append(("s", t))
                    elif ep[1] in mapping:
                        mapped.append(("s", mapping[ep[1]]))
                    else:
                        mapped = None
                        break
                if mapped is None or not any(
                        ep == ("s", u) or (ep[0] == "s" and ep[1] == u)
                        for ep in eps):
                    continue
                if c2.get(frozenset(mapped)) != attrs:
                    ok = False
                    break
            if ok and extend(i + 1, {**mapping, u: t}, taken | {t}):
                return True
        return False

    return extend(0, {}, set())



def inverse_binding(host: ZxDiagram, mid: ZxDiagram,
                    rule: RewriteRule) -> dict:
    """Binding of ``rule.inverse()`` on ``mid`` that undoes the step
    ``host`` -> ``mid``, for a variable-free rule bound with its ports at
    ``host``'s own output ports.  ``apply_rule`` gives the rhs spiders, and
    then the rhs internal edges, ``host``'s next ids in sorted rhs order;
    a port's edge is the edge of ``mid`` at that port."""
    inv = rule.inverse()
    skey, ekey = inv.slots()
    spiders = {sid: host._next_spider + i
               for i, sid in enumerate(sorted(rule.rhs.spiders))}
    internal = [eid for eid in sorted(rule.rhs.edges)
                if _edge_kind(rule.rhs.edges[eid])[0] == "internal"]
    edges = {eid: host._next_edge + i for i, eid in enumerate(internal)}
    at_port = {ep[2]: eid for eid, e in mid.edges.items()
               for ep in e.ends() if ep[:2] == ("b", "out")}
    binding = {key: spiders[sid] for key, sid in skey.items()}
    for key, eid in ekey.items():
        kind = _edge_kind(inv.lhs.edges[eid])
        if kind[0] == "internal":
            binding[key] = edges[eid]
        elif kind[0] == "boundary":
            binding[key] = at_port[kind[2]]
        else:
            binding[key] = at_port[kind[1]]
    return binding


H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# A faulted edge's Pauli as the matrix of the pi-spider chain that
# apply_fault inserts at its a-end, indexed [a-end, b-end]: Y is X then Z.
_PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
          "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
_PAULI["Y"] = _PAULI["X"] @ _PAULI["Z"]
# The same Pauli as a matrix on the leg of the leaf that holds the edge's
# a-end: "P" when the a-end is a port (the leg is the port's), "Pt" at a
# spider, "HPtH" at a spider that absorbed the edge's Hadamard.
_FAULT_MATRIX = {(kind, letter): m for letter, p in _PAULI.items()
                 for kind, m in (("P", p), ("Pt", p.T), ("HPtH", H @ p.T @ H))}


def _apply_on_leg(t: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(t, mat.T, axes=([axis], [0]))
    return np.moveaxis(moved, -1, axis)


def spider_leaf(colour: str, degree: int, qturns: int, had_legs: list,
                n_vars: int) -> np.ndarray:
    """A spider's leaf tensor: its legs, then its variable legs, built as
    Z-spider cores stacked over the variables, with H applied on every leg
    of an X spider and then on each leg in ``had_legs``."""
    if n_vars:
        sub = []
        for bits in itertools.product((0, 1), repeat=n_vars):
            sub.append(_z_core(degree, (qturns + 2 * sum(bits)) % 4))
        t = np.stack(sub).reshape((2,) * n_vars + (2,) * degree)
        t = np.moveaxis(t, list(range(n_vars)),
                        list(range(degree, degree + n_vars)))
    else:
        t = _z_core(degree, qturns)
    if colour == "X":
        for ax in range(degree):
            t = _apply_on_leg(t, H, ax)
    for ax in had_legs:
        t = _apply_on_leg(t, H, ax)
    return t


class Contraction:
    """A diagram's contraction as :func:`zxfault.oracle.evaluate` plans
    it, with each step replayed by ``np.tensordot``, each leaf built
    by applying H leg by leg, and each fault applied as a 2x2 matrix on its
    leg.  ``_steps`` holds (slot a, slot b, tensordot axes, loops)."""

    def __init__(self, d: ZxDiagram, budget: int = DEFAULT_BUDGET):
        self.diagram = d
        self.budget = budget
        total_budget = budget * (2 ** len(d.variables))
        self._raw: list = []     # leaf tensors before their self-loop traces
        self._loops: list = []   # each leaf's self-loop traces
        self._leaves: list = []  # leaf tensors as the fault-free replay uses them
        self._site: dict = {}    # edge id -> (leaf, axis, _FAULT_MATRIX kind)
        labels_of: list = []

        def add_leaf(what: str, labels: list, build) -> None:
            # every leaf is refused before it is built, as evaluate does
            if 2 ** len(labels) > total_budget:
                raise OracleBudgetError(f"{what} tensor exceeds budget")
            t = build()
            loops, labels = _self_loops(labels)
            self._raw.append(t)
            self._loops.append(loops)
            self._leaves.append(_trace(t, loops))
            labels_of.append(labels)

        inc = d.incidence()
        var_occurrences: dict[str, int] = {v: 0 for v in d.variables}
        for sid, s in sorted(d.spiders.items()):
            legs: list = []
            had_legs: list[int] = []
            # a self-loop appears twice; its first leg is its a-end
            for eid, _ in sorted(inc[sid], key=lambda ie: ie[0]):
                e = d.edges[eid]
                at_a = e.a == ("s", sid) and ("e", eid) not in legs
                if at_a:
                    kind = "HPtH" if e.had else "Pt"
                    self._site[eid] = (len(self._raw), len(legs), kind)
                elif e.a[0] != "s":
                    self._site[eid] = (len(self._raw), len(legs), "P")
                # absorb the H of a hadamard edge exactly once, at the
                # a-side endpoint if that is a spider, else here
                if e.had and (at_a or e.a[0] != "s"):
                    had_legs.append(len(legs))
                legs.append(("e", eid))
            vlegs = sorted(s.phase.pivars)
            labels = legs + [("v", v, var_occurrences[v]) for v in vlegs]
            for v in vlegs:
                var_occurrences[v] += 1
            add_leaf(f"spider {sid}", labels, lambda: spider_leaf(
                s.colour, len(legs), s.phase.qturns, had_legs, len(vlegs)))

        # bare wires (both endpoints are ports)
        for eid, e in sorted(d.edges.items()):
            if all(ep[0] != "s" for ep in e.ends()):
                self._site[eid] = (len(self._raw), 0, "P")
                add_leaf(f"wire {eid}", [("e", eid), ("e", eid, "b")],
                         lambda: H.copy() if e.had
                         else np.eye(2, dtype=complex))

        # copy tensor per variable ties its occurrences and exposes one open leg
        for v in d.variables:
            occ = var_occurrences[v]
            add_leaf(f"variable {v}",
                     [("v", v, i) for i in range(occ)] + [("var", v)],
                     lambda: _z_core(occ + 1, 0))

        # greedy plan: smallest node first, with its cheapest partner; a node
        # is (sort key, slot, labels, label set), and each step's result takes
        # the next slot after the leaves
        strs: dict = {}

        def node(slot: int, labels: list) -> tuple:
            key = []
            for l in labels:
                s = strs.get(l)
                if s is None:
                    s = strs[l] = str(l)
                key.append(s)
            return ((len(labels), key), slot, labels, set(labels))

        nodes = [node(i, labels) for i, labels in enumerate(labels_of)]
        self._steps: list = []   # (slot a, slot b, tensordot axes, loops)
        while len(nodes) > 1:
            nodes.sort(key=lambda n: n[0])
            a = nodes[0]
            partner = None
            best = None
            for other in nodes[1:]:
                shared = len(a[3] & other[3])
                if shared:
                    cost = len(a[2]) + len(other[2]) - 2 * shared
                    if best is None or cost < best:
                        best, partner = cost, other
            if partner is None:
                partner = nodes[1]  # disconnected component: outer product
            nodes.remove(a)
            nodes.remove(partner)
            la, lb = a[2], partner[2]
            shared = [l for l in la if l in partner[3]]
            ax_a = [la.index(l) for l in shared]
            ax_b = [lb.index(l) for l in shared]
            out = [l for l in la if l not in partner[3]] + \
                  [l for l in lb if l not in a[3]]
            if 2 ** len(out) > total_budget:
                raise OracleBudgetError(
                    f"contraction intermediate of {len(out)} open legs"
                    f" exceeds budget")
            loops, out = _self_loops(out)
            self._steps.append((a[1], partner[1], (ax_a, ax_b), loops))
            nodes.append(node(len(labels_of) + len(self._steps) - 1, out))

        self._final = nodes[0][1] if nodes else None
        final_labels = nodes[0][2] if nodes else []
        in_labels = [_port_label(d, eid, ("b", "in", i))
                     for i, eid in enumerate(d.inputs)]
        out_labels = [_port_label(d, eid, ("b", "out", i))
                      for i, eid in enumerate(d.outputs)]
        wanted = [("var", v) for v in d.variables] + in_labels + out_labels
        if sorted(map(str, wanted)) != sorted(map(str, final_labels)):
            raise ValueError(f"contraction label mismatch: wanted {wanted},"
                             f" got {final_labels}")
        self._perm = [final_labels.index(l) for l in wanted]
        nv, self._n_in, self._n_out = (len(d.variables), len(d.inputs),
                                       len(d.outputs))
        self._shape = (2,) * nv + (2**self._n_in, 2**self._n_out)

    def evaluate(self, fault: PauliString | None = None) -> OutcomeTensor:
        tensors = list(self._leaves)
        if fault:
            faulted: dict = {}
            for eid, letter in fault.entries.items():
                if self.diagram.edges[eid].ideal:
                    raise ValueError(f"fault touches ideal edge {eid}")
                leaf, axis, kind = self._site[eid]
                t = faulted.get(leaf, self._raw[leaf])
                faulted[leaf] = _apply_on_leg(t, _FAULT_MATRIX[kind, letter],
                                              axis)
            for leaf, t in faulted.items():
                tensors[leaf] = _trace(t, self._loops[leaf])
        for a, b, axes, loops in self._steps:
            t = np.tensordot(tensors[a], tensors[b], axes=axes)
            tensors[a] = tensors[b] = None
            tensors.append(_trace(t, loops))
        if self._final is None:
            final = np.array(1, dtype=complex)
        else:
            final = tensors[self._final] if self._steps \
                else tensors[self._final].copy()
        t = np.transpose(final, self._perm).reshape(self._shape)
        return OutcomeTensor(self.diagram.variables, self._n_in, self._n_out,
                             t)


class ChronologicalMatcher(_Matcher):
    """The cover search that retries every choice between a failure and
    its cause: an exhausted level hands its failure to the level below."""

    def _search(self) -> Circuit:
        stack: list[tuple] = []  # (order index, choice generator)
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
            else:
                stack.append((i, self._choices(i)))
            while True:
                if not stack:
                    raise fail
                i, level = stack[-1]
                try:
                    next(level)
                    break
                except _Fail as f:
                    stack.pop()
                    fail = f.with_traceback(None)
            i += 1

    def _choices(self, i: int):
        sid = self.order[i]
        cands = self._candidates(sid)
        if not cands:
            fail = _Fail("no template matches spider", {sid})
            self._note(i, fail)
            raise fail
        for role, claims, labels in cands:
            if self.node_budget <= 0:
                raise _Fail("cover search budget exhausted", {sid})
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
            fail = self._local_fail({sid, *claims})
            if fail is None:
                yield
            else:
                self._note(i, fail)
            del self.decided[sid]
            for t in claims:
                del self.claims[t]
            for eid in labels:
                del self.internal[eid]
            self.done -= fresh
        raise self.best_fail[1] if self.best_fail else _Fail(
            "no consistent reading", {sid})

