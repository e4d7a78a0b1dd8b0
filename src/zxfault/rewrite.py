"""Fault-aware diagram rewriting.

A rewrite rule is a pair of small open diagrams (lhs, rhs) over a shared set
of boundary ports, together with a guarantee:

* ``fault-equivalent``      -- the sides are fault-equivalent at every weight;
* ``w-fault-equivalent``    -- fault-equivalence holds up to the stated weight;
* ``ideal-region``          -- the rule is only sound inside a fault-free
  region; applying it checks on the webs of one
  :class:`~zxfault.webs.FaultClasses` of the result that the whole
  diagram keeps its semantics (:func:`~zxfault.feq.equal_on_webs`), and,
  for a rule that asks, that it stays total
  (:attr:`~zxfault.webs.FaultClasses.total`).

``apply_rule`` splices the rhs into a host diagram at an explicit binding of
the lhs shape and returns the rewritten diagram plus a :class:`StepLog` that
records the matched region, the created region and the outcome-variable
bookkeeping.  ``verify_step`` checks the two regions for w-fault-equivalence
under edge-flip noise with :func:`~zxfault.feq.check_w_fault_equivalence`,
and ``check_boundary_pushout`` matches internal against boundary faults by
their web syndromes.
``run_proof_script`` replays a textual derivation and produces a
deterministic JSON report.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

from . import gf2, samples
from .builders import as_int, build_gadget, call_bound, key_values
from .diagram import Edge, Phase, Spider, ZxDiagram
from .feq import (EquivalenceSpec, Side, Verdict, check_w_fault_equivalence,
                  equal_on_webs)
from .noise import AtomicFault, NoiseModel, count_faults, edge_flip_atoms
from .oracle import DEFAULT_BUDGET, OutcomeMap
from .pauli import LETTERS, PauliString
from .webs import ClassTable, FaultClasses

FAULT_EQUIVALENT = "fault-equivalent"
W_FAULT_EQUIVALENT = "w-fault-equivalent"
IDEAL_REGION = "ideal-region"


class RuleBindingError(ValueError):
    """The binding does not embed the rule's lhs into the host diagram."""


class IdealRegionError(ValueError):
    """An ideal-region rule met fault-prone context or changed semantics."""


class ScriptError(ValueError):
    """A proof script failed to parse or referenced an unknown object."""


def _opp(colour: str) -> str:
    return "X" if colour == "Z" else "Z"


def _edge_kind(e: Edge):
    """("internal", sid, sid) | ("boundary", sid, port) | ("wire", port, port)."""
    a_s, b_s = e.a[0] == "s", e.b[0] == "s"
    if a_s and b_s:
        return ("internal", e.a[1], e.b[1])
    if a_s:
        return ("boundary", e.a[1], e.b[2])
    if b_s:
        return ("boundary", e.b[1], e.a[2])
    return ("wire", e.a[2], e.b[2])


def _rename_vars(d: ZxDiagram, mapping: dict) -> ZxDiagram:
    out = d.copy()
    out.variables = [mapping.get(v, v) for v in d.variables]
    out.spiders = {
        sid: Spider(s.colour, Phase(s.phase.qturns,
                                    frozenset(mapping.get(v, v)
                                              for v in s.phase.pivars)))
        for sid, s in d.spiders.items()}
    out.constraints = [(frozenset(mapping.get(v, v) for v in vs), rhs)
                       for vs, rhs in d.constraints]
    return out


# -- rules --------------------------------------------------------------------


@dataclass
class RewriteRule:
    """lhs and rhs share the same boundary ports ("b", "out", k).

    ``corr_exprs`` maps each lhs outcome variable to an XOR expression in rhs
    variables; ``subst`` gives, for each lhs variable, the rhs variables whose
    XOR replaces it in the host diagram's other phases and constraints.
    """

    name: str
    lhs: ZxDiagram
    rhs: ZxDiagram
    guarantee: str
    w: int | None = None
    corr_exprs: dict = field(default_factory=dict)
    subst: dict = field(default_factory=dict)
    check_total: bool = False

    def __post_init__(self):
        lp = {ep[2] for e in self.lhs.edges.values()
              for ep in e.ends() if ep[0] == "b"}
        rp = {ep[2] for e in self.rhs.edges.values()
              for ep in e.ends() if ep[0] == "b"}
        if lp != rp:
            raise ValueError(f"rule {self.name}: port mismatch {lp} vs {rp}")
        if self.guarantee == IDEAL_REGION and self.lhs.variables:
            raise ValueError("ideal-region rules cannot consume variables")
        for side in (self.lhs, self.rhs):
            for e in side.edges.values():
                if e.a == e.b:
                    raise ValueError(f"rule {self.name}: self-loop in shape")

    def slots(self) -> tuple[dict, dict]:
        """Binding slot names: s1.. for sorted lhs spiders, e1.. for edges."""
        skey = {f"s{i + 1}": sid for i, sid in enumerate(sorted(self.lhs.spiders))}
        ekey = {f"e{i + 1}": eid for i, eid in enumerate(sorted(self.lhs.edges))}
        return skey, ekey

    def check_names(self, binding: dict, vars: dict, new: dict) -> None:
        """Raise RuleBindingError for a ``binding`` key that is not a slot, a
        ``vars`` key that is not an lhs variable or a ``new`` key that is not
        an rhs variable."""
        skey, ekey = self.slots()
        for what, names, known in (("slots", binding, {*skey, *ekey}),
                                   ("lhs variables", vars, self.lhs.variables),
                                   ("rhs variables", new, self.rhs.variables)):
            unknown = sorted(set(names) - set(known))
            if unknown:
                raise RuleBindingError(
                    f"binding mismatch: unknown {what} {unknown}")

    def inverse(self) -> "RewriteRule":
        if self.lhs.variables or self.rhs.variables or self.lhs.constraints \
                or self.rhs.constraints:
            raise ValueError("only variable-free rules can be inverted")
        return RewriteRule(self.name + "~",
                           self.rhs.copy(), self.lhs.copy(),
                           self.guarantee, self.w)


def _rule_elim(colour: str = "Z") -> RewriteRule:
    lhs = ZxDiagram()
    s = lhs.add_spider(colour)
    lhs.add_edge(("s", s), ("b", "out", 0))
    lhs.add_edge(("s", s), ("b", "out", 1))
    rhs = ZxDiagram()
    rhs.add_edge(("b", "out", 0), ("b", "out", 1))
    return RewriteRule("elim", lhs, rhs, FAULT_EQUIVALENT)


def _rule_fuse_1(colour: str = "Z", n: int = 2) -> RewriteRule:
    lhs = ZxDiagram()
    s = lhs.add_spider(colour)
    for k in range(n):
        lhs.add_edge(("s", s), ("b", "out", k))
    rhs = ZxDiagram()
    hub = rhs.add_spider(colour)
    cap = rhs.add_spider(colour)
    for k in range(n):
        rhs.add_edge(("s", hub), ("b", "out", k))
    rhs.add_edge(("s", hub), ("s", cap))
    return RewriteRule("fuse-1", lhs, rhs,
                       FAULT_EQUIVALENT)


def _fuse_4_shape(drop_edge: bool) -> tuple[ZxDiagram, ZxDiagram]:
    lhs = ZxDiagram()
    s = lhs.add_spider("Z")
    for k in range(4):
        lhs.add_edge(("s", s), ("b", "out", k))
    rhs = ZxDiagram()
    ss = [rhs.add_spider("Z") for _ in range(4)]
    for k in range(4):
        rhs.add_edge(("s", ss[k]), ("b", "out", k))
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    if drop_edge:
        cycle = cycle[:-1]
    for i, j in cycle:
        rhs.add_edge(("s", ss[i]), ("s", ss[j]))
    return lhs, rhs


def _rule_fuse_4() -> RewriteRule:
    lhs, rhs = _fuse_4_shape(drop_edge=False)
    return RewriteRule("fuse-4", lhs, rhs, FAULT_EQUIVALENT)


def _rule_mutated_fuse_4() -> RewriteRule:
    """fuse-4 with one cycle edge removed: an unsound certificate candidate,
    kept as a negative control for the verifier."""
    lhs, rhs = _fuse_4_shape(drop_edge=True)
    return RewriteRule("mutated-fuse-4", lhs, rhs, FAULT_EQUIVALENT)


def _rule_pi_copy(colour: str = "Z", n: int = 2, a: int = 0) -> RewriteRule:
    op = _opp(colour)
    lhs = ZxDiagram()
    pi = lhs.add_spider(op, 2)
    hub = lhs.add_spider(colour, a)
    lhs.add_edge(("b", "out", 0), ("s", pi))
    lhs.add_edge(("s", pi), ("s", hub))
    for k in range(1, n + 1):
        lhs.add_edge(("s", hub), ("b", "out", k))
    rhs = ZxDiagram()
    hub2 = rhs.add_spider(colour, (-a) % 4)
    rhs.add_edge(("s", hub2), ("b", "out", 0))
    for k in range(1, n + 1):
        pk = rhs.add_spider(op, 2)
        rhs.add_edge(("s", hub2), ("s", pk))
        rhs.add_edge(("s", pk), ("b", "out", k))
    return RewriteRule("pi-copy",
                       lhs, rhs, FAULT_EQUIVALENT)


def _rule_unfuse(colour: str = "Z", a: int = 1, n: int = 2) -> RewriteRule:
    lhs = ZxDiagram()
    s = lhs.add_spider(colour, a)
    for k in range(n):
        lhs.add_edge(("s", s), ("b", "out", k))
    rhs = ZxDiagram()
    ph = rhs.add_spider(colour, a)
    hub = rhs.add_spider(colour, 0)
    rhs.add_edge(("b", "out", 0), ("s", ph))
    rhs.add_edge(("s", ph), ("s", hub))
    for k in range(1, n):
        rhs.add_edge(("s", hub), ("b", "out", k))
    return RewriteRule("unfuse",
                       lhs, rhs, FAULT_EQUIVALENT)


def _rule_pi_pi_id(colour: str = "Z") -> RewriteRule:
    lhs = ZxDiagram()
    s1 = lhs.add_spider(colour, 2)
    s2 = lhs.add_spider(colour, 2)
    lhs.add_edge(("b", "out", 0), ("s", s1))
    lhs.add_edge(("s", s1), ("s", s2))
    lhs.add_edge(("s", s2), ("b", "out", 1))
    rhs = ZxDiagram()
    rhs.add_edge(("b", "out", 0), ("b", "out", 1))
    return RewriteRule("pi-pi-id", lhs, rhs,
                       FAULT_EQUIVALENT)


def _rule_perfect_fuse(colour: str = "Z", a1: int = 0, a2: int = 0,
                       n1: int = 2, n2: int = 2) -> RewriteRule:
    """Fuse two same-colour spiders joined by a fault-free edge.  Neither side
    has a fault-prone internal edge, so the rule is fault-equivalent."""
    lhs = ZxDiagram()
    sa = lhs.add_spider(colour, a1)
    sb = lhs.add_spider(colour, a2)
    for k in range(n1 - 1):
        lhs.add_edge(("s", sa), ("b", "out", k))
    lhs.add_edge(("s", sa), ("s", sb), ideal=True)
    for k in range(n1 - 1, n1 + n2 - 2):
        lhs.add_edge(("s", sb), ("b", "out", k))
    rhs = ZxDiagram()
    m = rhs.add_spider(colour, (a1 + a2) % 4)
    for k in range(n1 + n2 - 2):
        rhs.add_edge(("s", m), ("b", "out", k))
    return RewriteRule("perfect-fuse",
                       lhs, rhs, FAULT_EQUIVALENT)


def _rule_copy(colour: str = "Z", n: int = 2) -> RewriteRule:
    """A basis state copied through an opposite-colour spider; the internal
    edge is fault-free on the lhs and absent on the rhs."""
    op = _opp(colour)
    lhs = ZxDiagram()
    cap = lhs.add_spider(op)
    hub = lhs.add_spider(colour)
    lhs.add_edge(("s", cap), ("s", hub), ideal=True)
    for k in range(n):
        lhs.add_edge(("s", hub), ("b", "out", k))
    rhs = ZxDiagram()
    for k in range(n):
        c = rhs.add_spider(op)
        rhs.add_edge(("s", c), ("b", "out", k))
    return RewriteRule("copy", lhs, rhs,
                       FAULT_EQUIVALENT)


def _rule_cat_xs(n: int = 3, colour: str = "Z") -> RewriteRule:
    """An opposite-colour pi spider on every leg of a phase-free hub is
    absorbed: the product acts as a stabiliser of the hub state."""
    op = _opp(colour)
    lhs = ZxDiagram()
    hub = lhs.add_spider(colour)
    for k in range(n):
        pk = lhs.add_spider(op, 2)
        lhs.add_edge(("s", hub), ("s", pk))
        lhs.add_edge(("s", pk), ("b", "out", k))
    rhs = ZxDiagram()
    hub2 = rhs.add_spider(colour)
    for k in range(n):
        rhs.add_edge(("s", hub2), ("b", "out", k))
    return RewriteRule("cat-xs", lhs, rhs,
                       FAULT_EQUIVALENT)


def _fuse_n_shape(n: int, chains: int, colour: str) -> tuple[ZxDiagram, ZxDiagram]:
    """2n-legged spider vs two hubs joined by ``chains`` two-spider bridges;
    the remaining n - chains legs of each half attach to the hubs directly."""
    lhs = ZxDiagram()
    s = lhs.add_spider(colour)
    for k in range(2 * n):
        lhs.add_edge(("s", s), ("b", "out", k))
    rhs = ZxDiagram()
    h1 = rhs.add_spider(colour)
    h2 = rhs.add_spider(colour)
    direct = n - chains
    for k in range(direct):
        rhs.add_edge(("s", h1), ("b", "out", k))
    for k in range(direct):
        rhs.add_edge(("s", h2), ("b", "out", n + k))
    for i in range(chains):
        u = rhs.add_spider(colour)
        v = rhs.add_spider(colour)
        rhs.add_edge(("s", h1), ("s", u))
        rhs.add_edge(("s", u), ("s", v))
        rhs.add_edge(("s", v), ("s", h2))
        rhs.add_edge(("s", u), ("b", "out", direct + i))
        rhs.add_edge(("s", v), ("b", "out", n + direct + i))
    return lhs, rhs


def _rule_fuse_n(n: int = 2, colour: str = "Z") -> RewriteRule:
    lhs, rhs = _fuse_n_shape(n, n, colour)
    return RewriteRule("fuse-n", lhs, rhs,
                       FAULT_EQUIVALENT)


def _rule_fuse_n_w(n: int = 4, w: int = 2, colour: str = "Z") -> RewriteRule:
    if not 0 <= w <= n:
        raise ValueError("need 0 <= w <= n")
    lhs, rhs = _fuse_n_shape(n, w, colour)
    return RewriteRule("fuse-n-w",
                       lhs, rhs, W_FAULT_EQUIVALENT, w=w)


def _rule_split_meas(m: int = 2, basis: str = "Z") -> RewriteRule:
    """Replace a single m-qubit parity measurement (one hub over m wire taps)
    by a cat-state measurement: a cat hub coupled to each tap through its own
    outcome spider, the parity of the new outcomes reproducing the old one."""
    if basis not in ("Z", "X"):
        raise ValueError(f"bad basis {basis!r}")
    tap_col = basis          # taps copy the measured letter
    hub_col = _opp(basis)    # outcome-carrying colour
    lhs = ZxDiagram()
    lhs.add_variable("v0")
    hub = lhs.add_spider(hub_col, 0, ["v0"])
    for i in range(m):
        t = lhs.add_spider(tap_col)
        lhs.add_edge(("b", "out", 2 * i), ("s", t))
        lhs.add_edge(("s", t), ("b", "out", 2 * i + 1))
        lhs.add_edge(("s", t), ("s", hub))
    rhs = ZxDiagram()
    wnames = [f"w{i + 1}" for i in range(m)]
    for w in wnames:
        rhs.add_variable(w)
    # even-parity cat state: an opposite-colour hub, one outcome spider per tap
    cat = rhs.add_spider(hub_col)
    for i in range(m):
        r = rhs.add_spider(hub_col, 0, [wnames[i]])
        t = rhs.add_spider(tap_col)
        rhs.add_edge(("s", cat), ("s", r))
        rhs.add_edge(("s", r), ("s", t))
        rhs.add_edge(("b", "out", 2 * i), ("s", t))
        rhs.add_edge(("s", t), ("b", "out", 2 * i + 1))
    return RewriteRule("split-meas", lhs, rhs,
                       W_FAULT_EQUIVALENT, w=3,
                       corr_exprs={"v0": "^".join(wnames)},
                       subst={"v0": tuple(wnames)})


def _rule_flag_taps(m: int = 3, colour: str = "Z") -> RewriteRule:
    """Couple m fault-free wires to a fresh flag spider whose outcome is
    constrained to zero.  Only sound when the wires really are fault-free and
    the flag outcome is deterministic, so this is an ideal-region rule with a
    totality check."""
    lhs = ZxDiagram()
    for i in range(m):
        lhs.add_edge(("b", "out", 2 * i), ("b", "out", 2 * i + 1), ideal=True)
    rhs = ZxDiagram()
    rhs.add_variable("v0")
    flag = rhs.add_spider(_opp(colour), 0, ["v0"])
    for i in range(m):
        t = rhs.add_spider(colour)
        rhs.add_edge(("b", "out", 2 * i), ("s", t), ideal=True)
        rhs.add_edge(("s", t), ("b", "out", 2 * i + 1), ideal=True)
        rhs.add_edge(("s", t), ("s", flag), ideal=True)
    rhs.add_constraint(["v0"], 0)
    return RewriteRule("flag-taps", lhs, rhs,
                       IDEAL_REGION, check_total=True)


def _wire_rule(name: str, lhs_ideal: bool, rhs_ideal: bool) -> RewriteRule:
    lhs = ZxDiagram()
    lhs.add_edge(("b", "out", 0), ("b", "out", 1), ideal=lhs_ideal)
    rhs = ZxDiagram()
    rhs.add_edge(("b", "out", 0), ("b", "out", 1), ideal=rhs_ideal)
    return RewriteRule(name, lhs, rhs, IDEAL_REGION)


def _rule_expose() -> RewriteRule:
    """Downgrade a fault-free edge to a fault-prone one (widening the noise)."""
    return _wire_rule("expose", lhs_ideal=True, rhs_ideal=False)


def _rule_seal() -> RewriteRule:
    """Mark an edge fault-free; only sound as part of an ideal-region argument."""
    return _wire_rule("seal", lhs_ideal=False, rhs_ideal=True)


def _rule_pi_state(colour: str = "Z") -> RewriteRule:
    lhs = ZxDiagram()
    cap = lhs.add_spider(colour, 2)
    lhs.add_edge(("s", cap), ("b", "out", 0))
    rhs = ZxDiagram()
    cap2 = rhs.add_spider(colour, 0)
    ph = rhs.add_spider(colour, 2)
    rhs.add_edge(("s", cap2), ("s", ph), ideal=True)
    rhs.add_edge(("s", ph), ("b", "out", 0))
    return RewriteRule("pi-state", lhs, rhs, IDEAL_REGION)


def _rule_fire_spider(colour: str = "Z", a: int = 0, n: int = 2) -> RewriteRule:
    """Push a stabiliser through a spider: negate its phase and emit an
    opposite-colour pi spider on every leg (fault-free internal edges)."""
    op = _opp(colour)
    lhs = ZxDiagram()
    hub = lhs.add_spider(colour, a)
    for k in range(n):
        lhs.add_edge(("s", hub), ("b", "out", k))
    rhs = ZxDiagram()
    hub2 = rhs.add_spider(colour, (-a) % 4)
    for k in range(n):
        pk = rhs.add_spider(op, 2)
        rhs.add_edge(("s", hub2), ("s", pk), ideal=True)
        rhs.add_edge(("s", pk), ("b", "out", k))
    return RewriteRule("fire-spider",
                       lhs, rhs, IDEAL_REGION)


def _rule_hadamard_hadamard(colour: str = "Z") -> RewriteRule:
    lhs = ZxDiagram()
    s = lhs.add_spider(colour)
    lhs.add_edge(("b", "out", 0), ("s", s), had=True)
    lhs.add_edge(("s", s), ("b", "out", 1), had=True)
    rhs = ZxDiagram()
    rhs.add_edge(("b", "out", 0), ("b", "out", 1))
    return RewriteRule("hadamard-hadamard", lhs, rhs,
                       IDEAL_REGION)


def _rule_encode_steane_goto() -> RewriteRule:
    """Replace the three-hub [[7,1,3]] logical-zero pattern by the fused
    flagless eight-CNOT encoder wireframe, everything fault-free.  This is the
    synthesis step of the optimised preparation derivation; faults are
    introduced afterwards by exposing edges and attaching the flag."""
    return RewriteRule("encode-steane-goto",
                       samples.steane_zero_spec(),
                       samples.goto_encoder_frame(), IDEAL_REGION)


RULES = {
    "elim": _rule_elim,
    "fuse-1": _rule_fuse_1,
    "fuse-4": _rule_fuse_4,
    "mutated-fuse-4": _rule_mutated_fuse_4,
    "pi-copy": _rule_pi_copy,
    "unfuse": _rule_unfuse,
    "pi-pi-id": _rule_pi_pi_id,
    "perfect-fuse": _rule_perfect_fuse,
    "copy": _rule_copy,
    "cat-xs": _rule_cat_xs,
    "fuse-n": _rule_fuse_n,
    "fuse-n-w": _rule_fuse_n_w,
    "split-meas": _rule_split_meas,
    "flag-taps": _rule_flag_taps,
    "expose": _rule_expose,
    "seal": _rule_seal,
    "pi-state": _rule_pi_state,
    "fire-spider": _rule_fire_spider,
    "hadamard-hadamard": _rule_hadamard_hadamard,
    "encode-steane-goto": _rule_encode_steane_goto,
}


def make_rule(name: str, **params) -> RewriteRule:
    """Instantiate a registered rule; a trailing ``~`` names its inverse."""
    base = name[:-1] if name.endswith("~") else name
    if base not in RULES:
        raise ValueError(f"unknown rule {base!r} (have {sorted(RULES)})")
    rule = call_bound(RULES[base], f"rule {base!r}", **params)
    return rule.inverse() if base != name else rule


# -- application ---------------------------------------------------------------


@dataclass
class StepLog:
    corr_exprs: dict        # consumed host var -> expression in fresh vars
    before_region: ZxDiagram
    after_region: ZxDiagram


def _slot_of(lhs_eids: list, leid: int) -> str:
    return f"e{lhs_eids.index(leid) + 1}"


def apply_rule(d: ZxDiagram, rule: RewriteRule, binding: dict,
               vars: dict | None = None,
               new: dict | None = None) -> tuple[ZxDiagram, StepLog]:
    """Rewrite ``d`` at the given binding of ``rule``'s lhs.

    ``binding`` maps slot names (s1.., e1.. in sorted lhs id order) to host
    spider/edge ids; spider and wire-edge slots are mandatory, other edge
    slots are inferred deterministically when omitted.  ``vars`` binds lhs
    formal variables to host variables, ``new`` names the fresh variables
    created for the rhs formals.
    """
    lhs, rhs = rule.lhs, rule.rhs
    vars = dict(vars or {})
    new = dict(new or {})
    rule.check_names(binding, vars, new)
    skey, ekey = rule.slots()

    smap = {}
    for key, lsid in skey.items():
        if key not in binding:
            raise RuleBindingError(f"binding mismatch: spider slot {key} unbound")
        sid = binding[key]
        if sid not in d.spiders:
            raise RuleBindingError(f"binding mismatch: no spider {sid} ({key})")
        smap[lsid] = sid
    if len(set(smap.values())) != len(smap):
        raise RuleBindingError("binding mismatch: spider slots not distinct")
    matched = set(smap.values())

    for v in lhs.variables:
        if v not in vars:
            raise RuleBindingError(f"binding mismatch: rule variable {v} unbound")
        if vars[v] not in d.variables:
            raise RuleBindingError(
                f"binding mismatch: unknown host variable {vars[v]!r}")
    for v in rhs.variables:
        if v not in new:
            raise RuleBindingError(f"binding mismatch: fresh variable {v} unnamed")
        if new[v] in d.variables:
            raise RuleBindingError(
                f"binding mismatch: name {new[v]!r} already registered")
    if len(set(new.values())) != len(new):
        raise RuleBindingError("binding mismatch: fresh variable names collide")

    for lsid, sid in smap.items():
        ls, s = lhs.spiders[lsid], d.spiders[sid]
        want = frozenset(vars[v] for v in ls.phase.pivars)
        if (ls.colour, ls.phase.qturns, want) != \
                (s.colour, s.phase.qturns, s.phase.pivars):
            raise RuleBindingError(
                f"binding mismatch: spider {sid} does not match the rule shape")

    lhs_eids = sorted(lhs.edges)

    def check_edge(leid: int, deid: int) -> str | Exception | None:
        """None if the host edge fits the lhs edge slot, else an error."""
        if deid not in d.edges:
            return RuleBindingError(f"binding mismatch: no edge {deid}")
        le, de = lhs.edges[leid], d.edges[deid]
        kind = _edge_kind(le)
        if kind[0] == "boundary":
            u = smap[kind[1]]
            if ("s", u) not in (de.a, de.b):
                return RuleBindingError(
                    f"binding mismatch: edge {deid} does not touch spider {u}")
            far = de.b if de.a == ("s", u) else de.a
            if far == ("s", u):
                return RuleBindingError(
                    f"binding mismatch: edge {deid} is a self-loop")
            if far[0] == "s" and far[1] in matched:
                return RuleBindingError(
                    f"binding mismatch: edge {deid} joins two matched spiders"
                    f" but the rule treats it as boundary")
            return None
        if kind[0] == "internal":
            u, v = smap[kind[1]], smap[kind[2]]
            if {de.a, de.b} != {("s", u), ("s", v)}:
                return RuleBindingError(
                    f"binding mismatch: edge {deid} does not join spiders"
                    f" {u} and {v}")
        else:  # wire: the edge is consumed whole
            for ep in (de.a, de.b):
                if ep[0] == "s" and ep[1] in matched:
                    return RuleBindingError(
                        f"binding mismatch: wire slot bound to edge {deid}"
                        f" touching a matched spider")
        # an internal or wire edge must match the rule's attributes
        if de.had != le.had:
            return RuleBindingError(
                f"binding mismatch: edge {deid} hadamard flag differs")
        if de.ideal != le.ideal:
            if le.ideal:
                return IdealRegionError(
                    f"ideal-region precondition violated: edge {deid}"
                    f" is fault-prone")
            return RuleBindingError(
                f"binding mismatch: edge {deid} is fault-free")
        return None

    emap = {}
    used = set()
    for key in sorted(set(binding) & set(ekey)):
        leid, deid = ekey[key], binding[key]
        if deid in used:
            raise RuleBindingError(f"binding mismatch: edge {deid} bound twice")
        err = check_edge(leid, deid)
        if err is not None:
            raise err
        emap[leid] = deid
        used.add(deid)
    for leid in lhs_eids:
        if leid in emap:
            continue
        kind = _edge_kind(lhs.edges[leid])
        if kind[0] == "wire":
            raise RuleBindingError(
                f"binding mismatch: wire slot {_slot_of(lhs_eids, leid)}"
                f" must be bound explicitly")
        first_err = None
        chosen = None
        for deid in sorted(d.edges):
            if deid in used:
                continue
            err = check_edge(leid, deid)
            if err is None:
                chosen = deid
                break
            if isinstance(err, IdealRegionError) and first_err is None:
                first_err = err
        if chosen is None:
            if first_err is not None:
                raise first_err
            raise RuleBindingError(
                f"binding mismatch: no host edge fits slot"
                f" {_slot_of(lhs_eids, leid)}")
        emap[leid] = chosen
        used.add(chosen)

    for deid, de in d.edges.items():
        if deid in used:
            continue
        for ep in (de.a, de.b):
            if ep[0] == "s" and ep[1] in matched:
                raise RuleBindingError(
                    f"binding mismatch: edge {deid} at matched spider {ep[1]}"
                    f" is not covered by the rule")

    # -- splice ---------------------------------------------------------------
    res = d.copy()
    for sid in matched:
        del res.spiders[sid]
    for deid in used:
        del res.edges[deid]

    far, resid, ctx_ideal, orig, wire_ports = {}, {}, {}, {}, set()
    for leid, deid in emap.items():
        le, de = lhs.edges[leid], d.edges[deid]
        kind = _edge_kind(le)
        if kind[0] == "boundary":
            u, k = smap[kind[1]], kind[2]
            far[k] = de.b if de.a == ("s", u) else de.a
            resid[k] = de.had != le.had
            ctx_ideal[k] = de.ideal
            orig[k] = deid
        elif kind[0] == "wire":
            k1, k2 = kind[1], kind[2]
            far[k1], far[k2] = de.a, de.b
            resid[k1] = resid[k2] = False
            ctx_ideal[k1] = ctx_ideal[k2] = True  # consumed whole; rhs decides
            orig[k1], orig[k2] = deid, None
            wire_ports.update((k1, k2))

    for v in rhs.variables:
        res.add_variable(new[v])
    rsp = {}
    for rsid in sorted(rhs.spiders):
        s = rhs.spiders[rsid]
        rsp[rsid] = res.add_spider(s.colour, s.phase.qturns,
                                   [new[v] for v in s.phase.pivars])

    def place(a, b, had, ideal, reuse):
        if reuse is None:
            res.add_edge(a, b, had, ideal)
        else:
            res.edges[reuse] = Edge(a, b, had, ideal)

    for reid in sorted(rhs.edges):
        re = rhs.edges[reid]
        kind = _edge_kind(re)
        if kind[0] == "internal":
            res.add_edge(("s", rsp[kind[1]]), ("s", rsp[kind[2]]),
                         re.had, re.ideal)
        elif kind[0] == "boundary":
            # ports matched leniently keep the host flag; ports consumed from
            # exact-matched wire slots take the flag the rule declares
            u, k = rsp[kind[1]], kind[2]
            ideal = re.ideal if k in wire_ports else ctx_ideal[k]
            place(("s", u), far[k], resid[k] != re.had, ideal, orig[k])
        else:
            k1, k2 = kind[1], kind[2]
            reuse = orig[k1] if orig[k1] is not None else orig[k2]
            if orig[k1] is not None and orig[k2] is not None:
                reuse = min(orig[k1], orig[k2])
            place(far[k1], far[k2],
                  bool(resid[k1]) ^ re.had ^ bool(resid[k2]),
                  ctx_ideal[k1] and re.ideal and ctx_ideal[k2], reuse)

    for vs, rhs_bit in rhs.constraints:
        res.add_constraint([new[v] for v in vs], rhs_bit)

    for v in lhs.variables:
        host = vars[v]
        repl = frozenset(new[t] for t in rule.subst.get(v, ()))
        using = [sid for sid, s in res.spiders.items()
                 if host in s.phase.pivars]
        in_cons = any(host in cvs for cvs, _ in res.constraints)
        if (using or in_cons) and not repl:
            raise RuleBindingError(
                f"binding mismatch: variable {host!r} is still used elsewhere"
                f" and the rule provides no substitute")
        for sid in using:
            s = res.spiders[sid]
            res.spiders[sid] = Spider(s.colour, Phase(
                s.phase.qturns, (s.phase.pivars - {host}) | repl))
        res.constraints = [
            ((cvs - {host}) | repl, bit) if host in cvs else (cvs, bit)
            for cvs, bit in res.constraints]
        res.variables.remove(host)

    errs = res.validate()
    if errs:
        raise RuntimeError(f"rewrite produced an invalid diagram: {errs}")

    # -- regions and log --------------------------------------------------------
    before_region = _rename_vars(lhs, vars)
    after_region = _rename_vars(rhs, new)
    for leid in lhs_eids:
        if _edge_kind(lhs.edges[leid])[0] == "boundary":
            k = _edge_kind(lhs.edges[leid])[2]
            before_region.set_ideal(leid, ctx_ideal[k])
    for reid in sorted(rhs.edges):
        kind = _edge_kind(rhs.edges[reid])
        if kind[0] == "boundary" and kind[2] not in wire_ports:
            after_region.set_ideal(reid, ctx_ideal[kind[2]])

    corr_exprs = {}
    for lv, expr in rule.corr_exprs.items():
        terms = [t.strip() for t in expr.split("^")]
        corr_exprs[vars[lv]] = "^".join(
            t if t in ("0", "1") else new[t] for t in terms)

    log = StepLog(corr_exprs, before_region, after_region)

    if rule.guarantee == IDEAL_REGION:
        rows = {v: v for v in d.variables}
        corr = OutcomeMap.parse(res.variables, d.variables, rows)
        after = FaultClasses(res)
        if not equal_on_webs(after, FaultClasses(d), corr):
            raise IdealRegionError(
                f"ideal-region rewrite {rule.name} changed the diagram"
                f" semantics")
        if rule.check_total and not after.total:
            raise IdealRegionError(
                f"rewrite {rule.name} made an outcome non-deterministic"
                f" (totality lost)")

    return res, log


# -- verification ---------------------------------------------------------------


def verify_step(before: ZxDiagram, after: ZxDiagram, w: int,
                corr_exprs: dict | None = None,
                budget: int = DEFAULT_BUDGET) -> Verdict:
    """w-fault-equivalence of two diagrams under edge-flip noise, with the
    after side playing the implementation.  ``corr_exprs`` maps each before
    variable to an XOR expression in after variables (identity by default).

    The check is :func:`~zxfault.feq.check_w_fault_equivalence`, which
    matches faulted diagrams by their web syndromes, never by kept
    tensors."""
    corr_exprs = dict(corr_exprs or {})
    unknown = sorted(corr_exprs.keys() - set(before.variables))
    if unknown:
        raise ValueError(f"correspondence rows for variables that the before"
                         f" diagram lacks: {unknown}")
    rows = {}
    for v in before.variables:
        if v in corr_exprs:
            rows[v] = corr_exprs[v]
        elif v in after.variables:
            rows[v] = v
        else:
            raise ValueError(f"no correspondence for variable {v!r}")
    corr = OutcomeMap.parse(after.variables, before.variables, rows)
    spec = EquivalenceSpec(Side(after, edge_flip_atoms(after)),
                           Side(before, edge_flip_atoms(before)),
                           corr, w, budget)
    return check_w_fault_equivalence(spec)


def rule_certificate(rule: RewriteRule, w: int,
                     budget: int = DEFAULT_BUDGET) -> Verdict:
    """Verify the rule's own lhs/rhs pair at the given weight."""
    return verify_step(rule.lhs, rule.rhs, w, rule.corr_exprs, budget)


@dataclass
class PushoutReport:
    ok: bool
    violations: list  # (PauliString, weight) internal faults with no boundary match
    checked: int


def check_boundary_pushout(d: ZxDiagram, max_weight: int = 3) -> PushoutReport:
    """Every undetectable internal fault up to the given weight must act like
    some boundary-only fault of no greater weight (weights counted in the
    respective restricted edge-flip models), up to a constant relabelling of
    the outcome variables.  On a diagram D != 0 that holds for two faults
    exactly when their web syndromes are equal modulo the webs that each
    outcome flip toggles
    (:attr:`~zxfault.webs.FaultClasses.outcome_flips`); on D = 0, which
    the zero rule (:attr:`~zxfault.webs.FaultClasses.alive`) reads from the
    webs, every fault is trivial.

    Both sides are least-weight tables, with no walk: the least weight of
    each boundary class is a breadth-first search over the boundary atoms'
    syndromes reduced by the flip rows (:func:`~zxfault.gf2.layers`),
    and the internal classes are a :class:`~zxfault.webs.ClassTable`.  An
    undetectable internal class fails when its least weight is below that
    of its boundary class, and only the faults of failing classes are
    walked, to list them."""
    if max_weight < 0:
        raise ValueError(f"max_weight must be at least 0, got {max_weight}")
    internal = sorted(eid for eid, e in d.edges.items()
                      if not e.ideal and e.a[0] == "s" and e.b[0] == "s")
    boundary = [eid for eid in d.non_ideal_edges() if eid not in set(internal)]
    if not internal:
        return PushoutReport(True, [], 0)

    def model(eids):
        return NoiseModel([AtomicFault(PauliString({eid: l}), "edge-flip")
                           for eid in eids for l in LETTERS], "edge-flip")

    inner = model(internal)
    classes = FaultClasses(d)
    if classes.alive:
        # D = 0: every non-empty internal fault counts and none fails
        return PushoutReport(True, [], count_faults(inner, max_weight) - 1)
    rows = gf2.echelon(classes.outcome_flips)
    # boundary faults need only their class, not their detectability
    steps = dict.fromkeys((gf2.reduce(rows, classes.syndrome(a))
                           for a in model(boundary).paulis()), 0)
    steps.pop(0, None)
    least = {s: w for w, layer in enumerate(gf2.layers(steps, max_weight))
             for s in layer}
    table = ClassTable(classes, inner, max_weight)
    failing = {}  # syndrome -> the weight its faults fail below
    for s, w in table.least.items():
        bound = least.get(gf2.reduce(rows, s), max_weight + 1)
        if table.undetectable[s] and bound > w:
            failing[s] = bound
    violations = []
    if failing:
        violations = [(f, wt) for f, wt, _, _ in table.faults_below(failing)]
    return PushoutReport(not violations, violations, table.checked - 1)


# -- proof scripts ---------------------------------------------------------------


@dataclass
class ScriptStep:
    rule: str
    params: dict = field(default_factory=dict)
    binding: dict = field(default_factory=dict)
    vars: dict = field(default_factory=dict)
    new: dict = field(default_factory=dict)
    verify_w: int | None = None
    line: int = 0


@dataclass
class ProofScript:
    """A textual fault-equivalence derivation.

    Line forms::

        name <title>
        source <ref>
        restriction <free text>
        target <ref>
        step <rule> [param=value ...] [sN=id eN=id ...] [v:x=hostvar ...]
             [n:x=newvar ...] [verify=W]
        claim w=W [var=expr ...]

    References are ``sample:<fn>[:arg...]``, ``builder:<name>[:k=v,...]:spec|impl``
    or ``file:<relative path>`` (a serialised diagram).
    """

    name: str
    source: str
    steps: list
    claim_w: int
    claim_corr: dict = field(default_factory=dict)
    restriction: str = ""
    target: str | None = None
    lines: dict = field(default_factory=dict)  # directive -> line number

    @classmethod
    def parse(cls, text: str) -> "ProofScript":
        lines: dict[str, str] = {}
        numbers: dict[str, int] = {}
        steps: list[ScriptStep] = []
        claim_w, claim_corr = None, {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            try:
                if head == "step":
                    steps.append(_parse_step(rest.split(), ln))
                elif head not in ("name", "source", "target", "restriction",
                                  "claim"):
                    raise ValueError(f"unknown directive {head!r}")
                elif head in lines:
                    raise ValueError(f"repeated {head} line")
                else:
                    lines[head], numbers[head] = rest, ln
                    if head == "claim":
                        claim_corr = key_values(rest.split(), "claim key")
                        if "w" not in claim_corr:
                            raise ValueError("claim needs w=W")
                        claim_w = _weight("w", claim_corr.pop("w"))
            except ValueError as exc:
                raise ScriptError(f"line {ln}: {exc}") from None
        if not {"name", "source", "claim"} <= lines.keys():
            raise ScriptError("script needs name, source and claim lines")
        return cls(lines["name"], lines["source"], steps, claim_w, claim_corr,
                   lines.get("restriction", ""), lines.get("target"), numbers)


def _parse_step(toks: list, ln: int) -> ScriptStep:
    if not toks:
        raise ValueError("step needs a rule name")
    st = ScriptStep(toks[0], line=ln)
    for key, val in key_values(toks[1:], "step key").items():
        if key == "verify":
            st.verify_w = _weight(key, val)
        elif key.startswith("v:"):
            st.vars[key[2:]] = val
        elif key.startswith("n:"):
            st.new[key[2:]] = val
        elif key[0] in "se" and key[1:].isdigit():
            st.binding[key] = as_int(val)
            if not isinstance(st.binding[key], int):
                raise ValueError(f"{key} must be an integer id, got {val!r}")
        else:
            st.params[key] = as_int(val)
    return st


def _weight(key: str, val: str) -> int:
    """The weight of a ``verify=W`` or ``claim w=W`` token: an integer >= 1."""
    w = as_int(val)
    if not (isinstance(w, int) and w >= 1):
        raise ValueError(f"weight must be an integer >= 1 in"
                         f" {key + '=' + val!r}")
    return w


def _resolve_directive(script: ProofScript, head: str,
                       base_dir: str | None) -> ZxDiagram:
    """The ``source`` or ``target`` diagram; an error names its line."""
    try:
        return resolve_ref(getattr(script, head), base_dir)
    except ValueError as exc:
        if head not in script.lines:  # built in code, not parsed
            raise
        raise ScriptError(f"line {script.lines[head]}: {exc}") from None


def resolve_ref(ref: str, base_dir: str | None = None) -> ZxDiagram:
    kind, _, rest = ref.partition(":")
    if kind == "sample":
        parts = rest.split(":")
        fname = parts[0].replace("-", "_")
        fn = getattr(samples, fname, None)
        if fname.startswith("_") or not callable(fn):
            raise ScriptError(f"unknown sample {parts[0]!r}")
        args = [as_int(a) for a in parts[1:]]
        d = call_bound(fn, f"sample {parts[0]!r}", *args)
        if not isinstance(d, ZxDiagram):
            raise ScriptError(f"sample {parts[0]!r} is not a diagram")
        return d
    if kind == "builder":
        parts = rest.split(":")
        if len(parts) not in (2, 3) or parts[-1] not in ("spec", "impl"):
            raise ScriptError(f"builder reference must be"
                              f" builder:<name>[:<k=v,...>]:spec|impl,"
                              f" got {ref!r}")
        items = parts[1].split(",") if len(parts) == 3 and parts[1] else []
        params = {k: as_int(v)
                  for k, v in key_values(items, "parameter for").items()}
        pair = build_gadget(parts[0], **params)
        if parts[-1] == "spec":
            return pair.spec.copy()
        return pair.implementation_diagram()[0]
    if kind == "file":
        path = os.path.join(base_dir or ".", rest)
        if not os.path.isfile(path):
            raise ScriptError(f"no such diagram file: {path}")
        with open(path) as fh:
            return ZxDiagram.loads(fh.read())
    raise ScriptError(f"unknown reference kind {kind!r}")


# Largest fault-count-times-tensor-entries product for which a script's claim
# is checked end to end rather than carried by the chain of step guarantees.
E2E_COST_CAP = 2 ** 26


def _e2e_cost(d: ZxDiagram, w: int) -> int:
    atoms = 3 * len(d.non_ideal_edges())
    n_faults = sum(math.comb(atoms, k) for k in range(w))
    entries = 2 ** (len(d.variables) + sum(map(len, d.boundary())))
    return n_faults * entries


def run_proof_script(script: ProofScript | str, base_dir: str | None = None,
                     budget: int = DEFAULT_BUDGET,
                     return_final: bool = False) -> dict:
    """Replay a derivation and report per-step and claim-level verdicts.

    The claim (source ~ final diagram at the stated weight, under the stated
    correspondence) is checked end to end by :func:`verify_step` whenever
    the fault enumeration is small enough; otherwise it is carried by the
    chain of per-step guarantees, which requires every step to be
    fault-equivalent (or w-fault-equivalent at a weight at least the claimed
    one).  A target's semantics is compared on the webs
    (:func:`~zxfault.feq.equal_on_webs`)."""
    if isinstance(script, str):
        script = ProofScript.parse(script)
    src = _resolve_directive(script, "source", base_dir)
    unknown = sorted(script.claim_corr.keys() - set(src.variables))
    if unknown:
        raise ScriptError(f"claim rows for variables that source"
                          f" {script.source} lacks: {unknown}")
    d = src
    report_steps: list[dict] = []
    failed: int | None = None
    chain_ok, chain_w = True, None
    for i, st in enumerate(script.steps):
        entry: dict = {"index": i, "rule": st.rule, "params": dict(st.params)}
        try:
            rule = make_rule(st.rule, **st.params)
            rule.check_names(st.binding, st.vars, st.new)
        except ValueError as exc:
            raise ScriptError(f"line {st.line}: {exc}") from None
        entry["guarantee"] = rule.guarantee
        if rule.w is not None:
            entry["guarantee-w"] = rule.w
        try:
            d2, log = apply_rule(d, rule, st.binding, st.vars, st.new)
        except (RuleBindingError, IdealRegionError) as exc:
            entry["error"] = str(exc)
            report_steps.append(entry)
            failed = i
            break
        if st.verify_w is not None:
            v = verify_step(log.before_region, log.after_region, st.verify_w,
                            log.corr_exprs, budget)
            entry["verify"] = {"w": st.verify_w, **v.to_json()}
            if not v.equivalent:
                report_steps.append(entry)
                failed = i
                break
        report_steps.append(entry)
        if rule.guarantee == IDEAL_REGION:
            chain_ok = False
        elif rule.guarantee == W_FAULT_EQUIVALENT:
            chain_w = rule.w if chain_w is None else min(chain_w, rule.w)
        d = d2

    report = {
        "script": script.name,
        "source": script.source,
        "restriction": script.restriction,
        "steps": report_steps,
        "failed_step": failed,
        "claim": {"w": script.claim_w, "corr": dict(script.claim_corr),
                  "mode": None, "verified": False, "verdict": None},
        "final_diagram_sha256": None,
        "target_semantics_match": None,
    }
    if failed is not None:
        return report
    report["final_diagram_sha256"] = hashlib.sha256(
        d.dumps().encode()).hexdigest()
    if return_final:
        report["final_diagram"] = d

    if script.target is not None:
        tgt = _resolve_directive(script, "target", base_dir)
        if sorted(tgt.variables) != sorted(d.variables):
            raise ScriptError(
                f"target {script.target} has outcome variables"
                f" {sorted(tgt.variables)}, the final diagram has"
                f" {sorted(d.variables)}")
        corr = OutcomeMap.parse(d.variables, tgt.variables,
                                {v: v for v in tgt.variables})
        report["target_semantics_match"] = equal_on_webs(
            FaultClasses(d), FaultClasses(tgt), corr)

    claim = report["claim"]
    rows = {v: script.claim_corr.get(v, v) for v in src.variables}
    try:
        OutcomeMap.parse(d.variables, src.variables, rows)
    except ValueError as exc:
        raise ScriptError(f"claim: {exc}") from None
    cost = _e2e_cost(src, script.claim_w) + _e2e_cost(d, script.claim_w)
    if cost <= E2E_COST_CAP:
        verdict = verify_step(src, d, script.claim_w, rows, budget)
        claim["mode"] = "end-to-end"
        claim["verified"] = verdict.equivalent
        claim["verdict"] = verdict.to_json()
    elif chain_ok and (chain_w is None or chain_w >= script.claim_w):
        claim["mode"] = "chain"
        claim["verified"] = True
    else:
        claim["mode"] = "not-verified"
    return report
