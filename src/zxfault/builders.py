"""Specification/implementation pairs for fault-tolerant circuit synthesis.

Each builder returns a :class:`GadgetPair`: an idealised specification
diagram, a candidate implementation circuit, the outcome correspondence
between their measurement registries, the claimed equivalence weight
(``w = 0`` meaning full fault equivalence, checked at whatever weight the
caller can afford), and any recorded outcome constraints (post-selections
that are detecting-region-backed and hence never fire fault-free).
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field, replace

from . import samples
from .circuit import Circuit
from .diagram import ZxDiagram
from .feq import EquivalenceSpec, Side
from .noise import edge_flip_atoms
from .oracle import DEFAULT_BUDGET, OutcomeMap
from .translate import to_zx


@dataclass
class GadgetPair:
    name: str
    spec: ZxDiagram
    implementation: Circuit
    corr_exprs: dict[str, str]  # spec outcome -> XOR expression in impl outcomes
    w: int  # claimed weight; 0 claims full fault equivalence
    constraints: list = field(default_factory=list)  # (vars, rhs) post-selections
    notes: str = ""

    def implementation_diagram(self, strategy: str = "template"):
        d, m = to_zx(self.implementation, strategy)
        for vars_, rhs in self.constraints:
            d.add_constraint(vars_, rhs)
        return d, m

    def correspondence(self, impl_diagram: ZxDiagram) -> OutcomeMap:
        return OutcomeMap.parse(impl_diagram.variables, self.spec.variables,
                                {v: self.corr_exprs[v] for v in self.spec.variables})

    def equivalence_spec(self, w: int, strategy: str = "template",
                         budget: int = DEFAULT_BUDGET) -> EquivalenceSpec:
        da, ma = self.implementation_diagram(strategy)
        db = self.spec.copy()
        return EquivalenceSpec(Side(da, ma), Side(db, edge_flip_atoms(db)),
                               self.correspondence(da), w, budget)


def _idealised_diagram(c: Circuit) -> ZxDiagram:
    """Translate a circuit with every operation and interior wire perfect;
    only the boundary edges remain fault-prone."""
    cc = c.copy()
    cc.all_wires_ideal = True
    cc.moments = [[replace(op, ideal=True) for op in m] for m in c.moments]
    d, _ = to_zx(cc, "template")
    for eid in d.boundary_edges():
        d.set_ideal(eid, False)
    return d


# -- cat states ----------------------------------------------------------------


def flagged_cat() -> GadgetPair:
    """Four-legged cat preparation protected by one flag qubit.

    The flag is entangled with the first chain qubit before the CNOT ladder
    and with the last one after it, then measured out; its outcome closes a
    detecting region, so the k = 0 post-selection never fires fault-free.
    """
    c = Circuit(5)
    c.gate("PREP_X", 0)
    for q in (1, 2, 3, 4):
        c.gate("PREP_Z", q)
    c.gate("CNOT", 0, 4)
    c.gate("CNOT", 0, 1)
    c.gate("CNOT", 1, 2)
    c.gate("CNOT", 2, 3)
    c.gate("CNOT", 3, 4)
    c.measure("MZ", 4, "k")
    return GadgetPair("flagged-cat", samples.cat_spec(4), c, {}, 0,
                      constraints=[(["k"], 0)],
                      notes="flag outcome post-selected to 0; total")


def _merge(c: Circuit, first, second, counter) -> list[str]:
    """Join two equal cat halves with transversal fault-tolerant ZZ checks on
    the given leg pairs; returns the check outcome variables."""
    vars_ = []
    for a, b in zip(first, second):
        v = f"k{next(counter)}"
        c.measure("MPP", (a, b), v, "ZZ", ft=True)
        vars_.append(v)
    return vars_


def _correct_half(c: Circuit, legs, key: str) -> None:
    # all-checks-fired branch is the cat with X across the second half
    for q in legs:
        c.cpauli("X", q, [key])


def recursive_cat(n: int) -> GadgetPair:
    """n-legged cat built by recursively merging halves with transversal
    fault-tolerant ZZ checks, post-selecting each merge's outcomes equal."""
    if n < 2 or n & (n - 1):
        raise ValueError("recursive cat needs n a power of two, n >= 2")
    c = Circuit(n)
    counter = itertools.count(1)
    constraints = []

    def build(qs):
        if len(qs) == 2:
            c.gate("PREP_X", qs[0])
            c.gate("PREP_Z", qs[1])
            c.gate("CNOT", qs[0], qs[1])
            return
        half = len(qs) // 2
        build(qs[:half])
        build(qs[half:])
        vars_ = _merge(c, qs[:half], qs[half:], counter)
        constraints.extend((pair, 0) for pair in zip(vars_, vars_[1:]))
        _correct_half(c, qs[half:], vars_[0])

    build(list(range(n)))
    return GadgetPair("recursive-cat", samples.cat_spec(n), c, {}, 0,
                      constraints=constraints,
                      notes="each merge's check outcomes form detecting pairs")


def truncated_cat(n: int, w: int) -> GadgetPair:
    """2n-legged cat from two recursively built n-cats joined by only w
    transversal fault-tolerant ZZ checks on the first w leg pairs; the claim
    weakens to w-fault equivalence but needs 2w CNOTs and w measurements."""
    if not 1 <= w <= n:
        raise ValueError("need 1 <= w <= n")
    half = recursive_cat(n)
    c = Circuit(2 * n)
    constraints = []
    for offset in (0, n):
        shifted = half.implementation.copy()
        for t, op in shifted.operations():
            ren = replace(op, qubits=tuple(q + offset for q in op.qubits),
                          var=f"{op.var}h{offset}" if op.var else None)
            if op.condition:
                ren = replace(ren, condition=(
                    frozenset(f"{v}h{offset}" for v in op.condition[0]),
                    op.condition[1]))
            c.append(ren)
        constraints.extend(([f"{v}h{offset}" for v in vs], rhs)
                           for vs, rhs in half.constraints)
    counter = itertools.count(1)
    vars_ = []
    for a, b in zip(range(w), range(n, n + w)):
        v = f"j{next(counter)}"
        c.measure("MPP", (a, b), v, "ZZ", ft=True)
        vars_.append(v)
    constraints.extend((pair, 0) for pair in zip(vars_, vars_[1:]))
    _correct_half(c, range(n, 2 * n), vars_[0])
    return GadgetPair("truncated-cat", samples.cat_spec(2 * n), c, {}, w,
                      constraints=constraints)


# -- syndrome extraction ----------------------------------------------------------


def repeating_measurement(n: int, stabilisers: list[tuple[str, tuple]],
                          rounds: int) -> GadgetPair:
    """``rounds`` rounds of fault-tolerant stabiliser measurements against a
    single perfect extraction round; the spec outcome for each stabiliser is
    read off the final round."""
    impl = Circuit(n)
    constraints = []
    for r in range(1, rounds + 1):
        for j, (letters, qubits) in enumerate(stabilisers, 1):
            impl.measure("MPP", qubits, f"k{r}_{j}", letters, ft=True)
            if r > 1:  # consecutive rounds agree fault-free
                constraints.append(([f"k{r - 1}_{j}", f"k{r}_{j}"], 0))
    spec_circ = Circuit(n)
    for j, (letters, qubits) in enumerate(stabilisers, 1):
        spec_circ.measure("MPP", qubits, f"K{j}", letters)
    spec = _idealised_diagram(spec_circ)
    corr = {f"K{j}": f"k{rounds}_{j}" for j in range(1, len(stabilisers) + 1)}
    return GadgetPair("repeating-measurement", spec, impl, corr, rounds,
                      constraints=constraints,
                      notes="spec outcomes correspond to the final round")


def shor_ft(m: int = 4) -> GadgetPair:
    """Weight-m Z-type parity measurement via a fault-tolerantly prepared
    m-legged cat ancilla, transversal CNOTs and destructive Z measurements;
    the parity of the individual outcomes reproduces the spec outcome."""
    spec_circ = Circuit(m)
    spec_circ.measure("MPP", tuple(range(m)), "k", "Z" * m, ft=True)
    spec, _ = to_zx(spec_circ, "template")

    c = Circuit(2 * m)
    # fault-tolerant preparation of the X-basis cat on the ancillas, idealised
    # to its specification: a perfect fan-in whose outputs are fault-prone
    # wires.  An X-basis cat collects only the total Z parity of the data;
    # a Z-basis cat would leak every pairwise parity.
    hub = 2 * m - 1
    c.gate("PREP_Z", hub, ideal=True)
    for i in range(m - 1):
        c.gate("PREP_X", m + i, ideal=True)
    for i in range(m - 1):
        c.gate("CNOT", m + i, hub, ideal=True)
    prep_end = len(c.moments)
    c.ideal_wires = {(q, t) for q in range(m, 2 * m) for t in range(prep_end)}
    for i in range(m):
        c.gate("CNOT", i, m + i)
    for i in range(m):
        c.measure("MZ", m + i, f"k{i + 1}")
    return GadgetPair("shor-ft", spec, c,
                      {"k": "^".join(f"k{i + 1}" for i in range(m))}, 3)


def _xx_pair_measurement(c: Circuit, a: int, b: int, anc: int, var: str) -> None:
    """Fault-tolerant XX parity measurement of (a, b) using a bare ancilla."""
    c.gate("PREP_X", anc)
    c.gate("CNOT", anc, a)
    c.gate("CNOT", anc, b)
    c.measure("MX", anc, var)


def cat_like() -> GadgetPair:
    """Deterministic projection of a qubit pair onto the +1-eigenspace of XX
    (a cat state with half its legs bent into inputs).

    Two bare-ancilla XX measurements make the projection fault-tolerant, but
    forcing the +1 outcome needs a conjugating correction pair, the first
    half of which precedes its own outcome -- the circuit is a specification
    artefact and cannot be run.
    """
    spec = ZxDiagram()
    s = spec.add_spider("X", 0)
    for q in range(2):
        spec.add_edge(("b", "in", q), ("s", s))
        spec.add_edge(("s", s), ("b", "out", q))
    c = Circuit(3)
    c.non_implementable = True
    c.cpauli("Z", 0, ["x1"])
    _xx_pair_measurement(c, 0, 1, 2, "x1")
    _xx_pair_measurement(c, 0, 1, 2, "x2")
    c.cpauli("Z", 0, ["x2"])
    return GadgetPair("cat-like", spec, c, {}, 0,
                      constraints=[(["x1", "x2"], 0)],
                      notes="first correction precedes its outcome; not runnable")


def shor_optimised(m: int = 4) -> GadgetPair:
    """Weight-m Z-type parity measurement with half the auxiliary overhead.

    Each of the two ancillas carries one bent half of the cat and collects the
    Z parity of m/2 data qubits; the halves are glued by a fault-tolerantly
    prepared XX=+1 pair (one reusable bare ancilla), so only m/2 + 1 auxiliary
    qubits and m/2 + 2 measurements are needed.
    """
    if m % 2:
        raise ValueError("the halved layout needs even m")
    spec_circ = Circuit(m)
    spec_circ.measure("MPP", tuple(range(m)), "k", "Z" * m, ft=True)
    spec, _ = to_zx(spec_circ, "template")

    a, b, anc = m, m + 1, m + 2
    half = m // 2
    c = Circuit(m + 3)
    c.gate("PREP_Z", a)
    c.gate("PREP_Z", b)
    # each ancilla collects one data parity before the glue and one after;
    # a Z slipping in between is absorbed or detected by the XX checks
    # instead of spreading to a second data qubit
    for i in range(half - 1):
        c.gate("CNOT", i, a)
    for i in range(half, m - 1):
        c.gate("CNOT", i, b)
    _xx_pair_measurement(c, a, b, anc, "x1")
    _xx_pair_measurement(c, a, b, anc, "x2")
    c.cpauli("Z", a, ["x2"])
    # the glue's pre-measurement correction, pushed back through the early
    # CNOTs onto their controls
    for i in range(half - 1):
        c.cpauli("Z", i, ["x2"])
    c.gate("CNOT", half - 1, a)
    c.measure("MZ", a, "k1")
    c.gate("CNOT", m - 1, b)
    c.measure("MZ", b, "k2")
    return GadgetPair("shor-optimised", spec, c, {"k": "k1^k2"}, 3,
                      constraints=[(["x1", "x2"], 0)])


def shor_alternative() -> GadgetPair:
    """Teleportation-like weight-4 Z-type parity measurement: the glued
    ancilla pair ends up carrying two of the data qubits, which are measured
    out to produce the parity halves."""
    spec_circ = Circuit(4)
    spec_circ.measure("MPP", (0, 1, 2, 3), "k", "ZZZZ", ft=True)
    spec, _ = to_zx(spec_circ, "template")

    # qubit ids chosen so boundary ports stay in data order: inputs are
    # 0,2,3,5 and outputs 1 (carrying 0), 2, 4 (carrying 3), 5
    d0, a, d1, d2, b, d3, anc = 0, 1, 2, 3, 4, 5, 6
    c = Circuit(7)
    c.gate("PREP_Z", a)
    c.gate("PREP_Z", b)
    c.gate("CNOT", d1, a)
    c.gate("CNOT", d3, b)
    _xx_pair_measurement(c, a, b, anc, "x1")
    _xx_pair_measurement(c, a, b, anc, "x2")
    c.cpauli("Z", a, ["x2"])
    # pre-measurement correction of the glue, pushed back through CNOT d1->a
    c.cpauli("Z", d1, ["x2"])
    c.gate("CNOT", a, d0)
    c.measure("MZ", d0, "k1")
    c.gate("CNOT", b, d2)
    c.measure("MZ", d2, "k2")
    c.cpauli("X", a, ["k1"])
    c.cpauli("X", b, ["k2"])
    return GadgetPair("shor-alternative", spec, c, {"k": "k1^k2"}, 2,
                      constraints=[(["x1", "x2"], 0)])


# -- code measurement --------------------------------------------------------------


def _check_rows(rows, n: int, label: str) -> None:
    for row in rows:
        if len(row) != n or any(bit not in (0, 1) for bit in row):
            raise ValueError(f"{label} rows must be 0/1 vectors of length {n}")


def steane(hx=None, hz=None) -> GadgetPair:
    """Syndrome extraction for a CSS code given by X- and Z-check matrices
    (default: the weight-4 XXXX / ZZZZ pair), measured Shor-style.

    The specification projects the data onto the code space with perfect
    parity checks, then measures every check once more with fault-prone
    hubs; the implementation shares the projection prefix and replaces each
    fault-prone hub by a fault-tolerantly prepared cat ancilla, transversal
    CNOTs and destructive single-qubit measurements whose parity reproduces
    the check outcome.
    """
    try:
        hx = [list(r) for r in (hx if hx is not None else [[1, 1, 1, 1]])]
        hz = [list(r) for r in (hz if hz is not None else [[1, 1, 1, 1]])]
        n = len(hx[0]) if hx else len(hz[0])
    except (TypeError, IndexError):
        raise ValueError("hx and hz must be lists of 0/1 rows, not both"
                         " empty") from None
    _check_rows(hx, n, "hx")
    _check_rows(hz, n, "hz")
    for xr in hx:
        for zr in hz:
            if sum(a & b for a, b in zip(xr, zr)) % 2:
                raise ValueError("X and Z checks must commute (hx . hz^T = 0)")

    spec = ZxDiagram()
    cur = {q: ("b", "in", q) for q in range(n)}

    def add_hubs(rows, basis, prefix, ideal):
        hub_col = "X" if basis == "Z" else "Z"
        for r, row in enumerate(rows, 1):
            var = f"{prefix}{r}"
            spec.add_variable(var)
            hub = spec.add_spider(hub_col, 0, [var])
            for q, bit in enumerate(row):
                if not bit:
                    continue
                tap = spec.add_spider(basis, 0)
                spec.add_edge(cur[q], ("s", tap))
                spec.add_edge(("s", tap), ("s", hub), ideal=ideal)
                cur[q] = ("s", tap)

    add_hubs(hx, "X", "px", True)
    add_hubs(hz, "Z", "pz", True)
    add_hubs(hx, "X", "kx", False)
    add_hubs(hz, "Z", "kz", False)
    for q in range(n):
        spec.add_edge(cur[q], ("b", "out", q))

    supports = ([[q for q, bit in enumerate(row) if bit] for row in hx]
                + [[q for q, bit in enumerate(row) if bit] for row in hz])
    c = Circuit(n + sum(map(len, supports)))
    corr = {}
    for r, row in enumerate(hx, 1):
        sup = supports[r - 1]
        c.measure("MPP", tuple(sup), f"px{r}", "X" * len(sup), ideal=True)
        corr[f"px{r}"] = f"px{r}"
    for r, row in enumerate(hz, 1):
        sup = supports[len(hx) + r - 1]
        c.measure("MPP", tuple(sup), f"pz{r}", "Z" * len(sup), ideal=True)
        corr[f"pz{r}"] = f"pz{r}"

    anc = itertools.count(n)
    for half, (basis, prefix, out) in enumerate(
            (("X", "kx", "xa"), ("Z", "kz", "zb"))):
        rows = (hx, hz)[half]
        for r, row in enumerate(rows, 1):
            sup = supports[half * len(hx) + r - 1]
            block = [next(anc) for _ in sup]
            hub, legs = block[0], block[1:]
            # fault-tolerant cat preparation idealised to its specification,
            # exactly as in the plain Shor gadget (colour-swapped for X checks)
            c.gate("PREP_X" if basis == "X" else "PREP_Z", hub, ideal=True)
            for a in legs:
                c.gate("PREP_Z" if basis == "X" else "PREP_X", a, ideal=True)
            for a in legs:
                c.gate("CNOT", *((hub, a) if basis == "X" else (a, hub)),
                       ideal=True)
            prep_end = len(c.moments)
            c.ideal_wires.update((q, t) for q in block for t in range(prep_end))
            vs = []
            for j, (a, q) in enumerate(zip(block, sup), 1):
                c.gate("CNOT", *((a, q) if basis == "X" else (q, a)))
                v = f"{out}{r}_{j}"
                c.measure("MX" if basis == "X" else "MZ", a, v)
                vs.append(v)
            corr[f"{prefix}{r}"] = "^".join(vs)
    return GadgetPair("steane", spec, c, corr, 2,
                      notes="perfect code-space projection prefix shared by "
                            "both sides; every fault-prone check hub is "
                            "measured Shor-style")


def steane_optimised() -> GadgetPair:
    """Optimised Steane-style X-check extraction for the distance-3
    seven-qubit code: five auxiliary qubits, fifteen CNOTs, five
    measurements.

    The auxiliary logical-zero block is only partially materialised -- the
    encoder wires that would start in ``|+>`` are fused with the transversal
    coupling into the data block, so four auxiliary qubits plus one flag
    replace the usual seven plus verification.  The returned specification
    is the logical-zero frame the layout is derived from; outcome-level
    verification of this gadget is carried at the edge-flip level by the
    shipped logical-zero rewrite script rather than by this pair.
    """
    data = list(range(7))
    aux = {2: 7, 4: 8, 5: 9, 6: 10}   # encoder wire -> auxiliary qubit
    flag = 11
    c = Circuit(12)
    for q in sorted(aux.values()):
        c.gate("PREP_Z", q)
    c.gate("PREP_Z", flag)

    def wire(w):   # encoder wires 0, 1, 3 are carried by the data itself
        return aux.get(w, data[w])

    for op in samples.GOTO_SEQUENCE:
        if op[0] == "f":
            c.gate("CNOT", wire(op[1]), flag)
        else:
            c.gate("CNOT", wire(op[1]), wire(op[2]))
    for w, q in sorted(aux.items()):
        c.gate("CNOT", q, data[w])
    for j, q in enumerate(sorted(aux.values()), 1):
        c.measure("MX", q, f"xa{j}")
    c.measure("MZ", flag, "kf")
    return GadgetPair("steane-optimised", samples.steane_zero_spec(), c, {}, 2,
                      constraints=[(["kf"], 0)],
                      notes="structural reference for the optimised layout; "
                            "the pair's spec is the auxiliary logical-zero "
                            "frame, not an outcome-level contract")


BUILDERS = {
    "flagged-cat": flagged_cat,
    "recursive-cat": recursive_cat,
    "truncated-cat": truncated_cat,
    "repeating-measurement": repeating_measurement,
    "shor-ft": shor_ft,
    "cat-like": cat_like,
    "shor-optimised": shor_optimised,
    "shor-alternative": shor_alternative,
    "steane": steane,
    "steane-optimised": steane_optimised,
}


def build_gadget(name: str, **params) -> GadgetPair:
    if name not in BUILDERS:
        raise ValueError(f"unknown gadget {name!r} (have {sorted(BUILDERS)})")
    return call_bound(BUILDERS[name], f"gadget {name!r}", **params)


def call_bound(fn, what: str, *args, **params):
    """``fn(*args, **params)`` once the arguments bind to ``fn``'s signature,
    every value bound to an ``int`` parameter is an int and every value
    bound to a ``bool`` parameter is 0 or 1, passed on as False or True; a
    ValueError naming ``what`` and the problem if not."""
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(*args, **params)
    except TypeError as exc:
        unknown = sorted(params.keys() - sig.parameters.keys())
        problem = f"unknown parameters {unknown}" if unknown else exc
        raise ValueError(f"{what}: {problem}; its parameters are"
                         f" ({', '.join(sig.parameters)})") from None
    for name, value in bound.arguments.items():
        kind = sig.parameters[name].annotation
        if kind in (bool, "bool"):
            if not isinstance(value, int) or value not in (0, 1):
                raise ValueError(f"{what}: parameter {name!r} must be 0 or"
                                 f" 1, got {value!r}")
            bound.arguments[name] = bool(value)
        elif kind in (int, "int") and not isinstance(value, int):
            raise ValueError(f"{what}: parameter {name!r} must be an"
                             f" integer, got {value!r}")
    return fn(*bound.args, **bound.kwargs)


def key_values(items, what: str) -> dict:
    """``KEY=VALUE`` items as a dict of stripped strings, in item order; a
    missing ``=``, an empty key or a repeated key is a ValueError."""
    out = {}
    for item in items:
        k, eq, v = (s.strip() for s in item.partition("="))
        if not (eq and k):
            raise ValueError(f"expected KEY=VALUE, got {item!r}")
        if k in out:
            raise ValueError(f"repeated {what} {k!r}")
        out[k] = v
    return out


def as_int(value: str):
    """``value`` as an int when it spells one (an optional ``-`` and
    decimal digits), else ``value`` unchanged."""
    return int(value) if value.removeprefix("-").isdecimal() else value
