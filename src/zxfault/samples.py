"""Small hand-built diagrams shared by tests, docs, and the repro corpus."""

from __future__ import annotations

from .diagram import ZxDiagram


def wire(had: bool = False, ideal: bool = False) -> ZxDiagram:
    d = ZxDiagram()
    d.add_edge(("b", "in", 0), ("b", "out", 0), had=had, ideal=ideal)
    return d


def z_state(qturns: int = 0) -> ZxDiagram:
    """Single green spider with one output leg."""
    d = ZxDiagram()
    s = d.add_spider("Z", qturns)
    d.add_edge(("s", s), ("b", "out", 0))
    return d


def x_state(qturns: int = 0) -> ZxDiagram:
    d = ZxDiagram()
    s = d.add_spider("X", qturns)
    d.add_edge(("s", s), ("b", "out", 0))
    return d


def pauli_spider_on_wire(colour: str, qturns: int = 2) -> ZxDiagram:
    d = ZxDiagram()
    s = d.add_spider(colour, qturns)
    d.add_edge(("b", "in", 0), ("s", s))
    d.add_edge(("s", s), ("b", "out", 0))
    return d


def zz_measurement(var: str = "k", n: int = 2, ideal_internal: bool = False) -> ZxDiagram:
    """Non-destructive Z⊗...⊗Z parity measurement on n qubits, outcome ``var``.

    One green spider per qubit wire, all connected to a red hub carrying the
    outcome pi-variable.
    """
    d = ZxDiagram()
    d.add_variable(var)
    hub = d.add_spider("X", 0, [var])
    for q in range(n):
        s = d.add_spider("Z", 0)
        d.add_edge(("b", "in", q), ("s", s))
        d.add_edge(("s", s), ("b", "out", q))
        d.add_edge(("s", s), ("s", hub), ideal=ideal_internal)
    return d


def two_zz_measurements(ideal_internal: bool = False) -> ZxDiagram:
    """Two consecutive ZZ measurements on two qubits (outcomes k1, k2),
    with the always-satisfied constraint k1 ^ k2 = 0 recorded."""
    d = ZxDiagram()
    d.add_variable("k1")
    d.add_variable("k2")
    hub1 = d.add_spider("X", 0, ["k1"])
    hub2 = d.add_spider("X", 0, ["k2"])
    for q in range(2):
        s1 = d.add_spider("Z", 0)
        s2 = d.add_spider("Z", 0)
        d.add_edge(("b", "in", q), ("s", s1))
        d.add_edge(("s", s1), ("s", s2))
        d.add_edge(("s", s2), ("b", "out", q))
        d.add_edge(("s", s1), ("s", hub1), ideal=ideal_internal)
        d.add_edge(("s", s2), ("s", hub2), ideal=ideal_internal)
    d.add_constraint(["k1", "k2"], 0)
    return d


def cnot_diagram() -> ZxDiagram:
    d = ZxDiagram()
    c = d.add_spider("Z")
    x = d.add_spider("X")
    d.add_edge(("b", "in", 0), ("s", c))
    d.add_edge(("s", c), ("b", "out", 0))
    d.add_edge(("b", "in", 1), ("s", x))
    d.add_edge(("s", x), ("b", "out", 1))
    d.add_edge(("s", c), ("s", x))
    return d


def spider_tree(colour: str, qturns: int, legs: int) -> ZxDiagram:
    d = ZxDiagram()
    s = d.add_spider(colour, qturns)
    for q in range(legs):
        d.add_edge(("s", s), ("b", "out", q))
    return d


def web_corpus() -> list[tuple[str, ZxDiagram]]:
    """Twenty diagrams with at most six edges, exercising every spider class,
    hadamard edges, outcome variables and internal edges."""
    out: list[tuple[str, ZxDiagram]] = []
    out.append(("wire", wire()))
    out.append(("had-wire", wire(had=True)))
    out.append(("z-state", z_state()))
    out.append(("x-state-s", x_state(1)))
    out.append(("z-pi-on-wire", pauli_spider_on_wire("Z", 2)))
    out.append(("x-pi-on-wire", pauli_spider_on_wire("X", 2)))
    out.append(("z-s-on-wire", pauli_spider_on_wire("Z", 1)))
    out.append(("green-3", spider_tree("Z", 0, 3)))
    out.append(("red-3-pi", spider_tree("X", 2, 3)))
    out.append(("cnot", cnot_diagram()))
    out.append(("zz-meas", zz_measurement("k")))

    d = ZxDiagram()  # CZ: two greens joined by a hadamard edge
    a = d.add_spider("Z")
    b = d.add_spider("Z")
    d.add_edge(("b", "in", 0), ("s", a))
    d.add_edge(("s", a), ("b", "out", 0))
    d.add_edge(("b", "in", 1), ("s", b))
    d.add_edge(("s", b), ("b", "out", 1))
    d.add_edge(("s", a), ("s", b), had=True)
    out.append(("cz", d))

    d = ZxDiagram()  # green pi/2 -- red pi/2 chain
    a = d.add_spider("Z", 1)
    b = d.add_spider("X", 1)
    d.add_edge(("b", "in", 0), ("s", a))
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", b), ("b", "out", 0))
    out.append(("s-chain", d))

    d = ZxDiagram()  # destructive Z measurement
    d.add_variable("k")
    s = d.add_spider("X", 0, ["k"])
    d.add_edge(("b", "in", 0), ("s", s))
    out.append(("mz", d))

    d = ZxDiagram()  # XX measurement via hadamard edges into a hub
    d.add_variable("k")
    hub = d.add_spider("X", 0, ["k"])
    for q in range(1):
        s = d.add_spider("X", 0)
        d.add_edge(("b", "in", q), ("s", s))
        d.add_edge(("s", s), ("b", "out", q))
        d.add_edge(("s", s), ("s", hub), had=True)
    out.append(("mx-1q", d))

    d = ZxDiagram()  # pi spiders facing each other (detecting pair candidate)
    a = d.add_spider("Z", 0)
    b = d.add_spider("Z", 0)
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", a), ("b", "out", 0))
    d.add_edge(("s", b), ("b", "out", 1))
    out.append(("parallel-pair", d))

    d = ZxDiagram()  # mixed-colour triangle with a hadamard edge
    a = d.add_spider("Z", 0)
    b = d.add_spider("X", 0)
    c = d.add_spider("Z", 2)
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", b), ("s", c), had=True)
    d.add_edge(("s", c), ("s", a))
    d.add_edge(("s", a), ("b", "out", 0))
    out.append(("triangle-h", d))

    d = ZxDiagram()  # state then effect with a variable
    d.add_variable("k")
    a = d.add_spider("Z", 0)
    b = d.add_spider("X", 0, ["k"])
    d.add_edge(("s", a), ("s", b))
    out.append(("prep-then-mz", d))

    d = ZxDiagram()  # zero scalar: pi/2 pair, doubly connected (Y-edge region)
    a = d.add_spider("Z", 1)
    b = d.add_spider("Z", 1)
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", a), ("s", b))
    out.append(("s-pair-scalar", d))

    d = ZxDiagram()  # same with one hadamard edge
    a = d.add_spider("Z", 1)
    b = d.add_spider("Z", 1)
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", a), ("s", b), had=True)
    out.append(("s-pair-scalar-h", d))
    return out


def naive_cat(n: int = 4) -> ZxDiagram:
    """Unprotected n-qubit cat-state preparation, star layout: |+> on the hub
    qubit, CNOTs fanning out to |0> targets.  One green spider per CNOT on the
    hub wire, one red spider per target; every edge is fault-prone."""
    if n < 2:
        raise ValueError(f"naive_cat needs n >= 2, got {n}")
    d = ZxDiagram()
    zs = [d.add_spider("Z", 0) for _ in range(n - 1)]
    xs = [d.add_spider("X", 0) for _ in range(n - 1)]
    for i in range(n - 1):
        d.add_edge(("s", zs[i]), ("s", xs[i]))
        d.add_edge(("s", xs[i]), ("b", "out", i + 1))
    for i in range(n - 2):
        d.add_edge(("s", zs[i]), ("s", zs[i + 1]))
    d.add_edge(("s", zs[n - 2]), ("b", "out", 0))
    return d


def repetition_sandwich() -> ZxDiagram:
    """Perfect-measure / noisy wires / perfect-measure sandwich for the
    3-qubit repetition code (stabilisers ZZI, IZZ).  Only the three mid data
    edges are fault-prone; hub and boundary edges are ideal."""
    d = ZxDiagram()
    for v in ("s1", "s2", "s3", "s4"):
        d.add_variable(v)
    h1 = d.add_spider("X", 0, ["s1"])
    h2 = d.add_spider("X", 0, ["s2"])
    h3 = d.add_spider("X", 0, ["s3"])
    h4 = d.add_spider("X", 0, ["s4"])
    for q in range(3):
        g1 = d.add_spider("Z", 0)
        g2 = d.add_spider("Z", 0)
        d.add_edge(("b", "in", q), ("s", g1), ideal=True)
        d.add_edge(("s", g1), ("s", g2))
        d.add_edge(("s", g2), ("b", "out", q), ideal=True)
        for hub, qs in ((h1, (0, 1)), (h2, (1, 2))):
            if q in qs:
                d.add_edge(("s", g1), ("s", hub), ideal=True)
        for hub, qs in ((h3, (0, 1)), (h4, (1, 2))):
            if q in qs:
                d.add_edge(("s", g2), ("s", hub), ideal=True)
    d.add_constraint(["s1", "s3"], 0)
    d.add_constraint(["s2", "s4"], 0)
    return d


def green_chain(n_spiders: int) -> ZxDiagram:
    """Identity wire written as a chain of phaseless green spiders."""
    if n_spiders < 1:
        raise ValueError(f"green_chain needs n_spiders >= 1, got {n_spiders}")
    d = ZxDiagram()
    ss = [d.add_spider("Z", 0) for _ in range(n_spiders)]
    d.add_edge(("b", "in", 0), ("s", ss[0]))
    for i in range(n_spiders - 1):
        d.add_edge(("s", ss[i]), ("s", ss[i + 1]))
    d.add_edge(("s", ss[-1]), ("b", "out", 0))
    return d


def cat_spec(n: int) -> ZxDiagram:
    """Ideal n-legged cat-state preparation: a single fault-free green spider
    with n output legs; only the boundary edges are non-ideal."""
    d = ZxDiagram()
    s = d.add_spider("Z", 0)
    for q in range(n):
        d.add_edge(("s", s), ("b", "out", q))
    return d


# -- [[7,1,3]] logical-zero preparation --------------------------------------

# X-type parity-check rows of the [[7,1,3]] CSS code (supports).
STEANE_ROWS = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))

# Frozen flagged encoder: wires starting in |+> and the gate sequence, where
# ("c", c, t) is a CNOT and ("f", w) couples wire w to the single flag qubit.
GOTO_PLUS_WIRES = (0, 1, 3)
GOTO_SEQUENCE = (("f", 3), ("f", 0), ("c", 3, 6), ("c", 1, 3), ("c", 1, 2),
                 ("c", 0, 5), ("c", 1, 0), ("c", 0, 4), ("c", 3, 0),
                 ("c", 0, 1), ("f", 0))


def steane_zero_spec() -> ZxDiagram:
    """Ideal [[7,1,3]] logical-zero preparation: one fault-free green hub per
    X-type check row over seven |0> qubit spiders; boundary edges fault-prone."""
    d = ZxDiagram()
    qs = [d.add_spider("X", 0) for _ in range(7)]
    for row in STEANE_ROWS:
        hub = d.add_spider("Z", 0)
        for q in row:
            d.add_edge(("s", hub), ("s", qs[q]), ideal=True)
    for q in range(7):
        d.add_edge(("s", qs[q]), ("b", "out", q))
    return d


def _goto_wire_blocks(d: ZxDiagram, flag: int | None) -> ZxDiagram:
    """Shared builder for the fused flagged-encoder graph: one spider per
    maximal same-colour wire block, edges in gate order, outputs last."""
    cur = {}
    for q in range(7):
        col = "Z" if q in GOTO_PLUS_WIRES else "X"
        cur[q] = (d.add_spider(col, 0), col)

    def block(q: int, col: str) -> int:
        sid, c = cur[q]
        if c != col:
            nid = d.add_spider(col, 0)
            d.add_edge(("s", sid), ("s", nid))
            cur[q] = (nid, col)
        return cur[q][0]

    for op in GOTO_SEQUENCE:
        if op[0] == "f":
            if flag is not None:
                d.add_edge(("s", block(op[1], "Z")), ("s", flag))
        else:
            _, c, t = op
            d.add_edge(("s", block(c, "Z")), ("s", block(t, "X")))
    for q in range(7):
        d.add_edge(("s", cur[q][0]), ("b", "out", q))
    return d


def goto_prep() -> ZxDiagram:
    """Flagged eight-CNOT [[7,1,3]] logical-zero preparation, fused per wire
    block, with the flag outcome post-selected to zero.  Exactly two internal
    edges stay idealised: the last colour transition on wire 1 and the last
    CNOT's internal edge; the rest of the graph is fault-prone."""
    d = ZxDiagram()
    d.add_variable("k")
    flag = d.add_spider("X", 0, ["k"])
    _goto_wire_blocks(d, flag)
    d.add_constraint(["k"], 0)
    for eid in (15, 16):
        d.set_ideal(eid, True)
    return d


def goto_encoder_frame() -> ZxDiagram:
    """The unflagged fused encoder graph with every internal edge idealised
    (the target shape of the encoder-synthesis rewrite, before the flag is
    attached and edges are exposed to faults)."""
    d = ZxDiagram()
    _goto_wire_blocks(d, None)
    for eid, e in d.edges.items():
        if e.a[0] == "s" and e.b[0] == "s":
            d.set_ideal(eid, True)
    return d
