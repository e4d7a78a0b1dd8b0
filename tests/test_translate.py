import pytest

from reference import is_trivial
from zxfault import samples
from zxfault.circuit import Circuit
from zxfault.diagram import ZxDiagram, apply_fault
from zxfault.feq import EquivalenceSpec, Side, check_w_fault_equivalence
from zxfault.noise import circuit_level_atoms
from zxfault.oracle import equal_up_to_scalar, evaluate
from zxfault.pauli import PauliString
from zxfault.translate import insert_fault_gadget, to_zx


def parallel_wires(n: int) -> ZxDiagram:
    d = ZxDiagram()
    for i in range(n):
        d.add_edge(("b", "in", i), ("b", "out", i))
    return d


def gadget_edge(base: ZxDiagram, g: ZxDiagram) -> int:
    new_non_ideal = [eid for eid in g.non_ideal_edges() if eid not in base.edges]
    assert len(new_non_ideal) == 1
    return new_non_ideal[0]


# -- fault gadgets ---------------------------------------------------------------

def test_gadget_is_identity_noise_free():
    base = parallel_wires(4)
    p = PauliString({1: "X", 2: "Y", 3: "Z"})
    g = insert_fault_gadget(base, p)
    assert equal_up_to_scalar(evaluate(base), evaluate(g))


def test_gadget_z_flip_reproduces_the_pauli():
    base = parallel_wires(4)
    p = PauliString({1: "X", 2: "Y", 3: "Z"})
    g = insert_fault_gadget(base, p)
    ge = gadget_edge(base, g)
    assert equal_up_to_scalar(evaluate(apply_fault(base, p)),
                              evaluate(apply_fault(g, PauliString({ge: "Z"}))))


def test_gadget_x_flip_is_trivial():
    base = parallel_wires(2)
    g = insert_fault_gadget(base, PauliString({0: "Z", 1: "X"}))
    assert is_trivial(g, PauliString({gadget_edge(base, g): "X"}))


def test_gadget_adds_exactly_one_fault_location():
    base = parallel_wires(3)
    g = insert_fault_gadget(base, PauliString({0: "Y", 2: "X"}))
    ge = gadget_edge(base, g)
    assert set(g.non_ideal_edges()) == set(base.non_ideal_edges()) | {ge}


def test_gadget_on_hadamard_edge_acts_before_it():
    base = samples.wire(had=True)
    g = insert_fault_gadget(base, PauliString({0: "Z"}))
    ge = gadget_edge(base, g)
    assert equal_up_to_scalar(evaluate(base), evaluate(g))
    assert equal_up_to_scalar(evaluate(apply_fault(base, PauliString({0: "Z"}))),
                              evaluate(apply_fault(g, PauliString({ge: "Z"}))))


def test_gadget_rejects_empty_pauli_and_unknown_edges():
    base = parallel_wires(1)
    with pytest.raises(ValueError):
        insert_fault_gadget(base, PauliString())
    with pytest.raises(ValueError):
        insert_fault_gadget(base, PauliString({99: "X"}))


def test_stacked_gadgets_keep_working():
    base = parallel_wires(2)
    g1 = insert_fault_gadget(base, PauliString({0: "X", 1: "X"}))
    g2 = insert_fault_gadget(g1, PauliString({0: "Z"}))
    assert equal_up_to_scalar(evaluate(base), evaluate(g2))
    ge1 = gadget_edge(base, g1)
    assert equal_up_to_scalar(
        evaluate(apply_fault(base, PauliString({0: "X", 1: "X"}))),
        evaluate(apply_fault(g2, PauliString({ge1: "Z"}))))


# -- template translations -------------------------------------------------------

def test_fault_free_cnot_is_bare_and_gadget_free():
    c = Circuit(2)
    c.gate("CNOT", 0, 1, ideal=True)
    d, _ = to_zx(c)
    assert len(d.spiders) == 2
    internal = [e for e in d.edges.values()
                if e.a[0] == "s" and e.b[0] == "s"]
    assert len(internal) == 1 and internal[0].ideal
    assert equal_up_to_scalar(evaluate(samples.cnot_diagram()), evaluate(d))


def test_fully_ideal_circuit_has_empty_noise():
    c = Circuit(1)
    c.all_wires_ideal = True
    c.gate("H", 0, ideal=True)
    _, m = to_zx(c)
    assert m.atoms == []


def test_bare_cnot_template_needs_four_gadgets():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    d, m = to_zx(c)
    # 4 wire edges + the internal edge + one edge per gadget
    assert len(d.non_ideal_edges()) == 5 + 4
    assert len(m.atoms) == 3 * 9


def test_cnot_then_mz_template_is_gadget_free():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    c.measure("MZ", 1, "k")
    d, _ = to_zx(c)
    assert len(d.spiders) == 2
    assert d.variables == ["k"]


def test_plus_prep_feeding_cnot_fuses():
    c = Circuit(2)
    c.gate("PREP_X", 0)
    c.gate("CNOT", 0, 1)
    d, _ = to_zx(c)
    assert len(d.spiders) == 2
    assert len(d.inputs) == 1 and len(d.outputs) == 2


def test_ft_zz_measurement_matches_hub_shape():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", "ZZ", ft=True)
    d, _ = to_zx(c)
    assert len(d.spiders) == 3
    hub_edges = [e for e in d.edges.values() if e.a[0] == "s" and e.b[0] == "s"]
    assert len(hub_edges) == 2 and not any(e.ideal for e in hub_edges)
    assert equal_up_to_scalar(evaluate(samples.zz_measurement("k")), evaluate(d))


def test_hadamard_gate_semantics():
    c = Circuit(1)
    c.gate("H", 0)
    d, _ = to_zx(c)
    assert equal_up_to_scalar(evaluate(samples.wire(had=True)), evaluate(d))


def test_conditional_pauli_semantics():
    c = Circuit(1)
    c.measure("MZ", 0, "k")
    # reference: destructive Z measurement alone
    d, _ = to_zx(c)
    ref = ZxDiagram()
    ref.add_variable("k")
    s = ref.add_spider("X", 0, ["k"])
    ref.add_edge(("b", "in", 0), ("s", s))
    assert equal_up_to_scalar(evaluate(ref), evaluate(d))


def test_gadget_complete_counts_atoms_plus_boundary():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    d, _ = to_zx(c, "gadget-complete")
    atoms = circuit_level_atoms(c).atoms
    assert len(atoms) == 21
    assert len(d.non_ideal_edges()) == len(atoms) + 4


def test_invalid_circuit_rejected():
    c = Circuit(1)
    c.cpauli("X", 0, ["nope"])
    with pytest.raises(ValueError, match="invalid circuit"):
        to_zx(c)
    with pytest.raises(ValueError, match="strategy"):
        to_zx(Circuit(1), "fancy")


# -- cross-strategy fault equivalence ----------------------------------------------

def _ops_h(c):
    c.gate("H", 0)


def _ops_s(c):
    c.gate("S", 0)


def _ops_y(c):
    c.gate("Y", 0)


def _ops_prep_mz(c):
    c.gate("PREP_Z", 0)
    c.measure("MZ", 0, "k")


def _ops_cnot(c):
    c.gate("CNOT", 0, 1)


def _ops_cz(c):
    c.gate("CZ", 0, 1)


def _ops_cnot_mz(c):
    c.gate("CNOT", 0, 1)
    c.measure("MZ", 1, "k")


def _ops_plus_cnot(c):
    c.gate("PREP_X", 0)
    c.gate("CNOT", 0, 1)


def _ops_ft_zz(c):
    c.measure("MPP", (0, 1), "k", "ZZ", ft=True)


def _ops_mx_cpauli(c):
    c.measure("MX", 0, "k")
    c.cpauli("Z", 1, ["k"])


@pytest.mark.parametrize("qubits,ops", [
    (1, _ops_h),
    (1, _ops_s),
    (1, _ops_y),
    (1, _ops_prep_mz),
    (2, _ops_cnot),
    (2, _ops_cz),
    (2, _ops_cnot_mz),
    (2, _ops_plus_cnot),
    (2, _ops_ft_zz),
    (2, _ops_mx_cpauli),
], ids=["h", "s", "y", "prep-mz", "cnot", "cz", "cnot-mz", "plus-cnot",
        "ft-zz", "mx-cpauli"])
def test_template_matches_gadget_complete(qubits, ops):
    c = Circuit(qubits)
    ops(c)
    dt, mt = to_zx(c, "template")
    dg, mg = to_zx(c, "gadget-complete")
    spec = EquivalenceSpec(Side(dt, mt), Side(dg, mg), None, 2)
    v = check_w_fault_equivalence(spec)
    assert v.equivalent, v.dumps()


@pytest.mark.parametrize("pauli", ["ZZ", "XZ"])
def test_plain_mpp_template_matches_gadget_complete(pauli):
    """A plain (non-ft) MPP gadgets every atom of its operation in the
    template translation, which keeps it 3-fault-equivalent to the
    gadget-complete one."""
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli)
    dt, mt = to_zx(c, "template")
    dg, mg = to_zx(c, "gadget-complete")
    v = check_w_fault_equivalence(
        EquivalenceSpec(Side(dt, mt), Side(dg, mg), None, 3))
    assert v.equivalent, v.dumps()
