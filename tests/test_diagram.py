import numpy as np
import pytest

from zxfault import samples
from zxfault.diagram import Edge, ZxDiagram, compose, apply_fault
from zxfault.oracle import evaluate, equal_up_to_scalar
from zxfault.pauli import PauliString


def test_validate_ok():
    d = samples.z_state()
    assert d.validate() == []


def test_validate_dangling_endpoint():
    d = ZxDiagram()
    d.add_edge(("s", 99), ("b", "out", 0))
    errs = d.validate()
    assert any("dangling" in e for e in errs)


def test_validate_unregistered_variable():
    d = samples.wire()
    d.add_constraint(["k9"], 0)
    errs = d.validate()
    assert any("k9" in e for e in errs)


def test_validate_duplicate_port():
    d = ZxDiagram()
    s = d.add_spider("Z")
    d.add_edge(("s", s), ("b", "out", 0))
    d.add_edge(("s", s), ("b", "out", 0))
    assert any("already used" in e for e in d.validate())


def test_validate_non_bool_edge_flags():
    d = samples.wire()
    ((eid, e),) = d.edges.items()
    d.edges[eid] = Edge(e.a, e.b, had="False", ideal=1)
    errs = d.validate()
    assert any("had flag 'False' is not a bool" in e for e in errs)
    assert any("ideal flag 1 is not a bool" in e for e in errs)


@pytest.mark.parametrize("field,value,message", [
    ("h", "false", "had flag 'false' is not a bool"),
    ("ideal", 1, "ideal flag 1 is not a bool"),
])
def test_from_json_rejects_non_bool_edge_flags(field, value, message):
    # the file's value reaches validate as it is, not coerced by bool()
    j = {"edges": [{"id": 0, "a": {"port": "in:0"}, "b": {"port": "out:0"},
                    field: value}]}
    with pytest.raises(ValueError, match=message):
        ZxDiagram.from_json(j)


def test_from_json_reads_json_flags():
    j = {"edges": [{"id": 0, "a": {"port": "in:0"}, "b": {"port": "out:0"},
                    "h": True},
                   {"id": 1, "a": {"port": "in:1"}, "b": {"port": "out:1"}}]}
    d = ZxDiagram.from_json(j)
    assert (d.edges[0].had, d.edges[0].ideal) == (True, False)
    assert (d.edges[1].had, d.edges[1].ideal) == (False, False)


def test_compose_identity_wires():
    w = compose(samples.wire(), samples.wire())
    assert len(w.edges) == 1
    assert w.inputs and w.outputs
    assert not list(w.edges.values())[0].had


def test_compose_parallel_states():
    d = compose(samples.z_state(), samples.x_state(), mode="parallel")
    assert len(d.outputs) == 2
    assert len(d.inputs) == 0


def test_compose_arity_error():
    two_out = compose(samples.z_state(), samples.z_state(), mode="parallel")
    with pytest.raises(ValueError, match="arity"):
        compose(two_out, samples.wire())


def test_compose_hadamard_edges_xor():
    w = compose(samples.wire(had=True), samples.wire(had=True))
    assert not list(w.edges.values())[0].had
    t = evaluate(w)
    assert np.allclose(t[()], np.eye(2))


def test_compose_ideal_and():
    w = compose(samples.wire(ideal=True), samples.wire(ideal=False))
    assert not list(w.edges.values())[0].ideal
    w = compose(samples.wire(ideal=True), samples.wire(ideal=True))
    assert list(w.edges.values())[0].ideal


def test_apply_fault_x_on_wire():
    d = samples.wire()
    f = PauliString({0: "X"})
    out = apply_fault(d, f)
    assert len(out.spiders) == 1
    s = list(out.spiders.values())[0]
    assert s.colour == "X" and s.phase.qturns == 2
    assert np.allclose(evaluate(out)[()], np.array([[0, 1], [1, 0]]))


def test_apply_fault_y_decomposes():
    out = apply_fault(samples.wire(), PauliString({0: "Y"}))
    colours = [s.colour for _, s in sorted(out.spiders.items())]
    assert colours == ["X", "Z"]
    t = evaluate(out)[()]
    y = np.array([[0, -1j], [1j, 0]])
    # up to global phase
    ratio = t[np.abs(t) > 1e-9][0] / y[np.abs(t) > 1e-9][0]
    assert np.allclose(t, ratio * y)


def test_apply_empty_fault_identity():
    d = samples.two_zz_measurements()
    out = apply_fault(d, PauliString())
    assert out.to_json() == d.to_json()


def test_apply_fault_rejects_ideal_edge():
    d = samples.wire(ideal=True)
    with pytest.raises(ValueError, match="ideal"):
        apply_fault(d, PauliString({0: "X"}))


def test_apply_fault_involution_up_to_scalar():
    d = samples.two_zz_measurements()
    for eid in list(d.edges)[:4]:
        for letter in "XYZ":
            f = PauliString({eid: letter})
            dd = apply_fault(apply_fault(d, f), f)
            assert equal_up_to_scalar(evaluate(d), evaluate(dd))


def test_json_round_trip():
    d = samples.two_zz_measurements()
    j = d.dumps()
    d2 = ZxDiagram.loads(j)
    assert d2.dumps() == j
    assert equal_up_to_scalar(evaluate(d), evaluate(d2))


def test_compose_associative_semantics():
    a, b, c = samples.wire(had=True), samples.pauli_spider_on_wire("Z"), samples.wire(had=True)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert equal_up_to_scalar(evaluate(left), evaluate(right))
