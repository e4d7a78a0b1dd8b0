import inspect

import pytest

from zxfault.builders import BUILDERS, build_gadget
from zxfault.circuit import Circuit
from zxfault.translate import to_zx


def cat_check_circuit() -> Circuit:
    c = Circuit(3)
    c.gate("PREP_X", 2)
    c.gate("CNOT", 2, 0)
    c.gate("CNOT", 2, 1)
    c.measure("MZ", 2, "k1")
    c.measure("MPP", (0, 1), "k2", pauli="ZZ", ft=True)
    c.cpauli("X", 0, ["k1", "k2"])
    return c


def test_validate_ok():
    assert cat_check_circuit().validate() == []


def test_validate_qubit_range():
    c = Circuit(1)
    c.gate("H", 3)
    assert any("out of range" in e for e in c.validate())


def test_validate_duplicate_outcome():
    c = Circuit(1)
    c.measure("MZ", 0, "k")
    c.measure("MZ", 0, "k")
    errs = c.validate()
    assert any("twice" in e for e in errs)


def test_validate_future_condition():
    c = Circuit(1)
    c.cpauli("X", 0, ["k"])
    c.measure("MZ", 0, "k")
    assert any("future" in e or "unmeasured" in e for e in c.validate())


def test_validate_dead_wire():
    c = Circuit(1)
    c.measure("MZ", 0, "k")
    c.gate("H", 0)
    assert any("lifetime" in e for e in c.validate())


def test_lifetime():
    c = cat_check_circuit()
    assert c.lifetime(0) == (0, 6)
    assert c.lifetime(2) == (1, 3)   # prepped at moment 0, measured at moment 3


def test_text_round_trip():
    c = cat_check_circuit()
    text = c.to_text()
    c2 = Circuit.from_text(text)
    assert c2.to_text() == text
    assert vars(c2) == vars(c)


# builders whose every parameter has a default; among them shor-ft and steane
# carry ideal wires and cat-like is non-implementable
DEFAULT_BUILDERS = sorted(
    name for name, fn in BUILDERS.items()
    if all(p.default is not p.empty
           for p in inspect.signature(fn).parameters.values()))


@pytest.mark.parametrize("name", DEFAULT_BUILDERS)
def test_builder_circuit_text_round_trip(name):
    c = build_gadget(name).implementation
    text = c.to_text()
    c2 = Circuit.from_text(text)
    assert c2.to_text() == text
    assert to_zx(c2)[0].dumps() == to_zx(c)[0].dumps()


def test_builder_circuits_carry_every_header_line():
    texts = [build_gadget(name).implementation.to_text()
             for name in DEFAULT_BUILDERS]
    for header in ("!ideal-wire ", "!non-implementable"):
        assert any(header in t for t in texts), header


def test_text_example_lines():
    text = """QUBITS 5
PREP_X 4 !ideal
CNOT 0 1
MZ 2 -> k1
MPP Z0*Z1*Z2*Z3 -> k2 !ft
CPAULI X 0 IF k1^k2
"""
    c = Circuit.from_text(text)
    assert c.qubits == 5
    ops = [op for _, op in c.operations()]
    assert ops[0].kind == "PREP_X" and ops[0].ideal
    assert ops[2].var == "k1"
    assert ops[3].pauli == "ZZZZ" and ops[3].ft
    assert ops[4].condition == (frozenset({"k1", "k2"}), 0)
    assert c.to_text() == text


def test_text_parse_errors_report_line():
    with pytest.raises(ValueError, match="line 2"):
        Circuit.from_text("QUBITS 1\nFROB 0\n")
    with pytest.raises(ValueError, match="line 1"):
        Circuit.from_text("H 0\n")


def test_counts():
    c = cat_check_circuit()
    assert c.count("CNOT") == 2
    assert c.count_measurements() == 2


def test_mpp_letter_validation():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.measure("MPP", (0, 1), "k", pauli="ZY")
    with pytest.raises(ValueError):
        c.measure("MPP", (0, 1), "k", pauli="Z")
