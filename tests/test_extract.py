import gc

import pytest

from reference import isomorphic
from zxfault.builders import build_gadget
from zxfault.circuit import Circuit
from zxfault.diagram import ZxDiagram
from zxfault.extract import DEFAULT_TEMPLATES, ExtractionError, extract_circuit
from zxfault.translate import to_zx

ROUND_TRIP_BUILDERS = [
    ("flagged-cat", {}),
    ("recursive-cat", {"n": 4}),
    ("truncated-cat", {"n": 4, "w": 2}),
    ("repeating-measurement", {"n": 3,
                               "stabilisers": [("ZZ", (0, 1)), ("ZZ", (1, 2))],
                               "rounds": 2}),
    ("shor-ft", {}),
    ("shor-optimised", {}),
    ("shor-alternative", {}),
    ("steane", {}),
]


def assert_round_trip(c: Circuit):
    """Extraction inverts translation up to representation choices (qubit
    numbering, moment spacing), so compare the re-translations."""
    d, _ = to_zx(c, "template")
    c2 = extract_circuit(d)
    d2, _ = to_zx(c2, "template")
    assert isomorphic(d, d2)
    for kind in ("CNOT", "CZ", "MPP", "MZ", "MX", "H", "S"):
        assert c.count(kind) == c2.count(kind)


@pytest.mark.parametrize("name,params", ROUND_TRIP_BUILDERS,
                         ids=[n for n, _ in ROUND_TRIP_BUILDERS])
def test_builder_round_trip(name, params):
    assert_round_trip(build_gadget(name, **params).implementation)


def test_assorted_gates_round_trip():
    c = Circuit(3)
    c.gate("H", 0)
    c.gate("S", 0)
    c.gate("CZ", 0, 1)
    c.gate("Y", 1)
    c.gate("PREP_MINUS", 2)
    c.gate("CNOT", 2, 1, ideal=True)
    c.measure("MX", (2,), "m")
    c.cpauli("Z", 0, ("m",))
    assert_round_trip(c)


def test_mixed_letter_parity_measurement_round_trip():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli="XZ", ft=True)
    assert_round_trip(c)


def test_deep_cover_search_keeps_its_own_stack():
    # 1492 spiders: one search level per spider, deeper than Python's stack
    c = build_gadget("shor-optimised").implementation
    d, _ = to_zx(c, "gadget-complete")
    assert len(d.spiders) > 1000
    assert extract_circuit(d).count("CNOT") == c.count("CNOT") == 8


@pytest.mark.parametrize("name", ["shor-alternative", "cat-like"],
                         ids=["extracts", "refused"])
def test_cover_search_leaves_no_reference_cycles(name):
    # shor-alternative backtracks through thousands of failed choices, and
    # cat-like fails every reading; the search's frames must be freed when
    # it ends, not at the collector's next full pass, which may come
    # several diagrams later
    d, _ = to_zx(build_gadget(name).implementation, "template")
    gc.collect()
    gc.disable()
    try:
        try:
            extract_circuit(d)
        except ExtractionError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lone_green_spider_is_plus_preparation():
    d = ZxDiagram()
    s = d.add_spider("Z")
    d.add_edge(("s", s), ("b", "out", 0))
    c = extract_circuit(d)
    assert c.qubits == 1
    assert c.count("PREP_X") == 1


def test_uncovered_spider_reported():
    d = ZxDiagram()
    s = d.add_spider("Z")
    for i in range(5):
        d.add_edge(("s", s), ("b", "out", i))
    with pytest.raises(ExtractionError) as exc:
        extract_circuit(d)
    assert s in exc.value.spiders


def test_specification_only_diagram_refused():
    pair = build_gadget("cat-like")
    d, _ = to_zx(pair.implementation, "template")
    with pytest.raises(ExtractionError, match="specification-only"):
        extract_circuit(d)


def test_extraction_rejects_invalid_diagram():
    d = ZxDiagram()
    d.add_spider("Z")  # dangling spider, no edges
    with pytest.raises(ExtractionError):
        extract_circuit(d)


def test_shipped_script_final_diagram_extracts_to_flagged_cat():
    from importlib import resources
    from zxfault.rewrite import run_proof_script
    scripts = resources.files("zxfault").joinpath("scripts")
    text = scripts.joinpath("cat4-flagged.fzx").read_text()
    with resources.as_file(scripts) as base:
        rep = run_proof_script(text, base_dir=str(base), return_final=True)
    assert rep["claim"]["verified"]
    extracted = extract_circuit(rep["final_diagram"])
    want = build_gadget("flagged-cat").implementation
    assert isomorphic(to_zx(extracted, "template")[0],
                      to_zx(want, "template")[0])


# -- template library ----------------------------------------------------------

def test_default_library_covers_core_kinds():
    kinds = {t.kind for t in DEFAULT_TEMPLATES}
    for kind in ("prep", "measure", "gate", "cnot", "cz", "cnot-mz",
                 "cpauli", "mpp", "fault-gadget"):
        assert kind in kinds


def test_template_shapes_translate():
    for t in DEFAULT_TEMPLATES:
        shape = t.shape()
        assert not shape.validate()


@pytest.mark.parametrize("template", DEFAULT_TEMPLATES,
                         ids=[t.name for t in DEFAULT_TEMPLATES])
def test_unit_certificates_replay(template):
    assert template.certificate().equivalent
