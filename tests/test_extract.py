import gc
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import ChronologicalMatcher, isomorphic
from zxfault import extract
from zxfault.builders import build_gadget
from zxfault.circuit import Circuit
from zxfault.diagram import ZxDiagram
from zxfault.extract import (_NODE_BUDGET, DEFAULT_TEMPLATES, ExtractionError,
                             _Matcher, extract_circuit)
from zxfault.rewrite import RULES, make_rule, run_proof_script
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


@pytest.mark.parametrize("letter", "ZX")
def test_one_qubit_parity_measurement_round_trip(letter):
    c = Circuit.from_text(f"QUBITS 1\nMPP {letter}0 -> m\n")
    c2 = extract_circuit(to_zx(c, "template")[0])
    assert [(op.kind, op.pauli) for moment in c2.moments
            for op in moment] == [("MPP", letter)]
    ft = Circuit(1)
    ft.measure("MPP", (0,), "m", pauli=letter, ft=True)
    assert_round_trip(ft)


def test_deep_cover_search_keeps_its_own_stack():
    # 1492 spiders: one search level per spider, deeper than Python's stack
    c = build_gadget("shor-optimised").implementation
    d, _ = to_zx(c, "gadget-complete")
    assert len(d.spiders) > 1000
    assert extract_circuit(d).count("CNOT") == c.count("CNOT") == 8


@pytest.mark.parametrize("name", ["shor-alternative", "cat-like"],
                         ids=["extracts", "refused"])
def test_cover_search_leaves_no_reference_cycles(name):
    # shor-alternative backtracks through thousands of failed choices and
    # closes the generators of hundreds of levels it jumps over, and
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


# -- backjumping against the chronological search ------------------------------

def outcome(matcher) -> str | tuple:
    """The extracted circuit's text, or the error's message and spiders."""
    try:
        return matcher.run().to_text()
    except ExtractionError as exc:
        return str(exc), exc.spiders


def same_as_chronological(d: ZxDiagram, budget: int = _NODE_BUDGET) -> bool:
    """Whether the chronological search, given ``budget`` candidate roles,
    stays within it; if it does, assert that backjumping gives the same
    circuit or error."""
    assert not d.validate()
    reference = ChronologicalMatcher(d)
    reference.node_budget = budget
    want = outcome(reference)
    if reference.node_budget <= 0:
        # the budget error names where it ran out, and backjumping, which
        # skips branches, runs out elsewhere or not at all
        return False
    matcher = _Matcher(d)
    matcher.node_budget = budget
    assert outcome(matcher) == want
    return True


# cat-like's gadget-complete translation is left out: both searches run out
# of budget on it, and the chronological one takes about 10 s to do so
DIFFERENTIAL_BUILDERS = [
    pytest.param(name, params, strategy, id=f"{name}-{strategy}")
    for name, params in ROUND_TRIP_BUILDERS + [("steane-optimised", {}),
                                               ("cat-like", {})]
    for strategy in ("template", "gadget-complete")
    if (name, strategy) != ("cat-like", "gadget-complete")]


@pytest.mark.parametrize("name,params,strategy", DIFFERENTIAL_BUILDERS)
def test_builders_extract_as_chronologically(name, params, strategy):
    c = build_gadget(name, **params).implementation
    assert same_as_chronological(to_zx(c, strategy)[0])


def shipped_scripts():
    scripts = resources.files("zxfault").joinpath("scripts")
    return sorted(p.name for p in scripts.iterdir() if p.name.endswith(".fzx"))


@pytest.mark.parametrize("name", shipped_scripts())
def test_script_final_diagrams_extract_as_chronologically(name):
    scripts = resources.files("zxfault").joinpath("scripts")
    with resources.as_file(scripts) as base:
        rep = run_proof_script(scripts.joinpath(name).read_text(),
                               base_dir=str(base), return_final=True)
    assert same_as_chronological(rep["final_diagram"])


@pytest.mark.parametrize("name", sorted(RULES))
def test_rule_sides_extract_as_chronologically(name):
    rule = make_rule(name)
    assert same_as_chronological(rule.lhs)
    assert same_as_chronological(rule.rhs)


@st.composite
def small_circuits(draw):
    """Valid circuits of at most 4 qubits and 10 operations: a qubit is
    prepared only before its first use or after a destructive measurement,
    and a CPAULI is conditioned on outcomes already measured."""
    n = draw(st.integers(1, 4))
    c = Circuit(n)
    alive, used, measured = [True] * n, [False] * n, []
    for kind in draw(st.lists(st.sampled_from(
            ["CNOT", "CZ", "H", "S", "PREP", "MZ", "MX", "MPP", "CPAULI"]),
            max_size=10)):
        live = [q for q in range(n) if alive[q]]
        if kind == "PREP":
            free = [q for q in range(n) if not alive[q] or not used[q]]
            if not free:
                continue
            q = draw(st.sampled_from(free))
            c.gate(draw(st.sampled_from(["PREP_Z", "PREP_X", "PREP_MINUS"])), q)
            alive[q], used[q] = True, True
            continue
        if not live or kind in ("CNOT", "CZ") and len(live) < 2 \
                or kind == "CPAULI" and not measured:
            continue
        if kind in ("CNOT", "CZ"):
            a, b = draw(st.permutations(live))[:2]
            c.gate(kind, a, b, ideal=draw(st.booleans()))
            qs = [a, b]
        elif kind in ("H", "S"):
            qs = [draw(st.sampled_from(live))]
            c.gate(kind, *qs)
        elif kind == "CPAULI":
            qs = [draw(st.sampled_from(live))]
            vars = draw(st.lists(st.sampled_from(measured), min_size=1,
                                 unique=True))
            c.cpauli(draw(st.sampled_from("XYZ")), qs[0], vars)
        else:
            var = f"m{len(measured)}"
            if kind == "MPP":
                qs = sorted(draw(st.lists(st.sampled_from(live), min_size=1,
                                          unique=True)))
                c.measure("MPP", qs, var,
                          pauli="".join(draw(st.sampled_from("XZ"))
                                        for _ in qs),
                          ft=draw(st.booleans()))
            else:
                qs = [draw(st.sampled_from(live))]
                c.measure(kind, qs, var)
                alive[qs[0]] = False
            measured.append(var)
        for q in qs:
            used[q] = True
    assert not c.validate()
    return c


@settings(max_examples=200, deadline=None)
@given(small_circuits(), st.sampled_from(["template", "gadget-complete"]))
def test_small_circuits_extract_as_chronologically(c, strategy):
    # many of these diagrams have no cover, and the chronological search
    # may take seconds to run out of the full budget on one
    assume(same_as_chronological(to_zx(c, strategy)[0], budget=10_000))


@pytest.mark.parametrize("name,most", [("shor-alternative", 3000),
                                       ("steane", 150)])
def test_cover_search_size_is_pinned(name, most):
    # chronological backtracking visits 35,276 and 1,472 candidate roles
    d, _ = to_zx(build_gadget(name).implementation, "template")
    matcher = _Matcher(d)
    matcher.run()
    assert _NODE_BUDGET - matcher.node_budget <= most


def test_running_out_of_budget_is_the_reported_failure(monkeypatch):
    # levels below the one that runs out have no candidates left and used
    # to report their deepest earlier failure, a wire that runs into a
    # wire-starting spider, as if the search had been complete
    monkeypatch.setattr(extract, "_NODE_BUDGET", 50)
    d, _ = to_zx(build_gadget("shor-alternative").implementation, "template")
    with pytest.raises(ExtractionError, match="cover search budget exhausted"):
        extract_circuit(d)


def test_incidence_lists_each_edge_from_each_end():
    d = ZxDiagram()
    s, t = d.add_spider("Z"), d.add_spider("X")
    out = d.add_edge(("s", t), ("b", "out", 0))
    loop = d.add_edge(("s", t), ("s", t), had=True)
    mid = d.add_edge(("s", s), ("s", t))
    inp = d.add_edge(("b", "in", 0), ("s", s))
    assert _Matcher(d).inc == {
        s: [(mid, ("s", t)), (inp, ("b", "in", 0))],
        t: [(out, ("b", "out", 0)), (loop, ("s", t)), (mid, ("s", s))]}


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


@pytest.mark.parametrize("sid,equivalent", [(2, False), (0, True)])
def test_mutated_fault_gadget_fails_its_certificate(monkeypatch, sid,
                                                    equivalent):
    # a half turn on the wire's red spider, sid 2, is an X on the wire, so
    # the noise-free diagrams differ and the weight-0 class fails; one on
    # the hub, sid 0, leaves the tensor unchanged
    from zxfault.diagram import Phase, Spider
    real = extract.insert_fault_gadget

    def mutated(d, p):
        out = real(d, p)
        out.spiders[sid] = Spider(out.spiders[sid].colour, Phase(2))
        return out
    monkeypatch.setattr(extract, "insert_fault_gadget", mutated)
    gadget = next(t for t in DEFAULT_TEMPLATES if t.kind == "fault-gadget")
    verdict = gadget.certificate()
    assert verdict.equivalent == equivalent
    if not equivalent:
        assert [(c.side, c.fault.to_text(), c.weight, c.reason)
                for c in verdict.counterexamples] == \
            [("a", "", 0, "match-heavier"), ("b", "", 0, "match-heavier")]
