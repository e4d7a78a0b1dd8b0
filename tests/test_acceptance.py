"""Acceptance suite: one test per shipped claim, at the stated budgets.

Each test states its wall-clock budget and asserts it; the checks themselves
are exact (oracle- or property-based), so the budgets are generous.
"""

import random
import time
from importlib import resources

import numpy as np

from reference import is_total, is_trivial, isomorphic
from test_webs import brute_force_webs, span_highlights

from zxfault import samples
from zxfault.builders import build_gadget
from zxfault.diagram import ZxDiagram, apply_fault, compose
from zxfault.feq import (EquivalenceSpec, Side, check_w_fault_equivalence,
                         circuit_distance, find_equivalent_fault)
from zxfault.noise import edge_flip_atoms, x_flip_atoms
from zxfault.oracle import OutcomeMap, equal_up_to_scalar, evaluate
from zxfault.pauli import PauliString
from zxfault.rewrite import (RULES, check_boundary_pushout, make_rule,
                             rule_certificate, run_proof_script)
from zxfault.webs import detecting_region_basis, is_detectable, web_basis


def budget(started: float, seconds: float) -> None:
    assert time.monotonic() - started < seconds


def shipped_script(name: str, **kw) -> dict:
    scripts = resources.files("zxfault").joinpath("scripts")
    text = scripts.joinpath(name).read_text()
    with resources.as_file(scripts) as base:
        return run_proof_script(text, base_dir=str(base), **kw)


def test_criterion_01_web_solver_exact_on_corpus():
    """web_basis spans exactly the brute-force 4^|E| highlighting set."""
    t0 = time.monotonic()
    corpus = samples.web_corpus()
    assert len(corpus) == 20
    for name, d in corpus:
        assert len(d.edges) <= 6, name
        assert span_highlights(d, web_basis(d)) == brute_force_webs(d), name
    budget(t0, 10)


def test_criterion_02_detecting_regions_zero_tensor():
    """Outcome assignments violating a region's parity give the zero tensor."""
    t0 = time.monotonic()
    for name, d in samples.web_corpus():
        t = evaluate(d)
        scale = max(t.max_abs(), 1.0)
        for region in detecting_region_basis(d):
            for b in t.assignments():
                am = dict(zip(d.variables, b))
                parity = sum(am[v] for v in region.detecting_set) % 2
                if parity != region.expected_parity:
                    assert np.max(np.abs(t[b])) <= 1e-9 * scale, (name, b)
    budget(t0, 30)


def test_criterion_03_two_zz_example():
    t0 = time.monotonic()
    d = samples.two_zz_measurements()
    regions = detecting_region_basis(d)
    assert len(regions) == 1
    assert regions[0].detecting_set == frozenset({"k1", "k2"})
    mid = [eid for eid, e in d.edges.items()
           if e.a == ("s", 2) and e.b == ("s", 3)][0]
    assert is_detectable(d, PauliString({mid: "X"}))
    z_mid = PauliString({mid: "Z"})
    assert not is_detectable(d, z_mid)
    assert not is_trivial(d, z_mid)
    # the undetectable Z acts exactly as a Z on the qubit's boundary wire
    t_faulted = evaluate(apply_fault(d, z_mid))
    in0 = [eid for eid, e in d.edges.items() if e.a == ("b", "in", 0)][0]
    assert equal_up_to_scalar(t_faulted,
                              evaluate(apply_fault(d, PauliString({in0: "Z"}))))
    budget(t0, 1)


def test_criterion_04_naive_cat_negative():
    t0 = time.monotonic()
    spec = EquivalenceSpec(
        Side(samples.naive_cat(4), edge_flip_atoms(samples.naive_cat(4))),
        Side(samples.cat_spec(4), edge_flip_atoms(samples.cat_spec(4))),
        OutcomeMap([], [], {}), 2)
    v = check_w_fault_equivalence(spec)
    assert not v.equivalent
    cex = v.counterexamples[0]
    assert cex.weight == 1 and cex.side == "a"
    assert find_equivalent_fault(spec, "a", cex.fault) is None
    match = find_equivalent_fault(spec, "a", cex.fault, max_weight=2)
    assert match is not None and match.weight() == 2
    budget(t0, 10)


def test_criterion_05_flagged_cat():
    t0 = time.monotonic()
    pair = build_gadget("flagged-cat")
    assert pair.constraints == [(["k"], 0)]  # post-selection recorded
    spec = pair.equivalence_spec(3)
    assert (frozenset({"k"}), 0) in spec.side_a.diagram.constraints
    assert is_total(spec.side_a.diagram)     # post-selection never fires
    assert is_total(spec.side_b.diagram)     # target totality
    assert check_w_fault_equivalence(spec).equivalent
    budget(t0, 300)


def test_criterion_06_recursive_and_truncated_cat():
    t0 = time.monotonic()
    rep = shipped_script("recursive-cat.fzx")
    assert rep["failed_step"] is None and rep["claim"]["verified"]
    for step in rep["steps"]:
        assert step["verify"]["w"] == 3 and step["verify"]["equivalent"]
    rep = shipped_script("truncated-cat.fzx")
    assert rep["failed_step"] is None and rep["claim"]["verified"]
    assert rep["claim"]["w"] == 2
    for step in rep["steps"]:
        assert step["verify"]["equivalent"]
    budget(t0, 600)


CERT_SWEEP = [
    ("elim", {}, 4), ("fuse-1", {}, 4), ("fuse-4", {}, 4),
    ("pi-copy", {}, 4), ("unfuse", {}, 4), ("pi-pi-id", {}, 4),
    ("copy", {}, 4), ("cat-xs", {"n": 3}, 4), ("cat-xs", {"n": 4}, 4),
    ("fuse-n", {"n": 2}, 3), ("fuse-n", {"n": 4}, 3), ("fuse-n", {"n": 8}, 3),
    ("fuse-n-w", {"n": 4, "w": 2}, 2), ("fuse-n-w", {"n": 8, "w": 2}, 2),
    ("fuse-n-w", {"n": 8, "w": 3}, 3),
]


def test_criterion_07_rule_certificates():
    t0 = time.monotonic()
    for name, params, w in CERT_SWEEP:
        v = rule_certificate(make_rule(name, **params), w)
        assert v.equivalent, (name, params, v.counterexamples[:2])
    neg = rule_certificate(make_rule("mutated-fuse-4"), 3)
    assert not neg.equivalent and neg.counterexamples
    budget(t0, 900)


def test_criterion_08_boundary_pushout_all_shapes():
    """Push-out at internal weight < 4, scoped to each rule's guarantee: a
    w-fault-equivalent rule only ever invokes faults of weight < w, and its
    truncated shape (which contains a cycle) genuinely violates push-out
    beyond that.  The mutated negative control is excluded and checked to
    fail, which keeps the sweep non-vacuous."""
    t0 = time.monotonic()
    for name in sorted(RULES):
        if name == "mutated-fuse-4":
            continue
        rule = make_rule(name)
        cap = 3 if rule.w is None else min(3, rule.w - 1)
        for side in (rule.lhs, rule.rhs):
            rep = check_boundary_pushout(side, cap)
            assert rep.ok, (name, rep.violations[:2])
    assert not check_boundary_pushout(make_rule("mutated-fuse-4").rhs, 3).ok
    budget(t0, 600)


def test_criterion_09_shor_ft():
    t0 = time.monotonic()
    pair = build_gadget("shor-ft")
    assert pair.corr_exprs == {"k": "k1^k2^k3^k4"}
    assert check_w_fault_equivalence(pair.equivalence_spec(3)).equivalent
    budget(t0, 900)


def test_criterion_10_repetition_code_pipeline():
    t0 = time.monotonic()
    sandwich = samples.repetition_sandwich()
    assert circuit_distance(sandwich, x_flip_atoms(sandwich), 4) == 3
    pair = build_gadget("repeating-measurement", n=3,
                        stabilisers=[("ZZ", (0, 1)), ("ZZ", (1, 2))],
                        rounds=3)
    assert check_w_fault_equivalence(pair.equivalence_spec(3)).equivalent
    # fault equivalence preserves distance across the shipped derivation
    rep = shipped_script("rep3-split.fzx", return_final=True)
    assert rep["failed_step"] is None and rep["claim"]["verified"]
    src_json = (resources.files("zxfault")
                .joinpath("scripts", "rep3-source.json").read_text())
    src = ZxDiagram.loads(src_json)
    final = rep["final_diagram"]
    assert (circuit_distance(src, edge_flip_atoms(src), 2)
            == circuit_distance(final, edge_flip_atoms(final), 2))
    budget(t0, 1200)


def test_criterion_11_steane_422_extraction_script():
    t0 = time.monotonic()
    rep = shipped_script("steane-422-extraction.fzx")
    assert rep["failed_step"] is None
    assert rep["claim"]["w"] == 2 and rep["claim"]["verified"]
    budget(t0, 1200)


def test_criterion_12_resource_counts_and_optimised_zero():
    t0 = time.monotonic()
    steane = build_gadget("steane-optimised").implementation
    assert steane.qubits - 7 == 5
    assert steane.count("CNOT") == 15
    assert steane.count_measurements() == 5
    shor = build_gadget("shor-optimised").implementation
    assert shor.qubits - 4 == 3
    budget(t0, 1)
    rep = shipped_script("optimised-0-like.fzx", return_final=True)
    assert rep["failed_step"] is None
    assert rep["claim"]["w"] == 2 and rep["claim"]["verified"]
    assert isomorphic(rep["final_diagram"], samples.goto_prep())
    budget(t0, 1800)


# -- criterion 13: checker meta-properties -----------------------------------------

def wire_pool():
    return [
        samples.wire(),
        samples.wire(had=True),
        samples.green_chain(2),
        samples.green_chain(3),
        samples.pauli_spider_on_wire("X", 0),
        samples.pauli_spider_on_wire("Z", 2),
        samples.pauli_spider_on_wire("X", 2),
        samples.pauli_spider_on_wire("Z", 1),
    ]


def feq(a, b, w=2):
    return check_w_fault_equivalence(
        EquivalenceSpec(Side(a, edge_flip_atoms(a)),
                        Side(b, edge_flip_atoms(b)), None, w)).equivalent


def test_criterion_13_meta_properties():
    t0 = time.monotonic()
    pool = wire_pool()
    rng = random.Random(1905)
    for _ in range(100):  # symmetry
        a, b = rng.choice(pool), rng.choice(pool)
        assert feq(a, b) == feq(b, a)
    for _ in range(100):  # transitivity
        a, b, c = (rng.choice(pool) for _ in range(3))
        if feq(a, b) and feq(b, c):
            assert feq(a, c)
    for _ in range(100):  # compositionality over sequential composition
        a1, b1, a2, b2 = (rng.choice(pool) for _ in range(4))
        if feq(a1, b1) and feq(a2, b2):
            assert feq(compose(a1, a2), compose(b1, b2))
    budget(t0, 600)
