import hashlib
import importlib
import itertools
import pkgutil
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
import zxfault
from reference import class_keys, is_trivial, key_matches, syndrome
from zxfault import feq, gf2, oracle, samples, webs
from zxfault.diagram import (Edge, Phase, Spider, ZxDiagram, apply_fault,
                             compose)
from zxfault.feq import (ClassKeyError, Counterexample, EquivalenceSpec, Side,
                         Verdict, check_w_fault_equivalence, circuit_distance,
                         find_equivalent_fault)
from zxfault.noise import (ABOVE_CAP, AtomicFault, NoiseModel,
                           edge_flip_atoms, enumerate_faults)
from zxfault.oracle import (OutcomeMap, OutcomeTensor, equal_up_to_scalar,
                            evaluate)
from zxfault.pauli import PauliString
from zxfault.rewrite import RULES, make_rule
from zxfault.webs import PauliWeb, detecting_region_basis, is_detectable


def idealised(d):
    """Copy of the diagram with every edge marked fault-free."""
    out = d.copy()
    for eid in out.edges:
        out.set_ideal(eid, True)
    return out


def ideal_boundary(d):
    """Copy of the diagram with its boundary edges marked fault-free."""
    out = d.copy()
    for eid in out.boundary_edges():
        out.set_ideal(eid, True)
    return out


def zero_diagram(d):
    """The diagram beside a leg-less pi spider, whose scalar is 0."""
    out = d.copy()
    out.add_spider("Z", 2)
    return out


def loop_beside_wire(qturns=0):
    """A wire beside a fault-prone loop: two one-legged green spiders joined
    by an edge, <+|+> or, with the second at a half turn, <+|->, which
    makes the diagram 0.  A Z on the loop turns the one diagram into the
    other, and a region whose detecting set is empty detects it."""
    d = samples.wire()
    a, b = d.add_spider("Z"), d.add_spider("Z", qturns)
    d.add_edge(("s", a), ("s", b))
    return d


def measured_state(colour):
    """A wire beside one measurement, with outcome k, of a one-legged
    spider's state in the X basis: the outcome is fixed for a green (|+>)
    spider and random for a red (|0>) one.  No web of the red one's
    diagram sees k, so its webs' signs alone cannot tell the two apart."""
    d = samples.wire()
    d.add_variable("k")
    a, b = d.add_spider(colour), d.add_spider("Z", 0, ["k"])
    d.add_edge(("s", a), ("s", b))
    return d


def pinned(d):
    """The diagram beside a leg-less red spider reading k, whose scalar is
    0 unless k = 0: with a region that also reads k, it makes a fault that
    flips the region turn the diagram into 0."""
    out = d.copy()
    out.add_spider("X", 0, ["k"])
    return out


def effect_wire(*qturns):
    """A wire through a green spider with a one-legged red effect per entry
    of ``qturns``, <0| at 0 and <1| at 2: the projector on |0> or |1>,
    and 0 when both are read.  A zero one's reference is a fault that
    anticommutes with a port web, so its offset turns on that fault's
    syndrome."""
    d = ZxDiagram()
    g = d.add_spider("Z")
    d.add_edge(("b", "in", 0), ("s", g))
    d.add_edge(("s", g), ("b", "out", 0))
    for q in qturns:
        d.add_edge(("s", g), ("s", d.add_spider("X", q)))
    return d


def spec_of(da, db, corr=None, w=2) -> EquivalenceSpec:
    return EquivalenceSpec(Side(da, edge_flip_atoms(da)),
                           Side(db, edge_flip_atoms(db)), corr, w)


# -- triviality -----------------------------------------------------------------

def test_empty_fault_trivial():
    assert is_trivial(samples.two_zz_measurements(), PauliString())


def test_stabiliser_flips_are_trivial():
    # green 1-leg state is stabilised by X, red 1-leg state by Z
    assert is_trivial(samples.z_state(), PauliString({0: "X"}))
    assert is_trivial(samples.x_state(), PauliString({0: "Z"}))
    assert not is_trivial(samples.x_state(), PauliString({0: "X"}))


def test_outcome_flip_not_trivial():
    d = samples.two_zz_measurements()
    mid = [eid for eid, e in d.edges.items()
           if e.a == ("s", 2) and e.b == ("s", 3)][0]
    assert not is_trivial(d, PauliString({mid: "X"}))


# -- find_equivalent_fault --------------------------------------------------------

def test_find_empty_matches_empty():
    d = samples.two_zz_measurements()
    s = spec_of(d, d)
    assert find_equivalent_fault(s, "a", PauliString()) == PauliString()


def naive_vs_spec(w=2) -> EquivalenceSpec:
    return spec_of(samples.naive_cat(4), samples.cat_spec(4),
                   OutcomeMap([], [], {}), w)


def late_hub_fault(d) -> PauliString:
    # X on the hub wire after the second fan-out CNOT: spreads to two legs
    eid = [eid for eid, e in d.edges.items()
           if e.a == ("s", 1) and e.b == ("s", 2)][0]
    return PauliString({eid: "X"})


def test_naive_cat_spreading_fault_needs_weight_two():
    s = naive_vs_spec()
    f = late_hub_fault(s.side_a.diagram)
    assert find_equivalent_fault(s, "a", f) is None
    g = find_equivalent_fault(s, "a", f, max_weight=2)
    assert g is not None and g.weight() == 2
    # a query above the bound: side b's two-leg fault is the hub fault
    assert find_equivalent_fault(s, "b", g, max_weight=1) == f


def test_naive_cat_single_leg_faults_match_at_weight_one():
    s = naive_vs_spec()
    d = s.side_a.diagram
    for eid in [e for e, edge in d.edges.items() if edge.b[0] == "b"]:
        for letter in "XZ":
            g = find_equivalent_fault(s, "a", PauliString({eid: letter}))
            assert g is not None and g.weight() <= 1


# -- check_w_fault_equivalence ------------------------------------------------------

def test_reflexivity():
    d = samples.two_zz_measurements()
    v = check_w_fault_equivalence(spec_of(d, d, w=2))
    assert v.equivalent and v.counterexamples == []


def test_naive_cat_not_equivalent_at_w2():
    v = check_w_fault_equivalence(naive_vs_spec(2))
    assert not v.equivalent
    assert all(c.weight == 1 and c.side == "a" for c in v.counterexamples)
    bad = late_hub_fault(naive_vs_spec().side_a.diagram)
    assert bad in [c.fault for c in v.counterexamples]


def test_counterexample_reason_match_heavier():
    v = check_w_fault_equivalence(naive_vs_spec(3))
    assert not v.equivalent
    assert any(c.reason == "match-heavier" for c in v.counterexamples)


@pytest.mark.parametrize("w", [0, -1, -3])
def test_weight_below_one_is_an_error(w):
    d = samples.two_zz_measurements()
    with pytest.raises(ValueError, match="w must be at least 1"):
        check_w_fault_equivalence(spec_of(d, d, w=w))


def test_symmetry():
    d = samples.two_zz_measurements()
    s = spec_of(d, d, OutcomeMap.identity(d.variables), 2)
    assert check_w_fault_equivalence(s).equivalent == \
        check_w_fault_equivalence(s.swapped()).equivalent
    s2 = naive_vs_spec(2)
    assert not check_w_fault_equivalence(s2.swapped()).equivalent


def test_transitivity_spot_check():
    a, b, c = samples.wire(), samples.green_chain(2), samples.green_chain(3)
    assert check_w_fault_equivalence(spec_of(a, b, w=2)).equivalent
    assert check_w_fault_equivalence(spec_of(b, c, w=2)).equivalent
    assert check_w_fault_equivalence(spec_of(a, c, w=2)).equivalent


def test_compositionality_spot_check():
    a, b = samples.wire(), samples.green_chain(2)
    assert check_w_fault_equivalence(spec_of(a, b, w=2)).equivalent
    seq_a, seq_b = compose(a, a), compose(b, b)
    assert check_w_fault_equivalence(spec_of(seq_a, seq_b, w=2)).equivalent
    par_a = compose(a, a, mode="parallel")
    par_b = compose(b, b, mode="parallel")
    assert check_w_fault_equivalence(spec_of(par_a, par_b, w=2)).equivalent


def test_verdict_json():
    v = check_w_fault_equivalence(naive_vs_spec(2))
    import json
    j = json.loads(v.dumps())
    assert j["equivalent"] is False
    assert all(set(c) == {"side", "fault", "weight", "reason"}
               for c in j["counterexamples"])


def parallel_wires_with_xx() -> EquivalenceSpec:
    """Side a: edge flips plus one X(x)X atom across both wires; side b:
    plain edge flips, which need two faults to make X(x)X."""
    d = compose(samples.wire(), samples.wire(), mode="parallel")
    m = edge_flip_atoms(d)
    xx = AtomicFault(PauliString({0: "X", 1: "X"}), "gate-fault")
    return EquivalenceSpec(Side(d, NoiseModel(m.atoms + [xx], "edge-flip+xx")),
                           Side(d, m), None, 3)


def test_correlated_atom_match_is_weighed_in_the_noise_model():
    s = parallel_wires_with_xx()
    v = check_w_fault_equivalence(s)
    assert [(c.side, c.fault.to_text(), c.weight, c.reason)
            for c in v.counterexamples] == [("a", "0:X;1:X", 1,
                                             "match-heavier")]
    xx = PauliString({0: "X", 1: "X"})
    assert find_equivalent_fault(s, "a", xx) is None  # bound: weight 1
    assert find_equivalent_fault(s, "a", xx, max_weight=2) == xx


def test_key_oracle_disagreement_is_an_error(monkeypatch):
    # an offset that calls side a's reference equal to side b's, on two
    # wires the oracle tells apart
    monkeypatch.setattr(feq, "_offset", lambda *args: 0)
    with pytest.raises(ClassKeyError, match="noise-free diagrams"):
        check_w_fault_equivalence(spec_of(samples.wire(),
                                          samples.wire(had=True)))


def test_nonzero_offset_is_confirmed_by_the_oracle(monkeypatch):
    # the noise-free diagrams differ by a k1 flip, so the offset is the
    # syndrome of side b's k1 flips; an offset shifted to another side-b
    # class shifts every image, and the guard's replay must refute it
    spec = flipped_two_zz_spec(2)
    offset = feq.SyndromeMap(spec, 1).offset
    other = feq.SyndromeMap(spec, 1).tables["b"].firsts
    wrong = next(s for s in other if s not in (0, offset))
    real = feq._offset
    monkeypatch.setattr(feq, "_offset",
                        lambda *args: real(*args) ^ offset ^ wrong)
    with pytest.raises(ClassKeyError, match="^side-a fault '0:X' is predicted"
                                            " to match side-b fault '',"):
        check_w_fault_equivalence(spec)


# -- the engine against the pairwise reference -----------------------------------

def pairwise_verdict(spec: EquivalenceSpec) -> Verdict:
    """Reference checker: each undetectable fault is compared with every
    fault on the other side, one tensor pair at a time, by
    ``equal_up_to_scalar``; a match counts when its noise-model weight is no
    greater than the fault's."""
    sides = {"a": spec.side_a, "b": spec.side_b}
    faults = {s: list(enumerate_faults(sides[s].noise, spec.w - 1))
              for s in "ab"}
    tensors = {}

    def tensor(s, f):
        if (s, f) not in tensors:
            tensors[s, f] = evaluate(apply_fault(sides[s].diagram, f))
        return tensors[s, f]

    def least_match_weight(s, f):
        o = "b" if s == "a" else "a"
        for g, wg in faults[o]:
            t_a, t_b = ((tensor(s, f), tensor(o, g)) if s == "a"
                        else (tensor(o, g), tensor(s, f)))
            if equal_up_to_scalar(t_b, t_a, spec.corr()):
                return wg
        return None

    counterexamples, checked = [], 0
    for s in "ab":
        regions = detecting_region_basis(sides[s].diagram)
        for f, w in faults[s]:
            checked += 1
            if f and is_detectable(sides[s].diagram, f, regions):
                continue
            wg = least_match_weight(s, f)
            if wg is not None and wg <= w:
                continue
            reason = "match-heavier" if wg is not None else "no-match-found"
            counterexamples.append(Counterexample(s, f, w, reason))
    counterexamples.sort(key=lambda c: (c.weight, c.fault.sort_key(), c.side))
    return Verdict(not counterexamples, counterexamples, checked)


# criterion 13's wire pool
WIRE_POOL = [
    samples.wire, lambda: samples.wire(had=True),
    lambda: samples.green_chain(2), lambda: samples.green_chain(3),
    lambda: samples.pauli_spider_on_wire("X", 0),
    lambda: samples.pauli_spider_on_wire("Z", 2),
    lambda: samples.pauli_spider_on_wire("X", 2),
    lambda: samples.pauli_spider_on_wire("Z", 1),
]
# side-b outcome -> expression in side-a outcomes, for two_zz_measurements
TWO_ZZ_CORRS = [{"k1": "k1", "k2": "k2"}, {"k1": "k2", "k2": "k1"},
                {"k1": "k1^1", "k2": "k2"}, {"k1": "k1^k2", "k2": "k2"},
                {"k1": "k1", "k2": "k1"}, {"k1": "0", "k2": "k2"}]

def _pool_spec(t):
    single, first, second, swap = t
    a, b = single(), compose(first(), second())
    return spec_of(b, a) if swap else spec_of(a, b)


def _two_zz_spec(t):
    corr, ideal_a, ideal_b = t
    return spec_of(samples.two_zz_measurements(ideal_a),
                   samples.two_zz_measurements(ideal_b),
                   OutcomeMap.parse(["k1", "k2"], ["k1", "k2"], corr))


pool_specs = st.tuples(st.sampled_from(WIRE_POOL), st.sampled_from(WIRE_POOL),
                       st.sampled_from(WIRE_POOL), st.booleans()).map(_pool_spec)
two_zz_specs = st.tuples(st.sampled_from(TWO_ZZ_CORRS), st.booleans(),
                         st.booleans()).map(_two_zz_spec)
cat_specs = st.booleans().map(
    lambda swap: naive_vs_spec(2).swapped() if swap else naive_vs_spec(2))


def rule_spec(name, **params) -> EquivalenceSpec:
    """A rule's rhs against its lhs under the rule's own correspondence."""
    rule = make_rule(name, **params)
    return spec_of(rule.rhs, rule.lhs,
                   OutcomeMap.parse(rule.rhs.variables, rule.lhs.variables,
                                    rule.corr_exprs))


# mutated-fuse-4 is a negative; split-meas maps one outcome to an XOR of two
rule_specs = st.sampled_from([("mutated-fuse-4", {}),
                              ("split-meas", {"m": 2})]).map(
    lambda t: rule_spec(t[0], **t[1]))


def many_to_one_spec(w, ideal=False) -> EquivalenceSpec:
    """Two ZZ measurements (k1, k2) against one (k) under k = k1.  Side b's
    k-flips are matched only by side-a faults that flip k1 alone, which
    side a's region k1^k2 detects; the correspondence cannot see that
    region."""
    a, b = samples.two_zz_measurements(), samples.zz_measurement("k")
    if ideal:
        a, b = ideal_boundary(a), ideal_boundary(b)
    return spec_of(a, b, OutcomeMap.parse(["k1", "k2"], ["k"], {"k": "k1"}),
                   w)


def flipped_two_zz_spec(w) -> EquivalenceSpec:
    """Two ZZ measurements against themselves under k1 = k1^1.  The
    noise-free diagrams differ, and side a's undetectable faults are
    matched only by side-b faults that flip k1, which side b detects."""
    d = samples.two_zz_measurements()
    return spec_of(d, d, OutcomeMap.parse(["k1", "k2"], ["k1", "k2"],
                                          {"k1": "k1^1", "k2": "k2"}), w)


def three_zz_spec(w) -> EquivalenceSpec:
    """Three ZZ measurements (k1, k2, k3) against two under k1 = k2,
    k2 = k3.  Side a's region basis is k1^k2 and k1^k3; the correspondence
    sees neither, only their sum k2^k3."""
    a = compose(compose(samples.zz_measurement("k1"),
                        samples.zz_measurement("k2")),
                samples.zz_measurement("k3"))
    b = samples.two_zz_measurements()
    return spec_of(a, b, OutcomeMap.parse(a.variables, b.variables,
                                          {"k1": "k2", "k2": "k3"}), w)


@settings(max_examples=40, deadline=None)
@given(st.one_of(pool_specs, two_zz_specs, cat_specs, rule_specs))
@example(rule_spec("mutated-fuse-4"))
@example(rule_spec("split-meas", m=2))
@example(many_to_one_spec(2))
@example(many_to_one_spec(3))
@example(many_to_one_spec(2, ideal=True))
@example(many_to_one_spec(3, ideal=True))
@example(flipped_two_zz_spec(2))
@example(flipped_two_zz_spec(3))
@example(three_zz_spec(3))
@example(spec_of(loop_beside_wire(), samples.wire(), w=2))
@example(spec_of(loop_beside_wire(), samples.wire(), w=3))
@example(spec_of(samples.wire(), loop_beside_wire(), w=2))
@example(spec_of(samples.wire(), loop_beside_wire(), w=3))
@example(spec_of(loop_beside_wire(2), samples.wire(), w=2))
@example(spec_of(loop_beside_wire(2), samples.wire(), w=3))
@example(spec_of(samples.wire(), loop_beside_wire(2), w=2))
@example(spec_of(loop_beside_wire(2), loop_beside_wire(), w=2))
@example(spec_of(pinned(measured_state("Z")), measured_state("Z"), w=3))
@example(spec_of(zero_diagram(samples.wire()), samples.wire(), w=2))
@example(spec_of(zero_diagram(samples.wire()), samples.wire(), w=3))
@example(spec_of(zero_diagram(samples.wire()),
                 zero_diagram(samples.wire()), w=2))
@example(spec_of(zero_diagram(samples.wire()),
                 zero_diagram(samples.wire()), w=3))
@example(spec_of(measured_state("Z"), measured_state("X")))
@example(spec_of(measured_state("X"), measured_state("Z")))
def test_engine_verdict_matches_pairwise_reference(spec):
    assert check_w_fault_equivalence(spec).dumps() == \
        pairwise_verdict(spec).dumps()


def random_spec(seed: int) -> EquivalenceSpec:
    """Two random small Clifford diagrams of one boundary shape: spiders of
    any quarter-turn phase reading random outcome variables, hadamard and
    ideal edges with a port at either end, leg-less spiders, under a random
    affine correspondence, which may be many-to-one."""
    rng = random.Random(seed)
    ports = [("b", "in", i) for i in range(rng.randint(0, 2))] + \
        [("b", "out", i) for i in range(rng.randint(1, 2))]

    def diagram(n_vars):
        d = ZxDiagram()
        names = [d.add_variable(f"k{i}") for i in range(n_vars)]
        sids = [d.add_spider(rng.choice("ZX"), rng.randrange(4),
                             [v for v in names if rng.random() < 0.4])
                for _ in range(rng.randint(1, 5))]
        ends = [(p, ("s", rng.choice(sids)))[::rng.choice((1, -1))]
                for p in ports]  # a port at either end of its edge
        if len(sids) > 1:
            ends += [tuple(("s", sid) for sid in rng.sample(sids, 2))
                     for _ in range(rng.randint(0, 4))]
        for a, b in ends:
            d.add_edge(a, b, had=rng.random() < 0.3, ideal=rng.random() < 0.15)
        return d
    a, b = diagram(rng.randint(0, 3)), diagram(rng.randint(0, 2))
    rows = {t: "^".join([v for v in a.variables if rng.random() < 0.5]
                        + ["1"] * (rng.random() < 0.3)) or "0"
            for t in b.variables}
    return spec_of(a, b, OutcomeMap.parse(a.variables, b.variables, rows))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random_spec))
def test_engine_verdict_matches_pairwise_reference_on_random_diagrams(spec):
    # a random pair seldom matches at all, so side a is also checked
    # against itself with its edges reversed, which matches
    a = spec.side_a.diagram
    for s in (spec, spec_of(a, reversed_edges(a))):
        assert check_w_fault_equivalence(s).dumps() == \
            pairwise_verdict(s).dumps()


def test_detected_query_scans_the_whole_other_side():
    # side a's 8:X flips k1 and is detected; its match 3:X is detected on
    # side b, and a check's syndrome map serves the query too
    d = samples.two_zz_measurements()
    s = spec_of(d, d)
    f = PauliString({8: "X"})
    assert find_equivalent_fault(s, "a", f) == PauliString({3: "X"})
    syndrome_map = feq.SyndromeMap(s, 1)
    assert find_equivalent_fault(s, "a", f, syndrome_map) == \
        PauliString({3: "X"})
    # on side b, 3:X is the first fault of its own class
    assert find_equivalent_fault(s, "b", PauliString({3: "X"}),
                                 syndrome_map) == PauliString({3: "X"})


def test_zero_classes_match_only_zero_classes():
    loop = loop_beside_wire()
    z = PauliString({1: "Z"})  # on the loop
    assert evaluate(apply_fault(loop, z)).max_abs() < 1e-9
    s = spec_of(loop, samples.wire())
    assert find_equivalent_fault(s, "a", z) is None
    assert find_equivalent_fault(s.swapped(), "b", z) is None
    # on a zero diagram every fault is zero, and matches the first zero one
    zero = zero_diagram(samples.wire())
    s = spec_of(zero, zero_diagram(samples.wire()))
    assert find_equivalent_fault(s, "a", PauliString({0: "X"})) == \
        PauliString()
    assert find_equivalent_fault(spec_of(zero, samples.wire()), "a",
                                 PauliString()) is None


def made_maps(monkeypatch) -> list:
    """The syndrome maps the checks build from here on."""
    made = []
    real = feq.SyndromeMap
    monkeypatch.setattr(feq, "SyndromeMap",
                        lambda spec, w: made.append(real(spec, w)) or made[-1])
    return made


def test_replays_are_bounded_by_the_side_a_webs(monkeypatch):
    # the noise-free diagram and the guard's on each side, however many
    # webs.
    # These two checks took 550 and 430 replays with tensor class keys.
    from zxfault.builders import build_gadget
    made = made_maps(monkeypatch)
    for builder, params, w, webs_a in [("steane", {}, 3, 10),
                                       ("recursive-cat", {"n": 8}, 3, 13)]:
        assert check_w_fault_equivalence(
            build_gadget(builder, **params).equivalence_spec(w)).equivalent
        assert len(made[-1].tables["a"].classes.webs) == webs_a
        assert made[-1].replays["a"] <= 2 and made[-1].replays["b"] <= 2


# sha256 of Verdict.dumps() for the larger checks; builder None is
# naive-cat4 against cat_spec(4), the negative control
LARGER_CHECKS = [
    ("flagged-cat", {}, 3,
     "7c2de6744979680f5f441171d205086ae97e5c42df3b4356de35ba860d4914a3"),
    ("shor-ft", {}, 3,
     "f4da1d2908c76f5a69ddc8bf25466177b6adfead039f72b543ecb3d6ce56858a"),
    ("recursive-cat", {"n": 8}, 3,
     "00044c6b60fa9acc1e1161a6f8697db5a258469de8c6a6f2e3d9b977f8171d8c"),
    ("steane", {}, 3,
     "68286ea93e527ec43ffb74ae803b57d58bbe754ee1e79d6843569039b62eb0c6"),
    (None, {}, 3,
     "727589fa4f5d4fd05dd474ce6342e5c086128fb4fb879a157f3ce23f8ff39e4a"),
    ("flagged-cat", {}, 4,
     "89f6267cf1d308b13b5bce64e2733024659131bce754afc4602170b926fcef32"),
    ("recursive-cat", {"n": 8}, 4,
     "6cd113eefea28849e09eeed6a1e9e4269e3df9b71a52cbb3f92052cd764a0c84"),
    ("steane", {}, 4,
     "e01fc9418af4a48031c2a51c3b4e4e76cc728b106600c79326a2151d3274fc36"),
]


@pytest.mark.parametrize("builder,params,w,digest", [
    pytest.param(*case, id=(case[0] or "naive-cat4")
                 + (f" w={case[2]}" if case[2] != 3 else ""))
    for case in LARGER_CHECKS])
def test_larger_check_verdicts_are_pinned(builder, params, w, digest):
    from zxfault.builders import build_gadget
    spec = (build_gadget(builder, **params).equivalence_spec(w) if builder
            else naive_vs_spec(w))
    got = check_w_fault_equivalence(spec).dumps()
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_only_a_negative_verdict_walks_faults(monkeypatch):
    # a positive check decides every class from the tables alone; only the
    # failing classes of a negative one are walked, to list their faults
    from zxfault.builders import build_gadget
    positives = [build_gadget("steane").equivalence_spec(3),
                 build_gadget("flagged-cat").equivalence_spec(3),
                 rule_spec("split-meas", m=2), rule_spec("fuse-4"),
                 many_to_one_spec(3), three_zz_spec(3),
                 spec_of(loop_beside_wire(), samples.wire(), w=3),
                 spec_of(zero_diagram(samples.wire()),
                         zero_diagram(samples.wire()), w=3)]

    def walk(*args):
        raise AssertionError("a positive check walked its faults")
    monkeypatch.setattr(webs.ClassTable, "faults_below", walk)
    for spec in positives:
        assert check_w_fault_equivalence(spec).equivalent
    with pytest.raises(AssertionError, match="walked its faults"):
        check_w_fault_equivalence(naive_vs_spec(2))


# -- circuit distance ------------------------------------------------------------------

def x_only_model(d) -> NoiseModel:
    return NoiseModel([AtomicFault(PauliString({e: "X"}), "edge-flip")
                       for e in sorted(d.non_ideal_edges())], "x-flip")


def test_distance_unprotected_wire():
    d = samples.wire()
    assert circuit_distance(d, edge_flip_atoms(d), 2) == 1


def test_distance_fully_ideal():
    d = idealised(samples.wire())
    assert circuit_distance(d, edge_flip_atoms(d), 3) == ABOVE_CAP


@pytest.mark.parametrize("cap", [-1, -3])
def test_distance_cap_below_zero_is_an_error(cap):
    d = samples.repetition_sandwich()
    with pytest.raises(ValueError, match="cap must be at least 0"):
        circuit_distance(d, x_only_model(d), cap)


def test_distance_cap_zero_is_above_cap():
    d = samples.wire()
    assert circuit_distance(d, edge_flip_atoms(d), 0) == ABOVE_CAP


def test_distance_repetition_sandwich():
    d = samples.repetition_sandwich()
    assert circuit_distance(d, x_only_model(d), 4) == 3


def test_distance_agrees_with_equivalence_ladder():
    """distance = max w <= cap with d ~ fully-idealised d at weight w."""
    d = samples.repetition_sandwich()
    m = x_only_model(d)
    ideal = idealised(d)
    cap = 4
    best = 0
    for w in range(1, cap + 1):
        s = EquivalenceSpec(Side(d, m), Side(ideal, edge_flip_atoms(ideal)),
                            OutcomeMap.identity(d.variables), w)
        if check_w_fault_equivalence(s).equivalent:
            best = w
    assert best == circuit_distance(d, m, cap) == 3


def reference_distance(d, m, cap):
    """The loop ``circuit_distance`` replaced: the first undetectable fault
    the dense oracle calls non-trivial."""
    regions = detecting_region_basis(d)
    base = evaluate(d)
    for f, w in enumerate_faults(m, cap):
        if f and not is_detectable(d, f, regions) and \
                not is_trivial(d, f, base):
            return w
    return ABOVE_CAP


# the last five: answers 3, 2 and one above the cap, and zero diagrams, on
# which every fault is trivial
DISTANCE_CASES = [
    ("wire", lambda: samples.wire(), edge_flip_atoms, 2),
    ("ideal-wire", lambda: idealised(samples.wire()), edge_flip_atoms, 3),
    ("repetition-sandwich", samples.repetition_sandwich, x_only_model, 4),
    ("two-zz", samples.two_zz_measurements, edge_flip_atoms, 2),
    ("naive-cat4", lambda: samples.naive_cat(4), edge_flip_atoms, 2),
    ("repetition-sandwich-ideal-boundary",
     lambda: ideal_boundary(samples.repetition_sandwich()), x_only_model, 3),
    ("two-zz-ideal-boundary",
     lambda: ideal_boundary(samples.two_zz_measurements()), x_only_model, 3),
    ("repetition-sandwich-cap2", samples.repetition_sandwich, x_only_model, 2),
    ("zero-naive-cat4", lambda: zero_diagram(samples.naive_cat(4)),
     edge_flip_atoms, 2),
    ("zero-repetition-sandwich",
     lambda: zero_diagram(samples.repetition_sandwich()), x_only_model, 3),
]


@pytest.mark.parametrize("name,make,model,cap", DISTANCE_CASES,
                         ids=[c[0] for c in DISTANCE_CASES])
def test_distance_matches_reference_loop(name, make, model, cap):
    d = make()
    m = model(d)
    assert circuit_distance(d, m, cap) == reference_distance(d, m, cap)


def forbid_contractions(monkeypatch) -> None:
    """Make ``oracle.evaluate`` raise under every name that a module of the
    package binds it to."""
    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was contracted")
    real = oracle.evaluate
    for info in pkgutil.iter_modules(zxfault.__path__):
        module = importlib.import_module(f"zxfault.{info.name}")
        if getattr(module, "evaluate", None) is real:
            monkeypatch.setattr(module, "evaluate", refuse)


@pytest.mark.parametrize("name,make,model,cap", DISTANCE_CASES,
                         ids=[c[0] for c in DISTANCE_CASES])
def test_distance_contracts_nothing(monkeypatch, name, make, model, cap):
    d = make()
    m = model(d)
    want = reference_distance(d, m, cap)
    forbid_contractions(monkeypatch)
    assert circuit_distance(d, m, cap) == want


def test_distance_stops_at_the_first_hit():
    # the shor-optimised implementation has 419,314 faults up to weight 3
    # under its circuit noise; the answer needs only the weight-1 layer
    import time
    from zxfault.builders import build_gadget
    d, m = build_gadget("shor-optimised").implementation_diagram()
    start = time.perf_counter()
    assert circuit_distance(d, m, 3) == 1
    assert time.perf_counter() - start < 2


# -- the zero rule against the dense oracle --------------------------------------

def zero_rule_diagrams():
    """(name, diagram, noise) triples on which the zero rule is checked
    fault by fault: the web corpus and each of its diagrams beside a
    leg-less pi spider, the loops beside a wire, the measured states and
    their pinned outcomes, both sides of every rule, under edge flips, and
    three gadget implementations under their circuit noise."""
    from zxfault.builders import build_gadget
    out = []
    for name, d in samples.web_corpus():
        out += [(name, d), (f"zero {name}", zero_diagram(d))]
    out += [("loop", loop_beside_wire(0)),
            ("half-turn loop", loop_beside_wire(2))]
    for colour in "ZX":
        out += [(f"measured {colour}", measured_state(colour)),
                (f"pinned {colour}", pinned(measured_state(colour)))]
    for name in sorted(RULES):
        rule = make_rule(name)
        out += [(f"{name} lhs", rule.lhs), (f"{name} rhs", rule.rhs)]
    out = [(name, d, edge_flip_atoms(d)) for name, d in out]
    for builder, params in [("flagged-cat", {}), ("recursive-cat", {"n": 4}),
                            ("shor-ft", {})]:
        pair = build_gadget(builder, **params)
        out.append((builder, *pair.implementation_diagram()))
    return out


def zero_rule_mismatches(d, m) -> list:
    """The faults up to weight 2 whose faulted diagram the zero rule calls
    zero (a pattern other than ``alive``) and the dense oracle does not,
    or the other way round."""
    classes = webs.FaultClasses(d)
    return [f for f, _ in enumerate_faults(m, 2)
            if (classes.pattern(classes.syndrome(f)) != classes.alive)
            != (evaluate(apply_fault(d, f)).max_abs() < oracle.TOL)]


@pytest.mark.parametrize("d,m", [pytest.param(d, m, id=name)
                                 for name, d, m in zero_rule_diagrams()])
def test_zero_rule_matches_the_oracle(d, m):
    assert zero_rule_mismatches(d, m) == []


def zero_rule_verdict_mismatches(d, m) -> list:
    """Where the zero rule read off the basis webs, as syndrome masks,
    disagrees with the reference's constant sums of region Paulis and
    leg-less spiders (:func:`reference.constant_sums`): None if on the
    diagram itself, and each fault up to weight 2 that one calls zero and
    the other does not."""
    classes, sums = webs.FaultClasses(d), reference.constant_sums(d)
    out = [] if bool(classes.alive) == any(p for _, p in sums) else [None]
    return out + [
        f for f, _ in enumerate_faults(m, 2)
        if (classes.pattern(classes.syndrome(f)) == classes.alive)
        != all((not p.commutes(f)) == parity for p, parity in sums)]


@pytest.mark.parametrize("d,m", [pytest.param(d, m, id=name)
                                 for name, d, m in zero_rule_diagrams()])
def test_zero_rule_matches_the_pauli_sums(d, m):
    assert zero_rule_verdict_mismatches(d, m) == []


def web_sum(web_list) -> PauliWeb:
    """The sum of webs: their highlights' (green, red) bits and their
    indicators, each XORed."""
    bits = {"green": (1, 0), "red": (0, 1), "both": (1, 1)}
    of = {v: h for h, v in bits.items()}
    hl, ind = {}, {}
    for w in web_list:
        for eid, h in w.highlight:
            g, r = hl.get(eid, (0, 0))
            hl[eid] = (g ^ bits[h][0], r ^ bits[h][1])
        for sid, b in w.indicators:
            ind[sid] = ind.get(sid, 0) ^ b
    return PauliWeb(tuple(sorted((e, of[v]) for e, v in hl.items()
                                 if v != (0, 0))), tuple(sorted(ind.items())))


def sum_parity_mismatches(d) -> list:
    """The sums of two or more basis regions whose expected parity, by
    :func:`reference.region_sign` on the summed web, is not the XOR of
    the regions' parities, or whose detecting set is not the symmetric
    difference of theirs."""
    regions = detecting_region_basis(d)
    out = []
    for k in range(2, len(regions) + 1):
        for chosen in itertools.combinations(regions, k):
            parity, det = 0, frozenset()
            for r in chosen:
                parity, det = parity ^ r.expected_parity, det ^ r.detecting_set
            got = reference.region_sign(d, web_sum([r.web
                                                    for r in chosen]))
            if got != (parity, det):
                out.append(chosen)
    return out


def many_region_diagrams():
    """(name, diagram) pairs with two to six basis regions."""
    from zxfault.builders import build_gadget
    yield "repetition-sandwich", samples.repetition_sandwich()
    steane = build_gadget("steane")
    yield "steane", steane.implementation_diagram()[0]
    yield "steane spec", steane.spec
    for n in (3, 4):
        pair = build_gadget("repeating-measurement", n=n, rounds=3,
                            stabilisers=[("ZZ", (i, i + 1))
                                         for i in range(n - 1)])
        yield f"repeating-measurement n={n}", pair.implementation_diagram()[0]


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in [
    *((name, d) for name, d, _ in zero_rule_diagrams()),
    *many_region_diagrams()]])
def test_expected_parity_of_a_sum_is_the_xor(d):
    assert sum_parity_mismatches(d) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random_spec))
def test_zero_rule_matches_the_oracle_on_random_diagrams(spec):
    for side in (spec.side_a, spec.side_b):
        assert zero_rule_mismatches(side.diagram, side.noise) == []
        assert sum_parity_mismatches(side.diagram) == []


def test_a_zero_side_replays_only_its_noise_free_diagram(monkeypatch):
    # no class of a diagram beside a leg-less pi spider is nonzero, so
    # there is no reference to replay
    replayed = []
    real = feq.SyndromeMap.replay
    monkeypatch.setattr(feq.SyndromeMap, "replay", lambda self, side, f:
                        replayed.append((side, f)) or real(self, side, f))
    check_w_fault_equivalence(spec_of(zero_diagram(samples.wire()),
                                      samples.wire()))
    assert [f for side, f in replayed if side == "a"] == [PauliString()]


# -- web syndromes against fresh replays -----------------------------------------

def syndrome_specs():
    """(name, spec) pairs whose tables, to w=2, are compared fault by fault
    with fresh replays."""
    from zxfault.builders import build_gadget
    rep = build_gadget("repeating-measurement", n=3,
                       stabilisers=[("ZZ", (0, 1)), ("ZZ", (1, 2))], rounds=2)
    yield "flagged-cat", build_gadget("flagged-cat").equivalence_spec(3)
    yield "repeating-measurement", rep.equivalence_spec(3)
    yield "naive-cat4", naive_vs_spec(3)
    for i, corr in enumerate(TWO_ZZ_CORRS):
        yield f"two-zz corr {i}", _two_zz_spec((corr, False, False))
    yield "split-meas m=2", rule_spec("split-meas", m=2)


def fault_tables(spec, max_weight) -> dict:
    """Both sides' least-weight tables, without the map between them."""
    return {side: webs.ClassTable(webs.FaultClasses(s.diagram), s.noise,
                                  max_weight)
            for side, s in (("a", spec.side_a), ("b", spec.side_b))}


def replay(table, f: PauliString) -> OutcomeTensor:
    """The tensor family of the table's diagram with fault ``f`` applied,
    as :meth:`~zxfault.feq.SyndromeMap.replay` contracts it."""
    d = table.classes.diagram
    return evaluate(apply_fault(d, f) if f else d)


def walk(table) -> list:
    """Every fault of the table's noise model up to its weight, in
    enumeration order, as (fault, weight, syndrome, undetectable): the
    walk that the tables replace, here the oracle they are checked
    against."""
    return list(table.faults_below(dict.fromkeys(table.least,
                                                 table.max_weight + 1)))


def syndrome_key_mismatches(table, key) -> list:
    """Faults whose reference class key, from a fresh replay by the
    reference contraction, differs from the key of the first fault with
    their web syndrome."""
    replay = reference.Contraction(table.classes.diagram).evaluate
    first = {s: key(replay(f)) for s, f in table.firsts.items()}
    return [f for f, _, s, _ in walk(table) if key(replay(f)) != first[s]]


@pytest.mark.parametrize("spec", [pytest.param(spec, id=name)
                                  for name, spec in syndrome_specs()])
def test_syndrome_keys_match_fresh_replays(spec):
    keys = class_keys(spec)
    for side, table in fault_tables(spec, 2).items():
        assert syndrome_key_mismatches(table, keys[side]) == []


def zero_and_support_specs():
    """(name, spec) pairs with zero classes, zero diagrams that a fault
    makes nonzero, and outcome supports of different sizes."""
    wire = samples.wire
    pairs = [("loop", loop_beside_wire(), wire()),
             ("half-turn loop", loop_beside_wire(2), wire()),
             ("zero", zero_diagram(wire()), wire()),
             ("fixed and random outcome", measured_state("Z"),
              measured_state("X")),
             ("pinned outcome", pinned(measured_state("Z")),
              measured_state("Z"))]
    for name, a, b in pairs:
        yield name, spec_of(a, b)
        yield name + " swapped", spec_of(b, a)


def rule_pair_specs():
    """(name, spec) for every registered rule's own pair, at w=2 and w=3."""
    for name in sorted(RULES):
        for w in (2, 3):
            spec = rule_spec(name)
            spec.w = w
            yield f"{name} w={w}", spec


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=name) for name, spec in
    [*syndrome_specs(), *rule_pair_specs(), *zero_and_support_specs()]])
def test_syndrome_map_matches_the_class_keys(spec):
    # every class of both tables: the first fault of the other side that
    # the map gives equals the first with an equal reference key
    syndrome_map = feq.SyndromeMap(spec, spec.w - 1)
    reference = key_matches(syndrome_map, spec)
    for side, table in syndrome_map.tables.items():
        for s, f in table.firsts.items():
            assert syndrome_map.match(side, f, spec.w - 1) == \
                reference[side][s], (side, f)


@pytest.mark.parametrize("spec", [pytest.param(spec, id=name)
                                  for name, spec in syndrome_specs()])
def test_syndromes_match_the_column_rule(spec):
    # FaultClasses.syndrome applies the column rule, one row of webs per
    # location bit; it must agree with one anticommutation test per web
    for table in fault_tables(spec, 2).values():
        web_list = table.classes.webs
        faults = walk(table)
        got = [s for _, _, s, _ in faults]
        assert got == [syndrome(web_list, f) for f, *_ in faults]
        assert got == [table.classes.syndrome(f) for f, *_ in faults]
        assert any(got)


def detection_flag_mismatches(d, classes) -> list:
    """Faults whose undetectable flag from the class pass disagrees with a
    per-fault :func:`~zxfault.webs.is_detectable` call."""
    regions = webs.detecting_region_basis(d)
    return [f for f, _, _, undetectable in classes
            if undetectable == webs.is_detectable(d, f, regions)]


@pytest.mark.parametrize("spec", [pytest.param(spec, id=name)
                                  for name, spec in syndrome_specs()])
def test_detection_flags_match_per_fault_detection(spec):
    for table in fault_tables(spec, 2).values():
        assert detection_flag_mismatches(table.classes.diagram,
                                         walk(table)) == []


def test_detection_flags_match_per_fault_detection_on_samples():
    from test_rewrite import PUSHOUT_DIAGRAMS
    cases = [(d, edge_flip_atoms(d), cap) for _, d, cap in PUSHOUT_DIAGRAMS]
    for _, make, model, cap in DISTANCE_CASES:
        d = make()
        cases.append((d, model(d), cap))
    for d, m, cap in cases:
        table = webs.ClassTable(webs.FaultClasses(d), m, cap)
        assert detection_flag_mismatches(d, walk(table)) == []


def test_dropping_a_web_from_the_syndromes_is_caught(monkeypatch):
    # a coarser syndrome basis merges classes: the comparison must see it
    real = webs.FaultClasses.__init__

    def coarser(self, d):
        real(self, d)
        self.webs = self.webs[1:]
    monkeypatch.setattr(webs.FaultClasses, "__init__", coarser)
    assert any(syndrome_key_mismatches(t, class_keys(spec)[side])
               for _, spec in syndrome_specs()
               for side, t in fault_tables(spec, 2).items())


def test_predicted_match_guard(monkeypatch):
    # a push-out off by one web at every class but the origin: the guard's
    # replay of the side-b class it predicts must refute it
    real = feq.SyndromeMap.pushout

    def off(self, s):
        image = real(self, s)
        return None if image is None else image ^ (s != self._origin)
    monkeypatch.setattr(feq.SyndromeMap, "pushout", off)
    d = samples.wire()
    with pytest.raises(ClassKeyError, match=MATCH_REFUTED) as error:
        check_w_fault_equivalence(spec_of(d, d))
    assert "side-b fault ''," in str(error.value)


# the guard's error: the side-b class predicted against its replay under
# the oracle
MATCH_REFUTED = (r"^side-a fault '\S+' is predicted to match side-b fault"
                 r" '\S*', which the oracle refutes$")


def test_predicted_match_is_confirmed_by_the_oracle(monkeypatch):
    # a read that agrees with the push-out, but an oracle that tells the
    # guard's replay, side a's one replay of a fault, from the side-b class
    # predicted for it
    d = samples.wire()
    guards, real_replay, real_equal = [], feq.SyndromeMap.replay, \
        feq.equal_up_to_scalar

    def replay(self, side, f):
        t = real_replay(self, side, f)
        if f and side == "a":
            guards.append(t)
        return t

    def equal(t1, t2, corr=None):
        if corr is not None and any(t2 is t for t in guards):
            return False
        return real_equal(t1, t2, corr)
    monkeypatch.setattr(feq.SyndromeMap, "replay", replay)
    monkeypatch.setattr(feq, "equal_up_to_scalar", equal)
    with pytest.raises(ClassKeyError, match=MATCH_REFUTED):
        check_w_fault_equivalence(spec_of(d, samples.wire()))
    assert len(guards) == 1


def test_class_out_of_reach_of_the_pushout_is_an_error(monkeypatch):
    # with no generators, no class but the origin is reached: an error,
    # never a verdict
    monkeypatch.setattr(feq, "_pushout_rows", lambda *args: [])
    d = samples.wire()
    with pytest.raises(ClassKeyError,
                       match="is out of reach of the push-out generators$"):
        check_w_fault_equivalence(spec_of(d, d))


@pytest.mark.parametrize("spec", [
    spec_of(samples.wire(), samples.wire()),
    spec_of(samples.wire(had=True), samples.wire(had=True)),
    naive_vs_spec(3), flipped_two_zz_spec(2), many_to_one_spec(2)])
def test_wrong_pushout_generator_is_caught_by_the_guard(monkeypatch, spec):
    # every generator that some fault reaches flips side-b web 0 as well:
    # the guard's replay refutes M's prediction, and no verdict is returned
    real = feq._pushout_rows

    def off(d, classes, stabilisers):
        n = len(classes.webs)
        return [r ^ 1 << n if r & (1 << n) - 1 else r
                for r in real(d, classes, stabilisers)]
    monkeypatch.setattr(feq, "_pushout_rows", off)
    with pytest.raises(ClassKeyError, match=MATCH_REFUTED):
        check_w_fault_equivalence(spec)


def gadget_specs():
    """(name, spec, max_weight) for builders' pairs at w=3 beyond those of
    :func:`syndrome_specs`; the differential test reads the classes up to
    max_weight, which on the two largest is 1, so that the replay reads
    stay cheap."""
    from zxfault.builders import build_gadget
    for name, params, max_weight in [
            ("shor-ft", {}, 2), ("shor-optimised", {}, 2),
            ("truncated-cat", {"n": 4, "w": 2}, 2),
            ("steane", {}, 1), ("recursive-cat", {"n": 8}, 1)]:
        yield f"{name} w=3", \
            build_gadget(name, **params).equivalence_spec(3), max_weight


def pushout_mismatches(spec, max_weight) -> list:
    """The nonzero side-a classes, up to ``max_weight``, whose M from the
    push-out generators differs from the reference replay read; checks
    that those classes span the syndromes of all of them."""
    syndrome_map = feq.SyndromeMap(spec, spec.w - 1)
    a = syndrome_map.tables["a"]
    live = {s: f for s, f in a.firsts.items()
            if syndrome_map.keys["a"][s] not in (None, -1)}
    near = {s: f for s, f in live.items() if a.least[s] <= max_weight}
    origin = next(iter(live), 0)
    assert len(gf2.echelon(s ^ origin for s in near)) == \
        len(gf2.echelon(s ^ origin for s in live))
    if not live:
        return []
    read = reference.dense_reader(spec, syndrome_map)
    return [f for s, f in near.items() if syndrome_map.pushout(s) !=
            reference.replay_read(read, syndrome_map, f)]


def pushout_specs():
    """(name, spec, max_weight): every spec the push-out map is checked on."""
    named = [*syndrome_specs(), *rule_pair_specs(), *zero_and_support_specs(),
             ("flipped two-zz", flipped_two_zz_spec(3)),
             ("many-to-one", many_to_one_spec(3)),
             ("many-to-one ideal", many_to_one_spec(3, ideal=True)),
             ("three-zz", three_zz_spec(3)), ("naive-cat4", naive_vs_spec(3))]
    for name, spec in named:
        yield name, spec, spec.w - 1
    yield from gadget_specs()


@pytest.mark.parametrize("spec,max_weight", [
    pytest.param(spec, max_weight, id=name)
    for name, spec, max_weight in pushout_specs()])
def test_pushout_map_matches_the_replay_read(spec, max_weight):
    assert pushout_mismatches(spec, max_weight) == []


def reversed_edges(d):
    """The diagram with the ends of every edge swapped: the same tensor,
    with each port at the other end of its edge."""
    out = d.copy()
    out.edges = {eid: Edge(e.b, e.a, e.had, e.ideal)
                 for eid, e in d.edges.items()}
    return out


@pytest.mark.parametrize("seed", range(40))
def test_pushout_map_matches_the_replay_read_on_random_diagrams(seed):
    # a random pair seldom matches at all, so side a is also checked
    # against itself with its edges reversed, which matches
    spec = random_spec(seed)
    a = spec.side_a.diagram
    for s in (spec, spec_of(a, reversed_edges(a), w=3)):
        assert pushout_mismatches(s, s.w - 1) == []


def offset_mismatch(spec) -> tuple | None:
    """(offset, dense) when the offset solved on the webs differs from the
    dense read of side a's reference (:func:`reference.dense_offset`)."""
    syndrome_map = feq.SyndromeMap(spec, spec.w - 1)
    dense = reference.dense_offset(spec, syndrome_map)
    return None if syndrome_map.offset == dense else \
        (syndrome_map.offset, dense)


def effect_specs():
    """(name, spec): zero sides a of :func:`effect_wire` against each
    projector and each zero wire of one or two effects."""
    for a in [(0, 0, 2), (2, 2, 0)]:
        for b in [(0,), (2,), (0, 2), (2, 0)]:
            yield f"effects {''.join(map(str, a))} vs" \
                f" {''.join(map(str, b))}", spec_of(effect_wire(*a),
                                                    effect_wire(*b))


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=name) for name, spec in
    [*((name, spec) for name, spec, _ in pushout_specs()), *effect_specs()]])
def test_offset_matches_the_dense_read(spec):
    assert offset_mismatch(spec) is None


def test_offsets_of_every_kind_are_read():
    # the corpus has offsets 0, nonzero and None (no definite eigenvalue
    # or supports of other sizes)
    offsets = {feq.SyndromeMap(spec, spec.w - 1).offset
               for _, spec, _ in pushout_specs()}
    assert {0, None} < offsets


@pytest.mark.parametrize("seed", range(300))
def test_offset_matches_the_dense_read_on_random_diagrams(seed):
    # each random pair, and each of its sides against itself with its
    # edges reversed, which matches
    spec = random_spec(seed)
    for s in (spec, *(spec_of(d, reversed_edges(d), w=3)
                      for d in (spec.side_a.diagram, spec.side_b.diagram))):
        assert offset_mismatch(s) is None


def test_the_offset_needs_no_tensor(monkeypatch):
    # the [[7,1,3]] Steane extraction and recursive-cat n=16, whose dense
    # tensors do not fit in memory, against their specifications
    from zxfault.builders import build_gadget, steane

    def refuse(*args, **kwargs):
        raise AssertionError("a tensor was contracted")
    monkeypatch.setattr(oracle, "evaluate", refuse)
    monkeypatch.setattr(feq, "evaluate", refuse)
    h = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    for pair in (steane(h, h), build_gadget("recursive-cat", n=16)):
        spec = pair.equivalence_spec(3)
        a, b = (webs.FaultClasses(side.diagram)
                for side in (spec.side_a, spec.side_b))
        assert not a.alive and not b.alive
        corr = spec.corr()
        assert feq._offset(a, b, feq._stabilisers(b, corr), corr, 0) == 0


def test_equal_on_webs_matches_the_oracle():
    """The web comparison of two noise-free diagrams against the dense one
    on the offset corpus: the push-out specs, the zero effects, and random
    pairs with each side against itself with its edges reversed.  These
    diagrams are small, so a nonzero family is far above the dense
    oracle's zero tolerance and a zero one far below it."""
    specs = [*(spec for _, spec, _ in pushout_specs()),
             *(spec for _, spec in effect_specs())]
    for seed in range(300):
        spec = random_spec(seed)
        specs += [spec, *(spec_of(d, reversed_edges(d))
                          for d in (spec.side_a.diagram, spec.side_b.diagram))]
    kinds = set()
    for spec in specs:
        da, db, corr = spec.side_a.diagram, spec.side_b.diagram, spec.corr()
        a, b = webs.FaultClasses(da), webs.FaultClasses(db)
        same = feq.equal_on_webs(a, b, corr)
        assert same == equal_up_to_scalar(evaluate(db), evaluate(da), corr)
        kinds.add((same, bool(a.alive), bool(b.alive)))
    # equal and unequal nonzero pairs, zero pairs, and a zero side against
    # a nonzero one either way
    assert kinds == {(True, False, False), (False, False, False),
                     (True, True, True), (False, True, False),
                     (False, False, True)}


def pi_shifted_steane():
    """steane-optimised's implementation with a pi added to spider 0, the
    unshifted diagram and its noise model.  Every entry of both families
    is about 3.8e-20, below the dense oracle's zero tolerance."""
    from zxfault.builders import build_gadget
    d, m = build_gadget("steane-optimised").implementation_diagram()
    shifted = d.copy()
    s = shifted.spiders[0]
    shifted.spiders[0] = Spider(s.colour, s.phase + Phase(2))
    return shifted, d, m


def test_a_pi_below_the_dense_tolerance_is_unequal_on_the_webs():
    shifted, d, _ = pi_shifted_steane()
    assert not feq.equal_on_webs(webs.FaultClasses(shifted),
                                 webs.FaultClasses(d),
                                 OutcomeMap.identity(d.variables))
    assert not equal_up_to_scalar(reference.normalised(evaluate(d)),
                                  reference.normalised(evaluate(shifted)))


@pytest.mark.xfail(strict=True, raises=ClassKeyError, reason=(
    "the noise-free guard's dense comparison calls the two families, both "
    "below its zero tolerance, equal, where the webs rightly say they "
    "differ; the guard goes with ROADMAP item 2, which deletes this marker"))
def test_a_pi_below_the_dense_tolerance_gets_a_verdict():
    shifted, d, m = pi_shifted_steane()
    verdict = check_w_fault_equivalence(
        EquivalenceSpec(Side(shifted, m), Side(d, m), None, 1))
    # neither noise-free diagram is matched by the other's
    assert [(c.side, c.fault, c.weight) for c in verdict.counterexamples] \
        == [("a", PauliString(), 0), ("b", PauliString(), 0)]


@pytest.mark.parametrize("eid,message", [(1, "ideal edge 1"),
                                         (7, "unknown edge 7")])
def test_noise_atom_off_the_fault_prone_edges_is_an_error(eid, message):
    # X on edge 1 or 7 has the syndrome of X on edge 0 or of no fault, so
    # one detection call per syndrome alone would not see it
    d = samples.green_chain(1)
    d.set_ideal(1, True)
    m = NoiseModel([AtomicFault(PauliString({e: "X"}), "edge-flip")
                    for e in (0, eid)], "x")
    with pytest.raises(ValueError, match=message):
        check_w_fault_equivalence(EquivalenceSpec(Side(d, m), Side(d, m),
                                                  None, 2))
    with pytest.raises(ValueError, match=message):
        circuit_distance(d, m, 2)  # even though weight 1 has the answer


def test_one_replay_per_web_syndrome(monkeypatch):
    from zxfault.builders import build_gadget
    made, detected = made_maps(monkeypatch), []
    detect = webs.is_detectable
    monkeypatch.setattr(webs, "is_detectable", lambda d, f, regions=None:
                        detected.append(d) or detect(d, f, regions))
    assert check_w_fault_equivalence(
        build_gadget("recursive-cat", n=4).equivalence_spec(3)).equivalent
    impl = made[0].tables["a"]
    assert len(impl.firsts) == 32
    # the noise-free diagram and the guard's, not one per syndrome
    assert made[0].replays["a"] <= 2 < len(impl.firsts)
    # detection is decided once per syndrome, not once per fault
    for t in made[0].tables.values():
        assert 0 < sum(d is t.classes.diagram for d in detected) \
            <= len({s for _, _, s, _ in walk(t)})


# -- the row-wise comparison, against the loop --------------------------------

def equal_cases(spec, max_weight):
    """(t1, t2, correspondence) for each pair of a side-b and a side-a
    class, as the oracle compares them, and each side with itself."""
    tables = fault_tables(spec, max_weight)
    replays = {side: [replay(table, f) for f in table.firsts.values()]
               for side, table in tables.items()}
    for t_b in replays["b"]:
        for t_a in replays["a"]:
            yield t_b, t_a, spec.corr()
    for side, ts in replays.items():
        yield ts[0], ts[-1], None


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=name) for name, spec in
    [("many-to-one", many_to_one_spec(2)),
     ("flipped two-zz", flipped_two_zz_spec(2)),
     ("three-zz", three_zz_spec(2)), *zero_and_support_specs()]])
def test_equal_up_to_scalar_matches_the_loop(spec):
    for case in equal_cases(spec, 2):
        assert oracle.equal_up_to_scalar(*case) == \
            reference.equal_up_to_scalar(*case)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random_spec))
def test_equal_up_to_scalar_matches_the_loop_on_random_diagrams(spec):
    for case in equal_cases(spec, 1):
        assert oracle.equal_up_to_scalar(*case) == \
            reference.equal_up_to_scalar(*case)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_equal_up_to_scalar_matches_the_loop_on_random_families(seed):
    # t2's branches are phases times t1's at their images under a random,
    # possibly many-to-one map, some zeroed or perturbed by about TOL
    rng = np.random.default_rng(seed)
    n1, n2, legs = rng.integers(0, 3), rng.integers(0, 4), rng.integers(0, 3)
    v1 = [f"a{i}" for i in range(n1)]
    v2 = [f"b{i}" for i in range(n2)]
    corr = OutcomeMap.parse(v2, v1, {
        v: "^".join([u for u in v2 if rng.random() < 0.5]
                    + ["1"] * (rng.random() < 0.3)) or "0" for v in v1})
    a1 = rng.normal(size=(2 ** n1, 2 ** legs)) \
        * (rng.random((2 ** n1, 1)) < 0.8)
    image = corr.images()
    phase = np.exp(2j * np.pi * rng.integers(0, 4, size=(2 ** n2, 1)) / 4)
    a2 = phase * a1[image] * (rng.random((2 ** n2, 1)) < 0.8)
    a2 += oracle.TOL * rng.normal(size=a2.shape) * rng.integers(0, 3)
    t1 = OutcomeTensor(v1, legs, 0, a1.reshape((2,) * n1 + (2 ** legs, 1)))
    t2 = OutcomeTensor(v2, legs, 0, 3 * a2.reshape((2,) * n2
                                                  + (2 ** legs, 1)))
    assert oracle.equal_up_to_scalar(t1, t2, corr) == \
        reference.equal_up_to_scalar(t1, t2, corr)
