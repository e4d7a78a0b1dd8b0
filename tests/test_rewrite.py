import dataclasses
import inspect
import itertools
import random
import time

import pytest

from reference import (_branch_canons, inverse_binding, is_total, isomorphic,
                       normalised)
from test_feq import forbid_contractions
from test_webs import SOLVE_GROUPS
from zxfault import samples, webs
from zxfault.builders import build_gadget
from zxfault.diagram import ZxDiagram, apply_fault
from zxfault.feq import equal_on_webs
from zxfault.noise import AtomicFault, NoiseModel, enumerate_faults
from zxfault.oracle import (OracleBudgetError, OutcomeMap, equal_up_to_scalar,
                            evaluate)
from zxfault.pauli import LETTERS, PauliString
from zxfault.rewrite import (FAULT_EQUIVALENT, RULES, IdealRegionError,
                             ProofScript, PushoutReport, RewriteRule,
                             RuleBindingError, ScriptError, ScriptStep,
                             apply_rule, check_boundary_pushout, make_rule,
                             resolve_ref, rule_certificate, run_proof_script,
                             verify_step)
from zxfault.webs import detecting_region_basis, is_detectable

# -- rule certificates -----------------------------------------------------------

CERT_CASES = [
    ("elim", {}, 4),
    ("elim", {"colour": "X"}, 4),
    ("fuse-1", {"n": 2}, 4),
    ("fuse-1", {"n": 3, "colour": "X"}, 4),
    ("fuse-4", {}, 4),
    ("pi-copy", {"n": 2, "a": 0}, 4),
    ("pi-copy", {"n": 2, "a": 1, "colour": "X"}, 4),
    ("unfuse", {"a": 1, "n": 3}, 4),
    ("unfuse", {"a": 2, "n": 2, "colour": "X"}, 4),
    ("pi-pi-id", {}, 4),
    ("pi-pi-id", {"colour": "X"}, 4),
    ("perfect-fuse", {"a1": 1, "a2": 2, "n1": 2, "n2": 3}, 4),
    ("copy", {"n": 2}, 4),
    ("copy", {"n": 3, "colour": "X"}, 4),
    ("cat-xs", {"n": 3}, 4),
    ("fuse-n", {"n": 2}, 3),
    ("fuse-n", {"n": 4}, 3),
    ("fuse-n-w", {"n": 4, "w": 2}, 2),
    ("hadamard-hadamard", {}, 4),
]


@pytest.mark.parametrize("name,params,w", CERT_CASES,
                         ids=[f"{n}-{p}-w{w}" for n, p, w in CERT_CASES])
def test_rule_certificate_passes(name, params, w):
    v = rule_certificate(make_rule(name, **params), w)
    assert v.equivalent, v.counterexamples[:3]


def test_mutated_fuse_4_fails_with_counterexample():
    v = rule_certificate(make_rule("mutated-fuse-4"), 3)
    assert not v.equivalent
    assert v.counterexamples
    assert v.counterexamples[0].weight <= 3


def test_certificate_cache_keys_on_budget():
    """A certificate is decided under the budget it is given: the check
    raises under a budget too small for the rule, after passing under the
    default one."""
    r = make_rule("fuse-n", n=2)
    assert rule_certificate(r, 3).equivalent
    with pytest.raises(OracleBudgetError):
        verify_step(r.lhs, r.rhs, 3, r.corr_exprs, budget=2)
    with pytest.raises(OracleBudgetError):
        rule_certificate(r, 3, budget=2)


# -- application mechanics --------------------------------------------------------

def chain_diagram():
    d = ZxDiagram()
    a = d.add_spider("Z")
    b = d.add_spider("Z")
    d.add_edge(("b", "in", 0), ("s", a))
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", b), ("b", "out", 0))
    return d, a, b


def test_elim_application_and_semantics():
    d, a, _ = chain_diagram()
    res, _ = apply_rule(d, make_rule("elim"), {"s1": a})
    assert len(res.spiders) == 1 and len(res.edges) == 2
    assert equal_up_to_scalar(evaluate(d), evaluate(res))


def test_binding_colour_mismatch_raises():
    d, a, _ = chain_diagram()
    with pytest.raises(RuleBindingError, match="binding mismatch"):
        apply_rule(d, make_rule("elim", colour="X"), {"s1": a})


@pytest.mark.parametrize("name,params", [
    ("fuse-1", {"n": 3}), ("elim", {}), ("fuse-4", {}),
    ("pi-pi-id", {}), ("hadamard-hadamard", {}),
])
def test_inverse_application_round_trips(name, params):
    """A rule followed by its inverse yields an isomorphic diagram."""
    rule = make_rule(name, **params)
    skey, ekey = rule.slots()
    host = rule.lhs.copy()  # the generator instance is its own host
    binding = {**skey, **ekey}
    mid, _ = apply_rule(host, rule, binding)
    back, _ = apply_rule(mid, rule.inverse(), inverse_binding(host, mid, rule))
    assert isomorphic(host, back)


def test_expose_seal_round_trip():
    d = ZxDiagram()
    s = d.add_spider("Z")
    t = d.add_spider("X")
    mid = d.add_edge(("s", s), ("s", t), ideal=True)
    d.add_edge(("b", "in", 0), ("s", s))
    d.add_edge(("s", t), ("b", "out", 0))
    r1, _ = apply_rule(d, make_rule("expose"), {"e1": mid})
    assert not r1.edges[mid].ideal
    with pytest.raises(IdealRegionError):
        apply_rule(r1, make_rule("expose"), {"e1": mid})
    r2, _ = apply_rule(r1, make_rule("seal"), {"e1": mid})
    assert r2.edges[mid].ideal
    assert isomorphic(d, r2)


def zz_split_binding(zz):
    hub = next(s for s in zz.spiders if zz.spiders[s].colour == "X")
    taps = sorted(s for s in zz.spiders if s != hub)
    return {"s1": hub, "s2": taps[0], "s3": taps[1]}


def test_split_meas_variables_and_semantics():
    zz = samples.zz_measurement("k", 2, False)
    res, log = apply_rule(zz, make_rule("split-meas", m=2),
                          zz_split_binding(zz),
                          vars={"v0": "k"}, new={"w1": "a1", "w2": "a2"})
    assert res.variables == ["a1", "a2"]
    assert log.corr_exprs == {"k": "a1^a2"}
    corr = OutcomeMap.parse(res.variables, zz.variables, {"k": "a1^a2"})
    assert equal_up_to_scalar(evaluate(zz), evaluate(res), corr)
    assert verify_step(log.before_region, log.after_region, 3,
                       log.corr_exprs).equivalent


def test_split_meas_substitutes_constraints():
    zz = samples.zz_measurement("k", 2, False)
    zz.add_constraint(["k"], 0)
    res, _ = apply_rule(zz, make_rule("split-meas", m=2),
                        zz_split_binding(zz),
                        vars={"v0": "k"}, new={"w1": "a1", "w2": "a2"})
    assert res.constraints == [(frozenset({"a1", "a2"}), 0)]


def three_ideal_wires(cap_colour):
    d = ZxDiagram()
    for q in range(3):
        cap = d.add_spider(cap_colour)
        mid = d.add_spider("Z")
        d.add_edge(("s", cap), ("s", mid), ideal=True)
        d.add_edge(("s", mid), ("b", "out", q))
    return d, [eid for eid, e in d.edges.items() if e.ideal]


def test_flag_taps_adds_constrained_flag():
    d, eids = three_ideal_wires("X")
    res, _ = apply_rule(d, make_rule("flag-taps", m=3),
                        {"e1": eids[0], "e2": eids[1], "e3": eids[2]},
                        new={"v0": "k"})
    assert "k" in res.variables
    assert res.constraints == [(frozenset({"k"}), 0)]
    assert not res.validate()


def test_flag_taps_builds_one_fault_classes_of_its_result(monkeypatch):
    # the ideal-region check and the totality check read one FaultClasses
    built, real = [], webs.FaultClasses.__init__
    monkeypatch.setattr(webs.FaultClasses, "__init__",
                        lambda self, d: built.append(d) or real(self, d))
    d, eids = three_ideal_wires("X")
    res, _ = apply_rule(d, make_rule("flag-taps", m=3),
                        {"e1": eids[0], "e2": eids[1], "e3": eids[2]},
                        new={"v0": "k"})
    assert sorted(map(id, built)) == sorted([id(d), id(res)])


def test_flag_taps_nondeterministic_flag_rejected():
    d, eids = three_ideal_wires("Z")  # |+> caps reveal nothing in Z basis
    with pytest.raises(IdealRegionError):
        apply_rule(d, make_rule("flag-taps", m=3),
                   {"e1": eids[0], "e2": eids[1], "e3": eids[2]},
                   new={"v0": "k"})


def unchecked(name: str, **params) -> RewriteRule:
    """The rule with its ideal-region guarantee switched off, so that
    apply_rule splices it with no check."""
    return dataclasses.replace(make_rule(name, **params),
                               guarantee=FAULT_EQUIVALENT)


def rule_applications():
    """(name, host, rewritten host): expose on up to three plain ideal
    edges of each host, and flag-taps in both colours on a random triple
    of them, in the builders' sides, the random sides, the rule sides and
    the web corpus."""
    rng = random.Random(5)
    for group in ("builder-sides", "random-sides", "rule-sides",
                  "web-corpus"):
        for name, d in SOLVE_GROUPS[group]():
            plain = [eid for eid, e in sorted(d.edges.items())
                     if e.ideal and not e.had]
            for eid in plain[:3]:
                yield f"{name} expose {eid}", d, apply_rule(
                    d, unchecked("expose"), {"e1": eid})[0]
            for colour in "ZX" if len(plain) >= 3 else "":
                triple = rng.sample(plain, 3)
                yield f"{name} flag-taps {colour} {triple}", d, apply_rule(
                    d, unchecked("flag-taps", colour=colour),
                    dict(zip(("e1", "e2", "e3"), triple)),
                    new={"v0": "flag"})[0]


def test_rule_applications_match_the_oracle():
    """apply_rule's two checks, on the webs, against the dense ones on
    each family normalised by its own largest magnitude: the builders'
    sides include steane-optimised's, whose entries of about 3.8e-20 the
    dense zero tolerance would call zero."""
    seen = set()
    for name, d, res in rule_applications():
        corr = OutcomeMap.parse(res.variables, d.variables,
                                {v: v for v in d.variables})
        after = webs.FaultClasses(res)
        same = equal_on_webs(after, webs.FaultClasses(d), corr)
        total = after.total
        assert same == equal_up_to_scalar(normalised(evaluate(d)),
                                          normalised(evaluate(res)), corr), \
            name
        assert total == is_total(res), name
        seen.add((same, total))
    # a flag that changes the semantics here also loses totality
    assert seen == {(True, True), (True, False), (False, False)}


def test_expose_on_a_host_too_large_to_contract(monkeypatch):
    # the [[7,1,3]] Steane extraction host, 402 spiders and 30 outcome
    # variables, whose dense tensor would need 32 GiB
    forbid_contractions(monkeypatch)
    h = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    host = build_gadget("steane", hx=h, hz=h).implementation_diagram()[0]
    eid = next(eid for eid, e in sorted(host.edges.items())
               if e.ideal and not e.had and e.a[0] == e.b[0] == "s")
    start = time.perf_counter()
    res, _ = apply_rule(host, make_rule("expose"), {"e1": eid})
    assert time.perf_counter() - start < 1
    assert not res.edges[eid].ideal


def test_encoder_expansion_matches_frame():
    spec = samples.steane_zero_spec()
    rule = make_rule("encode-steane-goto")
    skey, _ = rule.slots()
    res, _ = apply_rule(spec, rule, dict(skey))
    assert not res.validate()
    assert isomorphic(res, samples.goto_encoder_frame())


# -- boundary push-out -------------------------------------------------------------

@pytest.mark.parametrize("name,params", [("fuse-4", {}),
                                         ("split-meas", {"m": 2})])
def test_boundary_pushout_on_rule_sides(name, params):
    rule = make_rule(name, **params)
    for side in (rule.lhs, rule.rhs):
        rep = check_boundary_pushout(side, 3)
        assert rep.ok, rep.violations[:3]


def offset_fingerprint(t) -> bytes:
    """The push-out's own key before feq's key builder took it over: the
    least of the canonical branch bytes read through every constant flip of
    the outcome variables."""
    branch = _branch_canons(t)
    assigns = list(t.assignments())
    return min(b"|".join(branch[tuple(x ^ y for x, y in zip(b, c))]
                         for b in assigns)
               for c in assigns)


def reference_pushout(d, max_weight) -> PushoutReport:
    """The push-out loop ``check_boundary_pushout`` replaced, on dense
    tensors: each undetectable internal fault needs a boundary fault of no
    greater weight with the same offset fingerprint."""
    internal = sorted(eid for eid, e in d.edges.items()
                      if not e.ideal and e.a[0] == "s" and e.b[0] == "s")
    boundary = [eid for eid in d.non_ideal_edges() if eid not in internal]
    if not internal:
        return PushoutReport(True, [], 0)

    def faults(eids):
        return enumerate_faults(NoiseModel(
            [AtomicFault(PauliString({e: l}), "edge-flip")
             for e in eids for l in LETTERS], "edge-flip"), max_weight)

    def fingerprint(f):
        return offset_fingerprint(evaluate(apply_fault(d, f)))

    least: dict = {}
    for g, w in faults(boundary):
        least.setdefault(fingerprint(g), w)
    regions = detecting_region_basis(d)
    violations, checked = [], 0
    for f, w in faults(internal):
        if not f:
            continue
        checked += 1
        if is_detectable(d, f, regions):
            continue
        if least.get(fingerprint(f), w + 1) > w:
            violations.append((f, w))
    return PushoutReport(not violations, violations, checked)


PUSHOUT_RULES = [(name, {}) for name in RULES] + [
    ("split-meas", {"m": 3}), ("split-meas", {"basis": "X"})]


@pytest.mark.parametrize("name,params", PUSHOUT_RULES,
                         ids=[f"{n}-{p}" for n, p in PUSHOUT_RULES])
def test_boundary_pushout_matches_reference(name, params):
    rule = make_rule(name, **params)
    for side in (rule.lhs, rule.rhs):
        assert check_boundary_pushout(side, 2) == reference_pushout(side, 2)


def with_legless_spider(d, qturns, var=None):
    """The diagram beside a leg-less green spider: a pi spider makes the
    whole diagram zero, and one that reads an outcome variable zeroes the
    branches where its scalar 1 + (-1)^var (or 1 - (-1)^var) vanishes."""
    out = d.copy()
    if var is not None and var not in out.variables:
        out.add_variable(var)
    out.add_spider("Z", qturns, [] if var is None else [var])
    return out


# (id, diagram, max weight); the leg-less readers make an outcome flip that
# no Pauli undoes, and zz3's reader turns its push-out negative
PUSHOUT_DIAGRAMS = [(f"corpus-{n}", d, 2) for n, d in samples.web_corpus()] + [
    ("naive-cat3", samples.naive_cat(3), 2),
    ("two-zz", samples.two_zz_measurements(), 2),
    ("zz3", samples.zz_measurement(n=3), 2),
    ("repetition-sandwich", samples.repetition_sandwich(), 2),
    ("goto-prep", samples.goto_prep(), 1),
    ("zero-naive-cat4", with_legless_spider(samples.naive_cat(4), 2), 2),
    ("zero-repetition-sandwich",
     with_legless_spider(samples.repetition_sandwich(), 2), 2),
    ("two-zz-new-reader",
     with_legless_spider(samples.two_zz_measurements(), 0, "m"), 2),
    ("naive-cat4-new-reader",
     with_legless_spider(samples.naive_cat(4), 2, "m"), 2),
    ("zz3-reader",
     with_legless_spider(samples.zz_measurement(n=3), 0, "k"), 2),
]


@pytest.mark.parametrize("d,cap", [pytest.param(d, c, id=i)
                                   for i, d, c in PUSHOUT_DIAGRAMS])
def test_boundary_pushout_matches_reference_on_samples(d, cap):
    assert check_boundary_pushout(d, cap) == reference_pushout(d, cap)


@pytest.mark.parametrize("d,cap", [pytest.param(d, c, id=i)
                                   for i, d, c in PUSHOUT_DIAGRAMS])
def test_boundary_pushout_contracts_nothing(monkeypatch, d, cap):
    want = reference_pushout(d, cap)
    forbid_contractions(monkeypatch)
    assert check_boundary_pushout(d, cap) == want


@pytest.mark.parametrize("d", [
    pytest.param(samples.zz_measurement(n=3), id="zz3-below-0"),
    pytest.param(with_legless_spider(samples.naive_cat(4), 2),
                 id="zero-naive-cat4-below-0")])
def test_pushout_weight_below_zero_is_an_error(d):
    # a negative weight is an error, never a push-out that holds
    with pytest.raises(ValueError,
                       match="^max_weight must be at least 0, got -1$"):
        check_boundary_pushout(d, -1)


def test_only_a_failing_pushout_walks_faults(monkeypatch):
    # a push-out that holds is decided from least-weight tables alone; the
    # failing one of zz3's reader lists its violations by the walk
    walked = []
    real = webs.ClassTable.faults_below
    monkeypatch.setattr(webs.ClassTable, "faults_below",
                        lambda *args: walked.append(args) or real(*args))
    for name, params in [("fuse-4", {}), ("split-meas", {"m": 2})]:
        rule = make_rule(name, **params)
        for side in (rule.lhs, rule.rhs):
            assert check_boundary_pushout(side, 3).ok
    assert walked == []
    d = with_legless_spider(samples.zz_measurement(n=3), 0, "k")
    assert not check_boundary_pushout(d, 2).ok
    assert len(walked) == 1


# -- proof scripts ------------------------------------------------------------------

def test_script_parse_error_has_line_number():
    with pytest.raises(ScriptError, match="line"):
        ProofScript.parse("script x\nsource sample:wire\nnonsense here\n")


BAD_WEIGHT_SCRIPTS = [
    ("claim w=0", "step fuse-n n=2 s1=0 verify=2\nclaim w=0\n", 4),
    ("verify=0", "step fuse-n n=2 s1=0 verify=0\nclaim w=2\n", 3),
    ("verify=x", "step fuse-n n=2 s1=0 verify=x\nclaim w=2\n", 3),
]


def bad_weight_script(body: str) -> str:
    return "name demo\nsource sample:cat_spec:4\n" + body


@pytest.mark.parametrize("label,body,line", BAD_WEIGHT_SCRIPTS,
                         ids=[b[0] for b in BAD_WEIGHT_SCRIPTS])
def test_script_weight_below_one_is_a_parse_error(label, body, line):
    with pytest.raises(ScriptError, match=f"^line {line}: weight must be"):
        ProofScript.parse(bad_weight_script(body))


def test_run_script_end_to_end_pass():
    ps = ProofScript("demo", "sample:cat_spec:4", [
        ScriptStep("fuse-n", {"n": 2}, {"s1": 0}, {}, {}, 3),
    ], 3, {})
    rep = run_proof_script(ps)
    assert rep["failed_step"] is None
    assert rep["claim"]["mode"] == "end-to-end"
    assert rep["claim"]["verified"]


def test_run_script_ideal_region_misuse_fails_at_step():
    """An ideal-region rule applied where the matched internal edge is
    fault-prone must fail at that step."""
    ps = ProofScript("bad", "sample:green_chain:2", [
        ScriptStep("perfect-fuse", {"colour": "Z", "a1": 0, "a2": 0,
                                    "n1": 2, "n2": 2}, {"s1": 0, "s2": 1}),
    ], 1, {})
    rep = run_proof_script(ps)
    assert rep["failed_step"] == 0
    assert "error" in rep["steps"][0]
    assert not rep["claim"]["verified"]


def test_verify_step_rejects_mutated_pair():
    rule = make_rule("mutated-fuse-4")
    v = verify_step(rule.lhs, rule.rhs, 3, rule.corr_exprs)
    assert not v.equivalent


def test_verify_step_row_for_unknown_variable_is_an_error():
    d = samples.two_zz_measurements()
    with pytest.raises(ValueError, match="'bogus'"):
        verify_step(d, d, 1, {"bogus": "k1"})


def test_target_with_other_outcome_variables_is_a_script_error():
    ps = ProofScript.parse("name probe\nsource sample:cat_spec:4\n"
                           "target sample:two_zz_measurements\nclaim w=2\n")
    with pytest.raises(ScriptError, match=r"\['k1', 'k2'\].*\[\]"):
        run_proof_script(ps)


def sample_refs():
    """A ``sample:`` reference for each public diagram-returning function
    of :mod:`zxfault.samples` and each choice of its integer parameters in
    -1..3, the other arguments at their defaults (a colour at "Z")."""
    refs = []
    for name, fn in sorted(vars(samples).items()):
        if name.startswith("_") or not inspect.isfunction(fn) \
                or inspect.signature(fn).return_annotation != "ZxDiagram":
            continue
        params = list(inspect.signature(fn).parameters.values())
        ints = [i for i, p in enumerate(params) if p.annotation == "int"]
        if not ints:
            refs.append(f"sample:{name}")
            continue
        for values in itertools.product(range(-1, 4), repeat=len(ints)):
            args = [p.default if p.default is not p.empty else "Z"
                    for p in params[:ints[-1] + 1]]
            for i, v in zip(ints, values):
                args[i] = v
            refs.append(":".join(["sample", name, *map(str, args)]))
    return refs


@pytest.mark.parametrize("ref", sample_refs())
def test_every_sample_reference_builds_a_valid_diagram_or_is_refused(ref):
    try:
        d = resolve_ref(ref)
    except ValueError:  # ScriptError too
        return
    assert d.validate() == []
