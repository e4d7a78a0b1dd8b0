"""The benchmark's four workloads: their inputs, known answers and checks.

Importing this module imports the whole ``zxfault`` package (through its
CLI, as a user's first command would), so the import is part of set-up.

Every input is decided by one call into the package.  Its known answer is
written by hand in the tables below, from the builder's claimed weight or
the acceptance suite; the sha256 of its verdict or report bytes is pinned in
``expected.json``, except on feq-batch, whose 200 verdicts are checked
against each composition's single-qubit map and criterion 13's properties.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

import zxfault.cli  # noqa: F401  (the user-facing import; loads every layer)
from zxfault import (builders, diagram, extract, feq, noise, rewrite,
                     samples, translate, webs)

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass
class Judged:
    ok: bool
    digest: str
    faults: int
    note: str = ""


@dataclass
class Input:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Judged]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned(workload: str, name: str, digest: str, ok: bool,
            note: str = "") -> tuple[bool, str]:
    want = EXPECTED[workload].get(name)
    if want is None:
        return False, f"no pinned digest (got {digest})"
    if want != digest:
        return False, f"digest {digest} != pinned {want}"
    return ok, note


def _verdict_judge(workload: str, name: str, equivalent: bool):
    def judge(v) -> Judged:
        digest = _sha(v.dumps())
        ok, note = _pinned(workload, name, digest, v.equivalent == equivalent,
                           f"equivalent={v.equivalent}")
        return Judged(ok, digest, v.checked, note)
    return judge


# -- feq-gadgets ---------------------------------------------------------------

# (input, builder, builder parameters, w, known verdict).  Every pair is
# checked at or below its builder's claimed weight, so every one holds.
GADGET_PAIRS = [
    ("flagged-cat w=2", "flagged-cat", {}, 2, True),
    ("shor-optimised w=2", "shor-optimised", {}, 2, True),
    ("recursive-cat n=4 w=3", "recursive-cat", {"n": 4}, 3, True),
    ("truncated-cat n=4,w=2 w=2", "truncated-cat", {"n": 4, "w": 2}, 2, True),
    ("shor-ft w=2", "shor-ft", {}, 2, True),
    ("repeating-measurement w=2", "repeating-measurement",
     {"n": 3, "stabilisers": [("ZZ", (0, 1)), ("ZZ", (1, 2))], "rounds": 3},
     2, True),
]


def _edge_flip_spec(a, b, w: int) -> feq.EquivalenceSpec:
    """The spec ``zxfault check-feq`` builds for two diagram references."""
    return feq.EquivalenceSpec(feq.Side(a, noise.edge_flip_atoms(a)),
                               feq.Side(b, noise.edge_flip_atoms(b)), None, w)


def _feq_gadgets() -> list[Input]:
    out = []
    for name, builder, params, w, known in GADGET_PAIRS:
        spec = builders.build_gadget(builder, **params).equivalence_spec(w)
        out.append(Input(name,
                         lambda s=spec: feq.check_w_fault_equivalence(s),
                         _verdict_judge("feq-gadgets", name, known)))
    # negative control: the naive cat preparation spreads one fault to two
    # outputs, which the ideal cat can only match with two faults
    name = "naive-cat4 vs ideal-cat4 w=3"
    spec = _edge_flip_spec(samples.naive_cat(4), samples.cat_spec(4), 3)
    out.append(Input(name, lambda s=spec: feq.check_w_fault_equivalence(s),
                     _verdict_judge("feq-gadgets", name, False)))
    return out


# -- feq-batch -----------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_I = np.eye(2)

# Criterion 13's wire pool, each with the single-qubit map it denotes.  With
# edge-flip noise every weight-1 fault on one side is matched by the fault on
# the other side's output edge, so at w=2 two compositions are equivalent
# exactly when their maps agree up to a scalar.
WIRE_POOL = [
    (lambda: samples.wire(), _I),
    (lambda: samples.wire(had=True), _H),
    (lambda: samples.green_chain(2), _I),
    (lambda: samples.green_chain(3), _I),
    (lambda: samples.pauli_spider_on_wire("X", 0), _I),
    (lambda: samples.pauli_spider_on_wire("Z", 2), np.diag([1, -1])),
    (lambda: samples.pauli_spider_on_wire("X", 2), np.array([[0, 1], [1, 0]])),
    (lambda: samples.pauli_spider_on_wire("Z", 1), np.diag([1, 1j])),
]
BATCH_DRAWS = 100
BATCH_W = 2
# The compositions are drawn once, with criterion 13's own seed, not with the
# run's seed: timing every pair of compositions showed that redrawing 100 of
# them moves the median check time by 12% (quartile spread over 40 seeds),
# more than the run-to-run noise this benchmark must stay within.
BATCH_DRAW_SEED = 1905


def _proportional(m1: np.ndarray, m2: np.ndarray) -> bool:
    k = np.unravel_index(np.argmax(np.abs(m1)), m1.shape)
    return bool(np.allclose(m2, m2[k] / m1[k] * m1, atol=1e-12))


def _draws() -> list[tuple[int, int, int, int]]:
    rng = random.Random(BATCH_DRAW_SEED)
    n = len(WIRE_POOL)
    return [tuple(rng.randrange(n) for _ in range(4))
            for _ in range(BATCH_DRAWS)]


def _composed(i: int, j: int):
    """Pool element i followed by pool element j, with the map it denotes."""
    d = diagram.compose(WIRE_POOL[i][0](), WIRE_POOL[j][0]())
    return d, WIRE_POOL[j][1] @ WIRE_POOL[i][1]


def _batch_judge(known: bool, checked: int):
    def judge(v) -> Judged:
        ok = v.equivalent == known and v.checked == checked
        return Judged(ok, _sha(v.dumps()), v.checked,
                      f"equivalent={v.equivalent} checked={v.checked}"
                      f" (known {known}, {checked})")
    return judge


def _feq_batch() -> list[Input]:
    out = []
    for k, (a1, a2, b1, b2) in enumerate(_draws()):
        (da, ma), (db, mb) = _composed(a1, a2), _composed(b1, b2)
        known = _proportional(ma, mb)
        # every fault of weight < w on both sides is classified
        checked = 2 + 3 * (len(da.non_ideal_edges()) + len(db.non_ideal_edges()))
        for tag, x, y in (("ab", da, db), ("ba", db, da)):
            spec = _edge_flip_spec(x, y, BATCH_W)
            out.append(Input(f"draw {k} {tag} ({a1}.{a2} vs {b1}.{b2})",
                             lambda s=spec: feq.check_w_fault_equivalence(s),
                             _batch_judge(known, checked)))
    return out


def batch_properties(verdicts: dict) -> list[str]:
    """Criterion 13's symmetry and compositionality on one pass's verdicts
    (input name -> equivalent).  The component checks run here, untimed."""
    errors = []
    component: dict = {}
    for k, (a1, a2, b1, b2) in enumerate(_draws()):
        tag = f"({a1}.{a2} vs {b1}.{b2})"
        ab = verdicts.get(f"draw {k} ab {tag}")
        ba = verdicts.get(f"draw {k} ba {tag}")
        if ab is None or ba is None:
            continue  # a check that raised is already counted as failed
        if ab != ba:
            errors.append(f"draw {k}: symmetry broken ({ab} vs {ba})")
        for pair in ((a1, b1), (a2, b2)):
            if pair not in component:
                x, y = (WIRE_POOL[i][0]() for i in pair)
                component[pair] = feq.check_w_fault_equivalence(
                    _edge_flip_spec(x, y, BATCH_W)).equivalent
        if component[(a1, b1)] and component[(a2, b2)] and not ab:
            errors.append(f"draw {k}: compositionality broken")
    return errors


# -- rewrite -------------------------------------------------------------------

# Criterion 07's certificate sweep without fuse-n n=8 (67 s) and fuse-n-w
# n=8,w=3; (rule, parameters, w, known verdict).
CERTIFICATES = [
    ("elim", {}, 4, True), ("fuse-1", {}, 4, True), ("fuse-4", {}, 4, True),
    ("pi-copy", {}, 4, True), ("unfuse", {}, 4, True),
    ("pi-pi-id", {}, 4, True), ("copy", {}, 4, True),
    ("cat-xs", {"n": 3}, 4, True), ("cat-xs", {"n": 4}, 4, True),
    ("fuse-n", {"n": 2}, 3, True), ("fuse-n", {"n": 4}, 3, True),
    ("fuse-n-w", {"n": 4, "w": 2}, 2, True),
    ("fuse-n-w", {"n": 8, "w": 2}, 2, True),
    ("mutated-fuse-4", {}, 3, False),
]

SCRIPTS = ["cat4-flagged", "steane-422-extraction", "optimised-0-like",
           "truncated-cat", "rep3-split"]


def _pushout_judge(name: str, known: bool):
    """Judge the push-out reports of one rule's sides, all ``known``."""
    def judge(reps) -> Judged:
        text = json.dumps([{"ok": r.ok, "checked": r.checked,
                            "violations": [[f.to_text(), w]
                                           for f, w in r.violations]}
                           for r in reps], indent=2, sort_keys=True)
        digest = _sha(text)
        ok, note = _pinned("rewrite", name, digest,
                           all(r.ok == known for r in reps),
                           f"ok={[r.ok for r in reps]}")
        return Judged(ok, digest, sum(r.checked for r in reps), note)
    return judge


def _script_judge(name: str):
    def judge(rep) -> Judged:
        # the bytes ``zxfault prove`` prints
        digest = _sha(json.dumps(rep, indent=2, sort_keys=True))
        verified = (rep["failed_step"] is None and rep["claim"]["verified"]
                    and rep["target_semantics_match"] is not False)
        checked = sum(s["verify"]["checked"] for s in rep["steps"]
                      if "verify" in s)
        if rep["claim"]["verdict"] is not None:
            checked += rep["claim"]["verdict"]["checked"]
        ok, note = _pinned("rewrite", name, digest, verified,
                           f"verified={verified}")
        return Judged(ok, digest, checked, note)
    return judge


def _has_internal_edge(d) -> bool:
    return any(not e.ideal and e.a[0] == "s" and e.b[0] == "s"
               for e in d.edges.values())


def _pushouts(checks):
    return [rewrite.check_boundary_pushout(d, cap) for d, cap in checks]


def _rewrite() -> list[Input]:
    out = []
    # verify_step directly: rule_certificate's module-level cache would turn
    # every pass after the first into a dict lookup
    for rule_name, params, w, known in CERTIFICATES:
        rule = rewrite.make_rule(rule_name, **params)
        name = f"certificate {rule_name} {json.dumps(params, sort_keys=True)} w={w}"
        out.append(Input(name,
                         lambda r=rule, w=w: rewrite.verify_step(
                             r.lhs, r.rhs, w, r.corr_exprs),
                         _verdict_judge("rewrite", name, known)))
    # criterion 08: push-out scoped to each rule's guarantee, one input per
    # rule.  Shapes without an internal fault-prone edge return at once, so
    # those rules share one input rather than crowding the latency median.
    trivial = []
    for rule_name in sorted(rewrite.RULES):
        if rule_name == "mutated-fuse-4":
            continue
        rule = rewrite.make_rule(rule_name)
        cap = 3 if rule.w is None else min(3, rule.w - 1)
        checks = [(rule.lhs, cap), (rule.rhs, cap)]
        if not any(_has_internal_edge(d) for d, _ in checks):
            trivial += checks
            continue
        name = f"pushout {rule_name} cap={cap}"
        out.append(Input(name, lambda c=checks: _pushouts(c),
                         _pushout_judge(name, True)))
    name = f"pushout {len(trivial) // 2} rules without internal edges"
    out.append(Input(name, lambda c=trivial: _pushouts(c),
                     _pushout_judge(name, True)))
    name = "pushout mutated-fuse-4 rhs cap=3"
    side = rewrite.make_rule("mutated-fuse-4").rhs
    out.append(Input(name, lambda c=[(side, 3)]: _pushouts(c),
                     _pushout_judge(name, False)))
    base = str(resources.files("zxfault").joinpath("scripts"))
    for script in SCRIPTS:
        text = (Path(base) / f"{script}.fzx").read_text()
        parsed = rewrite.ProofScript.parse(text)
        name = f"script {script}"
        out.append(Input(name,
                         lambda p=parsed: rewrite.run_proof_script(
                             p, base_dir=base),
                         _script_judge(name)))
    return out


# -- structure -----------------------------------------------------------------

# The round-trip builders of the extraction tests, the 477-edge optimised
# Steane preparation, and cat-like, which extraction must refuse because its
# corrections come before their outcomes.  (input, builder, parameters,
# known: extracts?)
STRUCTURE_BUILDERS = [
    ("flagged-cat", {}, True),
    ("recursive-cat", {"n": 4}, True),
    ("truncated-cat", {"n": 4, "w": 2}, True),
    ("repeating-measurement",
     {"n": 3, "stabilisers": [("ZZ", (0, 1)), ("ZZ", (1, 2))], "rounds": 2},
     True),
    ("shor-ft", {}, True),
    ("shor-optimised", {}, True),
    ("shor-alternative", {}, True),
    ("steane", {}, True),
    ("steane-optimised", {}, True),
    ("cat-like", {}, False),
]
COUNTED_KINDS = ("CNOT", "CZ", "MPP", "MZ", "MX", "H", "S")
STRUCTURE_MAX_WEIGHT = 2


def _structure_run(c):
    d, m = translate.to_zx(c, "template")
    d_gc, _ = translate.to_zx(c, "gadget-complete")
    n_webs = len(webs.web_basis(d))
    regions = webs.detecting_region_basis(d)
    swept = detected = 0
    for f, _ in noise.enumerate_faults(m, STRUCTURE_MAX_WEIGHT):
        swept += 1
        detected += webs.is_detectable(d, f, regions)
    try:
        extracted = extract.extract_circuit(d)
    except extract.ExtractionError:
        extracted = None
    return d, d_gc, n_webs, len(regions), swept, detected, extracted


def _structure_judge(name: str, c, extracts: bool):
    def judge(out) -> Judged:
        d, d_gc, n_webs, n_regions, swept, detected, extracted = out
        summary = {
            "template_sha256": _sha(d.dumps()),
            "gadget_complete_sha256": _sha(d_gc.dumps()),
            "webs": n_webs, "regions": n_regions,
            "faults": swept, "detected": detected,
            "extracted": (None if extracted is None else
                          {k: extracted.count(k) for k in COUNTED_KINDS}),
        }
        known = (extracted is not None) == extracts
        if extracted is not None:
            known = known and all(extracted.count(k) == c.count(k)
                                  for k in COUNTED_KINDS)
        digest = _sha(json.dumps(summary, sort_keys=True))
        ok, note = _pinned("structure", name, digest, known,
                           f"extracted={summary['extracted']}")
        return Judged(ok, digest, swept, note)
    return judge


def _structure() -> list[Input]:
    out = []
    for builder, params, extracts in STRUCTURE_BUILDERS:
        c = builders.build_gadget(builder, **params).implementation
        out.append(Input(builder, lambda c=c: _structure_run(c),
                         _structure_judge(builder, c, extracts)))
    return out


_CHECKING = ["oracle.evaluate.calls", "oracle.equal_up_to_scalar.calls",
             "feq.check_w_fault_equivalence.calls",
             "feq.find_equivalent_fault.calls"]
_FAULTS = ["noise.enumerate_faults.faults", "webs.detecting_region_basis.calls",
           "webs.is_detectable.calls", "gf2.nullspace.calls"]

# Layers each workload must use; the traced run fails on a zero call count.
USES = {
    "feq-gadgets": _CHECKING + _FAULTS + ["diagram.apply_fault.calls",
                                          "translate.to_zx.calls",
                                          "builders.build_gadget.calls"],
    "feq-batch": _CHECKING + _FAULTS + ["diagram.apply_fault.calls"],
    "rewrite": _FAULTS + ["oracle.evaluate.calls", "diagram.apply_fault.calls",
                          "rewrite.verify_step.calls",
                          "rewrite.check_boundary_pushout.calls",
                          "rewrite.run_proof_script.calls",
                          "rewrite.apply_rule.calls"],
    "structure": _FAULTS + ["webs.web_basis.calls", "translate.to_zx.calls",
                            "builders.build_gadget.calls",
                            "extract.extract_circuit.calls"],
}

WORKLOADS = {
    "feq-gadgets": _feq_gadgets,
    "feq-batch": _feq_batch,
    "rewrite": _rewrite,
    "structure": _structure,
}


def setup(workload: str) -> list[Input]:
    """Build the workload's inputs, which are the same on every run."""
    return WORKLOADS[workload]()
