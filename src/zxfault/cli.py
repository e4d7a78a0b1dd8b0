"""Command-line entry points for batch runs and reproduction.

Every command reads and validates its inputs before any computation starts,
takes all configuration from the command line (no environment variables), and
emits canonically ordered output so repeated runs are byte-identical.

Exit codes: 0 on success or a positive verdict, 1 on a negative verdict
(not equivalent, proof failed, fault undetectable), 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from .builders import as_int, build_gadget, key_values
from .circuit import Circuit
from .diagram import ZxDiagram
from .extract import ExtractionError, extract_circuit
from .feq import (ClassKeyError, EquivalenceSpec, Side,
                  check_w_fault_equivalence, circuit_distance)
from .noise import ABOVE_CAP, edge_flip_atoms, x_flip_atoms
from .oracle import DEFAULT_BUDGET, OracleBudgetError, OutcomeMap, evaluate
from .pauli import PauliString
from .rewrite import ScriptError, resolve_ref, run_proof_script
from .translate import to_zx
from .webs import detecting_region_basis, is_detectable, web_basis

# convenience names for inputs used throughout the examples
ALIASES = {
    "naive-cat4": "sample:naive_cat:4",
    "ideal-cat4": "sample:cat_spec:4",
    "rep3-sandwich": "sample:repetition_sandwich",
    "two-zz": "sample:two_zz_measurements",
}


def _load_diagram(ref: str) -> ZxDiagram:
    ref = ALIASES.get(ref, ref)
    if ":" not in ref or os.path.exists(ref):
        ref = "file:" + ref
    return resolve_ref(ref)


def _load_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return Circuit.from_text(fh.read())


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True), out)


def _noise_for(d: ZxDiagram, selector: str):
    if selector == "edge-flip":
        return edge_flip_atoms(d)
    if selector == "x-flip":
        return x_flip_atoms(d)
    raise ValueError(f"unknown noise selector {selector!r}")


def _web_json(w) -> dict:
    return {"edges": {str(e): h for e, h in w.highlight},
            "indicators": {str(s): b for s, b in w.indicators}}


def _parse_fault(text: str) -> PauliString:
    f = PauliString.from_text(text)
    entries = {}
    for loc, p in f.entries.items():
        eid = as_int(loc)
        if eid in entries:
            raise ValueError(f"repeated fault location {eid!r}")
        entries[eid] = p
    return PauliString(entries)


# -- subcommands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    d = _load_diagram(args.input)
    t = evaluate(d, args.budget)
    entries = {}
    for a in t.assignments():
        key = ",".join(f"{v}={b}" for v, b in zip(t.variables, a)) or "-"
        # + 0.0 prints a zero of either sign as 0.0
        entries[key] = [[[round(c.real, 12) + 0.0, round(c.imag, 12) + 0.0]
                         for c in row] for row in t[a]]
    _emit_json({"variables": t.variables, "n_in": t.n_in, "n_out": t.n_out,
                "entries": entries}, args.output)
    return 0


def _cmd_webs(args) -> int:
    d = _load_diagram(args.input)
    _emit_json([_web_json(w) for w in web_basis(d)], args.output)
    return 0


def _cmd_regions(args) -> int:
    d = _load_diagram(args.input)
    out = [{"web": _web_json(r.web),
            "detecting_set": sorted(r.detecting_set),
            "expected_parity": r.expected_parity}
           for r in detecting_region_basis(d)]
    _emit_json(out, args.output)
    return 0


def _cmd_detect(args) -> int:
    d = _load_diagram(args.input)
    f = _parse_fault(args.fault)
    detectable = is_detectable(d, f)
    _emit_json({"fault": f.to_text(), "detectable": detectable}, args.output)
    return 0 if detectable else 1


def _cmd_distance(args) -> int:
    d = _load_diagram(args.input)
    m = _noise_for(d, args.noise)
    dist = circuit_distance(d, m, args.cap)
    _emit(str(dist), args.output)
    return 0 if dist != ABOVE_CAP else 1


def _cmd_check_feq(args) -> int:
    da, db = _load_diagram(args.a), _load_diagram(args.b)
    corr = None
    if args.corr:
        exprs = key_values(args.corr, "correspondence row for")
        corr = OutcomeMap.parse(da.variables, db.variables, exprs)
    spec = EquivalenceSpec(Side(da, _noise_for(da, args.noise)),
                           Side(db, _noise_for(db, args.noise)),
                           corr, args.w, args.budget)
    verdict = check_w_fault_equivalence(spec)
    _emit_json(verdict.to_json(), args.output)
    return 0 if verdict.equivalent else 1


def _cmd_translate(args) -> int:
    c = _load_circuit(args.circuit)
    d, m = to_zx(c, args.strategy)
    _emit_json({"diagram": d.to_json(), "noise": m.to_json()}, args.output)
    return 0


def _cmd_extract(args) -> int:
    d = _load_diagram(args.input)
    c = extract_circuit(d)
    _emit(c.to_text(), args.output)
    return 0


def _cmd_build(args) -> int:
    params = {k: as_int(v)
              for k, v in key_values(args.set or (), "parameter for").items()}
    pair = build_gadget(args.name, **params)
    if args.side == "impl":
        _emit(pair.implementation.to_text(), args.output)
    elif args.side == "spec":
        _emit(pair.spec.dumps(), args.output)
    else:
        c = pair.implementation
        _emit_json({"name": pair.name, "w": pair.w, "qubits": c.qubits,
                    "corr": dict(pair.corr_exprs),
                    "constraints": [[sorted(vs), p]
                                    for vs, p in pair.constraints],
                    "counts": {k: c.count(k) for k in
                               ("PREP_Z", "PREP_X", "PREP_MINUS", "H", "S",
                                "X", "Y", "Z", "CNOT", "CZ", "MZ", "MX",
                                "MPP", "CPAULI") if c.count(k)},
                    "measurements": c.count_measurements(),
                    "notes": pair.notes}, args.output)
    return 0


def _cmd_prove(args) -> int:
    with open(args.script) as fh:
        text = fh.read()
    base = args.base_dir or os.path.dirname(os.path.abspath(args.script))
    report = run_proof_script(text, base_dir=base, budget=args.budget)
    _emit_json(report, args.output)
    return 0 if _proof_ok(report) else 1


def _proof_ok(report: dict) -> bool:
    return (report["failed_step"] is None and report["claim"]["verified"]
            and report["target_semantics_match"] is not False)


def _cmd_repro(args) -> int:
    """Replay the shipped derivation corpus and structural paper checks."""
    rows = []

    def run(label, fn):
        t0 = time.time()
        try:
            ok, note = fn()
        except Exception as exc:  # any failure is a FAIL row, not a crash
            ok, note = False, f"{type(exc).__name__}: {exc}"
        rows.append((label, ok, time.time() - t0, note))

    scripts = resources.files("zxfault").joinpath("scripts")
    with resources.as_file(scripts) as base:
        for path in sorted(p.name for p in scripts.iterdir()
                           if p.name.endswith(".fzx")):
            def replay(path=path, base=str(base)):
                with open(os.path.join(base, path)) as fh:
                    rep = run_proof_script(fh.read(), base_dir=base)
                return _proof_ok(rep), f"mode={rep['claim']['mode']}"
            run(f"prove {path}", replay)

    def counts():
        st = build_gadget("steane-optimised").implementation
        sh = build_gadget("shor-optimised").implementation
        ok = (st.qubits - 7 == 5 and st.count("CNOT") == 15
              and st.count_measurements() == 5 and sh.qubits - 4 == 3)
        return ok, "steane 5 ancillas/15 CNOTs/5 meas; shor 3 aux"
    run("resource counts", counts)

    def two_zz():
        from . import samples
        d = samples.two_zz_measurements()
        return len(detecting_region_basis(d)) == 1, "one independent region"
    run("two-ZZ regions", two_zz)

    lines = [f"{'PASS' if ok else 'FAIL'}  {label:40s}"
             + (f" {dt:7.1f}s " if args.timings else "  ") + note
             for label, ok, dt, note in rows]
    failed = sum(1 for _, ok, _, _ in rows if not ok)
    lines.append(f"{len(rows) - failed}/{len(rows)} passed")
    _emit("\n".join(lines), args.output)
    return 0 if failed == 0 else 1


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zxfault",
        description="Fault-aware ZX toolkit: exact evaluation, Pauli webs, "
                    "fault equivalence, rewrite proofs.")
    sub = top.add_subparsers(dest="command", required=True)

    def inputs(p, diagram_input=True):
        if diagram_input:
            p.add_argument("input",
                           help="diagram: a JSON file path or a "
                                "sample:/builder:/file: reference "
                                f"(aliases: {', '.join(sorted(ALIASES))})")
        p.add_argument("-o", "--output", help="write result to a file")

    def common(p, diagram_input=True):
        """inputs() plus the budget of the commands that contract."""
        inputs(p, diagram_input)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="oracle contraction budget")

    p = sub.add_parser("eval", help="dump the exact outcome-indexed tensor")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("webs", help="Pauli-web basis of a diagram")
    inputs(p)
    p.set_defaults(fn=_cmd_webs)

    p = sub.add_parser("regions", help="detecting-region basis of a diagram")
    inputs(p)
    p.set_defaults(fn=_cmd_regions)

    p = sub.add_parser("detect", help="is a fault detectable? (exit 1 if not)")
    inputs(p)
    p.add_argument("--fault", required=True,
                   help="Pauli fault, e.g. '3:X;7:Z' (edge ids)")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("distance",
                       help="minimum weight of a non-trivial undetectable fault")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--noise", default="edge-flip", choices=("edge-flip", "x-flip"))
    inputs(p, diagram_input=False)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("check-feq",
                       help="w-fault-equivalence of two diagrams (exit 1 if not)")
    p.add_argument("--a", required=True, help="implementation-side diagram")
    p.add_argument("--b", required=True, help="specification-side diagram")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--corr", action="append", metavar="VAR=EXPR",
                   help="outcome correspondence row, e.g. k=k1^k2")
    p.add_argument("--noise", default="edge-flip", choices=("edge-flip", "x-flip"))
    common(p, diagram_input=False)
    p.set_defaults(fn=_cmd_check_feq)

    p = sub.add_parser("translate", help="circuit text file -> ZX diagram")
    p.add_argument("circuit")
    p.add_argument("--strategy", default="template",
                   choices=("template", "gadget-complete"))
    inputs(p, diagram_input=False)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("extract", help="ZX diagram -> circuit text")
    inputs(p)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("build", help="named gadget builders")
    p.add_argument("name")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="builder parameter, e.g. n=8")
    p.add_argument("--side", default="summary",
                   choices=("summary", "impl", "spec"))
    inputs(p, diagram_input=False)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("prove", help="replay a proof script (exit 1 on failure)")
    p.add_argument("script")
    p.add_argument("--base-dir", help="directory for file: references "
                                      "(default: the script's directory)")
    common(p, diagram_input=False)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("repro",
                       help="replay the shipped corpus and print a summary")
    inputs(p, diagram_input=False)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "output across runs)")
    p.set_defaults(fn=_cmd_repro)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ScriptError, ExtractionError, OSError,
            json.JSONDecodeError, OracleBudgetError, ClassKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a contraction too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
