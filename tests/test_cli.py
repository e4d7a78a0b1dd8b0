import json
import os
import time
from importlib import resources

import pytest

from test_rewrite import BAD_WEIGHT_SCRIPTS, bad_weight_script
from zxfault import cli, oracle, samples
from zxfault.builders import build_gadget
from zxfault.cli import main
from zxfault.diagram import Phase, Spider
from zxfault.rewrite import resolve_ref


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def script_path(name: str) -> str:
    with resources.as_file(resources.files("zxfault")
                           .joinpath("scripts", name)) as p:
        return str(p)


def test_check_feq_negative_verdict(capsys):
    code, out, _ = run(capsys, "check-feq", "--a", "naive-cat4",
                       "--b", "ideal-cat4", "--w", "2")
    assert code == 1
    verdict = json.loads(out)
    assert not verdict["equivalent"]
    assert any(c["weight"] == 1 for c in verdict["counterexamples"])


def test_distance_repetition_sandwich(capsys):
    code, out, _ = run(capsys, "distance", "--in", "rep3-sandwich",
                       "--cap", "4", "--noise", "x-flip")
    assert code == 0
    assert out.strip() == "3"


def test_prove_shipped_script(capsys):
    code, out, _ = run(capsys, "prove", script_path("cat4-flagged.fzx"))
    assert code == 0
    report = json.loads(out)
    assert report["failed_step"] is None
    assert report["claim"]["verified"]


def test_build_summary(capsys):
    code, out, _ = run(capsys, "build", "steane-optimised")
    assert code == 0
    blob = json.loads(out)
    assert blob["counts"]["CNOT"] == 15
    assert blob["measurements"] == 5


def test_translate_extract_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "flagged-cat", "--side", "impl")
    assert code == 0
    circ = tmp_path / "c.txt"
    circ.write_text(out)
    code, out, _ = run(capsys, "translate", str(circ))
    assert code == 0
    diag = tmp_path / "d.json"
    diag.write_text(json.dumps(json.loads(out)["diagram"]))
    code, out, _ = run(capsys, "extract", str(diag))
    assert code == 0
    assert "CNOT" in out and "MZ" in out


def test_detect_exit_codes(capsys):
    code, out, _ = run(capsys, "detect", "two-zz", "--fault", "1:X")
    assert (code == 0) == json.loads(out)["detectable"]
    code, out, _ = run(capsys, "detect", "two-zz", "--fault", "1:Z")
    assert (code == 0) == json.loads(out)["detectable"]


def test_regions_two_zz(capsys):
    code, out, _ = run(capsys, "regions", "two-zz")
    assert code == 0
    regions = json.loads(out)
    assert len(regions) == 1
    assert regions[0]["detecting_set"] == ["k1", "k2"]


def test_webs_and_eval_run(capsys):
    assert run(capsys, "webs", "sample:wire")[0] == 0
    code, out, _ = run(capsys, "eval", "sample:z_state")[0:3]
    assert code == 0
    assert json.loads(out)["n_out"] == 1


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "prove", "/no/such/script.fzx")
    assert code == 2
    assert "error:" in err


def test_bad_reference_is_exit_2(capsys):
    code, _, err = run(capsys, "webs", "sample:no_such_sample")
    assert code == 2
    assert "error:" in err


def test_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "check-feq", "--a", "naive-cat4",
                     "--b", "ideal-cat4", "--w", "2")
    _, out2, _ = run(capsys, "check-feq", "--a", "naive-cat4",
                     "--b", "ideal-cat4", "--w", "2")
    assert out1 == out2


def test_output_file_flag(capsys, tmp_path):
    target = tmp_path / "v.json"
    code, out, _ = run(capsys, "regions", "two-zz", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())


@pytest.mark.parametrize("argv", [
    ["check-feq", "--a", "naive-cat4", "--b", "ideal-cat4", "--w", "2",
     "--budget", "2"],
    ["prove", "truncated-cat.fzx", "--budget", "2"],
])
def test_oracle_budget_exceeded_is_exit_2(capsys, argv):
    argv = [script_path(a) if a.endswith(".fzx") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "two-zz"],
    ["check-feq", "--a", "naive-cat4", "--b", "ideal-cat4", "--w", "2"],
])
def test_unallocatable_contraction_is_exit_2(capsys, monkeypatch, argv):
    # every contraction step fails to allocate its array, as numpy reports
    # it for recursive-cat n=16's side a (a 32 GiB step): an error, never a
    # traceback or a verdict's exit code
    def dot(*args):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with"
                          " shape (2, 2, 2) and data type complex128")
    monkeypatch.setattr(oracle.np, "dot", dot)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate 32.0 GiB")
    assert err.count("\n") == 1


def test_only_the_commands_that_contract_take_a_budget(capsys):
    # the distance reads D != 0 from the webs and contracts nothing, so a
    # budget there would bound nothing
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert {name for name, p in commands.items()
            if "--budget" in p.format_help()} == {"eval", "check-feq", "prove"}
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--in", "rep3-sandwich", "--cap", "2",
              "--budget", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 2" in capsys.readouterr().err


def test_distance_of_a_diagram_too_large_to_contract(capsys):
    # side a of recursive-cat n=16 needs a 32 GiB contraction step, and
    # the distance needs none
    start = time.perf_counter()
    code, out, _ = run(capsys, "distance", "--in",
                       "builder:recursive-cat:n=16:impl", "--cap", "3")
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize("w", ["0", "-1"])
def test_check_feq_weight_below_one_is_exit_2(capsys, w):
    code, out, err = run(capsys, "check-feq", "--a", "two-zz",
                         "--b", "two-zz", "--w", w)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("cap", ["-1", "-3"])
def test_distance_cap_below_zero_is_exit_2(capsys, cap):
    code, out, err = run(capsys, "distance", "--in", "rep3-sandwich",
                         "--cap", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("label,body,line", BAD_WEIGHT_SCRIPTS,
                         ids=[b[0] for b in BAD_WEIGHT_SCRIPTS])
def test_prove_weight_below_one_is_exit_2(capsys, tmp_path, label, body, line):
    script = tmp_path / "bad.fzx"
    script.write_text(bad_weight_script(body))
    code, out, err = run(capsys, "prove", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def test_check_feq_unknown_correspondence_target_is_exit_2(capsys):
    code, out, err = run(capsys, "check-feq", "--a", "two-zz", "--b", "two-zz",
                         "--w", "2", "--corr", "k1=k1", "--corr", "k2=k2",
                         "--corr", "typo=k1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'typo'" in err


def test_prove_unknown_claim_variable_is_exit_2(capsys, tmp_path):
    with open(script_path("truncated-cat.fzx")) as fh:
        text = fh.read()
    script = tmp_path / "bogus.fzx"
    script.write_text(text.replace("claim w=2", "claim w=2 bogus=zz"))
    code, out, err = run(capsys, "prove", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'bogus'" in err


def test_prove_target_with_other_outcome_variables_is_exit_2(capsys, tmp_path):
    script = tmp_path / "probe.fzx"
    script.write_text("name probe\nsource sample:cat_spec:4\n"
                      "target sample:two_zz_measurements\nclaim w=2\n")
    code, out, err = run(capsys, "prove", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "['k1', 'k2']" in err and "[]" in err


@pytest.mark.parametrize("qturns,matches", [(0, True), (2, False)])
def test_prove_file_target(capsys, tmp_path, qturns, matches):
    """A ``file:`` target equal to the source matches the final diagram of a
    stepless script; the same diagram with one spider's phase moved by
    ``qturns`` quarter turns (pi for 2) does not, and the proof fails."""
    d = samples.two_zz_measurements()
    (tmp_path / "source.json").write_text(d.dumps())
    sid = min(d.spiders)
    s = d.spiders[sid]
    d.spiders[sid] = Spider(s.colour, s.phase + Phase(qturns))
    (tmp_path / "target.json").write_text(d.dumps())
    script = tmp_path / "probe.fzx"
    script.write_text("name probe\nsource file:source.json\n"
                      "target file:target.json\nclaim w=2\n")
    code, out, _ = run(capsys, "prove", str(script))
    assert json.loads(out)["target_semantics_match"] is matches
    assert code == (0 if matches else 1)


def test_prove_file_target_below_the_dense_tolerance(capsys, tmp_path):
    """Every tensor entry of steane-optimised's implementation is about
    3.8e-20, below the dense oracle's zero tolerance, under which any two
    families of that scale read as equal; a pi on spider 0 changes the
    diagram, and the proof fails."""
    d = build_gadget("steane-optimised").implementation_diagram()[0]
    assert oracle.evaluate(d).max_abs() < oracle.TOL
    (tmp_path / "source.json").write_text(d.dumps())
    s = d.spiders[0]
    d.spiders[0] = Spider(s.colour, s.phase + Phase(2))
    (tmp_path / "target.json").write_text(d.dumps())
    script = tmp_path / "probe.fzx"
    script.write_text("name probe\nsource file:source.json\n"
                      "target file:target.json\nclaim w=1\n")
    code, out, _ = run(capsys, "prove", str(script))
    assert json.loads(out)["target_semantics_match"] is False
    assert code == 1


def test_prove_target_of_another_shape_is_exit_2(capsys, tmp_path):
    script = tmp_path / "probe.fzx"
    script.write_text("name probe\nsource sample:wire\n"
                      "target sample:cat_spec:4\nclaim w=1\n")
    assert run(capsys, "prove", str(script)) == \
        (2, "", "error: incompatible shapes\n")


def test_repro_passes_and_is_byte_identical(capsys):
    code, first, _ = run(capsys, "repro")
    assert code == 0
    assert first.splitlines()[-1] == "9/9 passed"
    assert run(capsys, "repro") == (0, first, "")


def rep3_split_with_claim_row(row: str) -> str:
    """rep3-split.fzx, whose claim the step chain carries, with ``row`` in
    place of the claim row for its variable (a repeated row is an error)."""
    with open(script_path("rep3-split.fzx")) as fh:
        *lines, claim = fh.read().rstrip("\n").split("\n")
    key = row.partition("=")[0]
    claim = " ".join(row if tok.partition("=")[0] == key else tok
                     for tok in claim.split())
    return "\n".join(lines + [claim]) + "\n"


# (id, argv, a fragment of the one error line); a "prove" argv carries the
# script text, which the test writes to a file
INPUT_ERRORS = [
    ("claim row, chain mode",
     ["prove", rep3_split_with_claim_row("k1_1=bogus")],
     "claim: expression for 'k1_1' uses unknown variables ['bogus']"),
    ("claim row, end-to-end mode",
     ["prove", "name t\nsource sample:two_zz_measurements\n"
               "claim w=2 k1=bogus\n"],
     "claim: expression for 'k1' uses unknown variables ['bogus']"),
    ("step rule parameter",
     ["prove", "name t\nsource sample:cat_spec:4\nstep elim bogus=3\n"
               "claim w=2\n"],
     "line 3: rule 'elim': unknown parameters ['bogus']"),
    ("step rule name",
     ["prove", "name t\nsource sample:cat_spec:4\nstep nosuch\n"
               "claim w=2\n"],
     "line 3: unknown rule 'nosuch'"),
    ("builder parameter", ["build", "flagged-cat", "--set", "bogus=1"],
     "gadget 'flagged-cat': unknown parameters ['bogus']"),
    ("builder reference parameter", ["eval", "builder:recursive-cat:m=4:spec"],
     "gadget 'recursive-cat': unknown parameters ['m']"),
    ("sample reference arguments", ["webs", "sample:cat_spec:4:5:6"],
     "sample 'cat_spec': too many positional arguments"),
    ("sample reference extra argument", ["webs", "sample:cat_spec:4:5"],
     "sample 'cat_spec': too many positional arguments"),
    ("builder parameter type", ["build", "recursive-cat", "--set", "n=x"],
     "gadget 'recursive-cat': parameter 'n' must be an integer, got 'x'"),
    ("sample argument type", ["webs", "sample:cat_spec:abc"],
     "sample 'cat_spec': parameter 'n' must be an integer, got 'abc'"),
    # a bool parameter takes 0 or 1, not any string as a truthy flag
    ("sample bool argument", ["eval", "sample:wire:False"],
     "sample 'wire': parameter 'had' must be 0 or 1, got 'False'"),
    ("sample bool argument after others",
     ["eval", "sample:zz_measurement:k:2:yes"],
     "sample 'zz_measurement': parameter 'ideal_internal' must be 0 or 1,"
     " got 'yes'"),
    ("sample that is not a diagram", ["webs", "sample:web_corpus"],
     "sample 'web_corpus' is not a diagram"),
    # a repeated key is an error, not a silent overwrite by the last value
    ("repeated correspondence row",
     ["check-feq", "--a", "two-zz", "--b", "two-zz", "--w", "2",
      "--corr", "k1=k2", "--corr", "k2=k2", "--corr", "k1=k1"],
     "repeated correspondence row for 'k1'"),
    ("repeated fault location", ["detect", "two-zz", "--fault", "1:X;1:Z"],
     "repeated Pauli location '1'"),
    ("repeated fault edge", ["detect", "two-zz", "--fault", "1:X;01:Z"],
     "repeated fault location 1"),
    ("repeated claim key",
     ["prove", "name t\nsource sample:two_zz_measurements\n"
               "claim w=2 k1=k1 k1=k2\n"],
     "line 3: repeated claim key 'k1'"),
    ("repeated builder parameter",
     ["build", "recursive-cat", "--set", "n=4", "--set", "n=8"],
     "repeated parameter for 'n'"),
    ("repeated builder reference parameter",
     ["webs", "builder:recursive-cat:n=4,n=2:impl"],
     "repeated parameter for 'n'"),
    ("builder reference shape", ["webs", "builder:shor-ft:m=6:junk:spec"],
     "builder reference must be builder:<name>[:<k=v,...>]:spec|impl"),
    ("step binding type",
     ["prove", "name t\nsource sample:cat_spec:4\nstep elim s1=x\n"
               "claim w=2\n"],
     "line 3: s1 must be an integer id, got 'x'"),
    # names the rule does not have are input errors, not failed steps
    ("step unknown slot",
     ["prove", "name t\nsource sample:cat_spec:4\n"
               "step fuse-n n=2 s9=0 verify=2\nclaim w=2\n"],
     "line 3: binding mismatch: unknown slots ['s9']"),
    ("step unknown lhs variable",
     ["prove", "name t\nsource sample:cat_spec:4\n"
               "step fuse-n n=2 s1=0 v:zz=k1 verify=2\nclaim w=2\n"],
     "line 3: binding mismatch: unknown lhs variables ['zz']"),
    ("step unknown rhs variable",
     ["prove", "name t\nsource sample:cat_spec:4\n"
               "step fuse-n n=2 s1=0 n:zz=k1 verify=2\nclaim w=2\n"],
     "line 3: binding mismatch: unknown rhs variables ['zz']"),
    ("source reference line",
     ["prove", "name t\nsource builder:shor-ft:m=6:junk:spec\nclaim w=2\n"],
     "line 2: builder reference must be"),
    ("target reference line",
     ["prove", "name t\nsource sample:cat_spec:4\nclaim w=2\n"
               "target sample:nosuch\n"],
     "line 4: unknown sample 'nosuch'"),
    ("sample parameter out of range, source line",
     ["prove", "name t\nsource sample:naive_cat:1\nclaim w=2\n"],
     "line 2: naive_cat needs n >= 2, got 1"),
    ("builder reference rows",
     ["eval", "builder:steane:hx=1:impl"],
     "hx and hz must be lists of 0/1 rows"),
    ("builder reference rows, spec",
     ["eval", "builder:steane:hz=1:spec"],
     "hx and hz must be lists of 0/1 rows"),
    # a diagram file's edge flag is checked as it is, not read as bool()
    ("diagram file edge flag",
     ["extract", json.dumps({"edges": [{"id": 0, "a": {"port": "in:0"},
                                        "b": {"port": "out:0"},
                                        "h": "false"}]})],
     "edge 0: had flag 'false' is not a bool"),
] + [
    (f"sample parameter out of range {ref}", ["eval", ref], message)
    for ref, message in [
        ("sample:naive_cat:1", "naive_cat needs n >= 2, got 1"),
        ("sample:naive_cat:0", "naive_cat needs n >= 2, got 0"),
        ("sample:naive_cat:-1", "naive_cat needs n >= 2, got -1"),
        ("sample:green_chain:0", "green_chain needs n_spiders >= 1, got 0")]
] + [
    (f"repeated step key {key}",
     ["prove", f"name t\nsource sample:cat_spec:4\nstep {step}\n"
               "claim w=2\n"],
     f"line 3: repeated step key {key!r}")
    for key, step in [("n", "fuse-n n=2 n=3"),
                      ("s1", "fuse-n n=2 s1=0 s1=1"),
                      ("v:x", "elim v:x=a v:x=b"),
                      ("n:x", "elim n:x=a n:x=b"),
                      ("verify", "fuse-n n=2 s1=0 verify=2 verify=3")]
] + [
    (f"repeated {head} line",
     ["prove", "name t\nsource sample:two_zz_measurements\n"
               "target sample:two_zz_measurements\nrestriction none\n"
               f"claim w=2\n{head} {rest}\n"],
     f"line 6: repeated {head} line")
    for head, rest in [("name", "u"), ("source", "sample:cat_spec:4"),
                       ("target", "sample:cat_spec:4"),
                       ("restriction", "all"), ("claim", "w=3")]
]


def test_a_sample_bool_argument_of_1_is_true():
    (e,) = resolve_ref("sample:wire:1").edges.values()
    assert e.had is True and e.ideal is False
    (e,) = resolve_ref("sample:wire:0:1").edges.values()
    assert e.had is False and e.ideal is True


@pytest.mark.parametrize("argv,fragment", [pytest.param(a, f, id=i)
                                           for i, a, f in INPUT_ERRORS])
def test_input_errors_are_exit_2(capsys, tmp_path, argv, fragment):
    if argv[0] == "prove":
        script = tmp_path / "input.fzx"
        script.write_text(argv[1])
        argv = ["prove", str(script), "--base-dir",
                os.path.dirname(script_path("rep3-split.fzx"))]
    elif argv[1].startswith("{"):  # a diagram file's text
        diagram = tmp_path / "input.json"
        diagram.write_text(argv[1])
        argv = [argv[0], str(diagram), *argv[2:]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err
