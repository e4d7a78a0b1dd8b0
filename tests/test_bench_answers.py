"""Every feq-gadgets and rewrite benchmark input, decided once and checked
by its own judge against the digests pinned in ``perfbench/expected.json``,
so that a changed verdict or report shows on every test run and not only
when the benchmark runs; and each workload's set-up and one pass under the
benchmark's tracer, which must see every layer the workload uses, as the
traced benchmark run requires.  Nothing under ``perfbench/`` is written."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
_dont_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # no __pycache__ is left under perfbench/
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
sys.dont_write_bytecode = _dont_write_bytecode

INPUTS = [pytest.param(inp, id=f"{w}/{inp.name}")
          for w in ("feq-gadgets", "rewrite") for inp in workloads.setup(w)]


@pytest.mark.parametrize("inp", INPUTS)
def test_benchmark_input_gives_its_pinned_answer(inp):
    judged = inp.judge(inp.run())
    assert judged.ok, judged.note


@pytest.mark.parametrize("workload", sorted(workloads.USES))
def test_traced_pass_uses_every_layer(workload):
    tracer = Tracer()
    tracer.install([workloads])
    try:
        for inp in workloads.setup(workload):
            inp.run()
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    assert [name for name in workloads.USES[workload]
            if not layer[name][0]] == []
