"""zxfault benchmark: verdict throughput and per-layer cost.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload feq-gadgets --seed 1 --seconds 20 --trace 0

Each invocation runs one workload in this one fresh process, as a closed
loop with a single caller: every input is decided, timed and checked against
its known answer before the next one starts.  The inputs are the same on
every run; the seed permutes their order in every pass.  The number of
passes is ``--seconds`` divided by the workload's nominal pass time,
measured when the benchmark was written, and at least two, so a run measures
the same work on every commit and every input's time is a median over
passes.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one untraced pass is followed by a traced set-up and pass, which give the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every input matched its known answer; 2 means the
run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Wall time of one untraced pass when the benchmark was written (2 cores,
# Python 3.11).
NOMINAL_PASS_S = {
    "feq-gadgets": 12.0,
    "feq-batch": 4.8,
    "rewrite": 17.0,
    "structure": 6.5,
}
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one
OUT_DIR = ROOT / ".bench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _timed_setup(workload: str):
    t0 = time.perf_counter()
    import workloads
    inputs = workloads.setup(workload)
    return time.perf_counter() - t0, workloads, inputs


def _setup_probe(args) -> float:
    """Set-up time measured in a fresh process, as this one measured its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Pass:
    """Outcome of one pass over the inputs."""

    def __init__(self):
        self.times: dict[str, float] = {}   # input name -> wall seconds
        self.faults = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.equivalent: dict[str, bool] = {}


def _run_pass(inputs, order, errors: list, tracer=None, pass_id: int = 0):
    res = Pass()
    for k in order:
        inp = inputs[k]
        if tracer is not None:
            tracer.input_id = pass_id * len(inputs) + k
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = inp.run()
            else:
                out = tracer.span("input", inp.run)
        except Exception as exc:  # an error is a failed input, never a verdict
            res.times[inp.name] = time.perf_counter() - t0
            res.failed += 1
            errors.append(f"{inp.name}: raised {type(exc).__name__}: {exc}")
            continue
        res.times[inp.name] = time.perf_counter() - t0
        try:
            judged = inp.judge(out)
        except Exception as exc:  # a result of the wrong shape is wrong
            res.failed += 1
            errors.append(f"{inp.name}: unreadable result: {exc!r}")
            continue
        res.faults += judged.faults
        res.digests[inp.name] = judged.digest
        if hasattr(out, "equivalent"):
            res.equivalent[inp.name] = out.equivalent
        if not judged.ok:
            res.failed += 1
            errors.append(f"{inp.name}: wrong answer: {judged.note}")
    return res


def _order(n: int, seed: int, pass_id: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}/{pass_id}").shuffle(order)
    return order


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _end_to_end(passes, setups) -> dict:
    """End-to-end metrics.  Each input's time is its median over the passes,
    which damps the machine's own speed drift; throughput is all faults
    classified over all time spent deciding."""
    per_input = [statistics.median(p.times[name] for p in passes)
                 for name in passes[0].times]
    tail, pct = _tail(per_input)
    print(f"verdict_tail_s is the p{pct:.2f} of {len(per_input)} inputs,"
          f" each the median of {len(passes)} passes")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "faults_per_s": (sum(p.faults for p in passes)
                         / sum(sum(p.times.values()) for p in passes), "1/s"),
        "verdict_p50_s": (statistics.median(per_input), "s"),
        "verdict_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _check_passes(passes, workloads, args, errors):
    first = passes[0].digests
    for p in passes[1:]:
        if p.digests != first:
            bad = sorted(k for k in first if p.digests.get(k) != first[k])
            errors.append(f"verdict digests differ between passes: {bad[:5]}")
    if args.workload == "feq-batch":
        for p in passes:
            errors.extend(workloads.batch_properties(p.equivalent))


def _context(args, passes: int) -> str:
    import numpy
    return (f"zxfault benchmark: workload={args.workload} seed={args.seed}"
            f" trace={args.trace} passes={passes} python={platform.python_version()}"
            f" numpy={numpy.__version__} nproc={os.cpu_count()}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "zxfault" / "__init__.py").is_file():
        print(f"error: no zxfault source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # one BLAS thread, as the workloads have one caller; numpy reads this
    # when it is first imported, and the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    setup_s, workloads, inputs = _timed_setup(args.workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    errors: list[str] = []
    if args.trace:
        passes, metrics = _traced(args, workloads, inputs, errors)
    else:
        nominal = NOMINAL_PASS_S[args.workload]
        n_passes = max(2, math.floor(args.seconds / nominal))
        passes = [_run_pass(inputs, _order(len(inputs), args.seed, i), errors)
                  for i in range(n_passes)]
        setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = _end_to_end(passes, setups)
    _check_passes(passes, workloads, args, errors)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(_context(args, len(passes)))
    print(f"failed_share={failed / attempted:.6f} ({failed}/{attempted})")
    for e in errors:
        print(f"mismatch: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _traced(args, workloads, inputs, errors):
    """One untraced pass, then a traced set-up and pass: per-layer metrics."""
    from tracer import Tracer

    order = _order(len(inputs), args.seed, 0)
    plain = _run_pass(inputs, order, errors)
    tracer = Tracer()
    tracer.install([workloads])
    try:
        inputs = tracer.span("setup", workloads.setup, args.workload)
        traced = _run_pass(inputs, order, errors, tracer, pass_id=1)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    layer["trace.overhead_ratio"] = (sum(traced.times.values())
                                     / sum(plain.times.values()), "ratio")
    for name in workloads.USES[args.workload]:
        if not layer[name][0]:
            errors.append(f"traced pass never used {name}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return [plain, traced], layer


if __name__ == "__main__":
    sys.exit(main())
