"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of each layer from outside the
package.  A function is usually bound under several names (``from .oracle
import evaluate`` makes ``feq.evaluate``, ``rewrite.evaluate``,
``extract.evaluate`` and ``cli.evaluate``), so :meth:`Tracer.install`
replaces every module attribute in the package, and in the benchmark's own
modules, that is the original function object.

Each call becomes a span: name, start, end, parent span and the id of the
input being decided.  A span's self time is its duration minus the time its
child spans cover.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import sys
import time

# (module, function, kind).  ``kind`` names the layer's extra metric: the
# share of calls with a useful outcome ("match", "found", "detected"), the
# faults a verdict classified ("checked"), or the mean time per call
# ("per_call"); "gen" marks a generator, whose span is the time spent inside
# each ``next()`` and whose count is the faults it yields.  ``pauli`` and
# ``circuit`` are left out: their calls are too fine-grained to wrap without
# distorting the numbers.  ``samples`` and ``cli`` are thin shells whose cost
# shows in ``setup_s``.
LAYERS = [
    ("oracle", "evaluate", "per_call"),
    ("oracle", "equal_up_to_scalar", "match"),
    ("feq", "check_w_fault_equivalence", "checked"),
    ("feq", "find_equivalent_fault", "found"),
    ("noise", "enumerate_faults", "gen"),
    ("webs", "detecting_region_basis", None),
    ("webs", "web_basis", None),
    ("webs", "is_detectable", "detected"),
    ("gf2", "nullspace", None),
    ("diagram", "apply_fault", None),
    ("rewrite", "verify_step", None),
    ("rewrite", "check_boundary_pushout", None),
    ("rewrite", "run_proof_script", None),
    ("rewrite", "apply_rule", None),
    ("translate", "to_zx", None),
    ("builders", "build_gadget", None),
    ("extract", "extract_circuit", None),
]

PACKAGE = "zxfault"


class _Stats:
    __slots__ = ("calls", "self_s", "total_s", "hits", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.hits = 0    # useful outcomes (matches, finds, detections)
        self.items = 0   # faults checked or enumerated


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []   # (name_idx, start, end, parent, input)
        self.stats: dict[str, _Stats] = {}
        self._stack: list[list] = []   # [span_id, name_idx, start, child_s]
        self._patched: list[tuple] = []
        self.input_id = -1

    # -- spans ------------------------------------------------------------

    def _enter(self, idx: int) -> list:
        frame = [len(self.spans), idx, 0.0, 0.0]
        self.spans.append(None)  # reserve the id so children can point here
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, idx, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[sid] = (idx, start, end,
                           parent[0] if parent else -1, self.input_id)
        st = self.stats[self.names[idx]]
        st.calls += 1
        st.self_s += dur - child
        st.total_s += dur

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given name (an input's root)."""
        frame = self._enter(self._name_index(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stats()
        return self._index[name]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind):
        idx = self._name_index(name)
        st = self.stats[name]
        tracer = self

        if kind == "gen":
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    st.items += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            frame = tracer._enter(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if kind == "checked":
                st.items += out.checked
            elif kind == "found":
                st.hits += out is not None
            elif kind in ("match", "detected"):
                st.hits += bool(out)
            return out
        return traced

    def install(self, extra_modules=()) -> None:
        """Patch every binding site of every layer function."""
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        modules += list(extra_modules)
        for mod, fn_name, kind in LAYERS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", orig, kind)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit); ratios are 0 where a
        layer was unused."""
        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for mod, fn_name, kind in LAYERS:
            name = f"{mod}.{fn_name}"
            st = self.stats[name]
            if kind == "gen":
                out[f"{name}.faults"] = (st.items, "count")
                out[f"{name}.self_s"] = (st.self_s, "s")
                continue
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
            if kind == "per_call":
                out[f"{name}.ms_per_call"] = (
                    1e3 * ratio(st.total_s, st.calls), "ms")
            elif kind == "match":
                out[f"{name}.match_ratio"] = (ratio(st.hits, st.calls), "ratio")
            elif kind == "checked":
                out[f"{name}.faults_checked"] = (st.items, "count")
            elif kind == "found":
                out[f"{name}.found_ratio"] = (ratio(st.hits, st.calls), "ratio")
            elif kind == "detected":
                out[f"{name}.detected_ratio"] = (ratio(st.hits, st.calls),
                                                 "ratio")
        return out

    def write(self, path) -> None:
        """Write every span as CSV: id, name, start, end, parent, input."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,input\n")
            for sid, (idx, start, end, parent, inp) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{start:.9f},{end:.9f},"
                         f"{parent},{inp}\n")
