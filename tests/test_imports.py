"""Every module of the package and of its tests reads each name it
imports, every module of the package reads each private name it defines,
every public name of the package is read outside its definition, no
module of the package imports numpy.ma on a check or a proof script, and
only the syndrome map's guards and ``zxfault eval`` read dense tensors."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "zxfault"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by an import statement (``__future__`` aside) that the
    module never reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).partition(".")[0]
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    assert unused_imports("import json\nfrom os import path, sep\n"
                          "print(sep)\n") == ["json", "path"]


def unread_private_names(source: str) -> list:
    """Module-level ``_names`` (defs, classes and assignments) and ``_methods``
    of module-level classes that the module never reads, in source order."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)]
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
    return [name for name in defined
            if (short := name.rpartition(".")[2]).startswith("_")
            and not short.endswith("__") and short not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_an_unread_private_name_is_found():
    source = ("_LIMIT = 3\n_USED = 4\ndef _helper():\n    return _USED\n"
              "class A:\n    def __init__(self):\n        self._go()\n"
              "    def _go(self):\n        pass\n    def _stop(self):\n"
              "        pass\n")
    assert unread_private_names(source) == ["_LIMIT", "_helper", "A._stop"]


def loads(node) -> Counter:
    """How often each name is read under ``node``: ``name`` as a bare name
    and ``.name`` as an attribute."""
    read = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read["." + n.attr] += 1
    return read


def unread_public_names(definers: dict, readers: list) -> list:
    """Public module-level defs and classes, and public methods of
    module-level classes, of the ``definers`` sources (module name ->
    source) that no source of ``readers`` reads outside the definition
    itself, as ``module:name`` in source order.  A module-level name is
    read as a bare name or as an attribute, a method only as an
    attribute."""
    read = Counter()
    for source in readers:
        read.update(loads(ast.parse(source)))
    out = []
    for module, source in definers.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node.name, node, (node.name, "." + node.name))]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m, ("." + m.name,))
                          for m in node.body if isinstance(m, ast.FunctionDef)]
            for name, n, keys in found:
                inside = loads(n)
                if not n.name.startswith("_") \
                        and all(read[k] == inside[k] for k in keys):
                    out.append(f"{module}:{name}")
    return out


def test_every_public_name_is_read():
    readers = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]
    definers = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_names(definers, readers) == []


def test_an_unread_public_name_is_found():
    source = ("def used():\n    return 1\ndef again():\n    return again()\n"
              "class A:\n    def go(self):\n        return used()\n"
              "    def stop(self):\n        pass\n    def _hidden(self):\n"
              "        pass\n")
    # a bare name ``stop`` elsewhere does not read the method A.stop
    reader = "A().go()\nstop = 0\nprint(stop)\n"
    assert unread_public_names({"m": source}, [source, reader]) == [
        "m:again", "m:A.stop"]


# numpy.ma, which np.unique imports on its first call, adds about 1.7 MB to
# a process; a steane check at w=2 and a proof script must not import it
MA_PROBE = """
import sys
from importlib import resources
from pathlib import Path
from zxfault import feq, rewrite
from zxfault.builders import build_gadget
spec = build_gadget("steane").equivalence_spec(2)
assert feq.check_w_fault_equivalence(spec).equivalent
base = resources.files("zxfault").joinpath("scripts")
text = (Path(base) / "steane-422-extraction.fzx").read_text()
rewrite.run_proof_script(text, base_dir=str(base))
print("numpy.ma" in sys.modules)
"""


def test_a_check_and_a_proof_script_do_not_import_numpy_ma():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", MA_PROBE], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout.split() == ["False"]


def dense_readers() -> dict:
    """Per module of the package, the dense checks it imports or reads
    as an attribute, ``evaluate`` and ``equal_up_to_scalar``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        if dense := sorted(names & {"evaluate", "equal_up_to_scalar"}):
            out[path.name] = dense
    return out


def test_only_the_guards_and_eval_read_tensors():
    # the syndrome map's two guards, which the benchmark's traced pass
    # requires, and `zxfault eval`; every other semantic fact is read on
    # the webs, and the dense checks that it replaced live in the tests
    assert dense_readers() == {"cli.py": ["evaluate"],
                               "feq.py": ["equal_up_to_scalar", "evaluate"]}
    defined = {n.name for path in PACKAGE.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"is_total", "check_web", "WebBasisError"}
