"""Checks on the package source itself."""

import ast
import builtins
import json
import os
from importlib import import_module
from pathlib import Path

import k3lat
from conftest import start_python
from k3lat.records import Record

ROOT = Path(__file__).resolve().parent.parent
# The package under test: the checkout's src/k3lat, or an installed copy.
SRC = Path(k3lat.__file__).resolve().parent


def _parse(path):
    return path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    return [_parse(path) for path in paths]


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so library invariants must be
    # explicit checks that raise. The same holds for the test oracles, as
    # pytest rewrites asserts in test modules only.
    trees = _library_trees() + [_parse(ROOT / "tests" / "oracles.py")]
    found = [f"{name}:{node.lineno}" for name, tree in trees
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_reads_no_environment_variables():
    # The package has no settings: each result depends on the arguments alone.
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_library_does_not_import_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: about 10 ms, plus
    # more per decorated class, at the start of every command.
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    alias.name.partition(".")[0] == "dataclasses" for alias in node.names):
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_cli_main_writes_to_stdout():
    # Commands return their output for main to render in full and write at
    # once, so an error never leaves part of a result on stdout.
    found = []
    for name, tree in _library_trees():
        allowed = set()
        if name == "cli.py":
            main = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
            allowed = set(map(id, ast.walk(main)))
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)):
                found.append(f"{name}:{node.lineno} print")
            elif (isinstance(node, ast.Attribute) and node.attr == "stdout"
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"{name}:{node.lineno} sys.stdout")
    assert found == []


def test_cli_writes_every_failure_through_one_writer():
    # `cli._fail` writes each error message, and its exit code stands when
    # stderr cannot be written; a print to stderr would be a second path.
    # Each message prefix appears once, in the table of failures.
    _, tree = _parse(SRC / "cli.py")
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert calls == []
    prefixes = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("parse error: " in node.value or "domain error: " in node.value)]
    assert sorted(prefixes) == ["domain error: ", "parse error: "]


def test_every_error_class_is_a_cli_outcome():
    # Each class of errors.py is one outcome of a failed command, a key of
    # `cli._FAILURES` with its message prefix and exit code; the other keys
    # are built-in. No other module defines an exception class. Both are
    # read from the source, not imported.
    _, errors = _parse(SRC / "errors.py")
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    _, cli = _parse(SRC / "cli.py")
    (table,) = [node.value for node in cli.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_FAILURES"]]
    keys = [key.id for key in table.keys]
    assert sorted(defined) == ["GramFileError", "LatticeError", "SpecSyntaxError", "UsageError"]
    assert set(defined) <= set(keys) and set(keys) - set(defined) <= set(vars(builtins))
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in _library_trees()
             if name != "errors.py" for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and any(
                 getattr(base, "id", "").endswith(("Error", "Exception")) for base in node.bases)]
    assert found == []


def test_library_arithmetic_is_exact():
    # Every quantity is an integer or a Fraction: no float literal, no
    # float() call, and from math only the functions exact on integers.
    exact = {"gcd", "lcm", "isqrt", "factorial", "floor", "ceil", "prod"}
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{name}:{node.lineno} {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{name}:{node.lineno} float(")
            elif isinstance(node, ast.Import) and any(
                    alias.name == "math" for alias in node.names):
                found.append(f"{name}:{node.lineno} import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{name}:{node.lineno} math.{alias.name}"
                          for alias in node.names if alias.name not in exact]
    assert found == []


def test_readme_library_example_runs():
    # The first python block after the Library heading, asserts kept under -O.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec", optimize=0), {})


def _traced_names():
    """perfbench/layertrace.WRAPPED, read from the source, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8"))
    (wrapped,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    return wrapped


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps the functions named in
    # perfbench/layertrace.WRAPPED by name; a name that a module no longer
    # binds would otherwise fail only in a traced benchmark run.
    wrapped = _traced_names()
    assert len(wrapped) >= 9
    missing = [f"{module}.{name}" for module, names in wrapped.items()
               for name in names
               if not callable(getattr(import_module(f"k3lat.{module}"), name, None))]
    assert missing == []


# Traces every call into the package, from its import on, while main runs
# each command line of argv.json in the working directory, and prints the
# (file name, first line) of each function called.
_REACH_SCRIPT = """
import contextlib, io, json, os, sys
import k3lat
package = os.path.dirname(k3lat.__file__) + os.sep
called = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        called.add((os.path.basename(code.co_filename), code.co_firstlineno))

with open("argv.json") as f:
    argvs = json.load(f)
sys.settrace(trace)
from k3lat.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        main(argv)
sys.settrace(None)
print(json.dumps(sorted(called)))
"""

# Functions that no command calls and that are no declared API, each with
# the reason it stays.
UNREACHED = {
    "lattice._basis_rows": "the coordinates of sublattice, is_primitive_vector and "
                           "orthogonal_complement, which only tests call",
    "glue._pairing_solution": "the coset of the coset oracle dual_coset_counts",
    "intlinalg.mat_mul": "the products of sublattice and orthogonal_complement",
    "intlinalg.transpose": "the column passes of smith_normal_form, which no command's "
                           "matrix needs, and orthogonal_complement",
}


def test_every_function_serves_a_command_or_a_declared_api(corpus, monkeypatch):
    # Each function of the package is called by a command (the pinned output
    # and help corpora, table --to 14 and the benchmark's queries), is public,
    # or is kept below with its reason. A function that none of these reach
    # is a second path: delete it, or move it into the tests.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    help_cases = json.loads((ROOT / "tests" / "golden" / "cli_help.json").read_text())["cases"]
    argvs = ([case["argv"] for case in corpus["cases"] + help_cases] + [["table", "--to", "14"]]
             + [list(command.argv) for command in workloads.query_pool()])
    Path("argv.json").write_text(json.dumps(argvs))
    proc = start_python("-c", _REACH_SCRIPT)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    served = {tuple(key) for key in json.loads(out)}

    def key(function):
        return os.path.basename(function.__code__.co_filename), function.__code__.co_firstlineno

    trees = _library_trees()
    for name, _ in trees:
        if name != "__init__.py":
            import_module(f"k3lat.{name[:-3]}")  # so that every record class is defined
    public = [k3lat.__getattr__, k3lat.__dir__, *(getattr(k3lat, name) for name in k3lat.__all__)]
    served |= {key(obj) for obj in public if hasattr(obj, "__code__")}
    records = [Record]
    for cls in records:
        records += cls.__subclasses__()
        for member in vars(cls).values():
            member = getattr(member, "fget", member)  # a property's getter
            if hasattr(member, "__code__"):
                served.add(key(member))
    # Kept until the benchmark's tracer wraps only what its commands call
    # (ROADMAP item 13): the functions it wraps by name.
    kept = {f"{module}.{name}" for module, names in _traced_names().items() for name in names}

    defined, unserved, top_level = 0, [], set()
    for name, tree in trees:
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defined += 1
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            qualified = f"{name[:-3]}.{node.name}" if id(node) in top else None
            top_level.add(qualified)
            if (name, line) in served:
                assert qualified not in UNREACHED, f"{qualified} is served: drop it from the list"
            elif qualified not in kept and qualified not in UNREACHED:
                unserved.append(f"{name}:{node.lineno} {node.name}")
    assert defined >= 100 and len(UNREACHED) <= 5
    assert set(UNREACHED) <= top_level - kept
    assert unserved == []
