"""Checks on the package source itself."""

import ast
import builtins
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "k3lat"


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
    exact = {"gcd", "lcm", "isqrt", "factorial", "floor", "ceil"}
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


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps the functions named in
    # perfbench/layertrace.WRAPPED by name; a name that a module no longer
    # binds would otherwise fail only in a traced benchmark run. The dict is
    # read from the source, not imported.
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8"))
    (wrapped,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    assert len(wrapped) >= 9
    missing = [f"{module}.{name}" for module, names in wrapped.items()
               for name in names
               if not callable(getattr(import_module(f"k3lat.{module}"), name, None))]
    assert missing == []
