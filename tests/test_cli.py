import contextlib
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import k3lat
import k3lat.e8
import k3lat.lattice
from k3lat.cli import _GRAMMAR, _read, build_parser, main
from oracles import skewed_gram

GOLDEN = Path(__file__).parent / "golden" / "table_2_14.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def walk_numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from walk_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_numbers(v)
    else:
        yield node


def test_table_markdown_matches_golden(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "14")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_csv_row(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2n,roots," + ",".join(f"k={k}" for k in range(8))
    assert lines[1] == "2,126,1,56"


def test_table_csv_header_spans_widest_row(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "22",
                       "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "2n,roots," + ",".join(f"k={k}" for k in range(12))
    widths = []
    for line in rows:
        fields = line.split(",")
        two_n = int(fields[0])
        assert len(fields) == 2 + two_n // 2 + 1
        widths.append(len(fields))
    assert max(widths) == len(header.split(",")) == 14


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    for leaf in walk_numbers(payload):
        assert isinstance(leaf, (int, bool, str))
        if isinstance(leaf, str) and "/" in leaf:
            num, den = leaf.split("/")
            frac = Fraction(int(num), int(den))
            assert f"{frac.numerator}/{frac.denominator}" == leaf  # lowest terms
    row2 = payload["rows"][0]
    assert row2["totals"] == [1, 56] and row2["primitive"] is True
    cells = {(c["k"], c["norm"]) for c in row2["cells"]}
    assert (1, "-3/2") in cells


def fresh_python(code, **env_vars):
    """Run code in a fresh interpreter that imports this checkout's k3lat."""
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_cli_import_starts_without_the_process_pool():
    # Neither the process pool nor dataclasses (with the inspect, ast, dis
    # and tokenize modules it pulls in) is loaded at start-up.
    heavy = ("concurrent", "multiprocessing", "dataclasses", "inspect", "ast", "dis",
             "tokenize")
    code = ("import sys, k3lat.cli; "
            "k3lat.cli.main(['table', '--to', '8', '--format', 'csv']); "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {heavy}))")
    # K3LAT_THREADS is ignored: table computes its rows in this process.
    *table, modules = fresh_python(code, K3LAT_THREADS="2").splitlines()
    assert table[1] == "2,126,1,56" and len(table) == 6
    assert modules == "[]"


def test_package_import_loads_no_submodule():
    code = "import sys, k3lat; print(sorted(m for m in sys.modules if m.startswith('k3lat')))"
    assert fresh_python(code) == "['k3lat']\n"


def test_e8_orbits_loads_only_the_orbit_modules():
    code = ("import sys; from k3lat.cli import main; "
            "main(['e8', 'orbits', '--norm', '8', '--json']); "
            "print(sorted(m for m in sys.modules if m.startswith('k3lat')), "
            "'fractions' in sys.modules, 'decimal' in sys.modules, 'json' in sys.modules)")
    *out, modules = fresh_python(code).splitlines()
    assert json.loads("\n".join(out))["orbits"][1]["orbit_size"] == 17280
    # the JSON text comes from k3lat.jsonout, which loads no json for it
    assert modules == ("['k3lat', 'k3lat.cli', 'k3lat.cli_e8', 'k3lat.e8', 'k3lat.errors', "
                       "'k3lat.jsonout', 'k3lat.records'] False False False")


def test_table_and_divisors_load_no_lattice_module():
    # The rows are read from the projection of E8 on a reduced basis of
    # Z^8/Z v0, so neither command builds a complement or loads k3lat.lattice,
    # and their reduction comes from k3lat.reduction without the Hermite and
    # Smith forms of k3lat.intlinalg.
    row_modules = ["k3lat", "k3lat.cli", "k3lat.e8", "k3lat.errors", "k3lat.glue",
                   "k3lat.records", "k3lat.reduction", "k3lat.shortvec"]
    for argv, extra in ((["table", "--to", "8", "--format", "json"],
                         ["k3lat.cli_table", "k3lat.jsonout", "k3lat.parallel"]),
                        (["divisors", "--norm", "8", "--json"],
                         ["k3lat.cli_divisors", "k3lat.jsonout"])):
        code = ("import sys; from k3lat.cli import main; "
                f"main({argv!r}); "
                "print(sorted(m for m in sys.modules if m.startswith('k3lat')))")
        *out, modules = fresh_python(code).splitlines()
        assert len(json.loads("\n".join(out))["rows"]) == (5 if argv[0] == "table" else 2)
        assert modules == str(sorted(row_modules + extra)), argv
        assert "k3lat.intlinalg" not in modules and "k3lat.lattice" not in modules


def test_text_output_loads_no_json():
    code = ("import sys; from k3lat.cli import main; "
            "main(['lat', 'info', 'II(2,26)']); main(['e8', 'orbits', '--norm', '8']); "
            "print('json' in sys.modules)")
    *out, loaded = fresh_python(code).splitlines()
    assert out[0] == "rank: 28" and out[-1].startswith("orbit 1: ")
    assert loaded == "False"


def test_a_bad_norm_exits_1_before_any_library_module_loads():
    code = ("import sys; from k3lat.cli import main; "
            "codes = [main(['e8', 'orbits', '--norm', '7']), main(['weight', '--norm', '-2']), "
            "main(['divisors', '--norm', '3'])]; "
            "print(codes, sorted(m for m in sys.modules if m.startswith('k3lat')), "
            "'json' in sys.modules)")
    # Each command compiles its own CLI module, and no library module.
    assert fresh_python(code) == ("[1, 1, 1] ['k3lat', 'k3lat.cli', 'k3lat.cli_divisors', "
                                  "'k3lat.cli_e8', 'k3lat.cli_weight', 'k3lat.errors'] "
                                  "False\n")


def test_a_spec_that_does_not_parse_exits_1_before_lattice_loads():
    code = ("import sys; from k3lat.cli import main; "
            "code = main(['lat', 'info', 'E9']); "
            "print(code, sorted(m for m in sys.modules if m.startswith('k3lat')))")
    assert fresh_python(code) == ("1 ['k3lat', 'k3lat.cli', 'k3lat.cli_lat', 'k3lat.errors', "
                                  "'k3lat.records', 'k3lat.specparse']\n")


def test_python_m_compiles_cli_once():
    # Under `python -m k3lat.cli` the command modules import the shared
    # helpers from the running module, not from a second copy of k3lat.cli.
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "k3lat.cli", "lat",
                          "info", "E9"], env=env, capture_output=True, text=True, timeout=60)
    imported = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()]
    assert run.returncode == 1 and run.stdout == ""
    assert "k3lat.cli_lat" in imported and "k3lat.cli" not in imported


SPEC_MODULES = ["k3lat.errors", "k3lat.intlinalg", "k3lat.lattice", "k3lat.records",
                "k3lat.reduction", "k3lat.specparse"]
ROW_MODULES = ["k3lat.e8", "k3lat.errors", "k3lat.glue", "k3lat.records",
               "k3lat.reduction", "k3lat.shortvec"]
SBAD_MODULES = ["k3lat.cli_sbad", "k3lat.errors", "k3lat.records", "k3lat.sbad"]
# (argv, exit code, the k3lat modules it loads besides k3lat and k3lat.cli)
COMMAND_MODULES = [
    (["lat", "info", "-E8 + -E8 + -E8"], 0,
     ["k3lat.cli_lat", *SPEC_MODULES, "k3lat.shortvec"]),
    (["lat", "info", "II(2,26)"], 0, ["k3lat.cli_lat", *SPEC_MODULES]),
    (["lat", "info", "E9"], 1,
     ["k3lat.cli_lat", "k3lat.errors", "k3lat.records", "k3lat.specparse"]),
    (["e8", "orbits", "--norm", "8"], 0,
     ["k3lat.cli_e8", "k3lat.e8", "k3lat.errors", "k3lat.records"]),
    (["table", "--to", "8"], 0, ["k3lat.cli_table", *ROW_MODULES, "k3lat.parallel"]),
    (["divisors", "--norm", "8"], 0, ["k3lat.cli_divisors", *ROW_MODULES]),
    (["weight", "--norm", "14"], 0,
     ["k3lat.cli_weight", "k3lat.e8", "k3lat.errors", "k3lat.records"]),
    (["embed", "check", "(-2) + -E8 + -E8 + H + H"], 0,
     ["k3lat.cli_embed", *SPEC_MODULES, "k3lat.glue"]),
    (["minus2", "property", "II(1,17)"], 0,
     ["k3lat.cli_minus2", "k3lat.errors", "k3lat.glue", "k3lat.lattice", "k3lat.records",
      "k3lat.reduction", "k3lat.specparse"]),
    (["sbad", "witness", "--gram", "witness.txt"], 0,
     [*SBAD_MODULES, "k3lat.lattice", "k3lat.reduction"]),
    (["sbad", "polarized", "--n", "4", "--dnorm", "0", "--k", "4"], 0, SBAD_MODULES),
]


@pytest.mark.parametrize("argv, code, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, *_ in COMMAND_MODULES])
def test_each_command_loads_exactly_its_own_modules(argv, code, modules, monkeypatch,
                                                    tmp_path):
    # A command compiles its own CLI module and the library modules it
    # runs: no other command's body, neither e8 nor shortvec for the
    # embedding and -2 tests, no intlinalg for the -2 test and `sbad
    # witness`, which run only the Lagrange reduction, and no lattice for
    # `sbad polarized`.
    witness = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "witness.txt"
    (tmp_path / "witness.txt").write_text(witness.read_text())
    monkeypatch.chdir(tmp_path)
    script = ("import contextlib, io, sys; from k3lat.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules if m.startswith('k3lat')))")
    expected = sorted(["k3lat", "k3lat.cli", *modules])
    assert fresh_python(script) == f"{code} {expected}\n"


def test_well_formed_commands_load_neither_argparse_nor_gettext(monkeypatch, tmp_path):
    # main reads a well-formed command line from the grammar table; argparse,
    # with the gettext it loads for its messages, loads only for help, usage
    # errors and forms only it reads, such as "--" before a spec led by "-".
    # locale is not pinned: site loads it on some hosts.
    witness = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "witness.txt"
    (tmp_path / "witness.txt").write_text(witness.read_text())
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv, *_ in COMMAND_MODULES]
    script = ("import contextlib, io, sys, k3lat.cli\n"
              "def loaded():\n"
              "    return [name in sys.modules for name in ('argparse', 'gettext')]\n"
              "print(loaded())\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              f"    codes = [k3lat.cli.main(argv) for argv in {argvs!r}]\n"
              "print(codes, loaded())\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    k3lat.cli.main(['lat', 'info', '--', '-E8'])\n"
              "print(loaded())\n")
    codes = [code for _, code, _ in COMMAND_MODULES]
    assert fresh_python(script) == f"[False, False]\n{codes} [False, False]\n[True, True]\n"


# Words for the generated command lines: (good, bad) values of each kind.
# Words led by "-" that argparse reads as values or positionals by its
# rule for a word with a space, and words that the rule leaves to it.
DASH_WORDS = ["-h x", "--json x", "--json=1 x", "-E8 =x", "- x"]
INT_WORDS = (["8", "2", "14", "0", "+6", " 10", "007", "\u0668"],
             ["x", "4.0", "", "-4", "-", "1e3", "--json", "-4 ", *DASH_WORDS])
STR_WORDS = (["w.txt", "", "a=b", "info"], ["-w.txt", "-", "--json", "-w x.txt", *DASH_WORDS])
CHOICE_WORDS = (["md", "csv", "json"], ["yaml", "JSON", "-md", ""])
SPECS = (["II(2,26)", "(-2) + -E8", "E8", "", "info", "E8 + -E8"],
         ["-E8", "-E8 + -E8", "-2", "--json", "-", *DASH_WORDS])
EXTRAS = ["-h", "--help", "--", "--bogus", "extra", "-", *DASH_WORDS]


def draw(rng, words):
    good, bad = words
    return rng.choice(good if rng.random() < 0.8 else bad)


def grammar_argvs(seed, count):
    """Command lines drawn from the grammar table: each command with its
    options present, absent, repeated, abbreviated, written --opt=value or
    left without a value, good and bad values, missing or extra
    positionals, specs led by "-", and "--", -h and unknown words."""
    rng = random.Random(seed)
    leaves = [(path, arguments) for path, (_, func, arguments) in _GRAMMAR.items() if func]
    argvs = []
    while len(argvs) < count:
        path, arguments = rng.choice(leaves)
        chunks = []
        for name, kw in arguments:
            if not name.startswith("-"):
                chunks += [[draw(rng, SPECS)] for _ in range(rng.choice([1, 1, 1, 1, 0, 2]))]
                continue
            words = (CHOICE_WORDS if "choices" in kw else
                     INT_WORDS if kw.get("type") is int else STR_WORDS)
            value = [] if kw.get("action") else [draw(rng, words)]
            mode = rng.choice(["plain"] * 12 + ["absent"] * 3
                              + ["repeat", "abbrev", "equals", "bare"])
            if mode == "plain":
                chunks.append([name, *value])
            elif mode == "repeat":
                chunks += [[name, *value], [name, *value]]
            elif mode == "abbrev":
                chunks.append([name[:rng.randrange(3, len(name))] if len(name) > 3 else name,
                               *value])
            elif mode == "equals":
                chunks.append(["=".join([name, *value]) if value else f"{name}=1"])
            elif mode == "bare":
                chunks.append([name])
        if rng.random() < 0.1:
            chunks.insert(rng.randrange(len(chunks) + 1), [rng.choice(EXTRAS)])
        if rng.random() < 0.5:
            rng.shuffle(chunks)
        head = list(path)
        if rng.random() < 0.05:
            head = rng.choice([head[:-1], ["nonsense", *head[1:]], ["--json", *head]])
        argvs.append(head + [word for chunk in chunks for word in chunk])
    return argvs


def argparse_values(argv):
    """vars() of argparse's reading of argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_the_grammar_reader_agrees_with_argparse():
    # For every command line the reader either refuses it, leaving it to
    # argparse, or gives exactly the arguments that argparse reads.
    argvs = grammar_argvs(26, 2400)
    read = [(argv, _read(argv)) for argv in argvs]
    disagree = [argv for argv, args in read
                if args is not None and vars(args) != argparse_values(argv)]
    assert disagree == []
    accepted = sum(args is not None for _, args in read)
    assert accepted >= 500 and len(argvs) - accepted >= 500
    assert {args.func.__name__ for _, args in read if args is not None} == {
        func for _, func, _ in _GRAMMAR.values() if func}


def test_every_benchmark_command_takes_the_grammar_reader(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    argvs = {command.argv for name in workloads.WORKLOADS
             for command in workloads.workload_commands(name, 0)}
    assert [argv for argv in argvs if _read(list(argv)) is None] == []
    for argv in argvs:
        assert vars(_read(list(argv))) == argparse_values(list(argv)), argv


def test_public_names_resolve_to_their_defining_modules():
    # Each name is the object bound in the module that defines it (for the
    # lattice constants, the module of their class), from a cold import.
    code = ("import sys, k3lat\n"
            "objects = {name: getattr(k3lat, name) for name in k3lat.__all__}\n"
            "print(sorted(name for name, obj in objects.items()\n"
            "             if getattr(sys.modules[obj.__module__], name) is not obj))\n"
            "namespace = {}\n"
            "exec('from k3lat import *', namespace)\n"
            "print(sorted(name for name, obj in objects.items() if namespace[name] is not obj))")
    assert fresh_python(code) == "[]\n[]\n"
    assert len(set(k3lat.__all__)) == 46
    with pytest.raises(AttributeError):
        k3lat.no_such_name


def test_e8_orbits_builds_no_complement(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("e8 orbits must not build a complement")

    # e8.complement_of imports orthogonal_complement from k3lat.lattice when
    # it runs, so this one patch covers every caller.
    monkeypatch.setattr(k3lat.lattice, "orthogonal_complement", refuse)
    code, out, _ = run(capsys, "e8", "orbits", "--norm", "400", "--json")
    assert code == 0
    orbits = json.loads(out)["orbits"]
    assert len(orbits) == 74
    for o in orbits:
        g = math.gcd(*o["representative"])
        assert o["complement_determinant"] == 400 // g ** 2
        assert o["primitive"] == (g == 1)
    code, out, _ = run(capsys, "e8", "orbits", "--norm", "400")
    assert code == 0 and out.count("complement det ") == 74
    # The weight is 12 + roots/2, read off the closed-form root count.
    code, out, _ = run(capsys, "weight", "--norm", "14")
    assert code == 0 and out.count("restricted form weight ") == 2
    code, out, _ = run(capsys, "weight", "--norm", "14", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["roots"], r["weight"]) for r in rows] == [(72, 48), (44, 34)]


def test_results_beyond_the_digit_limit_exit_1_before_any_output(capsys, tmp_path):
    big = "7" * 3000  # the determinant N^2 has 6000 digits
    witness = tmp_path / "witness.txt"
    witness.write_text(f"2\n{big} 1\n1 {big}\n0 0 1\n")
    for argv in (("lat", "info", f"({big}) + ({big})"),
                 ("minus2", "property", f"({big}) + (-{big})"),
                 ("sbad", "witness", "--gram", str(witness)),
                 ("sbad", "polarized", "--n", "1", "--dnorm", "0", "--k", big)):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (1, ""), argv + extra
            assert err == f"k3lat: result has more than {sys.get_int_max_str_digits()} " \
                          "decimal digits\n"
    code, out, _ = run(capsys, "lat", "info", f"({big})")
    assert code == 0 and f"determinant: {big}" in out


def test_commands_run_where_python_has_no_digit_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 have neither the int-to-str digit limit nor
    # sys.get_int_max_str_digits.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    for argv in (("lat", "info", "(-2) + -E8"),
                 ("minus2", "property", "II(1,17)"),
                 ("sbad", "polarized", "--n", "4", "--dnorm", "0", "--k", "4")):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, err) == (0, "") and out, argv + extra


def test_outputs_match_the_pinned_corpus(capsys, monkeypatch, tmp_path):
    # Text and JSON outputs of the benchmark's queries and more, pinned byte
    # for byte; witness files are written to a scratch directory first.
    golden = json.loads((GOLDEN.parent / "cli_outputs.json").read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for case in golden["cases"]:
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (case["code"], case["stdout"]), case["argv"][:4]


def test_help_and_usage_match_the_pinned_corpus(capsys, monkeypatch):
    # Help, usage and argument errors of every command at 80 columns, byte
    # for byte, each from the parser of the whole grammar table. Python 3.13's
    # argparse starts the help column of `sbad --help` one place further
    # right, so that case also pins the text of 3.13 and later.
    golden = json.loads((GOLDEN.parent / "cli_help.json").read_text())
    monkeypatch.setenv("COLUMNS", str(golden["columns"]))
    for case in golden["cases"]:
        code, out, err = run(capsys, *case["argv"])
        stdout = case["stdout"]
        if sys.version_info >= (3, 13):
            stdout = case.get("stdout_3_13", stdout)
        assert (code, out, err) == (case["code"], stdout, case["stderr"]), case["argv"]
    assert sum("stdout_3_13" in case for case in golden["cases"]) == 1


def text_integers(text):
    """Integers of a text, outside names such as E8, S1, k0, 2n or k^2."""
    return re.findall(r"(?<![\w^|])-?\d+(?![\w^|])", text)


def payload_integers(payload):
    """Integers of a JSON payload: its numbers and its "p/q" rationals."""
    found = []
    for leaf in walk_numbers(payload):
        if isinstance(leaf, int) and not isinstance(leaf, bool):
            found.append(str(leaf))
        elif isinstance(leaf, str) and re.fullmatch(r"-?\d+(/\d+)?", leaf):
            found += text_integers(leaf)
    return set(found)


# Integers a text form derives from its payload or prints as constants.
TEXT_DERIVED = {
    "embed check": lambda p: {p["rank"] + p["min_generators"]},
    "sbad witness": lambda p: {abs(p["det_s1"]), 2 * abs(p["det_s"])},
    "sbad polarized": lambda p: {-2, 0},  # the bounds of -2 <= d - k^2/2n < 0
    "e8 orbits": lambda p: {len(p["orbits"])},
    "weight": lambda p: {12, 2},  # weight = 12 + roots/2
}


def test_every_integer_of_a_text_output_is_in_its_json_payload(capsys, monkeypatch,
                                                                tmp_path):
    # Each pair of text and JSON forms in the pinned corpus, which holds
    # every command of the benchmark's queries workload in both forms.
    golden = json.loads((GOLDEN.parent / "cli_outputs.json").read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    succeeded = {tuple(c["argv"]) for c in golden["cases"] if c["code"] == 0}
    pairs = [argv[:-1] for argv in succeeded
             if argv[-1] == "--json" and argv[:-1] in succeeded]
    assert len(pairs) == 12
    for argv in pairs:
        _, text, _ = run(capsys, *argv)
        _, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        command = " ".join(word for word in argv[:2] if not word.startswith("-"))
        derived = TEXT_DERIVED.get(command, lambda p: set())(payload)
        known = payload_integers(payload) | {str(v) for v in derived}
        assert set(text_integers(text)) <= known, argv


def test_weight_command(capsys):
    code, out, _ = run(capsys, "weight", "--norm", "2")
    assert code == 0
    assert "weight 75" in out


def test_weight_output_is_pinned(capsys):
    code, out, _ = run(capsys, "weight", "--norm", "8")
    assert code == 0
    assert out == (
        "2n = 8, representative (4, 6, 8, 12, 10, 8, 6, 4): "
        "restricted form weight 75 (= 12 + 126/2)\n"
        "2n = 8, representative (5, 8, 10, 15, 12, 9, 6, 3): "
        "restricted form weight 40 (= 12 + 56/2)\n")
    code, out, _ = run(capsys, "weight", "--norm", "8", "--json")
    assert code == 0
    assert out == json.dumps({"schema": 1, "rows": [
        {"two_n": 8, "roots": 126, "primitive": False,
         "representative": [4, 6, 8, 12, 10, 8, 6, 4], "weight": 75},
        {"two_n": 8, "roots": 56, "primitive": True,
         "representative": [5, 8, 10, 15, 12, 9, 6, 3], "weight": 40}]}, indent=2) + "\n"


def test_e8_orbits_json(capsys):
    code, out, _ = run(capsys, "e8", "orbits", "--norm", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == -8
    prim_flags = [o["primitive"] for o in payload["orbits"]]
    assert sorted(prim_flags) == [False, True]
    sizes = sum(o["orbit_size"] for o in payload["orbits"])
    assert sizes == 17520


def test_divisors_command(capsys):
    code, out, _ = run(capsys, "divisors", "--norm", "2")
    assert code == 0
    assert "multiplicity 57" in out
    assert "multiplicity 1 " in out
    code, out, _ = run(capsys, "divisors", "--norm", "2", "--json")
    payload = json.loads(out)
    mults = {line["multiplicity"] for line in payload["rows"][0]["lines"]}
    assert mults == {1, 57}


def test_orbit_selection(capsys):
    code, out, _ = run(capsys, "weight", "--norm", "8", "--orbit", "1")
    assert code == 0
    assert out.count("2n = 8") == 1 and "weight 40" in out  # 12 + 56/2
    code, _, err = run(capsys, "divisors", "--norm", "8", "--orbit", "5")
    assert code == 1 and "out of range" in err


def test_lat_info_definite_vs_not(capsys):
    code, out, _ = run(capsys, "lat", "info", "(-2) + -E8")
    assert code == 0
    assert "root count: 242" in out
    code, out, _ = run(capsys, "lat", "info", "H + H")
    assert code == 0
    assert "root count" not in out


def test_lat_info_divisors_form_a_divisibility_chain(capsys):
    # The Hermite passes leave diag(4, 6), which the gcd/lcm step of the
    # Smith form turns into the chain 2 | 12.
    code, out, _ = run(capsys, "lat", "info", "(4) + (6)")
    assert code == 0 and "discriminant group divisors: [2, 12]" in out


def test_a_spec_starting_with_a_minus_needs_the_double_dash(capsys):
    # argparse reads a space-free argument that begins with "-" as an option
    code, out, _ = run(capsys, "lat", "info", "-E8 ")
    assert code == 0 and "root count: 240" in out
    assert run(capsys, "lat", "info", "--", "-E8") == (0, out, "")
    code, out, err = run(capsys, "lat", "info", "-E8")
    assert (code, out) == (1, "") and "required: spec" in err


def test_lat_info_on_a_skewed_basis_of_minus_e8(capsys, tmp_path):
    # -E8 on a seeded random basis with entries of 10^4 and more: the
    # enumerator reduces the basis it is given, so the root count comes out
    # as on the standard basis, and as quickly.
    minus = k3lat.lattice.rescale(k3lat.lattice.E8)
    gram = skewed_gram(minus.gram, random.Random(1), 10 ** 4)
    path = tmp_path / "skewed.txt"
    path.write_text("\n".join([str(len(gram)), *(" ".join(map(str, row)) for row in gram)]))
    code, out, _ = run(capsys, "lat", "info", "--json", f"gram:{path}")
    assert code == 0
    skewed = json.loads(out)
    code, out, _ = run(capsys, "lat", "info", "--json", "--", "-E8")
    standard = json.loads(out)
    assert (skewed.pop("spec"), standard.pop("spec")) == (f"gram:{path}", "-E8")
    assert skewed == standard and skewed["root_count"] == 240


def test_embed_check(capsys):
    code, out, _ = run(capsys, "embed", "check", "(-2) + -E8 + -E8 + H + H")
    assert code == 0
    assert "yes" in out
    code, _, err = run(capsys, "embed", "check", "H")
    assert code == 2


def test_sbad_polarized(capsys):
    code, out, _ = run(capsys, "sbad", "polarized", "--n", "4", "--dnorm", "0",
                       "--k", "4")
    assert code == 0
    assert "-2 <= -2 < 0: yes" in out


def test_sbad_witness(capsys, tmp_path):
    path = tmp_path / "w.gram"
    path.write_text("1\n8\n4 0\n")
    code, out, _ = run(capsys, "sbad", "witness", "--gram", str(path))
    assert code == 0
    assert "det S1 = -16" in out and "S-bad witness: yes" in out


def test_minus2_property(capsys):
    code, out, _ = run(capsys, "minus2", "property", "II(1,17)")
    assert code == 0
    assert ": yes" in out
    code, out, _ = run(capsys, "minus2", "property", "(4)")
    assert code == 0
    assert ": no" in out


def test_each_reduction_is_of_one_orthogonal_block(capsys, monkeypatch, tmp_path):
    # The signature and the determinant reduce each orthogonal block of a
    # Gram matrix apart, so II(2,26) = 3(-E8) + 2H and II(1,17) reduce their
    # E8 and H blocks, and `sbad witness` its S and bordered S1.
    from k3lat import reduction, shortvec

    ranks = set()
    original = reduction.lagrange_reduction

    def counted(m):
        assert len(k3lat.lattice.blocks(m)) == 1, m
        ranks.add(len(m))
        return original(m)

    for module in (reduction, k3lat.lattice, shortvec):
        monkeypatch.setattr(module, "lagrange_reduction", counted)
    witness = tmp_path / "w.gram"
    witness.write_text("1\n8\n4 0\n")
    for argv, reduced in ((["lat", "info", "II(2,26)"], {2, 8}),
                          (["minus2", "property", "II(1,17)"], {2, 8}),
                          (["sbad", "witness", "--gram", str(witness)], {1, 2})):
        ranks.clear()
        assert run(capsys, *argv)[0] == 0
        assert ranks == reduced, argv


def test_no_command_of_the_corpus_loads_fractions(tmp_path, monkeypatch):
    # Every rational a command reports is an integer over a known
    # denominator, rendered by cli._rational, so fractions (and the decimal
    # module it imports) loads for no command, its errors included. Nor does
    # json: no output of these has a string that needs escaping.
    golden = json.loads((GOLDEN.parent / "cli_outputs.json").read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    argvs = [case["argv"] for case in golden["cases"]] + [
        ["table", "--from", "2", "--to", "22", "--format", "json"],
        ["e8", "orbits", "--norm", "352", "--json"]]
    code = ("import contextlib, io, sys; from k3lat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes, 'fractions' in sys.modules, 'decimal' in sys.modules, "
            "'json' in sys.modules)")
    want = [case["code"] for case in golden["cases"]] + [0, 0]
    assert fresh_python(code) == f"{want} False False False\n"


def test_lattice_specs_take_only_ascii_digits(capsys):
    # Another script's digits, which str.isdigit accepts and int() reads,
    # are not integers of a spec, as they are not of a Gram file.
    for spec, offset in (("(\u0662)", 1), ("(\uff12)", 1), ("II(\u0662,26)", 3),
                         ("II(2,\uff12\uff16)", 5)):
        code, out, err = run(capsys, "lat", "info", spec)
        assert (code, out, err) == (
            1, "", f"k3lat: parse error: expected an integer (at offset {offset})\n"), spec


def test_exit_codes(capsys):
    code, _, err = run(capsys, "lat", "info", "E9")
    assert code == 1 and "parse error" in err
    code, _, err = run(capsys, "lat", "info", "(0)")
    assert code == 2  # degenerate lattice: domain error
    code, _, err = run(capsys, "lat", "info", "(\u00b2)")  # a digit int() rejects
    assert code == 1 and "parse error" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "table", "--format", "yaml")
    assert code == 1
    code, _, err = run(capsys, "sbad", "witness", "--gram", "/no/such/file")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1


def test_a_file_that_is_not_utf8_exits_1_without_a_traceback(tmp_path):
    # 0xFF starts no UTF-8 sequence. Each command runs as a process, so an
    # exception that escaped main would print a traceback.
    path = tmp_path / "latin1.gram"
    path.write_bytes(b"1\n\xff8\n4 0\n")
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in (("lat", "info", f"gram:{path}"), ("sbad", "witness", "--gram", str(path))):
        proc = subprocess.run([sys.executable, "-m", "k3lat.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr.startswith("k3lat: ") and "Traceback" not in proc.stderr, argv
        assert proc.stderr == f"k3lat: {path}: not a UTF-8 text file\n", argv


def cli_process(*argv, unbuffered=False, **kwargs):
    """`python -m k3lat.cli argv` on this checkout's sources, not yet waited
    for; stderr is a pipe unless kwargs name it."""
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "k3lat.cli", *argv], env=env,
                            text=True, **{"stderr": subprocess.PIPE, **kwargs})


def write_to_full_disk(*argv, stream="stdout"):
    """The exit code of argv and the text of its other stream, with stream
    ("stdout" or "stderr") on a full disk, buffered and unbuffered."""
    other = "stderr" if stream == "stdout" else "stdout"
    results = []
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            proc = cli_process(*argv, unbuffered=unbuffered,
                               **{stream: full, other: subprocess.PIPE})
            out, err = proc.communicate(timeout=60)
        results.append((proc.returncode, err if other == "stderr" else out))
    return results


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_to_a_full_disk_exits_1_without_a_traceback():
    assert write_to_full_disk("e8", "orbits", "--norm", "8") == [
        (1, "k3lat: [Errno 28] No space left on device\n")] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_that_cannot_be_written_exits_1_without_a_traceback():
    # argparse ignores a failed write of its own, so help takes main's write.
    for argv in (("--help",), ("e8", "orbits", "--help")):
        assert write_to_full_disk(*argv) == [
            (1, "k3lat: [Errno 28] No space left on device\n")] * 2, argv


FAILING_ARGVS = [(["lat", "info", "(0)"], 2), (["e8", "orbits"], 1), (["lat", "info", "E9"], 1)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_message_that_cannot_be_written_leaves_the_exit_code(capsys):
    # A domain error, a usage error and a parse error keep their codes when
    # stderr fails, and a command that succeeds writes its whole output.
    for argv, code in FAILING_ARGVS:
        assert write_to_full_disk(*argv, stream="stderr") == [(code, "")] * 2, argv
    code, out, err = run(capsys, "e8", "orbits", "--norm", "8")
    assert (code, err) == (0, "") and out
    assert write_to_full_disk("e8", "orbits", "--norm", "8", stream="stderr") == [(0, out)] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_in_process_returns_the_code_of_a_message_it_cannot_write(monkeypatch):
    # Line-buffered, as Python opens stderr: each write fails at its flush.
    full = open("/dev/full", "w", buffering=1)
    monkeypatch.setattr(sys, "stderr", full)
    try:
        codes = [main(argv) for argv, _ in FAILING_ARGVS]
    finally:
        monkeypatch.undo()
        with contextlib.suppress(OSError):  # the message still in the buffer
            full.close()
    assert codes == [code for _, code in FAILING_ARGVS]


def test_a_pipe_closed_by_its_reader_exits_1_without_a_traceback():
    # The 1 MB of JSON fills the pipe, so the writer still holds output
    # when the reader, having read one byte, closes its end. Unbuffered, a
    # partial write must not end the output unseen.
    for unbuffered in (False, True):
        proc = cli_process("table", "--to", "120", "--format", "json",
                           unbuffered=unbuffered, stdout=subprocess.PIPE)
        assert proc.stdout.read(1) == "{"
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (1, "k3lat: [Errno 32] Broken pipe\n"), unbuffered


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/full and /proc/self/fd")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_failed_writes_in_process_leave_stdout_and_descriptors_as_they_were(unbuffered):
    # main(argv) only writes: what a failed write leaves in the buffer fails
    # each later call too, and fd 1 still names the file it named, with no
    # descriptor opened. The child ends with os._exit, past the flush at exit.
    script = ("import contextlib, io, os, sys; from k3lat.cli import main\n"
              "fds = len(os.listdir('/proc/self/fd'))\n"
              "with contextlib.redirect_stderr(io.StringIO()):\n"
              "    codes = [main(['e8', 'orbits', '--norm', '8']) for _ in range(3)]\n"
              "print(codes, os.readlink('/proc/self/fd/1'), "
              "len(os.listdir('/proc/self/fd')) - fds, file=sys.stderr, flush=True)\n"
              "os._exit(0)\n")
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", script], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "[1, 1, 1] /dev/full 0\n")


def test_a_relative_gram_path_is_read_from_the_working_directory(capsys, monkeypatch,
                                                                  tmp_path):
    # open() resolves the path; an error names it as the user gave it.
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "g.gram").write_text("1\n2\n")
    (tmp_path / "sub" / "extra.gram").write_text("1\n2\n3 4\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "lat", "info", "gram:sub/g.gram")
    assert (code, err) == (0, "") and "determinant: 2\n" in out
    assert run(capsys, "lat", "info", "gram:sub/extra.gram") == (
        1, "", "k3lat: sub/extra.gram: expected 1 matrix rows, found 2\n")
    assert run(capsys, "lat", "info", "gram:sub/none.gram") == (
        1, "", "k3lat: [Errno 2] No such file or directory: 'sub/none.gram'\n")


def test_main_in_process_leaves_the_collector_as_it_found_it(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    for argv in (["e8", "orbits", "--norm", "8"], ["lat", "info", "E9"], ["--help"]):
        run(capsys, *argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == before, argv


@pytest.mark.parametrize("argv, code, err", [
    (["e8", "orbits", "--norm", "8"], 0, ""),
    (["lat", "info", "E9"], 1, "k3lat: parse error: "),
    (["lat", "info", "(0)"], 2, "k3lat: domain error: "),
])
def test_the_process_entry_freezes_the_heap_and_still_exits_cleanly(argv, code, err, capsys):
    # As the console script runs it: an atexit handler registered before
    # main still runs, after main has frozen the heap; exit code and output
    # are those of main in process.
    entry = ("import atexit, gc, sys; from k3lat.cli import main; "
             "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, "
             "gc.isenabled(), file=sys.stderr)); sys.exit(main())")
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", entry, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    expected = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        *expected[:2], expected[2] + "frozen: True True\n")
    assert expected[0] == code and expected[2].startswith(err)


def test_the_process_entry_writes_the_bytes_of_main_in_process(capsys):
    argv = ["table", "--to", "40", "--format", "json"]
    _, expected, _ = run(capsys, *argv)
    with tempfile.TemporaryFile() as out:
        proc = cli_process(*argv, stdout=out)
        assert proc.communicate(timeout=60) == (None, "") and proc.returncode == 0
        out.seek(0)
        assert out.read() == expected.encode()


def test_gram_and_witness_files_take_only_ascii_integers(capsys, tmp_path):
    # Each of these was read, or misreported, by int() on whitespace tokens:
    # a second token on the rank line was ignored, another script's digit
    # was read as its value, a byte-order mark was reported as a missing
    # rank and an entry beyond the digit limit as a non-integer.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    cases = [("1 1\n8\n", "4 0", "first line must be the rank alone"),
             ("1\n\u0662\n", "4 0", "matrix row 1: '\u0662' is not an integer"),
             ("\ufeff1\n8\n", "4 0", "rank line: '\\ufeff1' is not an integer"),
             ("1\n8\n", "4 \u0662", "bordering row: '\u0662' is not an integer"),
             ("1\n+8\n", "4 1_0", "bordering row: '1_0' is not an integer")]
    if limit:
        cases += [("1\n" + "1" * (limit + 1) + "\n", "4 0",
                   f"matrix row 1: an entry has more than {limit} digits"),
                  ("1\n8\n", "4 " + "1" * (limit + 1),
                   f"bordering row: an entry has more than {limit} digits")]
    path = tmp_path / "g.gram"
    for gram, border, message in cases:
        path.write_text(gram + border + "\n", encoding="utf-8")
        code, out, err = run(capsys, "sbad", "witness", "--gram", str(path))
        assert (code, out, err) == (1, "", f"k3lat: {path}: {message}\n"), gram
        if "bordering" not in message:
            path.write_text(gram, encoding="utf-8")
            code, out, err = run(capsys, "lat", "info", f"gram:{path}")
            assert (code, out, err) == (1, "", f"k3lat: {path}: {message}\n"), gram
    path.write_text("1\n+8\n", encoding="utf-8")  # an ASCII sign is an integer
    code, out, _ = run(capsys, "lat", "info", f"gram:{path}")
    assert code == 0 and out.startswith("rank: 1\n") and "determinant: 8\n" in out


def test_argument_errors_exit_1_and_library_errors_propagate(capsys, monkeypatch):
    for argv in (("e8", "orbits", "--norm", "7"),
                 ("weight", "--norm", "-2"),
                 ("table", "--from", "4", "--to", "2"),
                 ("divisors", "--norm", "8", "--orbit", "5"),
                 ("sbad", "polarized", "--n", "0", "--dnorm", "0", "--k", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("k3lat: "), argv

    def broken(two_n):
        raise ValueError("internal failure")

    # The command imports orbits_of_norm from k3lat.e8 when it runs.
    monkeypatch.setattr(k3lat.e8, "orbits_of_norm", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["e8", "orbits", "--norm", "2"])


def test_internal_norms_flag(capsys):
    code, out, _ = run(capsys, "e8", "orbits", "--norm", "2",
                       "--internal-norms")
    assert code == 0
    assert "norm 2" in out and "-2" not in out
    # the divisor classes are listed with the window of their own convention
    code, out, _ = run(capsys, "divisors", "--norm", "4", "--internal-norms")
    assert code == 0 and "norm 7/4" in out and "norm 1 " in out
    assert "  divisor classes with norm strictly between 0 and 2:\n" in out and "-2" not in out
    code, out, _ = run(capsys, "divisors", "--norm", "4")
    assert code == 0 and "norm -7/4" in out and "norm -1 " in out
    assert "  divisor classes with norm strictly between -2 and 0:\n" in out
