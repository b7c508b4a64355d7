import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import k3lat
from k3lat.cli import main

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


def test_cli_import_starts_without_the_process_pool():
    src = str(Path(k3lat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["K3LAT_THREADS"] = "2"  # ignored: table computes its rows in this process
    # Neither the process pool nor dataclasses (with the inspect, ast, dis
    # and tokenize modules it pulls in) is loaded at start-up.
    heavy = ("concurrent", "multiprocessing", "dataclasses", "inspect", "ast", "dis",
             "tokenize")
    code = ("import sys, k3lat.cli; "
            "k3lat.cli.main(['table', '--to', '8', '--format', 'csv']); "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {heavy}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    *table, modules = done.stdout.splitlines()
    assert table[1] == "2,126,1,56" and len(table) == 6
    assert modules == "[]"


def test_e8_orbits_builds_no_complement(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("e8 orbits must not build a complement")

    monkeypatch.setattr(k3lat.lattice, "orthogonal_complement", refuse)
    monkeypatch.setattr(k3lat.e8, "orthogonal_complement", refuse)
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
        {"two_n": 8, "roots": 126, "primitive": False, "weight": 75},
        {"two_n": 8, "roots": 56, "primitive": True, "weight": 40}]}, indent=2) + "\n"


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

    monkeypatch.setattr(k3lat.cli, "orbits_of_norm", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["e8", "orbits", "--norm", "2"])


def test_internal_norms_flag(capsys):
    code, out, _ = run(capsys, "e8", "orbits", "--norm", "2",
                       "--internal-norms")
    assert code == 0
    assert "norm 2" in out and "-2" not in out
