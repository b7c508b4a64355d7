"""`k3lat.jsonout.dumps` against its reference, `json.dumps(obj, indent=2)`,
byte for byte: on seeded random payloads of the types that CLI payloads
hold, and on the payload of every JSON case of the pinned CLI corpus."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3lat import jsonout
from k3lat.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_outputs.json"
# Python's int-to-str digit limit, or its default where there is none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
ALPHABET = ("abcXYZ019 -+/:,.{}[]~"  # printable ASCII, written as it is
            '"\\'  # escaped by a backslash
            "\x00\t\n\r\x1f\x7f"  # control characters
            "\u00fc\u0662\u00b2\ufeff\u00a0\U0001f600\ud800")  # non-ASCII text


def reference(obj) -> str:
    return json.dumps(obj, indent=2)


def random_string(rng) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_leaf(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:  # an int of exactly LIMIT digits, the longest that prints
        return rng.choice((1, -1)) * rng.randrange(10 ** (LIMIT - 1), 10 ** LIMIT)
    if kind == 2:  # a rational as the commands render it
        return f"{rng.randint(-50, 50)}/{rng.randint(2, 12)}"
    if kind in (3, 4):
        return rng.randint(-10 ** 6, 10 ** 6)
    return random_string(rng)


def random_payload(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    size = rng.randrange(5)  # empty containers included
    kind = rng.randrange(3)
    if kind == 0:
        return {random_string(rng): random_payload(rng, depth - 1) for _ in range(size)}
    items = [random_payload(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def test_random_payloads_match_json_dumps():
    rng = random.Random(20261019)
    for _ in range(400):
        payload = random_payload(rng, 4)
        assert jsonout.dumps(payload) == reference(payload), payload


def test_strings_keys_and_leaves_match_json_dumps():
    strings = ["", "plain", 'say "hi"', "back\\slash", "tab\there", "\x00\x1f\x7f", "~",
               "\u00fc", "\u0662", "\ufeff2", "\U0001f600", "\ud800", *ALPHABET]
    for s in strings:
        assert jsonout.dumps(s) == json.dumps(s), s
        assert jsonout.dumps({s: [s]}) == reference({s: [s]}), s
    for leaf in (0, -1, 10 ** 30, True, False, None, 2, "-3/2",
                 [], {}, (), [[]], {"": {}}):
        assert jsonout.dumps(leaf) == reference(leaf), leaf
        assert jsonout.dumps({"a": leaf, "b": [leaf, (leaf,)]}) == reference(
            {"a": leaf, "b": [leaf, (leaf,)]}), leaf


def test_an_int_beyond_the_digit_limit_raises_value_error():
    # the ValueError that the CLI turns into exit 1 with nothing written
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this Python has no int-to-str digit limit")
    big = {"rows": [10 ** LIMIT]}  # one digit over the limit
    with pytest.raises(ValueError):
        reference(big)
    with pytest.raises(ValueError):
        jsonout.dumps(big)


def test_a_value_of_another_type_is_a_type_error():
    # The library is exact and builds no floats, and the commands render
    # each rational themselves; a value the writer does not know, a Fraction
    # among them, is a fault, not output.
    for bad in (1.5, Fraction(1, 2), Fraction(2), object(), {"a": {1, 2}}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            jsonout.dumps(bad)


def test_every_json_case_of_the_corpus_matches_json_dumps(capsys, monkeypatch, tmp_path):
    # The payloads themselves, with their tuples, as the commands hand them
    # to the writer.
    golden = json.loads(CORPUS.read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    payloads = []
    write = jsonout.dumps

    def recording(obj):
        payloads.append(obj)
        return write(obj)

    monkeypatch.setattr(jsonout, "dumps", recording)
    cases = [c for c in golden["cases"] if "--json" in c["argv"] or "json" in c["argv"]]
    rendered = 0
    for case in cases:
        payloads.clear()
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["code"], case["stdout"]), case["argv"][:4]
        if not payloads:
            continue  # an error before any output
        (payload,) = payloads
        if code == 0:
            assert out == reference(payload) + "\n", case["argv"][:4]
            rendered += 1
        else:
            with pytest.raises(ValueError):  # past the digit limit
                reference(payload)
    assert (len(cases), rendered) == (19, 15)
