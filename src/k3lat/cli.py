"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (wrong
signature, degenerate input, ...). All reported norms use the negative
(geometric) sign convention unless --internal-norms is given. `_rational`
renders each rational, in text and JSON: an int, or "p/q" in lowest terms.

Each command computes its values once and returns its schema-1 payload
with a function that renders its text form as a list of lines; `main`
renders the whole output before it writes anything. This module holds the
grammar table, `main` and the shared helpers. `main` reads a well-formed
command line from the table itself; argparse is loaded, and its parser
built from the table, only for help, usage errors and forms only it reads
(--norm=8, a spec led by "-" with no space). Each command's body is in a
module of its own (`cli_lat`, `cli_e8`, ...) that its `cmd_*` entry, the
stable name for tracing and tests, imports when it runs, as the body
imports the library modules it runs. `main` reports each error that
`_FAILURES` names, with its prefix and exit code, through `_fail`, whose
code stands when stderr cannot be written; any other exception is a fault
of the library and propagates. As the process entry, `main()` points
stdout or stderr at devnull after a failed write, so the flush at exit
cannot fail again, and freezes the heap, so the collections at exit do not
traverse it; `main(argv)` leaves the caller's files and collector alone.
"""

from __future__ import annotations

import gc
import os
import sys
from math import gcd
from types import SimpleNamespace

from .errors import GramFileError, LatticeError, SpecSyntaxError, UsageError

SCHEMA_VERSION = 1


def _signed(norm, internal: bool):
    """Internal norms are positive; reports default to the negative convention."""
    return norm if internal else -norm


def _too_many_digits() -> UsageError:
    """The error of a result past Python's int-to-str digit limit."""
    return UsageError(f"result has more than {sys.get_int_max_str_digits()} decimal digits")


def _rational(num: int, den: int):
    """The exact rational num/den, for den > 0: an int, or a "p/q" string in
    lowest terms. A "p/q" past the digit limit is the error of `main`."""
    g = gcd(num, den)
    try:
        return num // g if g == den else f"{num // g}/{den // g}"
    except ValueError:
        raise _too_many_digits() from None


def _write(text: str, file) -> None:
    """Write text whole to a text file and flush it, or raise OSError. The
    bytes go to the binary layer until all are written: unbuffered, the text
    layer drops the count of a partial write. Help and usage are written
    here too: argparse ignores a failed write."""
    file.flush()
    binary = getattr(file, "buffer", None)
    if binary is None:  # an in-memory text file takes the text whole
        file.write(text)
        return
    data = memoryview(text.encode(file.encoding, file.errors))
    while data:
        data = data[binary.write(data):]
    binary.flush()


def _require_positive_even(two_n: int) -> int:
    if two_n <= 0 or two_n % 2:
        raise UsageError("--norm takes the positive even value 2n")
    return two_n


def _selected_orbits(args):
    two_n = _require_positive_even(args.norm)
    from .e8 import orbits_of_norm
    orbits = orbits_of_norm(two_n)
    if args.orbit is not None:
        if not 0 <= args.orbit < len(orbits):
            raise UsageError(f"orbit index out of range (0..{len(orbits) - 1})")
        orbits = [orbits[args.orbit]]
    return orbits


# ---------------------------------------------------------------- commands


def cmd_lat_info(args):
    from .cli_lat import lat_info
    return lat_info(args)


def cmd_e8_orbits(args):
    from .cli_e8 import e8_orbits
    return e8_orbits(args)


def cmd_table(args):
    from .cli_table import table
    return table(args)


def cmd_divisors(args):
    from .cli_divisors import divisors
    return divisors(args)


def cmd_weight(args):
    from .cli_weight import weight
    return weight(args)


def cmd_embed_check(args):
    from .cli_embed import embed_check
    return embed_check(args)


def cmd_sbad_witness(args):
    from .cli_sbad import sbad_witness
    return sbad_witness(args)


def cmd_sbad_polarized(args):
    from .cli_sbad import sbad_polarized
    return sbad_polarized(args)


def cmd_minus2(args):
    from .cli_minus2 import minus2
    return minus2(args)


# ------------------------------------------------------------------ parser

_FLAG = {"action": "store_true", "default": False}
_NORM = ("--norm", {"type": int, "required": True, "metavar": "2N"})
_ORBIT = ("--orbit", {"type": int, "metavar": "I"})

# For each command path, in the order of `--help`: its help, the name of
# its `cmd_*` entry (None where subcommands follow), and its arguments,
# each a positional name or an option string with argparse's keywords.
_GRAMMAR = {
    ("lat",): ("lattice inspection", None, ()),
    ("lat", "info"): ("rank, signature, determinant, ...", "cmd_lat_info", (
        ("spec", {"help": "lattice-spec expression, e.g. '(-2) + -E8'"}), ("--json", _FLAG))),
    ("e8",): ("E8 orbit analysis", None, ()),
    ("e8", "orbits"): ("orbits of vectors of a given norm", "cmd_e8_orbits", (
        _NORM, ("--json", _FLAG), ("--internal-norms", _FLAG))),
    ("table",): ("coset count table rows", "cmd_table", (
        ("--from", {"dest": "start", "type": int, "default": 2, "metavar": "2N"}),
        ("--to", {"dest": "stop", "type": int, "default": 14, "metavar": "2N"}),
        ("--format", {"choices": ("md", "csv", "json"), "default": "md"}),
        ("--internal-norms", _FLAG))),
    ("divisors",): ("divisor classes and multiplicities", "cmd_divisors", (
        _NORM, _ORBIT, ("--json", _FLAG), ("--internal-norms", _FLAG))),
    ("weight",): ("restricted form weight per orbit", "cmd_weight", (
        _NORM, _ORBIT, ("--json", _FLAG))),
    ("embed",): ("embedding feasibility", None, ()),
    ("embed", "check"): ("primitive embedding test", "cmd_embed_check", (
        ("spec", {}), ("--json", _FLAG))),
    ("sbad",): ("Picard-lattice extension tests", None, ()),
    ("sbad", "witness"): ("check a bordered witness file", "cmd_sbad_witness", (
        ("--gram", {"required": True, "metavar": "FILE"}), ("--json", _FLAG))),
    ("sbad", "polarized"): ("degree-k class test", "cmd_sbad_polarized", (
        ("--n", {"type": int, "required": True}), ("--dnorm", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}), ("--json", _FLAG))),
    ("minus2",): ("short-dual-vector property", None, ()),
    ("minus2", "property"): (None, "cmd_minus2", (("spec", {}), ("--json", _FLAG))),
}


def _plain(word: str) -> bool:
    """Whether argparse (`_parse_optional`, 3.10 to 3.13) reads word as an argument,
    not an option: not led by "-", or led by one "-" with a space, no "=" and no "-h"."""
    return not word.startswith("-") or (
        " " in word and "=" not in word and not word.startswith(("--", "-h")))


def _read(argv):
    """The arguments of a well-formed command line, as argparse reads them:
    a command path, each option of the command at most once with a plain
    value, every required option and each positional. Anything else (help,
    "--", --opt=value, an abbreviation, a repeat, a bad value, a missing or
    extra argument) gives None, and argparse reads argv."""
    path = tuple(argv[:1])
    if path in _GRAMMAR and not _GRAMMAR[path][1]:
        path = tuple(argv[:2])
    if path not in _GRAMMAR or not _GRAMMAR[path][1]:
        return None
    _, func, arguments = _GRAMMAR[path]
    options = {name: (kw.get("dest", name[2:].replace("-", "_")), kw)
               for name, kw in arguments if name.startswith("-")}
    positionals = [name for name, _ in arguments if not name.startswith("-")]
    values = dict(zip(("command", "subcommand"), path), func=globals()[func])
    values.update((dest, kw.get("default")) for dest, kw in options.values())
    found, seen, words = [], set(), iter(argv[len(path):])
    for word in words:
        if _plain(word):
            found.append(word)
            continue
        if word not in options or word in seen:
            return None
        seen.add(word)
        dest, kw = options[word]
        if kw.get("action"):
            values[dest] = True
            continue
        word = next(words, "-")  # a missing value is refused as one led by "-"
        try:
            values[dest] = kw.get("type", str)(word)
        except ValueError:
            return None
        if not _plain(word) or "choices" in kw and values[dest] not in kw["choices"]:
            return None
    if len(found) != len(positionals) or any(
            kw.get("required") and name not in seen for name, (_, kw) in options.items()):
        return None
    return SimpleNamespace(**values, **dict(zip(positionals, found)))


def build_parser():
    """The argparse parser of `_GRAMMAR`, built only for what `_read` refuses."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; the contract here is exit 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            _write(f"{self.prog}: error: {message}\n", sys.stderr)
            raise SystemExit(1)

        def _print_message(self, message, file=None):
            _write(message, file or sys.stderr)

    def add_commands(parser, path, dest):
        sub = parser.add_subparsers(dest=dest, metavar=dest)
        for child, (summary, func, arguments) in _GRAMMAR.items():
            if child[:-1] != path:
                continue
            command = sub.add_parser(child[-1], **({"help": summary} if summary else {}))
            for name, kw in arguments:
                command.add_argument(name, **kw)
            if func:
                command.set_defaults(func=globals()[func])
            else:
                add_commands(command, child, "subcommand")

    parser = Parser(prog="k3lat", description="Exact arithmetic for even integral lattices")
    add_commands(parser, (), "command")
    return parser


_FAILURES = {SpecSyntaxError: ("parse error: ", 1), LatticeError: ("domain error: ", 2),
             UsageError: ("", 1), GramFileError: ("", 1), OSError: ("", 1)}


def _fail(message: str, code: int) -> int:
    """Write "k3lat: message" to stderr and return code, even if the write fails."""
    try:
        _write(f"k3lat: {message}\n", sys.stderr)
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    if argv is None:
        code = main(sys.argv[1:])
        for file in sys.stdout, sys.stderr:
            try:  # what a failed write left in the buffer would fail again at exit
                file.flush()
            except OSError:
                os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), file.fileno())
                os.close(devnull)
        gc.freeze()
        return code
    try:
        args = _read(argv)
        if args is None:
            parser = build_parser()
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # help, or a usage error that argparse reported
                return int(exc.code or 0)
            if not hasattr(args, "func"):
                parser.print_usage(sys.stderr)
                return 1
        payload, text = args.func(args)
        try:  # rendering only formats computed values: this is the digit limit
            if getattr(args, "json", False) or getattr(args, "format", None) == "json":
                from .jsonout import dumps
                lines = [dumps({"schema": SCHEMA_VERSION, **payload})]
            else:
                lines = text()
            output = "\n".join(lines) + "\n"
        except ValueError:
            raise _too_many_digits() from None
        _write(output, sys.stdout)
    except tuple(_FAILURES) as exc:
        prefix, code = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        return _fail(prefix + str(exc), code)
    return 0


if __name__ == "__main__":
    # Under `python -m`, the command modules' `from .cli import ...` finds this module.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
