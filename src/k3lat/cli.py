"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (wrong
signature, degenerate input, ...). All reported norms use the negative
(geometric) sign convention unless --internal-norms is given. `_rational`
renders each rational, in text and JSON: an int, or "p/q" in lowest terms.

Each command computes its values once and returns its schema-1 payload
with a function that renders its text form as a list of lines; `main`
renders the whole output before it writes anything. This module holds
what every command runs: the grammar table, `main` and the shared
helpers. `main` reads a well-formed command line from the table itself;
argparse is loaded, and its parser built from the same table, only for
help and usage errors. A command's body is in a module of its own
(`cli_lat`, `cli_e8`, ...) that its `cmd_*` entry imports when it runs,
as the body imports the library modules it runs, so a command compiles
no other command's code. The `cmd_*` entries stay here as the stable
names for tracing and tests. As the process entry, `main()` freezes the
heap before it returns, so the collections at exit do not traverse it;
`main(argv)` leaves the caller's collector alone.
"""

from __future__ import annotations

import gc
import os
import sys
from math import gcd

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
    layer drops the count of a partial write. After an error the file writes
    to devnull, where Python's flush at exit finds nothing left to fail on.
    Help and usage are written here too: argparse ignores a failed write."""
    binary = getattr(file, "buffer", None)
    try:
        file.flush()
        if binary is None:  # an in-memory text file takes the text whole
            file.write(text)
            return
        data = memoryview(text.encode(file.encoding, file.errors))
        while data:
            data = data[binary.write(data):]
        binary.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), file.fileno())
        raise


def _lattice_from_arg(text: str):
    from .specparse import lattice_from_text

    return lattice_from_text(text, base_dir=os.getcwd())


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


class _Args:
    """A command's arguments as attributes, as in argparse's Namespace."""

    def __init__(self, values):
        self.__dict__.update(values)


def _read(argv):
    """The arguments of a well-formed command line, as argparse reads them:
    a command path, each option of the command at most once with a value
    not led by "-", every required option and each positional. Anything
    else (help, "--", --opt=value, an abbreviation, a repeat, a bad value,
    a missing or extra argument) gives None, and argparse reads argv."""
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
        if not word.startswith("-"):
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
        if word.startswith("-") or "choices" in kw and values[dest] not in kw["choices"]:
            return None
    if len(found) != len(positionals) or any(
            kw.get("required") and name not in seen for name, (_, kw) in options.items()):
        return None
    return _Args({**values, **dict(zip(positionals, found))})


def build_parser(argv=None):
    """The argparse parser of `_GRAMMAR` for `argv` (default: the process
    arguments), which `main` builds only for what `_read` refuses.

    Only the command that argv names gets its arguments and subcommands;
    the others are bare entries, enough for the command list in `--help`
    and for the choices in an invalid-choice error.
    """
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
            keywords = {"help": summary} if summary else {}
            if child[0] != named:
                sub.add_parser(child[0], add_help=False, **keywords)
                continue
            command = sub.add_parser(child[-1], **keywords)
            for name, kw in arguments:
                command.add_argument(name, **kw)
            if func:
                command.set_defaults(func=globals()[func])
            else:
                add_commands(command, child, "subcommand")

    if argv is None:
        argv = sys.argv[1:]
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = Parser(prog="k3lat", description="Exact arithmetic for even integral lattices")
    add_commands(parser, (), "command")
    return parser


def main(argv=None) -> int:
    if argv is None:
        code = main(sys.argv[1:])
        gc.freeze()
        return code
    args = _read(argv)
    if args is None:
        parser = build_parser(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        except OSError as exc:  # help or usage that could not be written
            print(f"k3lat: {exc}", file=sys.stderr)
            return 1
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
    try:
        payload, text = args.func(args)
    except SpecSyntaxError as exc:
        print(f"k3lat: parse error: {exc}", file=sys.stderr)
        return 1
    except LatticeError as exc:
        print(f"k3lat: domain error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, GramFileError, OSError) as exc:
        print(f"k3lat: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "json", False) or getattr(args, "format", None) == "json":
            from .jsonout import dumps

            lines = [dumps({"schema": SCHEMA_VERSION, **payload})]
        else:
            lines = text()
        output = "\n".join(lines) + "\n"
    except ValueError:
        # Rendering only formats computed values, so this is Python's
        # int-to-str digit limit; nothing has been written yet.
        print(f"k3lat: {_too_many_digits()}", file=sys.stderr)
        return 1
    try:
        _write(output, sys.stdout)
    except OSError as exc:
        print(f"k3lat: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # Under `python -m`, the command modules' `from .cli import ...` finds this module.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
