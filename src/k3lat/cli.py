"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (wrong
signature, degenerate input, ...). All reported norms use the negative
(geometric) sign convention unless --internal-norms is given. `_rational`
renders each rational, in text and JSON: an int, or "p/q" in lowest terms.

Each command computes its values once and returns its schema-1 payload
with a function that renders its text form as a list of lines; `main`
renders the whole output before it writes anything. This module holds
what every command runs: the parser, `main` and the shared helpers. A
command's body is in a module of its own (`cli_lat`, `cli_e8`, ...) that
its `cmd_*` entry imports when it runs, as the body imports the library
modules it runs, so a command compiles no other command's code. The
`cmd_*` entries stay here as the stable names for tracing and tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd

from .errors import GramFileError, LatticeError, SpecSyntaxError, UsageError

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


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


def _lat(parser):
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    info = sub.add_parser("info", help="rank, signature, determinant, ...")
    info.add_argument("spec", help="lattice-spec expression, e.g. '(-2) + -E8'")
    info.add_argument("--json", action="store_true")
    info.set_defaults(func=cmd_lat_info)


def _e8(parser):
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    orbs = sub.add_parser("orbits", help="orbits of vectors of a given norm")
    orbs.add_argument("--norm", type=int, required=True, metavar="2N")
    orbs.add_argument("--json", action="store_true")
    orbs.add_argument("--internal-norms", action="store_true")
    orbs.set_defaults(func=cmd_e8_orbits)


def _table(parser):
    parser.add_argument("--from", dest="start", type=int, default=2, metavar="2N")
    parser.add_argument("--to", dest="stop", type=int, default=14, metavar="2N")
    parser.add_argument("--format", choices=("md", "csv", "json"), default="md")
    parser.add_argument("--internal-norms", action="store_true")
    parser.set_defaults(func=cmd_table)


def _divisors(parser):
    parser.add_argument("--norm", type=int, required=True, metavar="2N")
    parser.add_argument("--orbit", type=int, default=None, metavar="I")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--internal-norms", action="store_true")
    parser.set_defaults(func=cmd_divisors)


def _weight(parser):
    parser.add_argument("--norm", type=int, required=True, metavar="2N")
    parser.add_argument("--orbit", type=int, default=None, metavar="I")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=cmd_weight)


def _embed(parser):
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    check = sub.add_parser("check", help="primitive embedding test")
    check.add_argument("spec")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_embed_check)


def _sbad(parser):
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    wit = sub.add_parser("witness", help="check a bordered witness file")
    wit.add_argument("--gram", required=True, metavar="FILE")
    wit.add_argument("--json", action="store_true")
    wit.set_defaults(func=cmd_sbad_witness)
    pol = sub.add_parser("polarized", help="degree-k class test")
    pol.add_argument("--n", type=int, required=True)
    pol.add_argument("--dnorm", type=int, required=True)
    pol.add_argument("--k", type=int, required=True)
    pol.add_argument("--json", action="store_true")
    pol.set_defaults(func=cmd_sbad_polarized)


def _minus2(parser):
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    prop = sub.add_parser("property")
    prop.add_argument("spec")
    prop.add_argument("--json", action="store_true")
    prop.set_defaults(func=cmd_minus2)


# (name, help, function that adds the command's arguments and subcommands)
_COMMANDS = (
    ("lat", "lattice inspection", _lat),
    ("e8", "E8 orbit analysis", _e8),
    ("table", "coset count table rows", _table),
    ("divisors", "divisor classes and multiplicities", _divisors),
    ("weight", "restricted form weight per orbit", _weight),
    ("embed", "embedding feasibility", _embed),
    ("sbad", "Picard-lattice extension tests", _sbad),
    ("minus2", "short-dual-vector property", _minus2),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv` (default: the process arguments).

    Only the command that argv names gets its arguments and subcommands;
    the others are bare entries, enough for the command list in `--help`
    and for the choices in an invalid-choice error.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _Parser(prog="k3lat",
                     description="Exact arithmetic for even integral lattices")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, summary, populate in _COMMANDS:
        if name == named:
            populate(sub.add_parser(name, help=summary))
        else:
            sub.add_parser(name, help=summary, add_help=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    # Under `python -m`, the command modules' `from .cli import ...` finds this module.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
