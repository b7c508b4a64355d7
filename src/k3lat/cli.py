"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (wrong
signature, degenerate input, ...). All reported norms use the negative
(geometric) sign convention unless --internal-norms is given; rationals in
JSON are exact, encoded as "p/q" strings when not integral.

Each command computes its values once and returns its schema-1 payload
with a function that renders its text form as a list of lines; `main`
renders the whole output before it writes anything. A command checks
its arguments, then imports the library modules it runs inside its own
function, so each command compiles only those; `build_parser` gives only
the command named on the command line its arguments and subcommands.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import GramFileError, LatticeError, SpecSyntaxError, UsageError

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_value(x):
    """JSON form of what json cannot encode itself: exact rationals."""
    from fractions import Fraction

    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def _signed(norm, internal: bool):
    """Internal norms are positive; reports default to the negative convention."""
    return norm if internal else -norm


def _lattice_from_arg(text: str):
    from .specparse import lattice_from_text

    return lattice_from_text(text, base_dir=os.getcwd())


def _even_norms(start: int, stop: int) -> list[int]:
    if start < 2 or stop < start:
        raise UsageError("need 2 <= from <= to")
    return [t for t in range(start, stop + 1) if t % 2 == 0]


def _rows_for_norm(two_n: int):
    from .e8 import orbits_of_norm
    from .glue import coset_count_row

    return [coset_count_row(orbit) for orbit in orbits_of_norm(two_n)]


def _collect_rows(start: int, stop: int):
    from .parallel import parallel_map

    per_norm = parallel_map(_rows_for_norm, _even_norms(start, stop))
    return [row for rows in per_norm for row in rows]


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
    from . import lattice as lt
    from .shortvec import root_count

    lattice = _lattice_from_arg(args.spec)
    sig = lt.signature(lattice)
    p = {"spec": args.spec.strip(), "rank": lattice.rank, "signature": list(sig),
         "determinant": lt.determinant(lattice), "even": lattice.even,
         "discriminant_divisors": list(lt.discriminant_group(lattice).divisors)}
    if 0 in sig and lattice.rank:
        p["root_count"] = root_count(lattice)

    def text():
        lines = [f"rank: {p['rank']}",
                 f"signature: ({sig[0]}, {sig[1]})",
                 f"determinant: {p['determinant']}",
                 f"even: {'yes' if p['even'] else 'no'}",
                 f"discriminant group divisors: {p['discriminant_divisors'] or 'trivial'}"]
        if "root_count" in p:
            lines.append(f"root count: {p['root_count']}")
        return lines
    return p, text


def cmd_e8_orbits(args):
    two_n = _require_positive_even(args.norm)
    from .e8 import orbits_of_norm

    p = {"norm": two_n if args.internal_norms else -two_n, "orbits": [
        {"index": i, "representative": list(o.representative),
         "primitive": o.primitive, "orbit_size": o.orbit_size,
         "complement_determinant": o.complement_determinant,
         "complement_roots": o.root_count_u}
        for i, o in enumerate(orbits_of_norm(two_n))]}

    def text():
        host = "E8" if args.internal_norms else "-E8"
        lines = [f"orbits of norm {p['norm']} vectors in {host}: {len(p['orbits'])}"]
        for o in p["orbits"]:
            tag = "primitive" if o["primitive"] else "imprimitive"
            lines.append(f"orbit {o['index']}: representative {tuple(o['representative'])}, "
                         f"{tag}, orbit size {o['orbit_size']}, complement det "
                         f"{o['complement_determinant']}, complement roots "
                         f"{o['complement_roots']}")
        return lines
    return p, text


def _column_count(rows) -> int:
    """Label columns k = 0..n of the widest row, and never fewer than 8."""
    return max([8] + [len(row["totals"]) for row in rows])


def _table_markdown(rows) -> list[str]:
    ncols = _column_count(rows)
    header = ["2n", "roots"] + [f"k={k}" for k in range(ncols)]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---:|" * len(header)]
    for row in rows:
        label = f"{row['two_n']}{'' if row['primitive'] else '*'}"
        cells = [label, row["roots"], *row["totals"]] + [""] * (ncols - len(row["totals"]))
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    if not all(row["primitive"] for row in rows):
        lines += ["", "\\* imprimitive vector orbit: no primitive rank-1 "
                      "sublattice corresponds to this row."]
    return lines


def _table_csv(rows) -> list[str]:
    header = "2n,roots," + ",".join(f"k={k}" for k in range(_column_count(rows)))
    return [header] + [",".join(map(str, [row["two_n"], row["roots"], *row["totals"]]))
                       for row in rows]


def cmd_table(args):
    p = {"rows": [
        {"two_n": row.two_n, "roots": row.root_count,
         "primitive": row.orbit.primitive,
         "representative": list(row.orbit.representative),
         "orbit_size": row.orbit.orbit_size,
         "totals": [row.column_totals[k] for k in range(row.two_n // 2 + 1)],
         "cells": [{"k": k, "norm": _signed(nu, args.internal_norms),
                    "count": row.counts[k][nu]}
                   for k in sorted(row.counts) for nu in sorted(row.counts[k])]}
        for row in _collect_rows(args.start, args.stop)]}
    render = _table_markdown if args.format == "md" else _table_csv
    return p, lambda: render(p["rows"])


def _line_reports(row, classes):
    """Multiplicity reports: the norm -2 lattice line plus one line per class."""
    from .glue import hyperplane_multiplicity

    return [hyperplane_multiplicity(row, 0, -2)] + [
        hyperplane_multiplicity(row, c.k, -c.norm - 2) for c in classes]


def cmd_divisors(args):
    orbits = _selected_orbits(args)
    from .glue import coset_count_row, divisor_classes

    rows = [(row, divisor_classes(row)) for row in map(coset_count_row, orbits)]

    def norm(value):
        return _signed(-value, args.internal_norms)

    p = {"rows": [
        {"two_n": row.two_n, "roots": row.root_count,
         "primitive": row.orbit.primitive,
         "representative": list(row.orbit.representative),
         "classes": [{"k": c.k, "norm": norm(c.norm), "count": c.count,
                      "vanishing": c.vanishing}
                     for c in classes],
         "lines": [{"k0": rep.k0, "nu0": norm(rep.nu0),
                    "multiplicity": rep.total_multiplicity,
                    "contributions": [{"scale": c.scale, "norm": norm(c.norm),
                                       "label": c.label, "count": c.count}
                                      for c in rep.contributions]}
                   for rep in _line_reports(row, classes)]}
        for row, classes in rows]}

    def text():
        lines = []
        for o, row in zip(orbits, p["rows"]):
            tag = "" if row["primitive"] else " (imprimitive vector orbit)"
            lines.append(f"2n = {row['two_n']}, representative {o.representative}{tag}")
            lines.append("  divisor classes with norm strictly between -2 and 0:")
            lines += [f"    k={c['k']}  norm {c['norm']}  count {c['count']}  "
                      f"{'vanishing' if c['vanishing'] else 'NOT vanishing'}"
                      for c in row["classes"]] or ["    none"]
            lines.append("  hyperplane multiplicity by primitive line:")
            for line in row["lines"]:
                detail = "; ".join(f"scale {c['scale']}: label {c['label']}, norm "
                                   f"{c['norm']}, count {c['count']}"
                                   for c in line["contributions"])
                lines.append(f"    k0={line['k0']}  norm {line['nu0']}  multiplicity "
                             f"{line['multiplicity']}  ({detail})")
        return lines
    return p, text


def cmd_weight(args):
    orbits = _selected_orbits(args)
    p = {"rows": [{"two_n": o.two_n, "roots": o.root_count_u, "primitive": o.primitive,
                   "representative": list(o.representative),
                   "weight": 12 + o.root_count_u // 2}
                  for o in orbits]}
    return p, lambda: [f"2n = {row['two_n']}, representative {o.representative}: "
                       f"restricted form weight {row['weight']} (= 12 + {row['roots']}/2)"
                       for o, row in zip(orbits, p["rows"])]


def cmd_embed_check(args):
    from .glue import nikulin_embeddable

    report = nikulin_embeddable(_lattice_from_arg(args.spec))
    p = {"spec": args.spec.strip(), "embeddable": report.embeddable,
         "rank": report.rank, "min_generators": report.min_generators,
         "signature": list(report.signature), "target_dim": report.target_dim}
    total = report.rank + report.min_generators
    rel = "<" if total < report.target_dim else ">="
    return p, lambda: [f"signature: ({p['signature'][0]}, {p['signature'][1]})",
                       f"rank: {p['rank']}",
                       f"minimal discriminant-group generators: {p['min_generators']}",
                       f"rank + generators = {total} {rel} {p['target_dim']}",
                       f"primitively embeddable: {'yes' if p['embeddable'] else 'no'}"]


def cmd_sbad_witness(args):
    from .sbad import is_sbad_extension, read_witness_file

    witness = read_witness_file(args.gram)
    verdict = is_sbad_extension(witness)
    p = {"det_s": witness.det_s, "det_s1": witness.det_s1,
         "pairings": list(witness.pairings), "d_norm": witness.d_norm, "s_bad": verdict}
    return p, lambda: [f"det S = {p['det_s']}",
                       f"det S1 = {p['det_s1']}",
                       f"|det S1| = {abs(p['det_s1'])}, 2|det S| = {2 * abs(p['det_s'])}",
                       f"S-bad witness: {'yes' if verdict else 'no'}"]


def cmd_sbad_polarized(args):
    from fractions import Fraction

    from .sbad import normalize_degree, polarized_bad

    if args.n <= 0:
        raise UsageError("polarization degree must be positive")
    verdict = polarized_bad(args.n, args.dnorm, args.k)
    p = {"n": args.n, "d_norm": args.dnorm, "k": args.k,
         "k_normalized": normalize_degree(args.n, args.k),
         "projected_norm": Fraction(args.dnorm) - Fraction(args.k * args.k, 2 * args.n),
         "bad": verdict}
    return p, lambda: [f"n = {args.n}, k = {args.k} "
                       f"(normalized {p['k_normalized']}), d = {args.dnorm}",
                       f"projected norm d - k^2/2n = {p['projected_norm']}",
                       f"-2 <= {p['projected_norm']} < 0: {'yes' if verdict else 'no'}"]


def cmd_minus2(args):
    from .glue import nikulin_minus2_property
    from .lattice import determinant

    lattice = _lattice_from_arg(args.spec)
    verdict = nikulin_minus2_property(lattice)
    p = {"spec": args.spec.strip(), "determinant": determinant(lattice),
         "rank": lattice.rank, "property": verdict}
    return p, lambda: [f"rank: {p['rank']}",
                       f"determinant: {p['determinant']}",
                       f"short dual vectors all in the lattice: {'yes' if verdict else 'no'}"]


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
            import json

            lines = [json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2,
                                default=_json_value)]
        else:
            lines = text()
        output = "\n".join(lines) + "\n"
    except ValueError:
        # Rendering only formats computed values, so this is Python's
        # int-to-str digit limit; nothing has been written yet.
        print(f"k3lat: result has more than {sys.get_int_max_str_digits()} "
              "decimal digits", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
