"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (wrong
signature, degenerate input, ...). All reported norms use the negative
(geometric) sign convention unless --internal-norms is given; rationals in
JSON are exact, encoded as "p/q" strings when not integral.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import lattice as lt
from . import specparse
from .e8 import orbits_of_norm
from .errors import GramFileError, LatticeError, SpecSyntaxError, UsageError
from .glue import (
    coset_count_row,
    divisor_classes,
    hyperplane_multiplicity,
    nikulin_embeddable,
    nikulin_minus2_property,
    restricted_weight,
)
from .parallel import parallel_map
from .sbad import is_sbad_extension, normalize_degree, read_witness_file
from .shortvec import root_count

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_value(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def _dump_json(payload):
    print(json.dumps(payload, indent=2, default=_json_value))


def _signed(norm: Fraction, internal: bool) -> Fraction:
    """Internal norms are positive; reports default to the negative convention."""
    return Fraction(norm) if internal else -Fraction(norm)


def _lattice_from_arg(text: str) -> lt.Lattice:
    return specparse.lattice_from_text(text, base_dir=os.getcwd())


def _even_norms(start: int, stop: int) -> list[int]:
    if start < 2 or stop < start:
        raise UsageError("need 2 <= from <= to")
    return [t for t in range(start, stop + 1) if t % 2 == 0]


def _rows_for_norm(two_n: int):
    return [coset_count_row(orbit) for orbit in orbits_of_norm(two_n)]


def _collect_rows(start: int, stop: int):
    per_norm = parallel_map(_rows_for_norm, _even_norms(start, stop))
    return [row for rows in per_norm for row in rows]


def _row_cells(row, internal: bool):
    cells = []
    for k in sorted(row.counts):
        for nu in sorted(row.counts[k]):
            cells.append({"k": k, "norm": _json_value(_signed(nu, internal)),
                          "count": row.counts[k][nu]})
    return cells


def _require_positive_even(two_n: int) -> int:
    if two_n <= 0 or two_n % 2:
        raise UsageError("--norm takes the positive even value 2n")
    return two_n


def _selected_orbits(args):
    orbits = orbits_of_norm(_require_positive_even(args.norm))
    if args.orbit is not None:
        if not 0 <= args.orbit < len(orbits):
            raise UsageError(f"orbit index out of range (0..{len(orbits) - 1})")
        orbits = [orbits[args.orbit]]
    return orbits


# ---------------------------------------------------------------- commands


def _require_printable(*values: int) -> None:
    """Reject results longer than Python's int-to-str digit limit, before
    any output, instead of failing halfway through writing it."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= 10 ** limit for v in values):
        raise UsageError(f"result has more than {limit} decimal digits")


def cmd_lat_info(args):
    lattice = _lattice_from_arg(args.spec)
    sig = lt.signature(lattice)
    det = lt.determinant(lattice)
    divisors = list(lt.discriminant_group(lattice).divisors)
    definite = 0 in sig
    roots = root_count(lattice) if definite and lattice.rank else None
    _require_printable(det, *divisors)
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "spec": args.spec.strip(),
                   "rank": lattice.rank, "signature": list(sig),
                   "determinant": det, "even": lattice.even,
                   "discriminant_divisors": divisors}
        if roots is not None:
            payload["root_count"] = roots
        _dump_json(payload)
        return
    lines = [f"rank: {lattice.rank}",
             f"signature: ({sig[0]}, {sig[1]})",
             f"determinant: {det}",
             f"even: {'yes' if lattice.even else 'no'}",
             f"discriminant group divisors: {divisors or 'trivial'}"]
    if roots is not None:
        lines.append(f"root count: {roots}")
    print("\n".join(lines))


def cmd_e8_orbits(args):
    two_n = _require_positive_even(args.norm)
    shown = two_n if args.internal_norms else -two_n
    orbits = orbits_of_norm(two_n)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "norm": shown, "orbits": [
            {"index": i, "representative": list(o.representative),
             "primitive": o.primitive, "orbit_size": o.orbit_size,
             "complement_determinant": o.complement_determinant,
             "complement_roots": o.root_count_u}
            for i, o in enumerate(orbits)]})
        return
    host = "E8" if args.internal_norms else "-E8"
    print(f"orbits of norm {shown} vectors in {host}: {len(orbits)}")
    for i, o in enumerate(orbits):
        tag = "primitive" if o.primitive else "imprimitive"
        print(f"orbit {i}: representative {o.representative}, {tag}, "
              f"orbit size {o.orbit_size}, complement det "
              f"{o.complement_determinant}, complement roots {o.root_count_u}")


def _column_count(rows) -> int:
    """Label columns k = 0..n of the widest row, and never fewer than 8."""
    return max([8] + [row.two_n // 2 + 1 for row in rows])


def _table_markdown(rows) -> str:
    ncols = _column_count(rows)
    header = ["2n", "roots"] + [f"k={k}" for k in range(ncols)]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---:|" * len(header)]
    flagged = False
    for row in rows:
        n = row.two_n // 2
        label = str(row.two_n)
        if not row.orbit.primitive:
            label += "*"
            flagged = True
        cells = [str(row.column_totals[k]) for k in range(n + 1)]
        cells += [""] * (ncols - n - 1)
        lines.append("| " + " | ".join([label, str(row.root_count)] + cells) + " |")
    if flagged:
        lines += ["", "\\* imprimitive vector orbit: no primitive rank-1 "
                      "sublattice corresponds to this row."]
    return "\n".join(lines) + "\n"


def _table_csv(rows) -> str:
    lines = ["2n,roots," + ",".join(f"k={k}" for k in range(_column_count(rows)))]
    for row in rows:
        totals = [str(row.column_totals[k]) for k in range(row.two_n // 2 + 1)]
        lines.append(",".join([str(row.two_n), str(row.root_count)] + totals))
    return "\n".join(lines) + "\n"


def cmd_table(args):
    rows = _collect_rows(args.start, args.stop)
    if args.format == "md":
        sys.stdout.write(_table_markdown(rows))
    elif args.format == "csv":
        sys.stdout.write(_table_csv(rows))
    else:
        _dump_json({"schema": SCHEMA_VERSION, "rows": [
            {"two_n": row.two_n, "roots": row.root_count,
             "primitive": row.orbit.primitive,
             "representative": list(row.orbit.representative),
             "orbit_size": row.orbit.orbit_size,
             "totals": [row.column_totals[k] for k in range(row.two_n // 2 + 1)],
             "cells": _row_cells(row, args.internal_norms)}
            for row in rows]})


def _line_reports(row):
    """Multiplicity reports: the norm -2 lattice line plus one line per cell."""
    reports = [hyperplane_multiplicity(row, 0, Fraction(-2))]
    for cell in divisor_classes(row):
        nu_internal = -cell.norm
        reports.append(hyperplane_multiplicity(row, cell.k, nu_internal - 2))
    return reports


def cmd_divisors(args):
    rows = [coset_count_row(o) for o in _selected_orbits(args)]
    internal = args.internal_norms
    if args.json:
        payload_rows = []
        for row in rows:
            payload_rows.append({
                "two_n": row.two_n, "roots": row.root_count,
                "primitive": row.orbit.primitive,
                "classes": [
                    {"k": c.k, "norm": _json_value(_signed(-c.norm, internal)),
                     "count": c.count, "vanishing": c.vanishing}
                    for c in divisor_classes(row)],
                "lines": [
                    {"k0": rep.k0,
                     "nu0": _json_value(_signed(-rep.nu0, internal)),
                     "multiplicity": rep.total_multiplicity,
                     "contributions": [
                         {"scale": c.scale,
                          "norm": _json_value(_signed(-c.norm, internal)),
                          "label": c.label, "count": c.count}
                         for c in rep.contributions]}
                    for rep in _line_reports(row)],
            })
        _dump_json({"schema": SCHEMA_VERSION, "rows": payload_rows})
        return
    for row in rows:
        tag = "" if row.orbit.primitive else " (imprimitive vector orbit)"
        print(f"2n = {row.two_n}, representative {row.orbit.representative}{tag}")
        print("  divisor classes with norm strictly between -2 and 0:")
        cells = divisor_classes(row)
        if not cells:
            print("    none")
        for c in cells:
            state = "vanishing" if c.vanishing else "NOT vanishing"
            print(f"    k={c.k}  norm {_signed(-c.norm, internal)}  "
                  f"count {c.count}  {state}")
        print("  hyperplane multiplicity by primitive line:")
        for rep in _line_reports(row):
            detail = "; ".join(
                f"scale {c.scale}: label {c.label}, norm "
                f"{_signed(-c.norm, internal)}, count {c.count}"
                for c in rep.contributions)
            print(f"    k0={rep.k0}  norm {_signed(-rep.nu0, internal)}  "
                  f"multiplicity {rep.total_multiplicity}  ({detail})")


def cmd_weight(args):
    orbits = _selected_orbits(args)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "rows": [
            {"two_n": o.two_n, "roots": o.root_count_u, "primitive": o.primitive,
             "weight": restricted_weight(o.complement)}
            for o in orbits]})
        return
    for o in orbits:
        w = restricted_weight(o.complement)
        print(f"2n = {o.two_n}, representative {o.representative}: "
              f"restricted form weight {w} (= 12 + {o.root_count_u}/2)")


def cmd_embed_check(args):
    lattice = _lattice_from_arg(args.spec)
    report = nikulin_embeddable(lattice)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "spec": args.spec.strip(),
                    "embeddable": report.embeddable, "rank": report.rank,
                    "min_generators": report.min_generators,
                    "signature": list(report.signature),
                    "target_dim": report.target_dim})
        return
    print(f"signature: ({report.signature[0]}, {report.signature[1]})")
    print(f"rank: {report.rank}")
    print(f"minimal discriminant-group generators: {report.min_generators}")
    total = report.rank + report.min_generators
    rel = "<" if total < report.target_dim else ">="
    print(f"rank + generators = {total} {rel} {report.target_dim}")
    print(f"primitively embeddable: {'yes' if report.embeddable else 'no'}")


def cmd_sbad_witness(args):
    witness = read_witness_file(args.gram)
    verdict = is_sbad_extension(witness)
    _require_printable(2 * witness.det_s, witness.det_s1)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "det_s": witness.det_s,
                    "det_s1": witness.det_s1, "pairings": list(witness.pairings),
                    "d_norm": witness.d_norm, "s_bad": verdict})
        return
    print(f"det S = {witness.det_s}")
    print(f"det S1 = {witness.det_s1}")
    print(f"|det S1| = {abs(witness.det_s1)}, 2|det S| = {2 * abs(witness.det_s)}")
    print(f"S-bad witness: {'yes' if verdict else 'no'}")


def cmd_sbad_polarized(args):
    from .sbad import polarized_bad

    if args.n <= 0:
        raise UsageError("polarization degree must be positive")
    verdict = polarized_bad(args.n, args.dnorm, args.k)
    projected = Fraction(args.dnorm) - Fraction(args.k * args.k, 2 * args.n)
    _require_printable(projected.numerator, projected.denominator)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "n": args.n, "d_norm": args.dnorm,
                    "k": args.k, "k_normalized": normalize_degree(args.n, args.k),
                    "projected_norm": projected, "bad": verdict})
        return
    print(f"n = {args.n}, k = {args.k} "
          f"(normalized {normalize_degree(args.n, args.k)}), d = {args.dnorm}")
    print(f"projected norm d - k^2/2n = {projected}")
    print(f"-2 <= {projected} < 0: {'yes' if verdict else 'no'}")


def cmd_minus2(args):
    lattice = _lattice_from_arg(args.spec)
    verdict = nikulin_minus2_property(lattice)
    det = lt.determinant(lattice)
    _require_printable(det)
    if args.json:
        _dump_json({"schema": SCHEMA_VERSION, "spec": args.spec.strip(),
                    "determinant": det, "rank": lattice.rank, "property": verdict})
        return
    print(f"rank: {lattice.rank}\n"
          f"determinant: {det}\n"
          f"short dual vectors all in the lattice: {'yes' if verdict else 'no'}")


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k3lat",
                     description="Exact arithmetic for even integral lattices")
    sub = parser.add_subparsers(dest="command", metavar="command")

    lat = sub.add_parser("lat", help="lattice inspection")
    lat_sub = lat.add_subparsers(dest="subcommand", metavar="subcommand")
    info = lat_sub.add_parser("info", help="rank, signature, determinant, ...")
    info.add_argument("spec", help="lattice-spec expression, e.g. '(-2) + -E8'")
    info.add_argument("--json", action="store_true")
    info.set_defaults(func=cmd_lat_info)

    e8cmd = sub.add_parser("e8", help="E8 orbit analysis")
    e8_sub = e8cmd.add_subparsers(dest="subcommand", metavar="subcommand")
    orbs = e8_sub.add_parser("orbits", help="orbits of vectors of a given norm")
    orbs.add_argument("--norm", type=int, required=True, metavar="2N")
    orbs.add_argument("--json", action="store_true")
    orbs.add_argument("--internal-norms", action="store_true")
    orbs.set_defaults(func=cmd_e8_orbits)

    table = sub.add_parser("table", help="coset count table rows")
    table.add_argument("--from", dest="start", type=int, default=2, metavar="2N")
    table.add_argument("--to", dest="stop", type=int, default=14, metavar="2N")
    table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    table.add_argument("--internal-norms", action="store_true")
    table.set_defaults(func=cmd_table)

    div = sub.add_parser("divisors", help="divisor classes and multiplicities")
    div.add_argument("--norm", type=int, required=True, metavar="2N")
    div.add_argument("--orbit", type=int, default=None, metavar="I")
    div.add_argument("--json", action="store_true")
    div.add_argument("--internal-norms", action="store_true")
    div.set_defaults(func=cmd_divisors)

    weight = sub.add_parser("weight", help="restricted form weight per orbit")
    weight.add_argument("--norm", type=int, required=True, metavar="2N")
    weight.add_argument("--orbit", type=int, default=None, metavar="I")
    weight.add_argument("--json", action="store_true")
    weight.set_defaults(func=cmd_weight)

    embed = sub.add_parser("embed", help="embedding feasibility")
    embed_sub = embed.add_subparsers(dest="subcommand", metavar="subcommand")
    check = embed_sub.add_parser("check", help="primitive embedding test")
    check.add_argument("spec")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_embed_check)

    sbad = sub.add_parser("sbad", help="Picard-lattice extension tests")
    sbad_sub = sbad.add_subparsers(dest="subcommand", metavar="subcommand")
    wit = sbad_sub.add_parser("witness", help="check a bordered witness file")
    wit.add_argument("--gram", required=True, metavar="FILE")
    wit.add_argument("--json", action="store_true")
    wit.set_defaults(func=cmd_sbad_witness)
    pol = sbad_sub.add_parser("polarized", help="degree-k class test")
    pol.add_argument("--n", type=int, required=True)
    pol.add_argument("--dnorm", type=int, required=True)
    pol.add_argument("--k", type=int, required=True)
    pol.add_argument("--json", action="store_true")
    pol.set_defaults(func=cmd_sbad_polarized)

    minus2 = sub.add_parser("minus2", help="short-dual-vector property")
    minus2_sub = minus2.add_subparsers(dest="subcommand", metavar="subcommand")
    prop = minus2_sub.add_parser("property")
    prop.add_argument("spec")
    prop.add_argument("--json", action="store_true")
    prop.set_defaults(func=cmd_minus2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.func(args)
    except SpecSyntaxError as exc:
        print(f"k3lat: parse error: {exc}", file=sys.stderr)
        return 1
    except LatticeError as exc:
        print(f"k3lat: domain error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, GramFileError, OSError) as exc:
        print(f"k3lat: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
