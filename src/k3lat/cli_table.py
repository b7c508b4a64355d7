"""`k3lat table`: coset count table rows, as markdown, CSV or JSON."""

from .cli import _rational, _signed
from .errors import UsageError


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


def _cells(row, internal: bool) -> list[dict]:
    """The cells of a row in (k, norm) order. A cell's key is 2n nu, so its
    norm nu is key/2n."""
    two_n, out = row.two_n, []
    for k in sorted(row.counts):
        cells = row.counts[k]
        out += [{"k": k, "norm": _rational(_signed(key, internal), two_n),
                 "count": cells[key]} for key in sorted(cells)]
    return out


def table(args):
    rows = _collect_rows(args.start, args.stop)
    p = {"rows": [
        {"two_n": row.two_n, "roots": row.root_count,
         "primitive": row.orbit.primitive,
         "representative": list(row.orbit.representative),
         "orbit_size": row.orbit.orbit_size,
         "totals": [row.column_totals[k] for k in range(row.two_n // 2 + 1)]}
        for row in rows]}
    if args.format == "json":  # markdown and CSV print the totals alone
        for out, row in zip(p["rows"], rows):
            out["cells"] = _cells(row, args.internal_norms)
    render = _table_markdown if args.format == "md" else _table_csv
    return p, lambda: render(p["rows"])
