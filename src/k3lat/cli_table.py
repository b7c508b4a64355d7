"""`k3lat table`: coset count table rows, as markdown, CSV or JSON. Each
payload entry is built as soon as its row is computed, so one row is held at
a time."""

from .cli import _rational, _signed
from .errors import UsageError


def _even_norms(start: int, stop: int) -> list[int]:
    if start < 2 or stop < start:
        raise UsageError("need 2 <= from <= to")
    return [t for t in range(start, stop + 1) if t % 2 == 0]


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


def _entry(row, with_cells: bool, internal: bool) -> dict:
    entry = {"two_n": row.two_n, "roots": row.root_count,
             "primitive": row.orbit.primitive,
             "representative": list(row.orbit.representative),
             "orbit_size": row.orbit.orbit_size,
             "totals": [row.column_totals[k] for k in range(row.two_n // 2 + 1)]}
    if with_cells:  # markdown and CSV print the totals alone
        entry["cells"] = _cells(row, internal)
    return entry


def table(args):
    norms = _even_norms(args.start, args.stop)
    from .e8 import orbits_of_norm
    from .glue import coset_count_row
    from .parallel import parallel_map

    def entries(two_n: int) -> list[dict]:  # each row is dropped once its entry is built
        return [_entry(coset_count_row(orbit), args.format == "json", args.internal_norms)
                for orbit in orbits_of_norm(two_n)]

    p = {"rows": [entry for per_norm in parallel_map(entries, norms) for entry in per_norm]}
    render = _table_markdown if args.format == "md" else _table_csv
    return p, lambda: render(p["rows"])
