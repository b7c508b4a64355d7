"""Reference rows 2n = 16..22 of `k3lat table`, checked by a second engine.

    python3 perfbench/reference.py            # cross-check the stored rows
    python3 perfbench/reference.py --write    # regenerate, cross-check, store

The stored rows are the CLI's JSON rows. The cross-check recomputes every
column (k = 0..n) of every row with `glue.dual_coset_counts`, which
enumerates a coset of the rank-7 complement instead of the E8 ball that
the CLI buckets by pairing, and compares cell by cell. Run with
PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from fractions import Fraction

from workloads import REFERENCE, TABLE_TO, load_reference

LO, HI = 16, TABLE_TO


def table_rows(lo: int = LO, hi: int = HI) -> list[dict]:
    from k3lat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "--from", str(lo), "--to", str(hi), "--format", "json"])
    if code != 0:
        raise SystemExit(f"k3lat table exited {code}")
    return json.loads(out.getvalue())["rows"]


def cross_check(rows: list[dict]) -> list[str]:
    """Differences between the rows and the rank-7 engine, one per cell."""
    from k3lat.e8 import orbits_of_norm
    from k3lat.glue import dual_coset_counts

    problems = []
    norms = sorted({r["two_n"] for r in rows})
    orbits = {(o.two_n, tuple(o.representative)): o
              for t in norms for o in orbits_of_norm(t)}
    if len(orbits) != len(rows):
        problems.append(f"{len(rows)} rows for {len(orbits)} orbits")
    for row in rows:
        orbit = orbits.get((row["two_n"], tuple(row["representative"])))
        if orbit is None:
            problems.append(f"no orbit for row {row['two_n']} {row['representative']}")
            continue
        for k in range(row["two_n"] // 2 + 1):
            # CLI norms use the negative convention; the engine's are internal.
            stored = {-Fraction(c["norm"]): c["count"] for c in row["cells"]
                      if c["k"] == k}
            if stored != dual_coset_counts(orbit, k):
                problems.append(f"2n={row['two_n']} {row['representative']} k={k}")
            if sum(stored.values()) != row["totals"][k]:
                problems.append(f"2n={row['two_n']} k={k}: total disagrees with cells")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the rows from the CLI before checking")
    args = parser.parse_args(argv)
    rows = table_rows() if args.write else load_reference()
    problems = cross_check(rows)
    for p in problems:
        print(f"mismatch: {p}", file=sys.stderr)
    if problems:
        return 1
    if args.write:
        REFERENCE.write_text(json.dumps({"range": [LO, HI], "rows": rows}, indent=1)
                             + "\n", encoding="utf-8")
    cells = sum(len(r["cells"]) for r in rows)
    print(f"{len(rows)} rows, {cells} cells agree with dual_coset_counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
