"""`k3lat divisors`: divisor classes and hyperplane multiplicities per orbit."""

from .cli import _rational, _selected_orbits, _signed


def _line_reports(row, classes):
    """Multiplicity reports: the norm -2 lattice line plus one line per class.
    Each norm is given as 2n times it, so the norm -2 is -4n."""
    from .glue import hyperplane_multiplicity

    return [hyperplane_multiplicity(row, 0, -2 * row.two_n)] + [
        hyperplane_multiplicity(row, c.k, -c.norm - 2 * row.two_n) for c in classes]


def divisors(args):
    orbits = _selected_orbits(args)
    from .glue import coset_count_row, divisor_classes

    rows = [(row, divisor_classes(row)) for row in map(coset_count_row, orbits)]

    def norm(value, row):
        """A norm of the row, given as 2n times it in the negative convention."""
        return _rational(_signed(-value, args.internal_norms), row.two_n)

    p = {"rows": [
        {"two_n": row.two_n, "roots": row.root_count,
         "primitive": row.orbit.primitive,
         "representative": list(row.orbit.representative),
         "classes": [{"k": c.k, "norm": norm(c.norm, row), "count": c.count,
                      "vanishing": c.vanishing}
                     for c in classes],
         "lines": [{"k0": rep.k0, "nu0": norm(rep.nu0, row),
                    "multiplicity": rep.total_multiplicity,
                    "contributions": [{"scale": c.scale, "norm": norm(c.norm, row),
                                       "label": c.label, "count": c.count}
                                      for c in rep.contributions]}
                   for rep in _line_reports(row, classes)]}
        for row, classes in rows]}

    def text():
        window = "0 and 2" if args.internal_norms else "-2 and 0"
        lines = []
        for o, row in zip(orbits, p["rows"]):
            tag = "" if row["primitive"] else " (imprimitive vector orbit)"
            lines.append(f"2n = {row['two_n']}, representative {o.representative}{tag}")
            lines.append(f"  divisor classes with norm strictly between {window}:")
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
