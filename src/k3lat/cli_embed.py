"""`k3lat embed check`: the primitive embedding test into II(2,26)."""

from .cli import _lattice_from_arg


def embed_check(args):
    from .glue import nikulin_embeddable

    report = nikulin_embeddable(_lattice_from_arg(args.spec))
    p = {"spec": args.spec.strip(), "embeddable": report.embeddable,
         "rank": report.rank, "min_generators": report.min_generators,
         "signature": list(report.signature), "target_dim": report.target_dim}
    total = report.rank + report.min_generators
    rel = "<" if report.embeddable else ">="
    return p, lambda: [f"signature: ({p['signature'][0]}, {p['signature'][1]})",
                       f"rank: {p['rank']}",
                       f"minimal discriminant-group generators: {p['min_generators']}",
                       f"rank + generators = {total} {rel} {p['target_dim']}",
                       f"primitively embeddable: {'yes' if p['embeddable'] else 'no'}"]
