"""`k3lat minus2 property`: the short-dual-vector property."""

from .cli import _lattice_from_arg


def minus2(args):
    from .glue import nikulin_minus2_property
    from .lattice import determinant

    lattice = _lattice_from_arg(args.spec)
    verdict = nikulin_minus2_property(lattice)
    p = {"spec": args.spec.strip(), "determinant": determinant(lattice),
         "rank": lattice.rank, "property": verdict}
    return p, lambda: [f"rank: {p['rank']}",
                       f"determinant: {p['determinant']}",
                       f"short dual vectors all in the lattice: {'yes' if verdict else 'no'}"]
