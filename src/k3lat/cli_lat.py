"""`k3lat lat info`: the invariants of a lattice spec."""

from .cli import _lattice_from_arg


def lat_info(args):
    lattice = _lattice_from_arg(args.spec)
    from . import lattice as lt

    sig = lt.signature(lattice)
    p = {"spec": args.spec.strip(), "rank": lattice.rank, "signature": list(sig),
         "determinant": lt.determinant(lattice), "even": lattice.even,
         "discriminant_divisors": list(lt.discriminant_group(lattice).divisors)}
    if 0 in sig and lattice.rank:
        from .shortvec import root_count

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
