"""`k3lat e8 orbits`: the orbits of the norm 2n vectors of E8."""

from .cli import _require_positive_even, _signed


def e8_orbits(args):
    two_n = _require_positive_even(args.norm)
    from .e8 import orbits_of_norm

    p = {"norm": _signed(two_n, args.internal_norms), "orbits": [
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
