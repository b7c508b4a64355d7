"""`k3lat weight`: the weight of the restricted form per orbit."""

from .cli import _selected_orbits


def weight(args):
    orbits = _selected_orbits(args)
    p = {"rows": [{"two_n": o.two_n, "roots": o.root_count_u, "primitive": o.primitive,
                   "representative": list(o.representative),
                   "weight": 12 + o.root_count_u // 2}
                  for o in orbits]}
    return p, lambda: [f"2n = {row['two_n']}, representative {o.representative}: "
                       f"restricted form weight {row['weight']} (= 12 + {row['roots']}/2)"
                       for o, row in zip(orbits, p["rows"])]
