"""Second engines for quantities the library computes one way only.

`bucketed_row` is the table row of an orbit by bucketing the E8 ball by
pairing with v: every vector a of U' with label k and norm below 2 is the
projection a = x - (k/2n) v of exactly one x in E8 with (x, v) = k, and
then (x, x) = norm(a) + k^2/2n < n/2 + 2 for 0 <= k <= n. It shares no
step with `glue.coset_count_row` (a labelled enumeration of U') or with
`glue.dual_coset_counts` (a coset of U per column) beyond the enumerator
run on the Gram matrix of E8 itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from k3lat import intlinalg as la
from k3lat.lattice import E8
from k3lat.shortvec import EnumQuery, short_vectors


@lru_cache(maxsize=None)
def e8_ball(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every x in E8 with (x, x) < n/2 + 2, with its norm."""
    hist = short_vectors(EnumQuery(gram=E8.gram, bound=Fraction(n, 2) + 2,
                                   exclusive=True, collect=True))
    return tuple((x, E8.norm(x)) for x in hist.vectors)


def bucketed_row(orbit) -> dict[int, dict[Fraction, int]]:
    """counts[k][nu] for k = 0..n, as in `glue.CosetCountTable.counts`."""
    two_n = orbit.two_n
    n = two_n // 2
    pairs_with_v = la.vec_mat(list(orbit.representative), [list(r) for r in E8.gram])
    counts: dict[int, dict[Fraction, int]] = {k: {} for k in range(n + 1)}
    for x, norm in e8_ball(n):
        k = sum(a * b for a, b in zip(x, pairs_with_v))
        if not 0 <= k <= n:
            continue
        nu = norm - Fraction(k * k, two_n)
        if nu >= 2:
            continue
        assert nu >= 0, (k, nu)
        bucket = counts[k]
        bucket[nu] = bucket.get(nu, 0) + 1
    return counts
