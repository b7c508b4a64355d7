"""Second engines for quantities the library computes one way only.

`e8_vectors` lists E8 in its coordinate model: the vectors of Z^8 and of
(Z + 1/2)^8 with even coordinate sum. `simple_root_coordinates` takes such
a vector to the Bourbaki simple-root basis of `lattice.E8`. Neither shares
a step with `shortvec.short_vectors`.

`bucketed_row` is the table row of an orbit by bucketing the E8 ball by
pairing with v: every vector a of U' with label k and norm below 2 is the
projection a = x - (k/2n) v of exactly one x in E8 with (x, v) = k, and
then (x, x) = norm(a) + k^2/2n < n/2 + 2 for 0 <= k <= n. It shares no
step with `glue.coset_count_row` (a labelled enumeration of U') or with
`glue.dual_coset_counts` (a coset a0 + U per column, as a slice of the
integral lattice U + Z a0), and it lists every vector, with no fold of x
and -x, so it also checks the fold of `short_vectors`.

`rational_counts` reads a row's integer cell keys 2n nu back as the norms
nu, the keys of `bucketed_row` and `glue.dual_coset_counts`.

`fraction_signature` is the Lagrange reduction over Q: it splits off
squares with Fraction arithmetic, the reference for the fraction-free
`reduction.lagrange_reduction` behind `lattice.signature`.

`determinant` is forward Bareiss elimination with row swaps. It takes any
square matrix, so it also serves for the unimodularity of transforms, and it
is the reference for `intlinalg.bareiss_determinant` and
`lattice.determinant`, which read the determinant of a symmetric matrix off
the Lagrange reduction.

`vec_mat` is the row-vector-times-matrix product that the tests share.

`random_unimodular`, `random_definite_grams` and `skewed_gram` are seeded
inputs, not engines: Gram matrices on skewed bases, for the tests that a
count does not depend on the basis it is computed on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt

from k3lat import intlinalg as la
from k3lat.lattice import E8

# The Bourbaki simple roots alpha_1..alpha_8 of E8 in the coordinate model,
# doubled so that every entry is an integer: alpha_1 = (1,-1,...,-1,1)/2,
# alpha_2 = e_1 + e_2 and alpha_i = e_(i-1) - e_(i-2) for i = 3..8.
SIMPLE_ROOTS_2 = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)
# E8 has det 1, so its inverse Gram matrix is integral
_GRAM_INV = [[int(x) for x in row] for row in la.fraction_inverse(E8.gram)]


def vec_mat(v, m):
    """Row vector times matrix."""
    return [sum(vi * row[j] for vi, row in zip(v, m)) for j in range(len(m[0]))]


def e8_vectors(bound, exclusive=False) -> list[tuple[int, ...]]:
    """Every x in E8 with x.x <= bound (< bound if exclusive), as y = 2x.

    The entries of y are all even or all odd, their sum is divisible by 4,
    and x.x = y.y / 4.
    """
    limit = 4 * Fraction(bound)
    found = []

    def extend(prefix, used, parity):
        if len(prefix) == 8:
            if sum(prefix) % 4 == 0 and (used < limit or (used == limit and not exclusive)):
                found.append(tuple(prefix))
            return
        # each later coordinate adds at least parity to y.y
        top = isqrt(floor(limit - used - parity * (7 - len(prefix))))
        for y in range(-top + (top + parity) % 2, top + 1, 2):
            extend(prefix + [y], used + y * y, parity)

    if limit >= 0:
        extend([], 0, 0)
    if limit >= 8:
        extend([], 0, 1)
    return found


def model_norm(y) -> int:
    """x.x for y = 2x."""
    return sum(c * c for c in y) // 4


def simple_root_pairings(y) -> list[int]:
    """(x, alpha_i) for i = 1..8, for y = 2x."""
    pairings = []
    for root in SIMPLE_ROOTS_2:
        p, rest = divmod(sum(a * b for a, b in zip(y, root)), 4)
        if rest:
            raise ValueError(f"{y} is not twice a vector of E8")
        pairings.append(p)
    return pairings


def simple_root_coordinates(y) -> tuple[int, ...]:
    """Coordinates of x = y/2 in the simple roots: (x . alpha^T) G^-1."""
    return tuple(vec_mat(simple_root_pairings(y), _GRAM_INV))


@lru_cache(maxsize=None)
def e8_ball(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every x in E8 with (x, x) < n/2 + 2, as y = 2x, with its norm."""
    return tuple((y, model_norm(y)) for y in e8_vectors(Fraction(n, 2) + 2, exclusive=True))


def bucketed_row(orbit) -> dict[int, dict[Fraction, int]]:
    """counts[k][nu] for k = 0..n, as in `glue.CosetCountTable.counts`."""
    two_n = orbit.two_n
    n = two_n // 2
    v2 = vec_mat(list(orbit.representative), SIMPLE_ROOTS_2)  # 2v in the model
    counts: dict[int, dict[Fraction, int]] = {k: {} for k in range(n + 1)}
    for y, norm in e8_ball(n):
        k = sum(a * b for a, b in zip(y, v2)) // 4
        if not 0 <= k <= n:
            continue
        nu = norm - Fraction(k * k, two_n)
        if nu >= 2:
            continue
        if nu < 0:
            raise RuntimeError(f"negative dual norm {nu} at label {k}")
        bucket = counts[k]
        bucket[nu] = bucket.get(nu, 0) + 1
    return counts


def rational_counts(row) -> dict[int, dict[Fraction, int]]:
    """`row.counts` with each cell keyed by its norm Fraction(key, 2n)."""
    return {k: {Fraction(key, row.two_n): c for key, c in cells.items()}
            for k, cells in row.counts.items()}


def fraction_signature(gram):
    """(positive, negative) inertia indices of a symmetric matrix, or None if
    it is singular.

    Splits off squares at nonzero diagonal entries; when the remaining block
    has an all-zero diagonal, e_i -> e_i + e_j first makes 2 a[i][j] the
    pivot. An active row that is all zero spans the radical.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    active = list(range(len(a)))
    pos = neg = 0
    while active:
        p = next((i for i in active if a[i][i] != 0), None)
        if p is None:
            i = active[0]
            j = next((j for j in active if a[i][j] != 0), None)
            if j is None:
                return None
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            p = i
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(p)
        for i in active:
            f = a[i][p] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[p][j]
    return pos, neg


def determinant(m) -> int:
    """Exact determinant of a square integer matrix by forward fraction-free
    (Bareiss) elimination; every division is exact, and the 0x0 matrix has
    determinant 1.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def random_unimodular(rng, n, steps):
    """A product of `steps` random elementary row operations and swaps."""
    u = la.identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def random_definite_grams(rng, count):
    """Seeded positive definite Gram matrices of rank 1..7: B B^T for a
    random nonsingular B, put on a skewed basis U B by a random unimodular U."""
    out = []
    while len(out) < count:
        n = 1 + len(out) % 7
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if determinant(b) == 0:
            continue
        ub = la.mat_mul(random_unimodular(rng, n, 2 * n), b)
        out.append(la.mat_mul(ub, la.transpose(ub)))
    return out


def skewed_gram(gram, rng, least):
    """The Gram matrix U G U^T of `gram` under a seeded random unimodular U,
    grown one elementary step at a time until some entry reaches `least` in
    absolute value."""
    u = la.identity(len(gram))
    while True:
        u = la.mat_mul(random_unimodular(rng, len(gram), 1), u)
        skewed = la.mat_mul(la.mat_mul(u, gram), la.transpose(u))
        if max(abs(x) for row in skewed for x in row) >= least:
            return skewed
