"""The erratum cell (2n=10, k=5) from modular forms alone, with no call into
k3lat.

For v of norm 2n in E8, theta(tau, z) = sum_x q^((x,x)/2) zeta^((x,v)) is a
holomorphic Jacobi form of weight 4 and index n, and the table cell (2n, k)
at norm (x,x) = 4 is its coefficient c(2, k). Eichler and Zagier (The Theory
of Jacobi Forms, 1985, Thm 9.3) give the weak Jacobi forms of even weight as
the polynomials in E4, E6, phi_{-2,1} and phi_{0,1}; the holomorphic ones,
J_{k,m}, are those with c(N, r) = 0 wherever 4mN - r^2 < 0. J_{4,5} has
dimension 1, and its form with c(0, 0) = 1 has c(2, 5) = 32.

A form is a dict {(N, r): c} of exact integer (or Fraction) coefficients of
q^N zeta^r, truncated above q^PREC.
"""

from fractions import Fraction
from itertools import product

PREC = 4  # every polar coefficient class of index 5 has a member with N <= 4


def mul(f, g):
    h = {}
    for (n1, r1), a in f.items():
        for (n2, r2), b in g.items():
            if n1 + n2 <= PREC:
                key = (n1 + n2, r1 + r2)
                h[key] = h.get(key, 0) + a * b
    return {k: c for k, c in h.items() if c}


def power(f, e):
    out = {(0, 0): 1}
    for _ in range(e):
        out = mul(out, f)
    return out


def add(*forms):
    h = {}
    for f in forms:
        for k, c in f.items():
            h[k] = h.get(k, 0) + c
    return {k: c for k, c in h.items() if c}


def scale(f, c):
    return {k: c * a for k, a in f.items()}


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(c, k):
    """1 + c sum_{n>=1} sigma_{k-1}(n) q^n: E4 for (240, 4), E6 for (-504, 6)."""
    return {(0, 0): 1, **{(n, 0): c * sigma(k - 1, n) for n in range(1, PREC + 1)}}


def product_part():
    """prod_{n>=1} (1 - q^n zeta)^2 (1 - q^n / zeta)^2 / (1 - q^n)^4."""
    out = {(0, 0): 1}
    for n in range(1, PREC + 1):
        geometric = {(n * j, 0): 1 for j in range(PREC // n + 1)}  # 1 / (1 - q^n)
        for factor in ({(0, 0): 1, (n, 1): -1},) * 2 + ({(0, 0): 1, (n, -1): -1},) * 2:
            out = mul(out, factor)
        out = mul(out, power(geometric, 4))
    return out


def phi_forms():
    """phi_{-2,1} = (zeta - 2 + 1/zeta) P with P the product part, and
    phi_{0,1} = 12 wp phi_{-2,1} / (2 pi i)^2 with
    wp / (2 pi i)^2 = 1/12 + zeta/(1 - zeta)^2 + sum_{n>=1} sum_{d|n} d (zeta^d - 2 + zeta^-d) q^n.
    As zeta/(1 - zeta)^2 (zeta - 2 + 1/zeta) = 1, that is
    phi_{0,1} = (1 + 12 S) phi_{-2,1} + 12 P, S the divisor sum."""
    p = product_part()
    phi_m2 = mul({(0, 1): 1, (0, 0): -2, (0, -1): 1}, p)
    s = {}
    for n in range(1, PREC + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                s = add(s, {(n, d): d, (n, 0): -2 * d, (n, -d): d})
    phi_0 = add(mul(add({(0, 0): 1}, scale(s, 12)), phi_m2), scale(p, 12))
    return phi_m2, phi_0


def weak_basis(weight, index):
    """The monomials E4^a E6^b phi_{-2,1}^i phi_{0,1}^(index-i) of the weight."""
    e4, e6 = eisenstein(240, 4), eisenstein(-504, 6)
    phi_m2, phi_0 = phi_forms()
    basis = []
    for i in range(index + 1):
        rest = weight + 2 * i  # weight of the modular-form factor
        for a, b in product(range(rest // 4 + 1), range(rest // 6 + 1)):
            if 4 * a + 6 * b == rest:
                basis.append(mul(mul(power(e4, a), power(e6, b)),
                                 mul(power(phi_m2, i), power(phi_0, index - i))))
    return basis


def nullspace(rows, n):
    """A basis of the rational solutions x of rows . x = 0, by Gauss-Jordan."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), len(m)) if m[r][col]), None)
        if r is None:
            continue
        m[len(pivots)], m[r] = m[r], m[len(pivots)]
        top = m[len(pivots)]
        top[:] = [c / top[col] for c in top]
        for other in m:
            if other is not top and other[col]:
                f = other[col]
                other[:] = [a - f * b for a, b in zip(other, top)]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(m, pivots):
            x[p] = -row[f]
        basis.append(x)
    return basis


def test_weak_generators_have_their_known_leading_coefficients():
    phi_m2, phi_0 = phi_forms()
    assert {r: phi_m2.get((1, r), 0) for r in range(-2, 3)} == {
        -2: -2, -1: 8, 0: -12, 1: 8, 2: -2}
    assert {r: phi_0.get((0, r), 0) for r in range(-1, 2)} == {-1: 1, 0: 10, 1: 1}
    assert {r: phi_0.get((1, r), 0) for r in range(-2, 3)} == {
        -2: 10, -1: -64, 0: 108, 1: -64, 2: 10}
    # phi_{0,1}(tau, 0) = 12 and phi_{-2,1}(tau, 0) = 0
    for n in range(PREC + 1):
        assert sum(c for (m, _), c in phi_0.items() if m == n) == (12 if n == 0 else 0)
        assert sum(c for (m, _), c in phi_m2.items() if m == n) == 0


def test_erratum_cell_is_32_in_the_one_jacobi_form_of_weight_4_and_index_5():
    index = 5
    basis = weak_basis(4, index)
    assert len(basis) == 7
    polar = sorted({key for f in basis for key in f if 4 * index * key[0] < key[1] ** 2})
    (form,) = nullspace([[f.get(key, 0) for f in basis] for key in polar], len(basis))
    c = {}
    for coeff, f in zip(form, basis):
        c = add(c, scale(f, coeff))
    c = scale(c, 1 / c[(0, 0)])
    assert c[(2, 5)] == 32
    # At z = 0 a form of J_{4,5} is c(0, 0) E4, so its q^1 coefficients sum
    # to 240, the number of roots of E8.
    assert sum(a for (n, _), a in c.items() if n == 1) == 240
