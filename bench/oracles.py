"""Independent computations the benchmark checks detres against.

Standard library only, and nothing here imports detres: each result is
derived from a definition (the columns of sigma_d, the Sylvester matrix,
Euclid's algorithm, rank modulo a prime), never from detres code or from a
stored copy of its output.

Polynomials are dicts from exponent tuples to coefficients.  Where a
polynomial mixes geometric variables with coefficient parameters, the
first ``nvars`` exponents belong to the geometric variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

#: Prime for rank certificates: full rank modulo p implies full rank over Q.
PRIME = (1 << 31) - 1


def monomials(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree ``deg`` in ``nvars`` variables."""
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def poly_det(m: list[list[dict]]) -> dict:
    """Determinant of a small square polynomial matrix by Laplace expansion."""
    if len(m) == 1:
        return dict(m[0][0])
    out: dict = {}
    for c in range(len(m)):
        if not m[0][c]:
            continue
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        out = poly_add(out, poly_mul(m[0][c], poly_det(minor)), -1 if c % 2 else 1)
    return out


def value(e: tuple[int, ...], point) -> Fraction | int:
    """Monomial ``e`` evaluated at ``point``."""
    v = 1
    for k, x in zip(e, point):
        if k:
            v *= x**k
    return v


def critical_degree(m: int, n: int, r: int, d, k) -> int:
    """Closed form nu = (n-r)(sum d - sum k) - (m-n)(k_{r+1}+...+k_n) - (m-r)(n-r) + 1."""
    ks = sorted(k, reverse=True)
    return (n - r) * (sum(d) - sum(k)) - (m - n) * sum(ks[r:]) - (m - r) * (n - r) + 1


def sigma_entries(m, n, r, d, k, entries, deg, nvars):
    """The matrix of sigma_deg keyed by row monomial and column (J, I, mu).

    ``entries[j][i]`` is the morphism entry in row ``j`` and column ``i``
    (0-based).  Column (J, I, mu) is the maximal minor Delta_{J,I} times
    the monomial mu, expanded in the degree-``deg`` monomial basis; J and I
    are 1-based as in detres's JSON.  Returns ``{(rho, col): coefficient}``
    where a coefficient is a dict from the parameter part of the exponent
    (empty for a concrete morphism) to its value, and the row and column
    key lists.
    """
    rows = monomials(nvars, deg)
    cols = []
    out = {}
    for J in combinations(range(n), r + 1):
        for I in combinations(range(m), r + 1):
            mu_deg = deg - sum(d[i] for i in I) + sum(k[j] for j in J)
            if mu_deg < 0:
                continue
            delta = poly_det([[entries[j][i] for i in I] for j in J])
            for mu in monomials(nvars, mu_deg):
                col = (tuple(j + 1 for j in J), tuple(i + 1 for i in I), mu)
                cols.append(col)
                for e, c in delta.items():
                    rho = tuple(a + b for a, b in zip(e[:nvars], mu))
                    cell = out.setdefault((rho, col), {})
                    cell[e[nvars:]] = cell.get(e[nvars:], 0) + c
    return out, rows, cols


def concrete_sigma_rows(m, n, r, d, k, entries, deg, nvars) -> list[list[int]]:
    """Integer sigma_deg of a concrete morphism with integer entries."""
    cells, rows, cols = sigma_entries(m, n, r, d, k, entries, deg, nvars)
    return [
        [cells.get((rho, col), {}).get((), 0) for col in cols] for rho in rows
    ]


def rank_mod_p(matrix: list[list[int]], p: int = PRIME) -> int:
    """Rank modulo ``p`` by Gaussian elimination."""
    m = [[x % p for x in row] for row in matrix]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [x * inv % p for x in m[rank][c:]]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i][c:] = [(x - f * y) % p for x, y in zip(m[i][c:], prow)]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_det(matrix) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def fraction_rank(matrix) -> int:
    """Rank of a rational matrix (used on small Stiefel matrices)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def sylvester_det(f: list, g: list) -> Fraction:
    """Classical Sylvester resultant of two binary forms.

    ``f[t]`` is the coefficient of x0^(deg f - t) x1^t, likewise ``g``.
    """
    a, b = len(f) - 1, len(g) - 1
    size = a + b
    rows = []
    for s in range(b):
        rows.append([0] * s + list(f) + [0] * (size - a - 1 - s))
    for s in range(a):
        rows.append([0] * s + list(g) + [0] * (size - b - 1 - s))
    return fraction_det(rows)


def _univariate_gcd_degree(polys: list[list[Fraction]]) -> int:
    """Degree of the gcd of univariate polynomials (ascending coefficients)."""

    def strip(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    g: list = []
    for p in polys:
        a, b = strip(g), strip(p)
        while b:
            while len(a) >= len(b):
                f = a[-1] / b[-1]
                shift = len(a) - len(b)
                for t in range(len(b)):
                    a[shift + t] -= f * b[t]
                a = strip(a)
                if not a:
                    break
            a, b = b, a
        g = a
    return len(g) - 1 if g else -1


def binary_forms_share_root(forms: list[list]) -> bool:
    """Whether binary forms have a common zero on the projective line.

    ``forms[s][t]`` is the coefficient of x^(deg - t) y^t.  The point
    (1 : 0) is a common zero when every x^deg coefficient vanishes; the
    other points are the common roots of the forms at y = 1, found by
    Euclid's algorithm over Q.
    """
    forms = [list(map(Fraction, f)) for f in forms if any(f)]
    if not forms:
        return True
    if all(f[0] == 0 for f in forms):
        return True
    # f(x, 1) = sum_t f[t] x^(deg - t), stored with ascending powers of x
    return _univariate_gcd_degree([list(reversed(f)) for f in forms]) > 0
