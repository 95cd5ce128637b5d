"""Degree formulas for determinantal resultants, and the critical degree.

With ``p = m - r`` and ``q = n - r``, the degree ``N_i`` of the resultant in
the coefficients of column ``i`` is ``(-1)^(pq)`` times the coefficient of
``alpha_i h^N`` in the banded ``q x q`` determinant ``det(c_{p-a+b})`` of the
Chern series ``prod_i (1 - (d_i h + alpha_i) t) / prod_j (1 - k_j h t)``;
``h`` is the hyperplane class of projective ``N``-space and ``alpha_i`` that
of column ``i``'s parameter space.

Giving ``t`` weight -1 makes every factor homogeneous of weight 0, so ``c_s``
is homogeneous of degree ``s`` in ``(h, alpha)`` and the determinant of
degree ``pq = N + 1``.  Its ``alpha_i``-linear part is therefore a multiple
of ``alpha_i h^N``, and setting ``h = 1`` leaves that multiple unchanged.
So the series and the determinant are computed over dual numbers of Z:
``h = 1`` and every product ``alpha_i alpha_j`` is zero.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class ExistenceError(ValueError):
    """Raised when a problem specification admits no determinantal resultant."""


class _ProblemSpec(NamedTuple):
    m: int
    n: int
    r: int
    d: tuple[int, ...]
    k: tuple[int, ...]


class ProblemSpec(_ProblemSpec):
    """The data of a determinantal resultant problem on projective space.

    ``E`` is the direct sum of the twists ``O(-d_i)`` (rank ``m``), ``F`` of
    the ``O(-k_j)`` (rank ``n``), and ``r`` is the rank bound.  The ambient
    dimension is forced: ``N = (m - r)(n - r) - 1``.
    """

    __slots__ = ()

    def __new__(
        cls, m: int, n: int, r: int, d: Sequence[int], k: Sequence[int]
    ) -> "ProblemSpec":
        d, k = tuple(d), tuple(k)
        if len(d) != m:
            raise ExistenceError(f"d must have length m={m}")
        if len(k) != n:
            raise ExistenceError(f"k must have length n={n}")
        return super().__new__(cls, m, n, r, d, k)

    @property
    def N(self) -> int:
        return (self.m - self.r) * (self.n - self.r) - 1

    def diagnostics(self) -> list[str]:
        """Which existence inequalities fail (empty list when none)."""
        bad = []
        if not self.m >= self.n:
            bad.append(f"m >= n fails: m={self.m}, n={self.n}")
        if not self.n > self.r:
            bad.append(f"n > r fails: n={self.n}, r={self.r}")
        if not self.r >= 0:
            bad.append(f"r >= 0 fails: r={self.r}")
        for i, di in enumerate(self.d, start=1):
            for j, kj in enumerate(self.k, start=1):
                if not di > kj:
                    bad.append(f"d_{i} > k_{j} fails: {di} <= {kj}")
        if (self.m - self.r) * (self.n - self.r) < 2:
            bad.append(
                f"ambient dimension N={(self.m - self.r) * (self.n - self.r) - 1}"
                " is below 1"
            )
        return bad

    def twisted(self, l: int) -> "ProblemSpec":
        """Simultaneous twist of both bundles by ``O(l)``."""
        return ProblemSpec(
            self.m,
            self.n,
            self.r,
            tuple(x + l for x in self.d),
            tuple(x + l for x in self.k),
        )


def existence_check(spec: ProblemSpec) -> tuple[bool, list[str]]:
    """Whether the determinantal resultant exists, with failure diagnostics."""
    bad = spec.diagnostics()
    return (not bad, bad)


def require_existence(spec: ProblemSpec) -> None:
    ok, bad = existence_check(spec)
    if not ok:
        raise ExistenceError("; ".join(bad))


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def _dual_mul(x: list[int], y: list[int]) -> list[int]:
    """Product of dual numbers ``[pure, alpha_1 part, ..., alpha_m part]``."""
    x0, y0 = x[0], y[0]
    return [x0 * y0] + [x0 * b + y0 * a for a, b in zip(x[1:], y[1:])]


def _dual_det(rows: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix of dual numbers by minors on column
    sets, rows taken from the last as in ``polyring._det_packed``: each minor
    once, at most q 2^(q-1) products for q x q, not Laplace's q!."""
    zero = [0] * len(rows[0][0])
    level = {1 << c: x for c, x in enumerate(rows[-1]) if any(x)}
    for row in rows[-2::-1]:
        grown: dict[int, list[int]] = {}
        for cols, sub in level.items():
            for c, x in enumerate(row):
                if any(x) and not cols >> c & 1:
                    sign = -1 if (cols & (1 << c) - 1).bit_count() & 1 else 1
                    acc = grown.get(cols | 1 << c, zero)
                    grown[cols | 1 << c] = [a + sign * b for a, b in zip(acc, _dual_mul(x, sub))]
        level = {cols: acc for cols, acc in grown.items() if any(acc)}
    return level.get((1 << len(rows)) - 1, zero)


def multidegree(spec: ProblemSpec) -> tuple[int, ...]:
    """Degrees of the resultant in the coefficients of each column.

    ``N_i = (-1)^((m-r)(n-r))`` times the alpha_i, h^N coefficient of the
    banded determinant of ``prod(1 - (d_i h + alpha_i) t) / prod(1 - k_j h
    t)`` (module docstring).
    """
    require_existence(spec)
    p, q = spec.m - spec.r, spec.n - spec.r
    zero = [0] * (spec.m + 1)
    c = [[1] + zero[1:]] + [list(zero) for _ in range(p + q - 1)]
    for i, d in enumerate(spec.d, start=1):
        for s in range(p + q - 1, 0, -1):  # c_s -= (d_i + alpha_i) c_{s-1}
            c[s] = [a - d * b for a, b in zip(c[s], c[s - 1])]
            c[s][i] -= c[s - 1][0]
    for k in spec.k:
        for s in range(1, p + q):  # divide by 1 - k_j t
            c[s] = [a + k * b for a, b in zip(c[s], c[s - 1])]
    rows = [[c[p - a + b] if p - a + b >= 0 else zero for b in range(q)] for a in range(q)]
    sign = -1 if (p * q) % 2 else 1
    return tuple(sign * x for x in _dual_det(rows)[1:])


def total_degree(spec: ProblemSpec) -> int:
    """Degree of the resultant: the sum of the column degrees."""
    return sum(multidegree(spec))


def critical_degree(spec: ProblemSpec) -> int:
    """Smallest degree at which the minors of sigma_d compute the resultant.

    With k sorted descending, ``nu = (n-r)(sum d - sum k) - (m-n)(k_{r+1} +
    ... + k_n) - (m-r)(n-r) + 1``.  The value is invariant under
    simultaneous twisting of both bundles.
    """
    require_existence(spec)
    ks = sorted(spec.k, reverse=True)
    return (
        (spec.n - spec.r) * (sum(spec.d) - sum(spec.k))
        - (spec.m - spec.n) * sum(ks[spec.r :])
        - (spec.m - spec.r) * (spec.n - spec.r)
        + 1
    )
