"""Resultant matrices and gcd-of-minors resultants for split morphisms.

Given a morphism between split bundles on projective ``N``-space, the map
``sigma_d`` sends each basis element ``e_{J,I} * mu`` (a choice of ``r+1``
rows ``J``, ``r+1`` columns ``I`` and a monomial ``mu`` of complementary
degree) to ``Delta_{J,I} * mu``, the corresponding maximal minor of the
morphism matrix times the monomial, expanded in the monomial basis of
degree-``d`` forms.  For ``d`` at least the critical degree the gcd of the
maximal minors of ``sigma_d`` is the determinantal resultant, and for a
concrete rational morphism the resultant vanishes exactly when ``sigma_d``
drops rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .chern_degree import (
    ExistenceError,
    ProblemSpec,
    require_existence,
    total_degree,
)
from .polyring import (
    Exponent,
    PolyError,
    Polynomial,
    VarSet,
    det_fraction_free,
    monomials_of_degree,
    multivariate_gcd,
    normalize_gcd_style,
)

#: Seed for the fixed integer evaluation point used to order minors.
_POINT_SEED = 0x5EED

#: Column shuffles tried per requested minor after the two scan orders.
_SHUFFLES_PER_MINOR = 4


def geometric_names(spec: ProblemSpec) -> tuple[str, ...]:
    """Coordinate names x0..xN of the ambient projective space."""
    return tuple(f"x{t}" for t in range(spec.N + 1))


def default_naming(j: int, i: int, exps: Exponent) -> str:
    """Parameter name for the coefficient of monomial ``exps`` in entry (j, i).

    Row ``j`` and column ``i`` are 1-based; the exponent tuple is appended
    verbatim, e.g. ``c_1_2_0_3`` for row 1, column 2, monomial x0^0 x1^3.
    """
    return f"c_{j}_{i}_" + "_".join(str(e) for e in exps)


def letter_naming() -> Callable[[int, int, Exponent], str]:
    """One letter per matrix column with a per-column running counter.

    The counter advances over rows in order and, within a row, over the
    monomials of the entry in graded-lex descending order, matching the
    naming used by the scroll Chow matrices (a0, a1, ... for column 1,
    b0, b1, ... for column 2, and so on).
    """
    letters = "abcdefghijklmnopqrstuvwz"
    counters: dict[int, int] = {}

    def name(j: int, i: int, exps: Exponent) -> str:
        if i > len(letters):
            return default_naming(j, i, exps)
        c = counters.get(i, 0)
        counters[i] = c + 1
        return f"{letters[i - 1]}{c}"

    return name


@dataclass(frozen=True)
class GenericMorphism:
    """The universal morphism with one parameter per entry coefficient.

    Entry (j, i) is the generic form of degree ``d_i - k_j`` in the
    geometric variables, with a distinct parameter variable per monomial.
    The shared varset lists the geometric variables first, then the
    parameters in (column, row, monomial) order.
    """

    spec: ProblemSpec
    varset: VarSet
    geo_names: tuple[str, ...]
    param_names: tuple[str, ...]
    coeff_names: dict[tuple[int, int, Exponent], str]
    param_column: dict[str, int]
    entries: tuple[tuple[Polynomial, ...], ...]

    def entry(self, j: int, i: int) -> Polynomial:
        """Matrix entry, rows and columns 1-based."""
        return self.entries[j - 1][i - 1]

    def block_names(self, i: int) -> tuple[str, ...]:
        """Parameter names belonging to matrix column ``i``."""
        return tuple(p for p in self.param_names if self.param_column[p] == i)


def generic_morphism(
    spec: ProblemSpec,
    naming: Callable[[int, int, Exponent], str] | None = None,
) -> GenericMorphism:
    require_existence(spec)
    geo = geometric_names(spec)
    nv = len(geo)
    if naming is None:
        naming = default_naming
    coeff_names: dict[tuple[int, int, Exponent], str] = {}
    param_names: list[str] = []
    param_column: dict[str, int] = {}
    for i in range(1, spec.m + 1):
        for j in range(1, spec.n + 1):
            deg = spec.d[i - 1] - spec.k[j - 1]
            for exps in monomials_of_degree(nv, deg):
                name = naming(j, i, exps)
                if name in param_column:
                    raise PolyError(f"duplicate parameter name {name!r}")
                coeff_names[(j, i, exps)] = name
                param_names.append(name)
                param_column[name] = i
    varset = VarSet(geo + tuple(param_names))
    pad = (0,) * len(param_names)
    entries = []
    for j in range(1, spec.n + 1):
        row = []
        for i in range(1, spec.m + 1):
            terms = {}
            deg = spec.d[i - 1] - spec.k[j - 1]
            for exps in monomials_of_degree(nv, deg):
                name = coeff_names[(j, i, exps)]
                pe = [0] * len(param_names)
                pe[param_names.index(name)] = 1
                terms[exps + tuple(pe)] = Fraction(1)
            row.append(Polynomial(varset, terms))
        entries.append(tuple(row))
    return GenericMorphism(
        spec=spec,
        varset=varset,
        geo_names=geo,
        param_names=tuple(param_names),
        coeff_names=coeff_names,
        param_column=param_column,
        entries=tuple(entries),
    )


@dataclass(frozen=True)
class ConcreteMorphism:
    """A rational morphism: entries in the geometric variables only."""

    spec: ProblemSpec
    varset: VarSet
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self) -> None:
        geo = geometric_names(self.spec)
        if self.varset.names != geo:
            raise PolyError(f"variables must be {', '.join(geo)}")
        if len(self.entries) != self.spec.n:
            raise PolyError(f"expected {self.spec.n} rows")
        for j, row in enumerate(self.entries, start=1):
            if len(row) != self.spec.m:
                raise PolyError(f"row {j} must have {self.spec.m} entries")
            for i, p in enumerate(row, start=1):
                if p.varset != self.varset:
                    raise PolyError(f"entry ({j},{i}) is not over {', '.join(geo)}")
                want = self.spec.d[i - 1] - self.spec.k[j - 1]
                if p.is_zero():
                    continue
                degs = {sum(e) for e in p.terms}
                if degs != {want}:
                    raise PolyError(
                        f"entry ({j},{i}) must be homogeneous of degree {want}"
                    )

    def entry(self, j: int, i: int) -> Polynomial:
        return self.entries[j - 1][i - 1]


def concrete_morphism(
    spec: ProblemSpec, rows: Sequence[Sequence[Polynomial]]
) -> ConcreteMorphism:
    """A rational morphism from rows of forms in the variables x0..xN.

    An entry may list x0..xN in any order: its exponents are read by
    variable name.  Any other variable list is rejected.
    """
    require_existence(spec)
    varset = VarSet(geometric_names(spec))
    return ConcreteMorphism(
        spec=spec,
        varset=varset,
        entries=tuple(tuple(_by_name(p, varset) for p in row) for row in rows),
    )


def _by_name(p: Polynomial, varset: VarSet) -> Polynomial:
    """``p`` rewritten over ``varset``, which must hold the same names."""
    if p.varset == varset:
        return p
    if sorted(p.varset.names) != sorted(varset.names):
        raise PolyError(
            f"variables {list(p.varset.names)} are not {list(varset.names)}"
            " in some order"
        )
    perm = [p.varset.index(name) for name in varset.names]
    return Polynomial(
        varset, {tuple(e[t] for t in perm): c for e, c in p.terms.items()}
    )


def parameter_assignment(
    generic: GenericMorphism, concrete: ConcreteMorphism
) -> dict[str, Fraction]:
    """Parameter values that specialize the generic morphism to ``concrete``."""
    out: dict[str, Fraction] = {}
    for (j, i, exps), name in generic.coeff_names.items():
        out[name] = concrete.entry(j, i).terms.get(exps, Fraction(0))
    return out


# ---------------------------------------------------------------------------
# Critical degree
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The sigma_d matrix
# ---------------------------------------------------------------------------

ColKey = tuple[tuple[int, ...], tuple[int, ...], Exponent]


@dataclass(frozen=True)
class SigmaMatrix:
    """The matrix of sigma_d in the monomial basis of degree-d forms.

    Rows are indexed by the monomials of degree ``d`` in the geometric
    variables (graded-lex descending); columns by triples ``(J, I, mu)``
    with ``J`` an (r+1)-subset of matrix rows, ``I`` an (r+1)-subset of
    matrix columns (both in lexicographic subset order) and ``mu`` a
    monomial of the complementary degree (graded-lex descending).  Column
    groups with negative complementary degree are omitted and counted.

    For a generic morphism entries are polynomials in the parameters
    (``symbolic``); for a concrete one they are exact rationals.
    """

    spec: ProblemSpec
    d: int
    row_basis: tuple[Exponent, ...]
    col_basis: tuple[ColKey, ...]
    entries: tuple[tuple, ...]
    symbolic: bool
    param_varset: VarSet | None
    omitted_columns: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))

    def column_polynomial(self, c: int) -> Polynomial:
        """Re-expansion sum_rho entry(rho, c) * rho of a symbolic column.

        Returns a polynomial over the full (geometric + parameter) varset;
        by construction it equals ``Delta_{J,I} * mu``.
        """
        if not self.symbolic:
            raise PolyError("column_polynomial requires a symbolic matrix")
        assert self.param_varset is not None
        geo = geometric_names(self.spec)
        full = VarSet(geo + self.param_varset.names)
        terms: dict[Exponent, Fraction] = {}
        for r, rho in enumerate(self.row_basis):
            p = self.entries[r][c]
            for pe, coeff in p.terms.items():
                terms[rho + pe] = terms.get(rho + pe, Fraction(0)) + coeff
        return Polynomial(full, terms)


def build_sigma(
    spec: ProblemSpec,
    d: int,
    phi: GenericMorphism | ConcreteMorphism,
) -> SigmaMatrix:
    require_existence(spec)
    if phi.spec != spec:
        raise PolyError("morphism spec does not match")
    if d < 0:
        raise PolyError("degree must be >= 0")
    geo = geometric_names(spec)
    nv = len(geo)
    symbolic = isinstance(phi, GenericMorphism)
    nparam = len(phi.param_names) if symbolic else 0
    param_varset = VarSet(phi.param_names) if symbolic else None

    row_basis = tuple(monomials_of_degree(nv, d))
    row_index = {e: r for r, e in enumerate(row_basis)}

    col_basis: list[ColKey] = []
    # entry accumulators: per column, a dict row -> coefficient dict/value
    columns: list[list] = []
    omitted = 0
    zero_fill: Polynomial | Fraction
    if symbolic:
        zero_fill = Polynomial.zero(param_varset)
    else:
        zero_fill = Fraction(0)

    for J in combinations(range(1, spec.n + 1), spec.r + 1):
        for I in combinations(range(1, spec.m + 1), spec.r + 1):
            mu_deg = (
                d
                - sum(spec.d[i - 1] for i in I)
                + sum(spec.k[j - 1] for j in J)
            )
            if mu_deg < 0:
                omitted += 1
                continue
            sub = [[phi.entry(j, i) for i in I] for j in J]
            delta = det_fraction_free(sub)
            for mu in monomials_of_degree(nv, mu_deg):
                col: list = [None] * len(row_basis)
                for e, c in delta.terms.items():
                    rho = tuple(a + b for a, b in zip(e[:nv], mu))
                    r = row_index[rho]
                    if symbolic:
                        pe = e[nv:]
                        if col[r] is None:
                            col[r] = {}
                        col[r][pe] = col[r].get(pe, 0) + c
                    else:
                        v = col[r]
                        col[r] = c if v is None else v + c
                col_basis.append((J, I, mu))
                columns.append(col)

    rows_out = []
    for r in range(len(row_basis)):
        row = []
        for col in columns:
            v = col[r]
            if v is None:
                row.append(zero_fill)
            elif symbolic:
                row.append(Polynomial(param_varset, v))
            else:
                row.append(v)
        rows_out.append(tuple(row))

    return SigmaMatrix(
        spec=spec,
        d=d,
        row_basis=row_basis,
        col_basis=tuple(col_basis),
        entries=tuple(rows_out),
        symbolic=symbolic,
        param_varset=param_varset,
        omitted_columns=omitted,
    )


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------


def row_echelon(
    matrix: Sequence[Sequence[Fraction | int]],
) -> tuple[list[int], list[Fraction], int]:
    """Exact rank by fraction-free elimination over Z.

    Each row is scaled once by the lcm of its denominators; forward Bareiss
    elimination then runs on integers, every division exact.  Returns the
    pivot columns (ascending: the lexicographically first maximal
    independent column set), the pivot entries of Gaussian elimination on
    the rational matrix and the row-swap sign.  The k-th pivot entry is
    ``M_k / (M_{k-1} * den)``, with ``M_k`` the leading k x k minor of the
    scaled, row-swapped matrix on the pivot columns and ``den`` the scale
    of the pivot row.  Elimination stops once the rank reaches the row
    count.
    """
    dens = [lcm(*(v.denominator for v in row)) for row in matrix]
    m = [
        [v.numerator * (den // v.denominator) for v in row]
        for row, den in zip(matrix, dens)
    ]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    values: list[Fraction] = []
    sign = 1
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            dens[rank], dens[pivot] = dens[pivot], dens[rank]
            sign = -sign
        top = m[rank]
        pv = top[c]
        for r in range(rank + 1, rows):
            row = m[r]
            f = row[c]
            # A row with a zero in the pivot column is still scaled: the
            # Bareiss divisions below stay exact only if every row is.
            if f:
                row[c:] = [(pv * a - f * b) // prev for a, b in zip(row[c:], top[c:])]
            else:
                row[c + 1 :] = [a * pv // prev for a in row[c + 1 :]]
        pivots.append(c)
        values.append(Fraction(pv, prev * dens[rank]))
        prev = pv
        rank += 1
        if rank == rows:
            break
    return pivots, values, sign


def rational_rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank of a rational matrix by fraction-free elimination over Z."""
    return len(row_echelon(matrix)[0])


def rational_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square exact rational matrix."""
    pivots, values, sign = row_echelon(matrix)
    if len(pivots) < len(matrix):
        return Fraction(0)
    return prod(values, start=Fraction(sign))


# ---------------------------------------------------------------------------
# Resultant as a gcd of maximal minors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultantOutput:
    """Result of the gcd-of-minors computation."""

    polynomial: Polynomial
    block_degrees: tuple[int, ...]
    confirmed: bool
    minors_used: int
    minor_columns: tuple[tuple[int, ...], ...]
    normalization: str
    sigma: SigmaMatrix  # the matrix whose minors were taken


def _candidate_column_sets(
    numeric: list[list[Fraction]], budget: int
) -> Iterator[list[int]]:
    """Lazily yield distinct column sets with nonzero numeric minors.

    Each set is the greedy pivot set of the evaluated matrix with its
    columns scanned in some order: left to right, then right to left, then
    in shuffles seeded with ``_POINT_SEED``.  At most ``budget`` sets are
    yielded, and ``_SHUFFLES_PER_MINOR * budget`` shuffles are tried; none
    is yielded if the matrix is short of full row rank.
    """
    rows, cols = len(numeric), len(numeric[0])
    rng = random.Random(_POINT_SEED)

    def orders() -> Iterator[list[int]]:
        order = list(range(cols))
        yield order
        yield order[::-1]
        for _ in range(_SHUFFLES_PER_MINOR * budget):
            rng.shuffle(order)
            yield order

    seen: set[tuple[int, ...]] = set()
    for order in orders():
        pivots = row_echelon([[row[c] for c in order] for row in numeric])[0]
        if len(pivots) < rows:
            return
        cand = sorted(order[p] for p in pivots)
        if tuple(cand) not in seen:
            seen.add(tuple(cand))
            yield cand
            if len(seen) >= budget:
                return


def resultant_gcd(
    spec: ProblemSpec,
    d: int | None = None,
    minor_budget: int = 8,
    naming: Callable[[int, int, Exponent], str] | None = None,
) -> ResultantOutput:
    """The determinantal resultant as a gcd of maximal minors of sigma_d.

    Minors are enumerated in a documented deterministic order (greedy
    pivot sets of the matrix evaluated at a fixed integer point, its
    columns scanned left to right, right to left, then in seeded shuffles;
    see ``_candidate_column_sets``); the running gcd stops as soon as its
    degree in the parameters reaches the predicted total degree, since the
    resultant divides every maximal minor.  If the budget runs out first, the
    running gcd is returned unconfirmed.
    """
    require_existence(spec)
    nu = critical_degree(spec)
    if d is None:
        d = nu
    if d < nu:
        raise PolyError(f"degree {d} is below the critical degree {nu}")
    if minor_budget < 1:
        raise PolyError("minor budget must be positive")
    phi = generic_morphism(spec, naming)
    sigma = build_sigma(spec, d, phi)
    rows, cols = sigma.shape
    if cols < rows:
        raise PolyError(
            f"sigma_{d} has {cols} columns for {rows} rows; degree too small"
        )

    rng = random.Random(_POINT_SEED)
    for _ in range(16):
        point = {p: rng.randint(1, 4099) for p in phi.param_names}
        numeric = [
            [e.evaluate(point) for e in row] for row in sigma.entries
        ]
        plans = _candidate_column_sets(numeric, minor_budget)
        first = next(plans, None)
        if first is not None:
            break
    else:
        raise PolyError("could not find a nonsingular maximal minor")

    target = total_degree(spec)
    current: Polynomial | None = None
    used = 0
    chosen: list[tuple[int, ...]] = []
    for cand in chain([first], plans):
        sub = [[sigma.entries[r][c] for c in cand] for r in range(rows)]
        minor = det_fraction_free(sub)
        if minor.is_zero():
            continue
        used += 1
        chosen.append(tuple(cand))
        current = (
            normalize_gcd_style(minor)
            if current is None
            else multivariate_gcd(current, minor)
        )
        if current.degree <= target:
            break
        if used >= minor_budget:
            break

    assert current is not None
    confirmed = current.degree == target
    blocks = tuple(
        int(current.degree_in(phi.block_names(i)))
        for i in range(1, spec.m + 1)
    )
    return ResultantOutput(
        polynomial=current,
        block_degrees=blocks,
        confirmed=confirmed,
        minors_used=used,
        minor_columns=tuple(chosen),
        normalization="integer content 1, positive graded-lex leading coefficient",
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# Vanishing test and staircase specialization
# ---------------------------------------------------------------------------


class SigmaRank(NamedTuple):
    """Degree, shape and exact rank of sigma_d at a rational morphism."""

    d: int
    rows: int
    cols: int
    rank: int

    @property
    def vanishes(self) -> bool:
        """For d >= nu: the resultant vanishes exactly when sigma_d drops rank."""
        return self.rank < self.rows


def sigma_rank(
    spec: ProblemSpec, phi: ConcreteMorphism, d: int | None = None
) -> SigmaRank:
    """Build ``sigma_d`` with the concrete entries and take its exact rank.

    ``d`` defaults to the critical degree and may not be below it: only
    there does a rank drop mean that the resultant vanishes.
    """
    require_existence(spec)
    if phi.spec != spec:
        raise PolyError("morphism spec does not match")
    nu = critical_degree(spec)
    if d is None:
        d = nu
    if d < nu:
        raise PolyError(f"degree {d} is below the critical degree {nu}")
    sigma = build_sigma(spec, d, phi)
    rows, cols = sigma.shape
    return SigmaRank(d, rows, cols, rational_rank(sigma.entries))


def vanish_test(
    spec: ProblemSpec, phi: ConcreteMorphism, d: int | None = None
) -> bool:
    """Whether the determinantal resultant vanishes at a rational morphism.

    Checks surjectivity of ``sigma_d`` by exact rank (see ``sigma_rank``).
    """
    return sigma_rank(spec, phi, d).vanishes


def staircase_specialization(spec: ProblemSpec) -> ConcreteMorphism:
    """The monomial morphism of full rank at every point (principal case).

    Entry (j, i) is ``x_{i-j}^(d_i - k_j)`` on the band ``j <= i <= j +
    (m - n)`` and zero elsewhere; its sigma matrix has full row rank, so
    the resultant does not vanish on it.
    """
    require_existence(spec)
    if spec.r != spec.n - 1:
        raise ExistenceError("staircase specialization needs the principal case")
    geo = geometric_names(spec)
    varset = VarSet(geo)
    nv = len(geo)
    rows = []
    for j in range(1, spec.n + 1):
        row = []
        for i in range(1, spec.m + 1):
            off = i - j
            if 0 <= off <= spec.m - spec.n:
                e = [0] * nv
                e[off] = spec.d[i - 1] - spec.k[j - 1]
                row.append(Polynomial.monomial(varset, tuple(e)))
            else:
                row.append(Polynomial.zero(varset))
        rows.append(tuple(row))
    return ConcreteMorphism(spec=spec, varset=varset, entries=tuple(rows))
