"""The resultant as a gcd of maximal minors of sigma_d: a test oracle.

The resultant divides every maximal minor of sigma_d, so the gcd of enough
of them is the resultant.  This route is independent of the complexes
``resultant_gcd`` builds, but it finishes only on small specs: with a square
sigma_d it is one determinant, otherwise it needs a multivariate gcd of
large minors.  The tests compare ``resultant_gcd`` with it where it does.

``generic_sigma_cells`` is the symbolic sigma_d the same way, from
``det_fraction_free`` on the generic morphism's entries as ``Polynomial``s
(``generic_entries``): the oracle of ``build_sigma``'s packed cells.  The
library keeps the generic morphism as its coefficient layout only, and
divides only packed integer dicts; the entries, an exact division of
``Polynomial``s (``try_exact_div``, ``exact_div``) and the parameter values
of a concrete morphism (``parameter_assignment``) are built here, for the
tests, as is ``laplace_det``, the cofactor expansion that the determinant
tests compare with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterator, Sequence

from detres.chern_degree import ProblemSpec, total_degree
from detres.polyring import (
    NEG_INFINITY,
    PolyError,
    Polynomial,
    VarSet,
    _clear_denominators,
    _dict_scale,
    _div_tuples,
    _int_content,
    det_fraction_free,
    multivariate_gcd,
    normalize_gcd_style,
)
from detres.resultant_engine import (
    _POINT_SEED,
    ConcreteMorphism,
    ResultantOutput,
    SigmaMatrix,
    _points,
    GenericMorphism,
    _resultant_degree,
    build_sigma,
    generic_morphism,
    geometric_names,
    row_echelon,
)

#: Column shuffles tried per requested minor after the two scan orders.
SHUFFLES_PER_MINOR = 4


def generic_entries(phi: GenericMorphism) -> list[list[Polynomial]]:
    """The generic morphism's matrix, rows of ``Polynomial`` entries over
    x0..xN followed by the parameters: entry (j, i) is the sum of
    ``coeff_names[(j, i, e)] * x^e``."""
    spec = phi.spec
    geo = geometric_names(spec)
    varset = VarSet(geo + phi.param_names)
    terms: list[list[dict]] = [[{} for _ in range(spec.m)] for _ in range(spec.n)]
    for t, (j, i, e) in enumerate(phi.coeff_names):  # parameter t is the t-th name
        unit = [0] * len(phi.param_names)
        unit[t] = 1
        terms[j - 1][i - 1][e + tuple(unit)] = 1
    return [[Polynomial(varset, entry) for entry in row] for row in terms]


def laplace_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of ``Polynomial``s by cofactor
    expansion along its first row: the naive oracle of the determinants."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    varset = matrix[0][0].varset
    acc = Polynomial.zero(varset)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * laplace_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def block_names(phi: GenericMorphism, i: int) -> tuple[str, ...]:
    """Names of the parameters of matrix column ``i``."""
    return tuple(name for (_, col, _), name in phi.coeff_names.items() if col == i)


def parameter_assignment(generic: GenericMorphism, concrete: ConcreteMorphism) -> dict[str, Fraction]:
    """Parameter values that specialize the generic morphism to ``concrete``."""
    return {
        name: concrete.entry(j, i).terms.get(e, Fraction(0))
        for (j, i, e), name in generic.coeff_names.items()
    }


def try_exact_div(p: Polynomial, d: Polynomial) -> Polynomial | None:
    """``p / d`` when the division is exact, else None.

    Both sides are cleared of denominators and the divisor is made
    primitive, so by Gauss's lemma the integer division is exact exactly
    when the rational one is.
    """
    p._check_varset(d)
    if d.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.varset)
    (P,), p_den = _clear_denominators(p.terms)
    (D,), d_den = _clear_denominators(d.terms)
    content = _int_content(D)
    q = _div_tuples(P, {e: c // content for e, c in D.items()})
    if q is None:
        return None
    scale = Fraction(d_den, p_den * content)
    return Polynomial(p.varset, q if scale == 1 else _dict_scale(q, scale))


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    q = try_exact_div(p, d)
    if q is None:
        raise PolyError("division is not exact")
    return q


def generic_sigma_cells(sigma: SigmaMatrix, phi: GenericMorphism) -> tuple[tuple[Polynomial, ...], ...]:
    """The entries of the symbolic sigma_d on ``sigma``'s rows and columns:
    each Delta_{J,I} by ``det_fraction_free`` on phi's entries, split by its
    monomial in x0..xN, and the part at x^e is the cell of row e + mu."""
    nv, pv = phi.spec.N + 1, VarSet(phi.param_names)
    entries = generic_entries(phi)
    index = {e: r for r, e in enumerate(sigma.row_basis)}
    cols = []
    for J, I, mu in sigma.col_basis:
        split: dict = {}
        for e, c in det_fraction_free([[entries[j - 1][i - 1] for i in I] for j in J]).terms.items():
            split.setdefault(e[:nv], {})[e[nv:]] = c
        col = [Polynomial.zero(pv)] * len(index)
        for e, terms in split.items():
            col[index[tuple(a + b for a, b in zip(e, mu))]] = Polynomial(pv, terms)
        cols.append(col)
    return tuple(zip(*cols))


def sigma_at(sigma: SigmaMatrix, point: Sequence[int]) -> list[list[int]]:
    """The symbolic sigma_d (its entries have integer coefficients) at an
    integer parameter point, in int arithmetic, term by term."""
    out = []
    for row in sigma.entries:
        values = []
        for p in row:
            total = 0
            for e, c in p.terms.items():
                v = c.numerator
                for x, k in zip(point, e):
                    if k:
                        v *= x**k
                total += v
            values.append(total)
        out.append(values)
    return out


def degrees(poly: Polynomial, sizes: Sequence[int]) -> tuple[list, int | float]:
    """Degrees of ``poly`` in consecutive blocks of variables of the given
    sizes, and its total degree, in one pass over the exponent tuples:
    maxima over the terms, as in ``degree_in`` and ``degree``
    (``NEG_INFINITY`` for zero)."""
    cuts = list(accumulate(sizes, initial=0))
    spans = [*zip(cuts, cuts[1:]), (0, len(poly.varset))]
    top: list = [NEG_INFINITY] * len(spans)
    for e in poly.terms:
        for t, (a, b) in enumerate(spans):
            s = sum(e[a:b])
            if s > top[t]:
                top[t] = s
    return top[:-1], top[-1]


def candidate_column_sets(numeric: Sequence[Sequence], budget: int) -> Iterator[list[int]]:
    """Lazily yield distinct column sets with nonzero numeric minors.

    Each set is the greedy pivot set of the evaluated matrix with its
    columns scanned in some order: left to right, then right to left, then
    in shuffles seeded with ``_POINT_SEED``.  At most ``budget`` sets are
    yielded, and ``SHUFFLES_PER_MINOR * budget`` shuffles are tried; none
    is yielded if the matrix is short of full row rank.
    """
    rows, cols = len(numeric), len(numeric[0])
    rng = random.Random(_POINT_SEED)

    def orders() -> Iterator[list[int]]:
        order = list(range(cols))
        yield order
        yield order[::-1]
        for _ in range(SHUFFLES_PER_MINOR * budget):
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


def resultant_by_minors(
    spec: ProblemSpec, d: int | None = None, budget: int = 8, letters: bool = False
) -> ResultantOutput:
    """The resultant as a gcd of at most ``budget`` maximal minors of sigma_d.

    The minors are the column sets of ``candidate_column_sets`` at the
    first integer point of ``_points`` where sigma_d has full row rank.  The
    running gcd stops as soon as its degree reaches the predicted total
    degree; if the budget runs out first, it is returned unconfirmed.  The
    output has the fields of ``resultant_gcd``'s, with ``minors_used`` the
    number of minors taken and ``minor_columns`` their column sets.
    """
    d = _resultant_degree(spec, d)
    phi = generic_morphism(spec, letters)
    sigma = build_sigma(spec, d, phi)
    rows = len(sigma.entries)
    for point in _points(phi):
        plans = candidate_column_sets(sigma_at(sigma, point), budget)
        first = next(plans, None)
        if first is not None:
            break
    else:
        raise PolyError("could not find a nonsingular maximal minor")

    target = total_degree(spec)
    current: Polynomial | None = None
    chosen: list[tuple[int, ...]] = []
    for cand in chain([first], plans):
        minor = det_fraction_free([[sigma.entries[r][c] for c in cand] for r in range(rows)])
        if minor.is_zero():
            continue
        chosen.append(tuple(cand))
        current = normalize_gcd_style(minor) if current is None else multivariate_gcd(current, minor)
        if current.degree <= target or len(chosen) >= budget:
            break

    assert current is not None
    blocks, total = degrees(current, [len(block_names(phi, i)) for i in range(1, spec.m + 1)])
    return ResultantOutput(
        polynomial=current,
        block_degrees=tuple(int(b) for b in blocks),
        confirmed=total == target,
        minors_used=len(chosen),
        minor_columns=tuple(chosen),
        normalization="integer content 1, positive graded-lex leading coefficient",
    )
