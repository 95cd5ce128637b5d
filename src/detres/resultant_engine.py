"""Resultant matrices, the resultant polynomial and rank tests for split morphisms.

Given a morphism between split bundles on projective ``N``-space, the map
``sigma_d`` sends each basis element ``e_{J,I} * mu`` (a choice of ``r+1``
rows ``J``, ``r+1`` columns ``I`` and a monomial ``mu`` of complementary
degree) to ``Delta_{J,I} * mu``, the corresponding maximal minor of the
morphism matrix times the monomial, expanded in the monomial basis of
degree-``d`` forms.  For ``d`` at least the critical degree, and a concrete
rational morphism, the resultant vanishes exactly when ``sigma_d`` drops
rank.

``resultant_gcd`` computes the resultant of the generic morphism as the
determinant of the degree-d strand of a complex whose first differential is
sigma_d: the Eagon-Northcott complex of the morphism for r = n - 1, and for
r = 0 that of the 1 x mn row of its entries (their Koszul complex, sigma_d
their Macaulay map).  That determinant is a quotient of square determinants
by Cayley's formula (Gelfand, Kapranov & Zelevinsky, 1994, Appendix A):
block p is the differential D_p on the rows outside the pivots of block
p - 1, its determinant in the numerator for odd p, the denominator for even
p.  The route runs on packed integer term dicts.  Every D_p is held in one
form, columns of packed parameter dicts in the fields of the block
determinants (sigma_d's cells its minors, taken on its entries packed once;
a later cell one signed parameter), so one loop chooses every block at an
integer point and one expression takes it.  Only the resultant becomes a
``Polynomial`` again.  For 0 < r < n - 1 the complex is Lascoux's, which is
not built here: ``resultant_gcd`` raises ``LascouxCaseError`` before any
matrix is.

The rank test stays on integers: a concrete morphism is cleared of
denominators by one lcm L and packed once, every Delta_{J,I} is an integer
minor, and ``rational_rank`` takes the rank of the resulting columns, the
true ones times L^(r+1) (``build_sigma`` divides by it).  That rank is taken
modulo p = 2^61 - 1 on rows packed into one int each and certified exactly
by one of three paths: full row rank modulo p is full rank over Q; a rank
drop is confirmed by kernel vectors lifted from the residues and checked
over Z; anything else falls back to ``row_echelon`` (Bareiss elimination
that rescales a row only when it next uses it).  ``row_echelon`` also gives
``rational_det`` its determinant and the choice of blocks its pivot
columns, which are part of the output.  Every rational matrix is cleared by
one lcm of all its denominators, never row by row.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, combinations_with_replacement
from math import isqrt, lcm, prod
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .chern_degree import (
    ExistenceError,
    ProblemSpec,
    critical_degree,
    multidegree,
    require_existence,
)
from .polyring import (
    NEG_INFINITY,
    Exponent,
    PolyError,
    Polynomial,
    VarSet,
    _clear_denominators,
    _dict_mul,
    _det_packed,
    _dict_try_div,
    _exponent_layout,
    _field_bits,
    _from_terms,
    _normalize_int_dict,
    _pack,
    _packed_index,
    _unpack,
    monomials_of_degree,
)

#: Seed for the integer evaluation points that pick the blocks.
_POINT_SEED = 0x5EED


def geometric_names(spec: ProblemSpec) -> tuple[str, ...]:
    """Coordinate names x0..xN of the ambient projective space."""
    return tuple(f"x{t}" for t in range(spec.N + 1))


#: Column letters of the letter-named parameters: a0, a1, ... in column 1.
_LETTERS = "abcdefghijklmnopqrstuvwz"


class GenericMorphism(NamedTuple):
    """The universal morphism with one parameter per entry coefficient.

    Entry (j, i) is the generic form of degree ``d_i - k_j`` in the
    geometric variables, with a distinct parameter per monomial: the
    coefficient of monomial ``e`` in entry (j, i) is the parameter
    ``coeff_names[(j, i, e)]``.  The parameters are listed in (column, row,
    monomial) order, the order of ``coeff_names``.
    """

    spec: ProblemSpec
    param_names: tuple[str, ...]
    coeff_names: dict[tuple[int, int, Exponent], str]


def generic_morphism(spec: ProblemSpec, letters: bool = False) -> GenericMorphism:
    """The generic morphism of ``spec``, one parameter per coefficient.

    The coefficient of monomial e in entry (j, i), both 1-based, is named
    ``c_j_i_e`` (``c_1_2_0_3`` for x0^0 x1^3 in row 1, column 2).  With
    ``letters`` it is the column's letter and its place in the column, over
    the rows and then the monomials in graded-lex descending order: a0, a1,
    ... in column 1, b0, ... in column 2; columns past the 24th letter keep
    the ``c_j_i_e`` names.
    """
    require_existence(spec)
    nv = spec.N + 1
    coeff_names: dict[tuple[int, int, Exponent], str] = {}
    for i in range(1, spec.m + 1):
        place = 0
        for j in range(1, spec.n + 1):
            for exps in monomials_of_degree(nv, spec.d[i - 1] - spec.k[j - 1]):
                if letters and i <= len(_LETTERS):
                    coeff_names[(j, i, exps)] = f"{_LETTERS[i - 1]}{place}"
                    place += 1
                else:
                    coeff_names[(j, i, exps)] = f"c_{j}_{i}_" + "_".join(map(str, exps))
    return GenericMorphism(spec=spec, param_names=tuple(coeff_names.values()), coeff_names=coeff_names)


def _morphism_at(phi: GenericMorphism, values: Sequence[Fraction | int]) -> ConcreteMorphism:
    """The concrete morphism whose coefficient of monomial ``e`` in entry
    (j, i) is ``values[t]``, for (j, i, e) the t-th key of ``phi.coeff_names``."""
    spec = phi.spec
    varset = VarSet(geometric_names(spec))
    terms: list[list[dict]] = [[{} for _ in range(spec.m)] for _ in range(spec.n)]
    for (j, i, e), v in zip(phi.coeff_names, values, strict=True):
        terms[j - 1][i - 1][e] = v
    return ConcreteMorphism(spec, varset, tuple(tuple(Polynomial(varset, t) for t in row) for row in terms))


class _ConcreteMorphism(NamedTuple):
    spec: ProblemSpec
    varset: VarSet
    entries: tuple[tuple[Polynomial, ...], ...]


class ConcreteMorphism(_ConcreteMorphism):
    """A rational morphism: entries in the geometric variables only."""

    __slots__ = ()

    def __new__(
        cls,
        spec: ProblemSpec,
        varset: VarSet,
        entries: tuple[tuple[Polynomial, ...], ...],
    ) -> "ConcreteMorphism":
        geo = geometric_names(spec)
        if varset.names != geo:
            raise PolyError(f"variables must be {', '.join(geo)}")
        if len(entries) != spec.n:
            raise PolyError(f"expected {spec.n} rows")
        for j, row in enumerate(entries, start=1):
            if len(row) != spec.m:
                raise PolyError(f"row {j} must have {spec.m} entries")
            for i, p in enumerate(row, start=1):
                if p.varset != varset:
                    raise PolyError(f"entry ({j},{i}) is not over {', '.join(geo)}")
                want = spec.d[i - 1] - spec.k[j - 1]
                if p.is_zero():
                    continue
                degs = {sum(e) for e in p.terms}
                if degs != {want}:
                    raise PolyError(
                        f"entry ({j},{i}) must be homogeneous of degree {want}"
                    )
        return super().__new__(cls, spec, varset, entries)

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


# ---------------------------------------------------------------------------
# The sigma_d matrix
# ---------------------------------------------------------------------------

ColKey = tuple[tuple[int, ...], tuple[int, ...], Exponent]


class SigmaMatrix(NamedTuple):
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


def build_sigma(
    spec: ProblemSpec,
    d: int,
    phi: GenericMorphism | ConcreteMorphism,
) -> SigmaMatrix:
    ps = _field_bits(spec.r + 1)
    row_basis, col_basis, columns, omitted, scale = _sigma_columns(spec, d, phi, ps)
    pv = VarSet(phi.param_names) if isinstance(phi, GenericMorphism) else None
    if pv is not None:
        zero = Polynomial.zero(pv)
        cells = [[_from_terms(pv, _unpack(v, len(pv), ps)) if v else zero for v in col] for col in columns]
    else:
        cells = [[Fraction(v, scale) for v in col] for col in columns]
    entries = tuple(zip(*cells)) or ((),) * len(row_basis)
    return SigmaMatrix(spec, d, row_basis, col_basis, entries, pv is not None, pv, omitted)


def _sigma_columns(
    spec: ProblemSpec, d: int, phi: GenericMorphism | ConcreteMorphism, ps: int | None = None
) -> tuple[tuple[Exponent, ...], tuple[ColKey, ...], list, int, int]:
    """The layout of sigma_d: row basis, column keys, columns, the count of
    omitted column groups and the scale of the columns.  phi's entries are
    packed once, and each Delta_{J,I} is a ``_det_packed`` minor of them,
    scattered into rows by the packed key of each row monomial.  The row
    basis, each mu's basis and their packed indexes come from the
    process-wide caches ``monomials_of_degree`` and ``_packed_index``, keyed
    by (nvars, degree, field width) alone.  A generic column lists per row a
    packed term dict over the parameters in nparams + 1 fields of ``ps``
    bits (given for a generic phi), the form of every differential in
    ``resultant_gcd``: one {} for its zero cells, the cells of a Delta_{J,I}
    shared by its columns; its scale is 1.  A concrete column lists integer
    cells: phi's entries are cleared of denominators by one lcm L, so every
    column is the true one times the scale L^(r+1)."""
    require_existence(spec)
    if phi.spec != spec:
        raise PolyError("morphism spec does not match")
    if d < 0:
        raise PolyError("degree must be >= 0")
    nv = spec.N + 1
    symbolic = isinstance(phi, GenericMorphism)
    row_basis = monomials_of_degree(nv, d)
    # Entry (j, i) has degree d_i - k_j, at most this bound and at least 1, so a minor
    # _det_packed forms inside a kept Delta_{J,I} has degree <= d - deg mu <= d.
    s = _field_bits(max(d, max(spec.d) - min(spec.k)))
    if symbolic:
        # x^e c_t: the key of e above bit ``low``, 1 << nparams*ps | 1 << (nparams-1-t)*ps below it.
        # A parameter field of an (r+1)-minor is at most r+1 < 2^(ps-1): no carry crosses ``low``.
        nparams = len(phi.param_names)
        low = (nparams + 1) * ps
        exps = dict.fromkeys(e for _, _, e in phi.coeff_names)
        geo = dict(zip(exps, _pack(exps, nv, s)))
        packed = [[{} for _ in range(spec.m)] for _ in range(spec.n)]
        for t, (j, i, e) in enumerate(phi.coeff_names):  # parameter t is the t-th name
            packed[j - 1][i - 1][geo[e] << low | 1 << nparams * ps | 1 << (nparams - 1 - t) * ps] = 1
        scale = 1
    else:
        cleared, scale = _clear_denominators(*[p.terms for row in phi.entries for p in row])
        packed = [[_pack(t, nv, s) for t in cleared[j : j + spec.m]] for j in range(0, len(cleared), spec.m)]
    zero = {} if symbolic else 0
    row_index = _packed_index(nv, d, s)
    col_basis: list[ColKey] = []
    columns: list = []
    omitted = 0
    for J in combinations(range(1, spec.n + 1), spec.r + 1):
        for I in combinations(range(1, spec.m + 1), spec.r + 1):
            mu_deg = d - sum(spec.d[i - 1] for i in I) + sum(spec.k[j - 1] for j in J)
            if mu_deg < 0:
                omitted += 1
                continue
            delta = _det_packed([[packed[j - 1][i - 1] for i in I] for j in J])
            if symbolic:  # the cells of Delta_{J,I}, by monomial in x0..xN
                cells: dict = {}
                for key, c in delta.items():
                    cells.setdefault(key >> low, {})[key & (1 << low) - 1] = c
                delta = cells
            for mu, key in zip(monomials_of_degree(nv, mu_deg), _packed_index(nv, mu_deg, s)):
                col = [zero] * len(row_basis)
                for e, c in delta.items():
                    col[row_index[e + key]] = c
                col_basis.append((J, I, mu))
                columns.append(col)
    return row_basis, tuple(col_basis), columns, omitted, scale ** (spec.r + 1)


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------


def _integer_rows(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """The matrix times the lcm of all its denominators, and that lcm (an
    all-int matrix is copied as it is, with 1)."""
    if set(map(type, chain.from_iterable(matrix))) <= {int}:
        return [list(row) for row in matrix], 1
    den = lcm(*[v.denominator for row in matrix for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in matrix], den


def row_echelon(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[int], Fraction]:
    """Pivot columns and determinant by fraction-free elimination over Z.

    The matrix is scaled once by the lcm L of all its denominators (an
    all-int matrix is taken as it is); forward Bareiss elimination then runs
    on integers.  Returns the pivot columns (ascending: the
    lexicographically first maximal independent column set) and, at full
    row rank, the determinant of the rows on the pivot columns: the row-swap
    sign times the last pivot ``M_k``, the k x k minor of the scaled,
    row-swapped matrix on those columns, divided by L^k; below full row
    rank, 0.  Elimination stops once the rank reaches the row count.

    Step k replaces each row below the pivot by ``(M_k * row - f * top) /
    M_{k-1}``, ``f`` being its entry in the pivot column.  For f = 0 that
    is only a factor ``M_k / M_{k-1}``, which is skipped: with ``level[r]``
    the ``M_j`` of the last step j that updated row r (initially 1), the
    skipped factors telescope, and the true row is the stored one times
    ``M_{k-1} / level[r]``.  So an update divides by ``level[r]``, and a new
    pivot row is first multiplied by ``M_{k-1} // level[r]``, both exactly.
    """
    m, scale = _integer_rows(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    level = [1] * rows
    pivots: list[int] = []
    sign = 1
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            level[rank], level[pivot] = level[pivot], level[rank]
            sign = -sign
        top = m[rank][c:]
        if level[rank] != prev:
            top = [a * prev // level[rank] for a in top]
        pv = top[0]
        for r in range(rank + 1, rows):
            row = m[r]
            f = row[c]
            if f:
                lv = level[r]
                row[c:] = [(pv * a - f * b) // lv for a, b in zip(row[c:], top)]
                level[r] = pv
        pivots.append(c)
        prev = pv
        rank += 1
        if rank == rows:
            break
    return pivots, Fraction(sign * prev, scale**rows) if rank == rows else Fraction(0)


#: The Mersenne prime of the certified rank: as 2^61 = 1 (mod p), a field is
#: reduced by adding its bits from 61 up to its low 61 bits.
_MERSENNE = (1 << 61) - 1
#: Wang's bound for rational reconstruction modulo ``_MERSENNE``: numerator
#: and denominator at most sqrt(p / 2), so that at most one such fraction has
#: a given residue.
_LIFT_BOUND = isqrt(_MERSENNE // 2)


def rational_rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank of a rational matrix, certified modulo p = 2^61 - 1.

    The matrix is cleared of denominators (which keeps the rank), each row
    reduced modulo p and followed by an identity block that records the row
    operations; Gaussian elimination modulo p then runs on whole rows packed
    into one int each (see ``_rank_mod_p``).  The rank modulo p never exceeds
    the rank over Q, and the result is exact by one of three paths:

    - full row rank modulo p: some maximal minor is nonzero modulo p, so
      nonzero over Z, and the rank is the row count;
    - a rank drop: each row left without a pivot carries the combination y of
      the rows that cleared it, with 1 at its own row and 0 at the other such
      rows, so these y are independent.  Each is lifted to Q by rational
      reconstruction (Wang, Guy & Davenport, 1982), cleared of denominators
      and checked exactly: y * M = 0 over Z.  They bound the rank over Q from
      above by the rank modulo p, which bounds it from below;
    - otherwise (an unlucky prime, whose rank is below the rank over Q, or a
      kernel vector whose entries are too large to reconstruct),
      ``row_echelon``'s exact elimination of the cleared rows.
    """
    m = _integer_rows(matrix)[0]
    rank, kernel = _rank_mod_p(m)
    for y in kernel:
        lifted = [_reconstruct(u) for u in y]
        if None in lifted:
            break
        total = [0] * len(m[0])
        for row, c in zip(m, _integer_rows([lifted])[0][0]):
            if c:
                total = [a + c * b for a, b in zip(total, row)]
        if any(total):
            break
    else:
        return rank
    return len(row_echelon(m)[0])


def _rank_mod_p(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Rank of an integer matrix modulo p = ``_MERSENNE``, and for each row
    that found no pivot the residues of the combination of rows that cleared it.

    Row r is one int of fields of w bits, whole bytes: its columns, the first
    one highest, then the unit vector e_r.  A pivot row T is folded twice,
    each field to its low 61 bits plus its bits from 61 up, which keeps its
    residues and bounds its fields by 2^61 + 2^(w - 122) + 1 < 2^62 (w is at
    most 176 below 2^50 rows); a row R is cleared in T's column by the single
    multiply-add R += c * T, c < p.  R starts below p and is updated at most
    rows - 1 times, each adding less than 2^61 * 2^62 to a field, so every
    field stays below rows * 2^123 < 2^w, as w >= bitlen(2(rows + 2)) + 124:
    none carries into the next.  Fields of cleared columns are left as
    multiples of p; a pivot row drops those above its column.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    size = -(-((2 * (rows + 2)).bit_length() + 124) // 8)
    w, fields = 8 * size, cols + rows
    zero, unit = bytes(size), (1).to_bytes(size, "big")
    residue = {a: (a % _MERSENNE).to_bytes(size, "big") for a in set(chain.from_iterable(m))}
    packed = [
        int.from_bytes(
            b"".join([residue[a] for a in row]) + zero * r + unit + zero * (rows - 1 - r),
            "big",
        )
        for r, row in enumerate(m)
    ]
    lo = int.from_bytes(_MERSENNE.to_bytes(size, "big") * fields, "big")
    hi = int.from_bytes(((1 << w - 61) - 1).to_bytes(size, "big") * fields, "big")
    field = (1 << w) - 1
    live = list(range(rows))  # the rows without a pivot
    rank = 0
    for c in range(cols):
        if not live:
            break
        shift = (fields - 1 - c) * w
        values = [(packed[r] >> shift & field) % _MERSENNE for r in live]
        k = next((k for k, v in enumerate(values) if v), None)
        if k is None:
            continue
        top = packed[live.pop(k)] & (1 << shift + w) - 1
        for _ in range(2):
            top = (top & lo) + (top >> 61 & hi)
        inv = pow(values.pop(k), -1, _MERSENNE)
        for r, v in zip(live, values):
            if v:
                packed[r] += (_MERSENNE - v) * inv % _MERSENNE * top
        rank += 1
    kernel = []
    for r in live:
        block = (packed[r] & (1 << rows * w) - 1).to_bytes(rows * size, "big")
        kernel.append([int.from_bytes(block[t : t + size], "big") % _MERSENNE for t in range(0, len(block), size)])
    return rank, kernel


def _reconstruct(u: int) -> Fraction | None:
    """The fraction a / b with |a|, |b| <= ``_LIFT_BOUND`` and a = b * u
    (mod p), by the extended Euclidean algorithm, or None (Wang)."""
    r0, r1, t0, t1 = _MERSENNE, u, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= _LIFT_BOUND else None


def rational_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square exact rational matrix."""
    return row_echelon(matrix)[1]


# ---------------------------------------------------------------------------
# The resultant: the determinant of a complex
# ---------------------------------------------------------------------------


class ResultantOutput(NamedTuple):
    """The resultant polynomial and how it was computed.

    ``confirmed`` says whether the degree of the polynomial equals the
    predicted total degree; a result that is not confirmed is a fault.
    ``minors_used`` counts the determinants taken, the square blocks of the
    strand's differentials, and ``minor_columns`` is ``(S_1,)``, the columns
    of sigma_d in block 1.
    """

    polynomial: Polynomial
    block_degrees: tuple[int, ...]
    confirmed: bool
    minors_used: int
    minor_columns: tuple[tuple[int, ...], ...]
    normalization: str


class LascouxCaseError(PolyError):
    """A spec with 0 < r < n - 1: its resultant is the determinant of
    Lascoux's complex, which is not built here."""


def _resultant_degree(spec: ProblemSpec, d: int | None) -> int:
    """``d``, defaulting to the critical degree, which it may not be below."""
    nu = critical_degree(spec)
    if d is None:
        return nu
    if d < nu:
        raise PolyError(f"degree {d} is below the critical degree {nu}")
    return d


def _block_degrees(p: dict, sizes: Sequence[int], s: int) -> tuple[list, int | float]:
    """Degrees of the packed ``p`` (``s``-bit fields) in consecutive blocks of
    its variables of the given sizes, none empty, and its total degree (the
    top field of the largest key), as ``degree_in`` and ``degree`` give them.
    A block's fields taken modulo 2^s - 1 give their sum, the block's degree,
    as 2^s = 1 modulo 2^s - 1; the sum never wraps, as it is at most the
    total degree, which is below 2^(s-1): its field's guard bit is 0."""
    if not p:
        return [NEG_INFINITY] * len(sizes), NEG_INFINITY
    mod, params = (1 << s) - 1, sum(sizes) * s
    degrees, shift = [], params
    for size in sizes:
        shift -= size * s
        mask = (1 << size * s) - 1
        degrees.append(max([(key >> shift & mask) % mod for key in p]))
    return degrees, max(p) >> params


# -- the complex route (Cayley's formula) ------------------------------------


def _require_complex(spec: ProblemSpec) -> None:
    """Raise ``LascouxCaseError`` unless ``complex_strand`` builds the complex
    of ``spec``, that is unless r = 0 or r = n - 1."""
    if spec.r not in (0, spec.n - 1):
        raise LascouxCaseError(
            f"m={spec.m}, n={spec.n}, r={spec.r} is a Lascoux case (0 < r < n-1):"
            " its complex is not built, so it has no resultant route"
        )


def complex_strand(
    spec: ProblemSpec, d: int, phi: GenericMorphism
) -> tuple[tuple[int, ...], list[list[list[tuple[int, int, int]]]]]:
    """The degree-d strand 0 -> K_P -> ... -> K_1 -> K_0 -> 0 of the
    Eagon-Northcott complex whose first differential D_1 is sigma_d.

    Returns the dimensions of K_0, ..., K_P and the differentials D_2, ...,
    D_P.  K_0 is the space of degree-d forms and K_1 has the columns of
    sigma_d as its basis, in sigma's order.  A differential is stored by
    source basis element: the nonzero entries of its column as (target
    index, sign, parameter index), each entry the sign times that one
    parameter of the generic morphism.

    The complex is that of an n x m matrix phi with phi_{j,i} of degree
    d_i - k_j: the morphism for r = n - 1, and for r = 0 the 1 x mn row of
    its entries, a = (j, i) in the order of sigma's columns, with d_a =
    d_i - k_j and k = (0,) (the Koszul complex of the entries, of which
    sigma_d is the Macaulay map).  K_1 = wedge^n E and K_p = D_{p-1}(F*) (x)
    wedge^{n+p-1} E for p = 2, ..., m - n + 1 (E has the m columns, F the n
    rows, D the divided powers).  K_p has the basis e_alpha * e_S * nu
    (alpha a multiset of size p - 1 in [n], S an (n+p-1)-subset of [m], both
    lexicographic; deg nu = d - sum of d_i over S + sum k + sum of k_j over
    alpha), and ``D_p(e_alpha e_S nu) = sum_{j in supp alpha} sum_t (-1)^t
    phi_{j,S_t} nu e_{alpha-j} e_{S-S_t}``.  sigma_d D_2 = 0 is the Laplace
    expansion of a matrix with a row repeated; in D_{p-1} D_p the two orders
    of removing a pair of columns cancel.  The monomials nu of each degree
    come from the process-wide cache of ``monomials_of_degree``, so a strand
    lists no basis that an earlier call in the process has listed.
    """
    _require_complex(spec)
    entries: dict[tuple[int, int], list] = {}  # (j, i) -> [(exponent, parameter)]
    for t, (j, i, exps) in enumerate(phi.coeff_names):  # parameter t is the t-th name
        entries.setdefault((j, i), []).append((exps, t))
    n, m, ds, ks = spec.n, spec.m, spec.d, spec.k
    if spec.r == 0:  # the row of the entries, (j, i) lexicographic as sigma's columns
        pairs = sorted(entries)
        entries = {(1, a): entries[f] for a, f in enumerate(pairs, 1)}
        n, m, ds, ks = 1, len(pairs), [spec.d[i - 1] - spec.k[j - 1] for j, i in pairs], (0,)
    nv = spec.N + 1
    dims = [len(monomials_of_degree(nv, d))]
    maps = []
    index: dict = {}
    for p in range(1, m - n + 2):
        # K_p as the groups (alpha, S, deg nu) with deg nu >= 0
        groups = [
            (alpha, S, deg)
            for alpha in combinations_with_replacement(range(1, n + 1), p - 1)
            for base in [d + sum(ks) + sum([ks[j - 1] for j in alpha])]
            for S in combinations(range(1, m + 1), n + p - 1)
            if (deg := base - sum([ds[i - 1] for i in S])) >= 0
        ]
        # Every entry has positive degree, so no later K_p has a basis.
        if not groups:
            break
        if index:  # D_1 is sigma_d itself
            D = []
            for alpha, S, deg in groups:
                faces = [
                    (alpha[:u] + alpha[u + 1 :], S[:t] + S[t + 1 :], (-1) ** t, entries[(j, i)])
                    for u, j in enumerate(alpha)
                    if j not in alpha[:u]  # each j in supp alpha once
                    for t, i in enumerate(S)
                ]
                D += [
                    [
                        (index[(beta, T, tuple(map(add, mu, e)))], sign, param)
                        for beta, T, sign, f in faces
                        for e, param in f
                    ]
                    for mu in monomials_of_degree(nv, deg)
                ]
            maps.append(D)
        basis = [(alpha, S, mu) for alpha, S, deg in groups for mu in monomials_of_degree(nv, deg)]
        dims.append(len(basis))
        index = {b: c for c, b in enumerate(basis)}
    return tuple(dims), maps


def _points(phi: GenericMorphism) -> Iterator[list[int]]:
    """The integer parameter points tried in turn, drawn from ``_POINT_SEED``."""
    rng = random.Random(_POINT_SEED)
    for _ in range(16):
        yield [rng.randint(1, 4099) for _ in phi.param_names]


def _columns_at(
    columns: Sequence[list], rows: Sequence[int], point: Sequence[int], ps: int
) -> list[tuple[int, ...]]:
    """The given rows of a differential in packed form (columns of packed
    parameter dicts, ``ps``-bit fields) at an integer parameter point, each
    distinct packed parameter key unpacked and evaluated once."""
    layout, values, out = _exponent_layout(len(point), ps), {}, []
    for col in columns:
        cells = []
        for r in rows:
            total = 0
            if cell := col[r]:  # most cells are zero: skip them at once
                for key, c in cell.items():
                    if key not in values:
                        e = layout.unpack(key.to_bytes(layout.size, "big"))
                        values[key] = prod([x**k for x, k in zip(point, e) if k])
                    total += c * values[key]
            cells.append(total)
        out.append(cells)
    return list(zip(*out))


def _block_rows(dims: Sequence[int]) -> list[int]:
    """The row counts of ``_compatible_blocks``' blocks from the dims alone:
    block p has dims[p-1] rows less those of square block p-1, none for p = 1."""
    return list(accumulate(dims[1:-1], lambda rows, dim: dim - rows, initial=dims[0]))


def _compatible_blocks(
    diffs: Sequence[Sequence[list]], dims: Sequence[int], point: Sequence[int], ps: int
) -> list[tuple[list[int], list[int]]] | None:
    """Rows and columns of the square blocks of D_1, D_2, ... at ``point``.

    Each D_p is in the route's packed form (``ps``-bit fields).  Block p
    takes the rows of D_p outside S_{p-1} (all of K_0 for p = 1) and the
    greedy pivot columns S_p of D_p on them.  None when some block falls
    short of full row rank at ``point`` or S_P misses part of the top term:
    then the strand is not exact there.
    """
    blocks, cols = [], []
    for D, dim in zip(diffs, dims):
        chosen = set(cols)
        rows = [r for r in range(dim) if r not in chosen]
        cols = row_echelon(_columns_at(D, rows, point, ps))[0]
        if len(cols) < len(rows):
            return None
        blocks.append((rows, cols))
    if len(cols) < dims[-1]:
        return None
    return blocks


def resultant_gcd(spec: ProblemSpec, d: int | None = None, letters: bool = False) -> ResultantOutput:
    """The determinantal resultant of the generic morphism, as the
    determinant of the degree-d strand of its complex (Cayley's formula).

    The complex's first differential is sigma_d (see ``complex_strand``);
    every differential is held in sigma_d's packed form.  With compatible
    square blocks B_p of the differentials (see
    ``_compatible_blocks``, at the first of up to 16 points drawn from
    ``_POINT_SEED`` where they exist, else ``PolyError``), the determinant
    of the complex is the product of det(B_p) over odd p divided, exactly,
    by the product over even p (Gelfand, Kapranov & Zelevinsky, 1994,
    Appendix A); for d at least the critical degree, its default, it is the
    resultant.  A square sigma_d with no further term gives det(sigma_d)
    without a point.  A spec with 0 < r < n - 1 raises ``LascouxCaseError``
    before any matrix is built.  The result is a polynomial in the
    parameters of ``generic_morphism(spec, letters)``; it is ``confirmed``
    when its degree in each column's parameters is that column's entry of
    ``multidegree(spec)`` and its total degree their sum.
    """
    d = _resultant_degree(spec, d)
    _require_complex(spec)
    phi = generic_morphism(spec, letters)
    dims, maps = complex_strand(spec, d, phi)
    # One field size for all blocks and sigma_d's cells: no product of
    # determinants exceeds the sum of their rows times their entry degree,
    # r+1 in block 1 (Delta_{J,I} is an (r+1)-form) and 1 after it.
    first, *later = _block_rows(dims)
    s = _field_bits(first * (spec.r + 1) + sum(later))
    nparams = len(phi.param_names)
    # Every differential in one packed form: D_1 is sigma_d's columns, and an
    # entry sign * parameter t of a later D_p is the packed cell of t.
    diffs = [_sigma_columns(spec, d, phi, s)[2]]
    for p, D in enumerate(maps, start=2):
        diffs.append([[{}] * dims[p - 1] for _ in D])
        for col, cells in zip(D, diffs[-1]):
            for r, sign, t in col:
                cells[r] = {1 << nparams * s | 1 << (nparams - 1 - t) * s: sign}
    if dims[0] == dims[1] and not maps:
        blocks = [(list(range(dims[0])), list(range(dims[1])))]
    else:
        for point in _points(phi):
            blocks = _compatible_blocks(diffs, dims, point, s)
            if blocks is not None:
                break
        else:
            raise PolyError("could not find compatible nonsingular blocks")
    odd, even = [], []
    for p, (D, (rows, cols)) in enumerate(zip(diffs, blocks), start=1):
        block = list(zip(*[D[c] for c in cols]))  # D_p on the block's columns, by row
        (odd if p % 2 else even).append(_det_packed([block[r] for r in rows]))
    res = reduce(_dict_mul, odd)
    if even:
        # Gauss's lemma: exact over Z iff over Q, the divisor being primitive.
        res = _dict_try_div(res, _normalize_int_dict(reduce(_dict_mul, even)), s)
        if res is None:
            raise PolyError("division is not exact")
    res = _normalize_int_dict(res)
    sizes = Counter(i for _, i, _ in phi.coeff_names)
    degrees, total = _block_degrees(res, [sizes[i] for i in range(1, spec.m + 1)], s)
    md = multidegree(spec)
    return ResultantOutput(
        polynomial=_from_terms(VarSet(phi.param_names), _unpack(res, nparams, s)),
        block_degrees=tuple(degrees),
        confirmed=total == sum(md) and tuple(degrees) == md,
        minors_used=len(odd) + len(even),
        minor_columns=(tuple(blocks[0][1]),),
        normalization="integer content 1, positive graded-lex leading coefficient",
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
    """The exact rank of ``sigma_d`` at a rational morphism.

    ``d`` defaults to the critical degree and may not be below it: only
    there does a rank drop mean that the resultant vanishes.  The rank is
    that of the integer columns of ``_sigma_columns``, the true ones times
    one nonzero constant, which leaves the rank unchanged.
    """
    d = _resultant_degree(spec, d)
    row_basis, col_basis, columns, _, _ = _sigma_columns(spec, d, phi)
    matrix = list(zip(*columns))
    return SigmaRank(d, len(row_basis), len(col_basis), rational_rank(matrix))


def vanish_test(
    spec: ProblemSpec, phi: ConcreteMorphism, d: int | None = None
) -> bool:
    """Whether the determinantal resultant vanishes at a rational morphism.

    Checks surjectivity of ``sigma_d`` by exact rank (see ``sigma_rank``).
    """
    return sigma_rank(spec, phi, d).vanishes


def staircase_specialization(spec: ProblemSpec) -> ConcreteMorphism:
    """The monomial morphism of full rank at every point (principal case).

    The generic morphism at the 0/1 vector that is 1 exactly on the pure
    powers of the band: entry (j, i) is ``x_{i-j}^(d_i - k_j)`` for ``j <= i
    <= j + (m - n)`` and zero elsewhere.  Its sigma matrix has full row rank,
    so the resultant does not vanish on it.
    """
    require_existence(spec)
    if spec.r != spec.n - 1:
        raise ExistenceError("staircase specialization needs the principal case")
    phi = generic_morphism(spec)
    band = spec.m - spec.n
    return _morphism_at(
        phi, [int(0 <= i - j <= band and e[i - j] == sum(e)) for j, i, e in phi.coeff_names]
    )
