"""Rational normal scrolls: equations, Chow forms and plane incidence.

A scroll S(d_1, ..., d_r) lives in projective N-space with ``N + 1 =
sum(d_i + 1)``, coordinates X_{i,j} grouped in blocks of sizes ``d_i + 1``.
Its ideal is generated by the 2x2 minors of a block catalecticant matrix,
and its Chow form is a principal determinantal resultant on the projective
line: a codimension-(r+1) plane, given by a Stiefel matrix of r+1 linear
forms, meets the scroll exactly when that resultant vanishes on the induced
morphism O^(r+1) -> O(d_1) + ... + O(d_r).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .chern_degree import ExistenceError, ProblemSpec
from .polyring import (
    PolyError,
    Polynomial,
    VarSet,
)
from .resultant_engine import (
    ConcreteMorphism,
    GenericMorphism,
    ResultantOutput,
    _morphism_at,
    generic_morphism,
    rational_det,
    rational_rank,
    resultant_gcd,
    vanish_test,
)


class _ScrollSpec(NamedTuple):
    degrees: tuple[int, ...]


class ScrollSpec(_ScrollSpec):
    """Degrees (d_1, ..., d_r) of a rational normal scroll.

    Every degree must be at least 1: a zero block would force an entry of
    geometric degree zero in the Chow morphism, violating the strict
    degree hypothesis of the determinantal resultant.
    """

    __slots__ = ()

    def __new__(cls, degrees: Sequence[int]) -> "ScrollSpec":
        degrees = tuple(degrees)
        if not degrees:
            raise ExistenceError("scroll needs at least one degree")
        if any(d < 1 for d in degrees):
            raise ExistenceError(
                "scroll degrees must all be >= 1; degree-0 blocks are not"
                " supported because the Chow morphism needs strictly"
                " positive entry degrees"
            )
        return super().__new__(cls, degrees)

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def N(self) -> int:
        return sum(d + 1 for d in self.degrees) - 1

    def coordinate_names(self) -> tuple[str, ...]:
        """Ambient coordinates X_{i,j}, blocks in scroll order, j ascending."""
        return tuple(
            f"X_{i}_{j}"
            for i, d in enumerate(self.degrees, start=1)
            for j in range(d + 1)
        )


def scroll_matrix(spec: ScrollSpec) -> list[list[Polynomial]]:
    """The 2 x (sum d_i) catalecticant block matrix of coordinate forms.

    Block i contributes columns (X_{i,0} ... X_{i,d_i-1}) over
    (X_{i,1} ... X_{i,d_i}).
    """
    varset = VarSet(spec.coordinate_names())
    top = []
    bottom = []
    for i, d in enumerate(spec.degrees, start=1):
        for j in range(d):
            top.append(Polynomial.variable(varset, f"X_{i}_{j}"))
            bottom.append(Polynomial.variable(varset, f"X_{i}_{j + 1}"))
    return [top, bottom]


def scroll_equations(spec: ScrollSpec) -> list[Polynomial]:
    """All 2x2 minors of the scroll matrix, generators of the ideal."""
    M = scroll_matrix(spec)
    return [M[0][a] * M[1][b] - M[0][b] * M[1][a] for a, b in combinations(range(len(M[0])), 2)]


def parametrize(
    spec: ScrollSpec,
    x: tuple[Fraction | int, Fraction | int],
    lam: Sequence[Fraction | int],
) -> tuple[Fraction, ...]:
    """Point of the scroll: X_{i,j} = lam_i * x^(d_i - j) * y^j."""
    xv, yv = Fraction(x[0]), Fraction(x[1])
    if xv == 0 and yv == 0:
        raise PolyError("(x : y) must be a point of the projective line")
    ls = [Fraction(l) for l in lam]
    if len(ls) != spec.r:
        raise PolyError(f"lambda must have {spec.r} entries")
    if all(l == 0 for l in ls):
        raise PolyError("lambda must be nonzero")
    out = []
    for i, d in enumerate(spec.degrees):
        for j in range(d + 1):
            out.append(ls[i] * xv ** (d - j) * yv**j)
    return tuple(out)


def chow_problem(spec: ScrollSpec) -> ProblemSpec:
    """The principal determinantal resultant problem behind the Chow form.

    On the projective line: E trivial of rank r+1, F the sum of the
    O(d_i), rank bound r-1, i.e. the locus where the induced (r) x (r+1)
    matrix of binary forms drops rank.  It exists for every ``ScrollSpec``:
    m > n > r - 1 >= 0, every d_i = 0 > k_j, and N = 1.
    """
    return ProblemSpec(
        m=spec.r + 1,
        n=spec.r,
        r=spec.r - 1,
        d=(0,) * (spec.r + 1),
        k=tuple(-d for d in spec.degrees),
    )


def chow_generic_morphism(spec: ScrollSpec) -> GenericMorphism:
    """Generic Chow morphism with letter-per-column parameter names."""
    return generic_morphism(chow_problem(spec), letters=True)


def chow_form(spec: ScrollSpec) -> ResultantOutput:
    """Chow form of the scroll in Stiefel coordinates.

    Degree ``sum(d_i)`` in each column block of the plane matrix, over the
    letter-named parameters of ``chow_generic_morphism``.  The problem is
    principal (r = n - 1, m = n + 1), so ``resultant_gcd`` takes it as the
    determinant of its Eagon-Northcott strand.
    """
    return resultant_gcd(chow_problem(spec), letters=True)


# ---------------------------------------------------------------------------
# Planes
# ---------------------------------------------------------------------------


class _PlaneStiefel(NamedTuple):
    rows: tuple[tuple[Fraction, ...], ...]


class PlaneStiefel(_PlaneStiefel):
    """A codimension-(r+1) plane as r+1 rows of linear-form coefficients."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[Fraction | int]]) -> "PlaneStiefel":
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len({len(r) for r in rows}) > 1:
            raise PolyError("plane rows must have equal length")
        return super().__new__(cls, rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def rank(self) -> int:
        return rational_rank(self.rows)


def plucker_coords(plane: PlaneStiefel) -> tuple[Fraction, ...]:
    """Maximal minors of the Stiefel matrix, lexicographic column subsets."""
    rows, cols = plane.shape
    if cols < rows:
        raise PolyError("plane matrix has fewer columns than rows")
    out = []
    for sub in combinations(range(cols), rows):
        out.append(rational_det([[plane.rows[r][c] for c in sub] for r in range(rows)]))
    return tuple(out)


def plane_morphism(spec: ScrollSpec, plane: PlaneStiefel) -> ConcreteMorphism:
    """The plane's Chow morphism: the generic Chow morphism at the plane's
    Stiefel entries.

    The generic Chow morphism's parameters come in the plane's row-major
    order: one matrix column per plane row, then scroll block i, then the
    monomial ``x0^(d_i - j) * x1^j``, whose coefficient is the plane's entry
    at X_{i,j}.  So each column holds one of the plane's linear forms
    restricted along the scroll parametrization, a binary form per block.
    """
    rows, cols = plane.shape
    if rows != spec.r + 1:
        raise PolyError(f"plane must have {spec.r + 1} rows")
    if cols != spec.N + 1:
        raise PolyError(f"plane rows must have {spec.N + 1} entries")
    return _morphism_at(chow_generic_morphism(spec), [v for row in plane.rows for v in row])


def plane_meets_scroll(spec: ScrollSpec, plane: PlaneStiefel) -> bool:
    """Whether the plane meets the scroll (the Chow form vanishes on it)."""
    return vanish_test(chow_problem(spec), plane_morphism(spec, plane))


def plane_diagnostics(spec: ScrollSpec, plane: PlaneStiefel) -> dict:
    """Verdict plus degeneracy flag for a rational plane."""
    rank = plane.rank()
    return {
        "meets_scroll": plane_meets_scroll(spec, plane),
        "stiefel_rank": rank,
        "degenerate": rank < spec.r + 1,
    }
