import random
from fractions import Fraction
from itertools import product

import pytest

from detres import polyring
from detres.chern_degree import ExistenceError, existence_check
from detres.polyring import Polynomial, VarSet
from detres.resultant_engine import (
    build_sigma,
    critical_degree,
)
from detres.scroll_chow import (
    PlaneStiefel,
    ScrollSpec,
    chow_form,
    chow_generic_morphism,
    chow_problem,
    parametrize,
    plane_diagnostics,
    plane_meets_scroll,
    plane_morphism,
    plucker_coords,
    scroll_equations,
    scroll_matrix,
)
from minors_oracle import generic_entries, parameter_assignment, resultant_by_minors


def substitute(poly, mapping):
    """Polynomial composition: replace each variable by a polynomial."""
    target = next(iter(mapping.values())).varset
    acc = Polynomial.zero(target)
    for e, c in poly.terms.items():
        term = Polynomial.constant(target, c)
        for name, power in zip(poly.varset.names, e):
            if power:
                term = term * mapping[name] ** power
        acc = acc + term
    return acc


def plane_through(spec, point):
    """r+1 independent linear forms vanishing at a point of P^N."""
    j0 = next(i for i, p in enumerate(point) if p)
    rows = []
    for i in range(len(point)):
        if i == j0 or len(rows) == spec.r + 1:
            continue
        row = [Fraction(0)] * len(point)
        row[i] = point[j0]
        row[j0] = -point[i]
        rows.append(tuple(row))
    return PlaneStiefel(tuple(rows[: spec.r + 1]))


def binary_gcd_degree(forms):
    """Degree of the gcd of binary forms given as coefficient lists.

    Coefficient lists are (c_0, ..., c_d) for c_0 x^d + ... + c_d y^d.
    Independent incidence oracle: Euclid on the dehomogenization at y=1
    plus bookkeeping of the common power of y.
    """
    forms = [list(f) for f in forms if any(f)]
    if not forms:
        return None  # all forms identically zero: everything is a root
    # common power of y: shared trailing... leading zero coefficients of x
    ypow = min(next(i for i, c in enumerate(f) if c) for f in forms)
    polys = []
    for f in forms:
        # dehomogenize: p(x) with low-degree-first coefficients
        coeffs = list(reversed(f))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        polys.append(coeffs)

    def polymod(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        return a

    g = polys[0]
    for p in polys[1:]:
        while p:
            g, p = p, polymod(g, p)
        if len(g) == 1:
            break
    return ypow + len(g) - 1


def incidence_oracle(spec, plane):
    """Does the plane meet the scroll?  Via common roots of the minors."""
    phi = plane_morphism(spec, plane)
    n, m = spec.r, spec.r + 1
    forms = []
    for skip in range(m):
        cols = [i for i in range(1, m + 1) if i != skip + 1]
        sub = [[phi.entry(j, i) for i in cols] for j in range(1, n + 1)]
        det = _laplace(sub)
        d = sum(spec.degrees)
        forms.append([det.terms.get((d - j, j), Fraction(0)) for j in range(d + 1)])
    deg = binary_gcd_degree(forms)
    return deg is None or deg > 0


def _laplace(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    varset = matrix[0][0].varset
    acc = Polynomial.zero(varset)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _laplace(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def random_plane(rng, spec):
    return PlaneStiefel(
        tuple(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(spec.N + 1))
            for _ in range(spec.r + 1)
        )
    )


class TestScrollSpec:
    def test_dimensions(self):
        s = ScrollSpec((2, 1))
        assert s.r == 2
        assert s.N == 4
        assert s.coordinate_names() == ("X_1_0", "X_1_1", "X_1_2", "X_2_0", "X_2_1")

    def test_zero_degree_rejected(self):
        with pytest.raises(ExistenceError):
            ScrollSpec((2, 0))

    def test_empty_rejected(self):
        with pytest.raises(ExistenceError):
            ScrollSpec(())


class TestScrollMatrix:
    def test_single_conic_block(self):
        M = scroll_matrix(ScrollSpec((2,)))
        vs = M[0][0].varset
        v = lambda name: Polynomial.variable(vs, name)
        assert M == [[v("X_1_0"), v("X_1_1")], [v("X_1_1"), v("X_1_2")]]

    def test_s21_block_structure(self):
        M = scroll_matrix(ScrollSpec((2, 1)))
        vs = M[0][0].varset
        names = lambda row: [
            next(n for n, e in zip(vs.names, exp) if e)
            for exp in [next(iter(p.terms)) for p in row]
        ]
        assert names(M[0]) == ["X_1_0", "X_1_1", "X_2_0"]
        assert names(M[1]) == ["X_1_1", "X_1_2", "X_2_1"]

    def test_s111_three_single_columns(self):
        M = scroll_matrix(ScrollSpec((1, 1, 1)))
        assert len(M[0]) == 3


class TestScrollEquations:
    def test_conic(self):
        eqs = scroll_equations(ScrollSpec((2,)))
        assert len(eqs) == 1
        vs = eqs[0].varset
        v = lambda name: Polynomial.variable(vs, name)
        assert eqs[0] == v("X_1_0") * v("X_1_2") - v("X_1_1") * v("X_1_1")

    def test_s21_count(self):
        assert len(scroll_equations(ScrollSpec((2, 1)))) == 3

    def test_symbolic_annihilation(self):
        # X_{i,j} -> l_i x^(d_i - j) y^j kills every minor identically
        for degrees in [(2,), (2, 1), (1, 1)]:
            spec = ScrollSpec(degrees)
            names = ("x", "y") + tuple(f"l{i}" for i in range(1, spec.r + 1))
            vs = VarSet(names)
            x = Polynomial.variable(vs, "x")
            y = Polynomial.variable(vs, "y")
            mapping = {}
            for i, d in enumerate(spec.degrees, start=1):
                li = Polynomial.variable(vs, f"l{i}")
                for j in range(d + 1):
                    mapping[f"X_{i}_{j}"] = li * x ** (d - j) * y**j
            for eq in scroll_equations(spec):
                assert substitute(eq, mapping).is_zero()


class TestParametrize:
    def test_conic(self):
        assert parametrize(ScrollSpec((2,)), (1, 3), (1,)) == (1, 3, 9)

    def test_s21_ones(self):
        assert parametrize(ScrollSpec((2, 1)), (1, 1), (1, 1)) == (1,) * 5

    def test_random_points_satisfy_equations(self):
        rng = random.Random(31)
        spec = ScrollSpec((2, 1))
        coords = spec.coordinate_names()
        for _ in range(20):
            pt = parametrize(
                spec,
                (rng.randint(-4, 4), rng.randint(1, 4)),
                (rng.randint(1, 4), rng.randint(-4, 4)),
            )
            for eq in scroll_equations(spec):
                assert eq.evaluate(dict(zip(coords, pt))) == 0

    def test_bad_inputs(self):
        spec = ScrollSpec((2, 1))
        with pytest.raises(Exception):
            parametrize(spec, (0, 0), (1, 1))
        with pytest.raises(Exception):
            parametrize(spec, (1, 1), (0, 0))
        with pytest.raises(polyring.PolyError, match=r"^lambda must have 2 entries$"):
            parametrize(spec, (1, 1), (1,))


class TestChowProblem:
    def test_s21(self):
        p = chow_problem(ScrollSpec((2, 1)))
        assert (p.m, p.n, p.r) == (3, 2, 1)
        assert p.d == (0, 0, 0)
        assert p.k == (-2, -1)
        assert p.N == 1

    def test_single_block_is_sylvester_type(self):
        p = chow_problem(ScrollSpec((3,)))
        assert (p.m, p.n, p.r) == (2, 1, 0)
        assert p.k == (-3,)

    def test_generic_map_entry_degrees(self):
        gen = chow_generic_morphism(ScrollSpec((2, 1)))
        # quadratic first row, linear second row
        entries = generic_entries(gen)
        assert all(entries[0][i].degree_in(("x0", "x1")) == 2 for i in range(3))
        assert all(entries[1][i].degree_in(("x0", "x1")) == 1 for i in range(3))

    def test_every_scroll_has_a_resultant(self):
        """chow_problem returns its spec unchecked: every ScrollSpec gives
        m = n + 1 > n > r = n - 1 >= 0, d_i = 0 > k_j and N = 1."""
        for blocks in range(1, 5):
            for degrees in product(range(1, 5), repeat=blocks):
                p = chow_problem(ScrollSpec(degrees))
                assert existence_check(p) == (True, [])
                assert p.N == 1

    def test_total_degree_per_block(self):
        from detres.chern_degree import multidegree

        for degrees in [(2, 1), (1, 1), (3,)]:
            p = chow_problem(ScrollSpec(degrees))
            assert multidegree(p) == (sum(degrees),) * (len(degrees) + 1)


class TestPlucker:
    def test_standard_basis(self):
        plane = PlaneStiefel(
            ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
        )
        coords = plucker_coords(plane)
        assert len(coords) == 10
        assert coords[0] == 1
        assert all(c == 0 for c in coords[1:])

    def test_row_scaling(self):
        rng = random.Random(77)
        spec = ScrollSpec((2, 1))
        plane = random_plane(rng, spec)
        scaled = PlaneStiefel(
            (plane.rows[0], tuple(3 * v for v in plane.rows[1]), plane.rows[2])
        )
        base = plucker_coords(plane)
        assert plucker_coords(scaled) == tuple(3 * c for c in base)
        assert plane_meets_scroll(spec, plane) == plane_meets_scroll(spec, scaled)

    def test_more_rows_than_columns(self):
        with pytest.raises(polyring.PolyError, match=r"^plane matrix has fewer columns than rows$"):
            plucker_coords(PlaneStiefel(((1, 2), (3, 4), (5, 6))))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), "plane must have 3 rows"),
            (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), "plane rows must have 5 entries"),
        ],
        ids=["row-count", "row-length"],
    )
    def test_plane_morphism_shape(self, rows, message):
        with pytest.raises(polyring.PolyError, match=rf"^{message}$"):
            plane_morphism(ScrollSpec((2, 1)), PlaneStiefel(rows))


class TestIncidence:
    def test_planes_through_scroll_points_meet(self):
        rng = random.Random(13)
        for degrees in [(2, 1), (1, 1)]:
            spec = ScrollSpec(degrees)
            for _ in range(10):
                pt = parametrize(
                    spec,
                    (rng.randint(-3, 3), rng.randint(1, 3)),
                    tuple(rng.randint(1, 3) for _ in range(spec.r)),
                )
                plane = plane_through(spec, pt)
                assert plane_meets_scroll(spec, plane) is True

    def test_matches_independent_oracle(self):
        rng = random.Random(47)
        for degrees in [(2, 1), (1, 1)]:
            spec = ScrollSpec(degrees)
            for _ in range(25):
                plane = random_plane(rng, spec)
                assert plane_meets_scroll(spec, plane) == incidence_oracle(
                    spec, plane
                )

    def test_verdict_invariant_under_row_operations(self):
        rng = random.Random(91)
        spec = ScrollSpec((2, 1))
        for _ in range(5):
            plane = random_plane(rng, spec)
            r0, r1, r2 = plane.rows
            mixed = PlaneStiefel(
                (
                    tuple(a + 2 * b for a, b in zip(r0, r1)),
                    tuple(5 * b for b in r1),
                    tuple(c - r0[i] for i, c in enumerate(r2)),
                )
            )
            assert plane_meets_scroll(spec, plane) == plane_meets_scroll(
                spec, mixed
            )

    def test_degenerate_plane_flagged(self):
        spec = ScrollSpec((2, 1))
        row = (1, 2, 3, 4, 5)
        plane = PlaneStiefel((row, row, (0, 0, 0, 0, 1)))
        diag = plane_diagnostics(spec, plane)
        assert diag["degenerate"] is True
        assert diag["stiefel_rank"] == 2


class TestPlaneMorphism:
    @pytest.mark.parametrize("degrees", [(1,), (2, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 1, 1)])
    def test_stiefel_entries_are_chow_coefficients(self, degrees):
        """The plane's Chow morphism is the generic Chow morphism at the
        plane's Stiefel entries, read row by row."""
        spec = ScrollSpec(degrees)
        gen = chow_generic_morphism(spec)
        rng = random.Random(repr(degrees))
        for _ in range(8):
            plane = PlaneStiefel(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(spec.N + 1)] for _ in range(spec.r + 1)]
            )
            flat = [v for row in plane.rows for v in row]
            assert parameter_assignment(gen, plane_morphism(spec, plane)) == dict(zip(gen.param_names, flat))


class TestChowForm:
    def test_s11_degrees(self):
        out = chow_form(ScrollSpec((1, 1)))
        assert out.confirmed
        assert out.block_degrees == (2, 2, 2)

    def test_s21_consistency_with_incidence(self):
        spec = ScrollSpec((2, 1))
        out = chow_form(spec)
        gen = chow_generic_morphism(spec)
        rng = random.Random(404)
        planes = [random_plane(rng, spec) for _ in range(6)]
        pt = parametrize(spec, (1, 2), (1, 1))
        planes.append(plane_through(spec, pt))
        for plane in planes:
            phi = plane_morphism(spec, plane)
            point = parameter_assignment(gen, phi)
            value = out.polynomial.evaluate(point)
            assert (value == 0) == plane_meets_scroll(spec, plane)

    def test_s11_consistency_with_incidence(self):
        spec = ScrollSpec((1, 1))
        out = chow_form(spec)
        gen = chow_generic_morphism(spec)
        rng = random.Random(405)
        for _ in range(6):
            plane = random_plane(rng, spec)
            phi = plane_morphism(spec, plane)
            point = parameter_assignment(gen, phi)
            value = out.polynomial.evaluate(point)
            assert (value == 0) == plane_meets_scroll(spec, plane)


def integer_value(poly, assign):
    """Value of an integer polynomial at an integer point, in int arithmetic
    (``Polynomial.evaluate`` takes seconds on the 60,600 terms of S(1,1,1))."""
    values = [assign[name] for name in poly.varset.names]
    assert all(v.denominator == 1 for v in values)
    values = [v.numerator for v in values]
    total = 0
    for e, c in poly.terms.items():
        assert c.denominator == 1
        term = c.numerator
        for v, k in zip(values, e):
            if k:
                term *= v**k
        total += term
    return total


@pytest.fixture(
    scope="module", params=[(2, 2), (1, 1, 1), (3, 1)], ids=["S22", "S111", "S31"]
)
def larger_chow(request):
    spec = ScrollSpec(request.param)

    def refuse(*args):
        raise AssertionError("multivariate_gcd reached")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyring, "multivariate_gcd", refuse)
        return spec, chow_form(spec)


class TestLargerChowForms:
    """S(2,2) (6x6 sigma) and S(1,1,1) (4x4 sigma) are one determinant;
    S(3,1) (7x9 sigma) is det(sigma on S_1) over a 2x2 determinant of D_2."""

    def test_matches_minors_route(self, larger_chow):
        spec, out = larger_chow
        problem = chow_problem(spec)
        oracle = resultant_by_minors(problem, critical_degree(problem), letters=True)
        assert oracle.confirmed
        assert out.polynomial.terms == oracle.polynomial.terms
        assert out.block_degrees == oracle.block_degrees

    def test_confirmed_with_formula_degrees(self, larger_chow):
        spec, out = larger_chow
        assert out.confirmed
        assert out.block_degrees == (sum(spec.degrees),) * (spec.r + 1)
        problem = chow_problem(spec)
        rows, cols = build_sigma(problem, critical_degree(problem), chow_generic_morphism(spec)).shape
        assert out.minors_used == (1 if rows == cols else 2)

    def test_zero_at_planes_through_scroll_points(self, larger_chow):
        spec, out = larger_chow
        gen = chow_generic_morphism(spec)
        rng = random.Random(606)
        for _ in range(3):
            pt = parametrize(
                spec,
                (rng.randint(-3, 3), rng.randint(1, 3)),
                tuple(rng.randint(1, 3) for _ in range(spec.r)),
            )
            plane = plane_through(spec, pt)
            assert plane_meets_scroll(spec, plane)
            point = parameter_assignment(gen, plane_morphism(spec, plane))
            assert integer_value(out.polynomial, point) == 0

    def test_nonzero_at_planes_missing_scroll(self, larger_chow):
        spec, out = larger_chow
        gen = chow_generic_morphism(spec)
        rng = random.Random(607)
        missing = 0
        for _ in range(4):
            plane = random_plane(rng, spec)
            if plane_meets_scroll(spec, plane):
                continue
            missing += 1
            point = parameter_assignment(gen, plane_morphism(spec, plane))
            assert integer_value(out.polynomial, point) != 0
        assert missing
