import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product
from math import lcm, prod
from operator import add

import pytest

from detres import chern_degree, polyring, resultant_engine
from detres.chern_degree import ExistenceError, ProblemSpec, existence_check, multidegree, total_degree
from detres.polyring import (
    PolyError,
    Polynomial,
    VarSet,
    _field_bits,
    _packed_index,
    monomials_of_degree,
    normalize_gcd_style,
)
from detres.resultant_engine import (
    ConcreteMorphism,
    LascouxCaseError,
    _block_degrees,
    _block_rows,
    _columns_at,
    _compatible_blocks,
    _morphism_at,
    _points,
    _sigma_columns,
    build_sigma,
    complex_strand,
    concrete_morphism,
    critical_degree,
    generic_morphism,
    rational_det,
    rational_rank,
    resultant_gcd,
    row_echelon,
    sigma_rank,
    staircase_specialization,
    vanish_test,
)
from detres.scroll_chow import ScrollSpec, chow_form, chow_generic_morphism, chow_problem
from minors_oracle import (
    block_names,
    candidate_column_sets,
    degrees,
    generic_entries,
    generic_sigma_cells,
    laplace_det,
    parameter_assignment,
    resultant_by_minors,
    try_exact_div,
)


def sylvester_spec(d1, d2):
    return ProblemSpec(2, 1, 0, (d1, d2), (0,))


def column_polynomial(sigma, c):
    """Re-expansion sum_rho entry(rho, c) * rho of a symbolic column, over
    the geometric and parameter variables: by construction Delta_{J,I} * mu."""
    full = VarSet(tuple(f"x{t}" for t in range(sigma.spec.N + 1)) + sigma.param_varset.names)
    terms = Counter()
    for rho, row in zip(sigma.row_basis, sigma.entries):
        for pe, coeff in row[c].terms.items():
            terms[rho + pe] += coeff
    return Polynomial(full, terms)


def classical_sylvester_resultant(d1, d2):
    """Independent oracle: determinant of the classical Sylvester matrix.

    Uses the same parameter names as the generic morphism so the results
    are directly comparable.  Rows are the x^t y^s shifts of the two forms,
    columns the monomials of degree d1 + d2 - 1; the determinant is
    computed by naive cofactor expansion.
    """
    spec = sylvester_spec(d1, d2)
    gen = generic_morphism(spec)
    pvars = VarSet(gen.param_names)

    def coeff_var(i, exps):
        return Polynomial.variable(pvars, gen.coeff_names[(1, i, exps)])

    deg = d1 + d2 - 1
    cols = monomials_of_degree(2, deg)
    col_index = {e: c for c, e in enumerate(cols)}
    rows = []
    for i, (di, shifts) in enumerate(((d1, d2), (d2, d1)), start=1):
        for s in range(shifts):
            row = [Polynomial.zero(pvars)] * len(cols)
            for exps in monomials_of_degree(2, di):
                # multiply the form by x^(shifts-1-s) y^s
                target = (exps[0] + shifts - 1 - s, exps[1] + s)
                row[col_index[target]] = coeff_var(i, exps)
            rows.append(row)
    return laplace_det(rows)


class TestCriticalDegree:
    def test_macaulay_family(self):
        for d in [(1, 1), (1, 2), (2, 3), (1, 2, 3)]:
            m = len(d)
            spec = ProblemSpec(m, 1, 0, d, (0,))
            assert critical_degree(spec) == sum(d) - m + 1

    def test_scroll_data(self):
        spec = ProblemSpec(3, 2, 1, (0, 0, 0), (-1, -2))
        assert critical_degree(spec) == 4
        # the degree-4 basis on the line has 5 elements: the 5 matrix rows
        assert len(monomials_of_degree(2, 4)) == 5

    def test_twist_invariance_random(self):
        rng = random.Random(808)
        specs = 0
        while specs < 50:
            m = rng.randint(2, 5)
            n = rng.randint(1, m)
            r = rng.randint(0, n - 1)
            if (m - r) * (n - r) < 2:
                continue
            k = tuple(rng.randint(-3, 3) for _ in range(n))
            d = tuple(max(k) + rng.randint(1, 4) for _ in range(m))
            spec = ProblemSpec(m, n, r, d, k)
            nu = critical_degree(spec)
            for l in range(-3, 4):
                assert critical_degree(spec.twisted(l)) == nu
            specs += 1

    def test_existence_required(self):
        with pytest.raises(ExistenceError):
            critical_degree(ProblemSpec(2, 1, 0, (1, 1), (1,)))


class TestBuildSigma:
    def test_sylvester_11_matrix(self):
        spec = sylvester_spec(1, 1)
        gen = generic_morphism(spec)
        sigma = build_sigma(spec, 1, gen)
        assert sigma.shape == (2, 2)
        pvars = sigma.param_varset
        # entries are the raw coefficients: [[a_x, b_x], [a_y, b_y]]
        expect = [
            ["c_1_1_1_0", "c_1_2_1_0"],
            ["c_1_1_0_1", "c_1_2_0_1"],
        ]
        for r in range(2):
            for c in range(2):
                assert sigma.entries[r][c] == Polynomial.variable(
                    pvars, expect[r][c]
                )

    def test_sylvester_12_shape(self):
        spec = sylvester_spec(1, 2)
        gen = generic_morphism(spec)
        sigma = build_sigma(spec, critical_degree(spec), gen)
        assert sigma.shape == (3, 3)
        # two shift columns for the linear form, one for the quadratic
        mus = [mu for (J, I, mu) in sigma.col_basis]
        Is = [I for (J, I, mu) in sigma.col_basis]
        assert Is == [(1,), (1,), (2,)]
        assert mus == [(1, 0), (0, 1), (0, 0)]

    def test_column_reexpansion(self):
        for spec in [sylvester_spec(1, 2), ProblemSpec(3, 2, 1, (0, 0, 0), (-1, -2))]:
            gen = generic_morphism(spec)
            d = critical_degree(spec)
            sigma = build_sigma(spec, d, gen)
            entries = generic_entries(gen)
            varset = entries[0][0].varset
            for c, (J, I, mu) in enumerate(sigma.col_basis):
                sub = [[entries[j - 1][i - 1] for i in I] for j in J]
                delta = laplace_det(sub)
                mu_poly = Polynomial.monomial(varset, mu + (0,) * len(gen.param_names))
                assert column_polynomial(sigma, c) == delta * mu_poly

    def test_row_count(self):
        spec = sylvester_spec(2, 2)
        gen = generic_morphism(spec)
        d = critical_degree(spec)
        sigma = build_sigma(spec, d, gen)
        assert len(sigma.row_basis) == len(monomials_of_degree(2, d))

    def test_small_degree_omits_columns(self):
        spec = sylvester_spec(1, 2)
        gen = generic_morphism(spec)
        sigma = build_sigma(spec, 1, gen)
        assert sigma.omitted_columns > 0

    def test_spec_mismatch(self):
        gen = generic_morphism(sylvester_spec(1, 1))
        with pytest.raises(PolyError):
            build_sigma(sylvester_spec(1, 2), 2, gen)

    @pytest.mark.parametrize("d", [0, 1, 127, 128])
    def test_entry_degree_above_d(self, d):
        """An entry of degree 300 with d below it: the entries are packed in
        fields wide enough for their degree, not only for d, and every column
        is the linear entry's Delta_{J,I} times mu."""
        spec = ProblemSpec(2, 1, 0, (300, 1), (0,))
        varset = VarSet(("x0", "x1"))
        big = Polynomial(varset, {(300, 0): 1, (1, 299): Fraction(-1, 2), (0, 300): 3})
        line = Polynomial(varset, {(1, 0): 2, (0, 1): Fraction(1, 3)})
        phi = ConcreteMorphism(spec, varset, ((big, line),))
        gen = generic_morphism(spec)
        generic, concrete = build_sigma(spec, d, gen), build_sigma(spec, d, phi)
        for sigma in (generic, concrete):
            assert sigma.shape == (d + 1, d)
            assert sigma.omitted_columns == (2 if d == 0 else 1)
            assert [(J, I) for J, I, _ in sigma.col_basis] == [((1,), (2,))] * d
        linear = generic_entries(gen)[0][1]
        for c, (_, _, mu) in enumerate(generic.col_basis):
            mu_poly = Polynomial.monomial(linear.varset, mu + (0,) * len(gen.param_names))
            assert column_polynomial(generic, c) == linear * mu_poly
        assert concrete.entries == (sigma_by_minors(concrete, phi) if d else ((),))


class TestResultantGcd:
    @pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 2)])
    def test_matches_classical_sylvester(self, d1, d2):
        out = resultant_gcd(sylvester_spec(d1, d2))
        oracle = normalize_gcd_style(classical_sylvester_resultant(d1, d2))
        assert out.confirmed
        assert out.polynomial == oracle

    @pytest.mark.parametrize(
        "spec",
        [
            sylvester_spec(1, 1),
            sylvester_spec(1, 2),
            sylvester_spec(2, 2),
            ProblemSpec(3, 1, 0, (1, 1, 2), (0,)),
            ProblemSpec(2, 2, 0, (1, 1), (0, 0)),
            ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0)),
            chow_problem(ScrollSpec((2,))),
            chow_problem(ScrollSpec((1, 1))),
            chow_problem(ScrollSpec((2, 1))),
        ],
        ids=[
            "sylvester-11",
            "sylvester-12",
            "sylvester-22",
            "macaulay-310-d112",
            "220-d11",
            "321-d112",
            "chow-S2",
            "chow-S11",
            "chow-S21",
        ],
    )
    def test_block_degrees_match_multidegree(self, spec):
        out = resultant_gcd(spec)
        assert out.block_degrees == multidegree(spec)
        assert out.polynomial.degree == total_degree(spec)

    def test_minors_divisible_by_resultant(self):
        spec = sylvester_spec(1, 2)
        gen = generic_morphism(spec)
        sigma = build_sigma(spec, critical_degree(spec), gen)
        out = resultant_gcd(spec)
        rows, _ = sigma.shape
        for cols in out.minor_columns:
            sub = [[sigma.entries[r][c] for c in cols] for r in range(rows)]
            minor = laplace_det(sub)
            assert try_exact_div(minor, out.polynomial) is not None

    def test_determinism(self):
        a = resultant_gcd(sylvester_spec(2, 2))
        b = resultant_gcd(sylvester_spec(2, 2))
        assert a.polynomial == b.polynomial
        assert a.minor_columns == b.minor_columns

    def test_degree_below_nu_rejected(self):
        with pytest.raises(PolyError):
            resultant_gcd(sylvester_spec(1, 2), d=1)


def binary_form(varset, coeffs):
    """Polynomial sum_i coeffs[i] x^(d-i) y^i on the line."""
    d = len(coeffs) - 1
    return Polynomial(
        varset, {(d - i, i): Fraction(c) for i, c in enumerate(coeffs)}
    )


class TestVanishTest:
    def setup_method(self):
        self.spec = sylvester_spec(1, 1)
        self.vs = VarSet(("x0", "x1"))
        self.x = Polynomial.variable(self.vs, "x0")
        self.y = Polynomial.variable(self.vs, "x1")

    def test_common_root(self):
        phi = concrete_morphism(self.spec, [[self.x, self.x]])
        assert vanish_test(self.spec, phi) is True

    def test_no_common_root(self):
        phi = concrete_morphism(self.spec, [[self.x, self.y]])
        assert vanish_test(self.spec, phi) is False

    def test_consistency_with_resultant_evaluation(self):
        rng = random.Random(4242)
        for d1, d2 in [(1, 1), (1, 2)]:
            spec = sylvester_spec(d1, d2)
            gen = generic_morphism(spec)
            out = resultant_gcd(spec)
            for _ in range(15):
                f = binary_form(
                    self.vs, [rng.randint(-3, 3) for _ in range(d1 + 1)]
                )
                g = binary_form(
                    self.vs, [rng.randint(-3, 3) for _ in range(d2 + 1)]
                )
                if f.is_zero() or g.is_zero():
                    continue
                phi = concrete_morphism(spec, [[f, g]])
                point = parameter_assignment(gen, phi)
                value = out.polynomial.evaluate(point)
                assert vanish_test(spec, phi) == (value == 0)

    def test_forced_rank_drop_witness(self):
        # both forms share the factor x0: rank 0 at (0:1)
        spec = sylvester_spec(2, 2)
        f = self.x * (self.x + self.y)
        g = self.x * (self.x - self.y)
        phi = concrete_morphism(spec, [[f, g]])
        assert vanish_test(spec, phi) is True

    def test_entries_read_by_variable_name(self):
        swapped = VarSet(("x1", "x0"))
        x1 = Polynomial.variable(swapped, "x1")
        phi = concrete_morphism(self.spec, [[x1, self.x]])
        assert phi.entry(1, 1) == self.y
        assert vanish_test(self.spec, phi) is False
        with pytest.raises(PolyError):
            ConcreteMorphism(self.spec, swapped, ((x1, Polynomial.variable(swapped, "x0")),))
        with pytest.raises(PolyError):
            ConcreteMorphism(self.spec, self.vs, ((x1, self.x),))

    def test_zero_entries_allowed(self):
        spec = sylvester_spec(1, 1)
        phi = concrete_morphism(spec, [[self.x, Polynomial.zero(self.vs)]])
        assert vanish_test(spec, phi) is True


class TestStaircase:
    def test_sylvester(self):
        spec = sylvester_spec(1, 1)
        st = staircase_specialization(spec)
        vs = st.varset
        assert st.entry(1, 1) == Polynomial.variable(vs, "x0")
        assert st.entry(1, 2) == Polynomial.variable(vs, "x1")
        assert vanish_test(spec, st) is False

    def test_scroll_problem_rank(self):
        spec = ProblemSpec(3, 2, 1, (0, 0, 0), (-1, -2))
        st = staircase_specialization(spec)
        sigma = build_sigma(spec, 4, st)
        assert sigma.shape[0] == 5
        assert rational_rank(sigma.entries) == 5
        assert vanish_test(spec, st) is False

    def test_band_width(self):
        spec = ProblemSpec(4, 2, 1, (1, 1, 1, 1), (0, 0))
        st = staircase_specialization(spec)
        for j in range(1, 3):
            nonzero = [i for i in range(1, 5) if not st.entry(j, i).is_zero()]
            assert nonzero == list(range(j, j + 3))

    def test_non_principal_rejected(self):
        with pytest.raises(ExistenceError):
            staircase_specialization(ProblemSpec(2, 2, 0, (1, 1), (0, -1)))

    def test_entries_on_every_small_principal_spec(self):
        """Entry (j, i) is x_{i-j}^(d_i - k_j) on the band 0 <= i - j <= m - n
        and zero off it, on every valid principal spec with m <= 4, d_i in
        [-1, 2] and k_j in [-2, 0]."""
        swept = 0
        for m in range(2, 5):
            for n in range(1, m):
                for d in product(range(-1, 3), repeat=m):
                    for k in product(range(-2, 1), repeat=n):
                        spec = ProblemSpec(m, n, n - 1, d, k)
                        if not existence_check(spec)[0]:
                            continue
                        st = staircase_specialization(spec)
                        vs = VarSet(f"x{t}" for t in range(spec.N + 1))
                        for j in range(1, n + 1):
                            for i in range(1, m + 1):
                                want = Polynomial.zero(vs)
                                if 0 <= i - j <= m - n:
                                    e = [0] * len(vs)
                                    e[i - j] = d[i - 1] - k[j - 1]
                                    want = Polynomial.monomial(vs, tuple(e))
                                assert st.entry(j, i) == want, (spec, j, i)
                        swept += 1
        assert swept == 2372


def gaussian_row_echelon(matrix):
    """Oracle: forward Gaussian elimination on Fractions, with the pivot rule
    of ``row_echelon`` (first nonzero row, stop at full row rank)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots, values, sign, rank = [], [], 1, 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        pv = m[rank][c]
        for r in range(rank + 1, rows):
            if m[r][c]:
                f = m[r][c] / pv
                for cc in range(c, cols):
                    m[r][cc] -= f * m[rank][cc]
        pivots.append(c)
        values.append(pv)
        rank += 1
        if rank == rows:
            break
    return pivots, values, sign


def _elimination_cases():
    """Seeded matrices: singular, zero-column and row-swap Fraction cases,
    rows with distinct large denominators, plain ints, zero rows, and wide
    rank-deficient matrices, whose elimination runs through every column."""
    rng = random.Random(0xEC)
    pool = [0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]]]
    for t in range(60):
        rows = rng.randint(1, 6)
        cols = rows if t % 2 else rng.randint(1, 8)
        m = [[Fraction(rng.choice(pool)) for _ in range(cols)] for _ in range(rows)]
        kind = t % 6
        if kind == 1 and rows >= 3:  # singular: last row a combination of two
            m[-1] = [m[0][c] - 2 * m[1][c] for c in range(cols)]
        elif kind == 3:  # a zero column
            z = rng.randrange(cols)
            for row in m:
                row[z] = Fraction(0)
        elif kind == 5 and rows >= 2:  # first pivot needs a row swap
            m[0][0] = Fraction(0)
            m[-1][0] = Fraction(rng.choice([1, -3, Fraction(2, 7)]))
        cases.append([[Fraction(x) for x in row] for row in m])
    for t in range(24):
        kind = t % 4
        rows = rng.randint(2, 6)
        cols = rows if t < 12 else rng.randint(rows, 9)
        if kind == 0:  # a large denominator per row, distinct across rows
            m = []
            for _ in range(rows):
                den = rng.randint(10**11, 10**12)
                m.append([Fraction(rng.randint(-(10**12), 10**12), den) for _ in range(cols)])
        else:  # plain ints
            m = [[rng.choice([0, 0, 1, -1, 3, -7, 10**15]) for _ in range(cols)] for _ in range(rows)]
        if kind == 2:  # zero rows
            for r in rng.sample(range(rows), rng.randint(1, rows - 1)):
                m[r] = [0] * cols
        elif kind == 3:  # wide, rank at most 2: every row a combination of two
            cols = rng.randint(rows + 2, 10)
            a = [rng.randint(-3, 3) for _ in range(cols)]
            b = [rng.choice([0, Fraction(1, 5), 2]) for _ in range(cols)]
            m = [[x * a[c] + y * b[c] for c in range(cols)] for x, y in
                 ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rows))]
        cases.append(m)
    cases += _idle_row_cases(rng)
    # int-entry copies of the Fraction cases, each row scaled by its lcm
    for m in list(cases):
        if any(type(x) is Fraction for row in m for x in row):
            dens = [lcm(*(Fraction(x).denominator for x in row)) for row in m]
            cases.append([[int(x * den) for x in row] for row, den in zip(m, dens)])
    return cases


def _idle_row_cases(rng):
    """Matrices in which rows sit idle (a zero in the pivot column) for
    several elimination steps and are then updated or become the pivot row:
    staircase, banded, sparse, and a row updated at step 0 that waits out a
    diagonal block before it is used again."""
    pool = [1, -1, 2, 3, -5, 7, Fraction(1, 3), Fraction(-5, 2)]
    cases = []
    for t in range(32):
        kind = t % 4
        rows = rng.randint(3, 7)
        cols = rng.randint(rows, rows + 4)
        m = [[0] * cols for _ in range(rows)]
        if kind == 0:  # staircase with repeated steps, rows shuffled
            leads = sorted(rng.randrange(cols - 1) for _ in range(rows))
            for row, lead in zip(m, leads):
                row[lead] = rng.choice(pool)
                for c in range(lead + 1, cols):
                    row[c] = rng.choice(pool + [0, 0])
            rng.shuffle(m)
        elif kind == 1:  # banded, bandwidth 1 or 2
            width = rng.randint(1, 2)
            for r, row in enumerate(m):
                for c in range(max(0, r - width), min(cols, r + width + 1)):
                    row[c] = rng.choice(pool)
        elif kind == 2:  # sparse, some rows possibly zero
            for row in m:
                for c in range(cols):
                    if rng.random() < 0.3:
                        row[c] = rng.choice(pool)
        else:  # rows 1..k a diagonal block; rows 0 and the last two start at column 0
            k = rows - 3
            for r in (0, rows - 2, rows - 1):
                m[r][0] = rng.choice(pool)
            for r in range(1, k + 1):
                m[r][r] = rng.choice(pool)
            for row in m:
                for c in range(k + 1, cols):
                    row[c] = rng.choice(pool + [0])
            if t % 8 == 7:  # the idle rows arrive by a row swap
                m[1], m[-1] = m[-1], m[1]
        cases.append([[Fraction(x) if t % 3 else x for x in row] for row in m])
    return cases


class TestRowEchelon:
    """Rank, greedy pivot set and determinant against sympy as an oracle;
    pivots and determinant against Gaussian elimination."""

    @pytest.mark.parametrize("matrix", _elimination_cases())
    def test_against_sympy(self, matrix):
        sympy = pytest.importorskip("sympy")
        oracle = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
        )
        pivots, det = row_echelon(matrix)
        assert rational_rank(matrix) == oracle.rank()
        assert tuple(pivots) == oracle.rref()[1]
        if len(matrix) == len(matrix[0]):
            square = oracle.det()
            assert rational_det(matrix) == Fraction(int(square.p), int(square.q))
        if len(pivots) == len(matrix):  # the determinant is the minor on the pivots
            minor = oracle.extract(list(range(len(matrix))), pivots).det()
            assert det == Fraction(int(minor.p), int(minor.q))
        else:
            assert det == 0

    @pytest.mark.parametrize("matrix", _elimination_cases())
    def test_against_gaussian(self, matrix):
        pivots, det = row_echelon(matrix)
        gauss_pivots, values, sign = gaussian_row_echelon(matrix)
        assert pivots == gauss_pivots
        full = len(pivots) == len(matrix)
        assert det == (prod(values, start=Fraction(sign)) if full else 0)
        assert type(det) is Fraction

    def test_empty(self):
        assert rational_rank([]) == 0
        assert rational_det([]) == 1


#: Prime for the rank oracle: rank modulo p never exceeds the rank over Q.
PRIME = (1 << 61) - 1
#: A second prime, for oracles of ``rational_rank``, which works modulo PRIME;
#: below 2^15, so that the oracle's products stay small ints.
OTHER_PRIME = 32749


def rank_mod_p(matrix, prime=PRIME):
    """Rank over GF(p) of a rational matrix whose denominators p does not divide."""
    m = [[x.numerator * pow(x.denominator, -1, prime) % prime for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, prime)
        top = m[rank][c:]  # the rows below are zero left of c
        for r in range(rank + 1, len(m)):
            f = m[r][c] * inv % prime
            if f:
                m[r][c:] = [(a - f * b) % prime for a, b in zip(m[r][c:], top)]
        rank += 1
    return rank


def integer_morphism(spec, rng, point=None):
    """Seeded integer morphism for a spec with N = 3 and k = 0, coefficients
    in [-2, 2].  With ``point`` entry (j, i) takes the value u_j v_i there,
    so phi has rank one at the point and the resultant vanishes."""
    varset = VarSet(("x0", "x1", "x2", "x3"))
    rows = [[{e: rng.randint(-2, 2) for e in monomials_of_degree(4, di)} for di in spec.d] for _ in range(spec.n)]
    if point is not None:
        u, v = (1, -2, 1), (2, 1, -1)
        for j, row in enumerate(rows):
            for i, f in enumerate(row):
                at_p = sum(c * prod(x**k for x, k in zip(point, e)) for e, c in f.items())
                f[(spec.d[i], 0, 0, 0)] += u[j] * v[i] - at_p
    return ConcreteMorphism(spec, varset, tuple(tuple(Polynomial(varset, f) for f in row) for row in rows))


def spy_row_echelon(monkeypatch):
    """The row counts of the matrices ``row_echelon`` is called on."""
    calls = []

    def spy(matrix):
        calls.append(len(matrix))
        return row_echelon(matrix)

    monkeypatch.setattr(resultant_engine, "row_echelon", spy)
    return calls


def annihilated_by_witness(sigma, point):
    """Whether evaluation at ``point`` kills every column of sigma: each
    column is a minor of the morphism times a monomial, zero at a point of
    rank drop, so the rank is below the row count."""
    witness = [prod(x**k for x, k in zip(point, rho)) for rho in sigma.row_basis]
    return all(sum(w * row[c] for w, row in zip(witness, sigma.entries)) == 0 for c in range(sigma.shape[1]))


class TestSigmaRank56x120:
    """sigma_nu of spec (3,3,1), d=(2,1,1): 56 rows, 120 columns.

    A nonvanishing morphism is certified by full rank modulo a prime.  A
    vanishing one is built to have rank one at a point p; evaluation at p
    is then a nonzero vector that every column of sigma annihilates,
    since each column is a minor of the morphism (zero at p) times a
    monomial."""

    SPEC = ProblemSpec(3, 3, 1, (2, 1, 1), (0, 0, 0))

    def test_nonvanishing(self):
        phi = integer_morphism(self.SPEC, random.Random(56))
        sigma = build_sigma(self.SPEC, critical_degree(self.SPEC), phi)
        assert sigma.shape == (56, 120)
        assert rank_mod_p(sigma.entries) == 56
        assert sigma_rank(self.SPEC, phi) == (sigma.d, 56, 120, 56)
        assert vanish_test(self.SPEC, phi) is False

    def test_vanishing(self):
        point = (1, 2, -1, 3)
        phi = integer_morphism(self.SPEC, random.Random(120), point)
        sigma = build_sigma(self.SPEC, critical_degree(self.SPEC), phi)
        assert annihilated_by_witness(sigma, point)
        # rank <= 55 by the witness, >= the rank modulo p
        assert rank_mod_p(sigma.entries) == 55
        result = sigma_rank(self.SPEC, phi)
        assert (result.rank, result.vanishes) == (55, True)
        assert vanish_test(self.SPEC, phi) is True


class TestCertifiedRank:
    """Each path of ``rational_rank``: full rank and a rank drop modulo
    2^61 - 1 are certified without ``row_echelon``; an unlucky prime and a
    kernel too large to reconstruct fall back to it."""

    SPEC = ProblemSpec(3, 3, 1, (1, 1, 1), (0, 0, 0))

    @pytest.mark.parametrize("vanishing", [False, True])
    def test_sigma_331_certified(self, monkeypatch, vanishing):
        point = (1, -1, 2, 1) if vanishing else None
        phi = integer_morphism(self.SPEC, random.Random(331), point)
        sigma = build_sigma(self.SPEC, critical_degree(self.SPEC), phi)
        assert sigma.shape == (20, 36)
        rank = len(row_echelon(sigma.entries)[0])
        assert rank == 20 - vanishing
        calls = spy_row_echelon(monkeypatch)
        assert sigma_rank(self.SPEC, phi) == (sigma.d, 20, 36, rank)
        assert rational_rank(sigma.entries) == rank
        assert calls == []

    @pytest.mark.parametrize(
        "matrix, rank",
        [
            ([[PRIME]], 1),  # rank 0 modulo p
            ([[PRIME, 0], [0, 1]], 2),  # rank 1 modulo p
            ([[1, 0], [1 << 40, 0]], 1),  # kernel (-2^40, 1): no reconstruction
        ],
        ids=["p", "p-and-1", "large-kernel"],
    )
    def test_falls_back(self, monkeypatch, matrix, rank):
        calls = spy_row_echelon(monkeypatch)
        assert rational_rank(matrix) == rank
        assert calls == [len(matrix)]

    @pytest.mark.parametrize(
        "matrix",
        [
            [[-1, 2, -3], [2, -4, 6], [0, -1, 5]],
            [[PRIME + 1, 2 * PRIME, 5], [3 * PRIME + 2, 1 << 70, -PRIME]],
            [[Fraction(1, 3), Fraction(-5, 2)], [Fraction(2, 3), -5], [1, Fraction(7, 9)]],
            [[0, 0, 0], [0, 0, 0]],
            [[0, 3, -7, 2]],
            [[4], [-6], [0]],
            [[1, 2], [3, 4], [5, 6], [7, 9], [-1, 1]],
            [[2, 4, 6], [3, 6, 9], [-1, -2, -3], [5, 10, 15]],
            [],
        ],
        ids=["negative", "at-least-p", "fractions", "zero", "1xn", "nx1", "tall", "rank-one", "empty"],
    )
    def test_against_row_echelon(self, monkeypatch, matrix):
        rank = len(row_echelon(matrix)[0])
        calls = spy_row_echelon(monkeypatch)
        assert rational_rank(matrix) == rank
        assert calls == []


class TestSigmaRankAimSizes:
    """sigma_nu of spec (3,3,1) at d=(2,2,1) (120x270) and d=(2,2,2)
    (220x504), the sizes of the rank targets: one nonvanishing and one
    vanishing morphism each, ranked without ``row_echelon``.  Full rank is
    certified by full rank modulo a second prime; a rank drop by the
    witness at its point (rank below the rows) and the rank modulo that
    prime (rank at least rows - 1)."""

    @pytest.mark.parametrize("vanishing", [False, True])
    @pytest.mark.parametrize("d, shape", [((2, 2, 1), (120, 270)), ((2, 2, 2), (220, 504))], ids=["120x270", "220x504"])
    def test_rank(self, monkeypatch, d, shape, vanishing):
        spec = ProblemSpec(3, 3, 1, d, (0, 0, 0))
        point = (1, 2, -1, 3) if vanishing else None
        phi = integer_morphism(spec, random.Random(sum(shape)), point)
        sigma = build_sigma(spec, critical_degree(spec), phi)
        assert sigma.shape == shape
        rows = shape[0]
        if vanishing:
            assert annihilated_by_witness(sigma, point)
        assert rank_mod_p(sigma.entries, OTHER_PRIME) == rows - vanishing
        calls = spy_row_echelon(monkeypatch)
        assert sigma_rank(spec, phi) == (sigma.d, *shape, rows - vanishing)
        assert calls == []


def rational_morphism(spec, rng, point=None):
    """Seeded rational morphism with coefficients such as 1/3 and -5/2 and
    some zero entries.  With ``point`` (x0 = 1) the x0^deg coefficient of
    each entry is adjusted so that phi(point) is u v^T for r = 1 (0 for
    r = 0): rank r at that point, so the resultant vanishes."""
    pool = [0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]
    varset = VarSet(tuple(f"x{t}" for t in range(spec.N + 1)))
    u = [rng.choice([0, 1, -2]) if spec.r else 0 for _ in range(spec.n)]
    v = [rng.choice([0, 3, Fraction(1, 3)]) if spec.r else 0 for _ in range(spec.m)]
    rows = []
    for j in range(spec.n):
        row = []
        for i in range(spec.m):
            deg = spec.d[i] - spec.k[j]
            terms = {e: Fraction(rng.choice(pool)) for e in monomials_of_degree(spec.N + 1, deg)}
            if rng.random() < 0.2 and (point is None or u[j] * v[i] == 0):
                terms = {}
            elif point is not None:
                at_p = sum(c * prod(x**k for x, k in zip(point, e)) for e, c in terms.items())
                lead = (deg,) + (0,) * spec.N
                terms[lead] += u[j] * v[i] - at_p
            row.append(Polynomial(varset, terms))
        rows.append(tuple(row))
    return ConcreteMorphism(spec, varset, tuple(rows))


def sigma_by_minors(sigma, phi):
    """Oracle: concrete sigma_d with each column Delta_{J,I} * mu taken
    from ``det_fraction_free`` of the rational minor, as Fraction cells."""
    index = {e: r for r, e in enumerate(sigma.row_basis)}
    cols = []
    for J, I, mu in sigma.col_basis:
        col = [Fraction(0)] * len(index)
        delta = polyring.det_fraction_free([[phi.entry(j, i) for i in I] for j in J])
        for e, c in delta.terms.items():
            col[index[tuple(a + b for a, b in zip(e, mu))]] = c
        cols.append(col)
    return tuple(zip(*cols))


class TestConcreteSigma:
    """The integer rank test against two oracles: the rank of the Fraction
    sigma that ``build_sigma`` returns, and the generic sigma evaluated at
    the morphism's parameters."""

    SPECS = [
        ProblemSpec(3, 3, 1, (1, 1, 1), (0, 0, 0)),
        ProblemSpec(2, 1, 0, (2, 3), (0,)),
        ProblemSpec(3, 1, 0, (1, 2, 2), (0,)),
        ProblemSpec(3, 2, 1, (0, 0, 0), (-1, -2)),
    ]

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("spec", SPECS, ids=["331-k0", "sylvester-210", "macaulay-310", "principal-321"])
    def test_against_oracles(self, spec, extra):
        rng = random.Random(0x5C + 7 * extra + spec.m * spec.n)
        gen = generic_morphism(spec)
        d = critical_degree(spec) + extra
        generic = build_sigma(spec, d, gen)
        point = (1,) + tuple(rng.choice([-1, 2, Fraction(1, 2)]) for _ in range(spec.N))
        for vanishing in (False, True):
            phi = rational_morphism(spec, rng, point if vanishing else None)
            sigma = build_sigma(spec, d, phi)
            # small random draws vanish now and then: redraw until full rank
            # modulo a prime certifies full rank over Q
            while not vanishing and rank_mod_p(sigma.entries) < len(sigma.row_basis):
                phi = rational_morphism(spec, rng)
                sigma = build_sigma(spec, d, phi)
            assert all(type(x) is Fraction for row in sigma.entries for x in row)
            assert sigma.entries == sigma_by_minors(sigma, phi)
            values = parameter_assignment(gen, phi)
            at = tuple(tuple(p.evaluate(values) for p in row) for row in generic.entries)
            assert sigma.entries == at
            result = sigma_rank(spec, phi, d)
            assert (result.d, result.rows, result.cols) == (d, *sigma.shape)
            assert result.rank == rational_rank(sigma.entries) == rational_rank(at)
            assert result.vanishes is vanishing

    def test_rank_goes_through_rational_rank(self, monkeypatch):
        calls = []

        def counted(matrix):
            calls.append(len(matrix))
            return rational_rank(matrix)

        monkeypatch.setattr(resultant_engine, "rational_rank", counted)
        spec = self.SPECS[0]
        result = sigma_rank(spec, rational_morphism(spec, random.Random(3)))
        assert calls == [result.rows]

    @pytest.mark.parametrize("generic", [False, True])
    def test_monomials_listed_once_per_degree(self, generic):
        """The monomial bases and their packed indexes are built once per
        process: a first build_sigma lists the rows' basis and the mu's once
        each, a second lists none."""
        spec = self.SPECS[0]
        phi = generic_morphism(spec) if generic else rational_morphism(spec, random.Random(3))
        monomials_of_degree.cache_clear()
        _packed_index.cache_clear()
        sigma = build_sigma(spec, critical_degree(spec), phi)
        assert sigma.shape == (20, 36)  # 9 column groups, each of degree 1
        # two bases, degree 3 (the rows) and 1 (every mu), and their indexes
        assert monomials_of_degree.cache_info().misses == 2
        assert _packed_index.cache_info().misses == 2
        assert build_sigma(spec, critical_degree(spec), phi) == sigma
        assert monomials_of_degree.cache_info().misses == 2
        assert _packed_index.cache_info().misses == 2

    @pytest.mark.parametrize("call", ["build_sigma", "resultant_gcd", "complex_strand"])
    def test_second_call_lists_no_basis(self, call):
        spec = self.SPECS[3]  # a principal spec: it has a complex
        d = critical_degree(spec) + 1
        run = {
            "build_sigma": lambda: build_sigma(spec, d, generic_morphism(spec)),
            "resultant_gcd": lambda: resultant_gcd(spec, d),
            "complex_strand": lambda: complex_strand(spec, d, generic_morphism(spec)),
        }[call]
        monomials_of_degree.cache_clear()
        _packed_index.cache_clear()
        first = run()
        misses = monomials_of_degree.cache_info().misses, _packed_index.cache_info().misses
        assert misses[0] > 0
        assert run() == first
        assert (monomials_of_degree.cache_info().misses, _packed_index.cache_info().misses) == misses


def test_no_cyclic_garbage():
    """The determinant's memo of minors is freed by reference counting: no
    cyclic garbage is left for the collector."""
    import gc

    from detres.scroll_chow import chow_form

    vs = VarSet(("x", "y"))
    x, y = Polynomial.variable(vs, "x"), Polynomial.variable(vs, "y")
    matrix = [[x + 1, y, x * y], [y, Fraction(1, 3) * x, y + 2], [x, y, Polynomial.constant(vs, 5)]]
    spec = ProblemSpec(3, 2, 1, (0, 0, 0), (-1, -2))
    phi = staircase_specialization(spec)

    def run():
        polyring.det_fraction_free(matrix)
        sigma_rank(spec, phi)
        chow_form(ScrollSpec((1, 1)))

    run()  # first use: imports and caches
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _forms_assignment(forms):
    """Default parameter names c_1_<i>_<exponents> for n = 1 forms."""
    return {
        f"c_1_{i}_" + "_".join(map(str, e)): Fraction(c)
        for i, form in enumerate(forms, start=1)
        for e, c in form.items()
    }


class TestMacaulayMinorSelection:
    """Macaulay (3,1,0) specs whose first two minors share an extra factor
    when the candidates are single-column swaps of one pivot set.  The
    resultant must confirm, vanish on forms with a common zero and not on
    generic forms; the candidate tests cover the minors oracle's selection."""

    @pytest.mark.parametrize(
        "d, extra",
        [
            ((1, 1, 1), 2),
            ((1, 2, 2), 0),
            ((1, 1, 2), 1),
            ((1, 1, 2), 2),
            ((1, 1, 3), 0),
            ((1, 2, 2), 1),
        ],
    )
    def test_confirmed_with_macaulay_blocks(self, d, extra):
        spec = ProblemSpec(3, 1, 0, d, (0,))
        out = resultant_gcd(spec, critical_degree(spec) + extra)
        assert out.confirmed
        assert out.block_degrees == tuple(
            prod(d[:i] + d[i + 1 :]) for i in range(len(d))
        )
        rng = random.Random(sum(d) + 10 * extra)
        forms = [
            {e: rng.randint(-9, 9) for e in monomials_of_degree(3, di)} for di in d
        ]
        assert out.polynomial.evaluate(_forms_assignment(forms)) != 0
        # move every form's (1, 1, 1) value into its x0^d coefficient
        for di, f in zip(d, forms):
            f[(di, 0, 0)] -= sum(f.values())
        assert out.polynomial.evaluate(_forms_assignment(forms)) == 0

    def test_candidates_distinct_and_nonsingular(self):
        spec = ProblemSpec(3, 1, 0, (1, 1, 1), (0,))
        sigma = build_sigma(spec, critical_degree(spec) + 2, generic_morphism(spec))
        rng = random.Random(3)
        point = {p: rng.randint(1, 99) for p in sigma.param_varset.names}
        numeric = [[e.evaluate(point) for e in row] for row in sigma.entries]
        rows = len(numeric)
        sets = list(candidate_column_sets(numeric, 8))
        assert sets[0] == row_echelon(numeric)[0]
        assert len(sets) == 8
        assert len({tuple(s) for s in sets}) == 8
        for cols in sets:
            sub = [[numeric[r][c] for c in cols] for r in range(rows)]
            assert rational_det(sub) != 0

    def test_candidates_of_square_and_singular_matrices(self):
        square = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert list(candidate_column_sets(square, 8)) == [[0, 1]]
        singular = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
        assert list(candidate_column_sets(singular, 8)) == []


def chow_spec(*degrees):
    """The Chow-form problem of the scroll S(degrees): m = n + 1, r = n - 1."""
    return chow_problem(ScrollSpec(degrees))


def spec_id(spec):
    return f"{spec.m}{spec.n}{spec.r}-d{''.join(map(str, spec.d))}-k{''.join(map(str, spec.k))}"


#: Specs with small strands, all Eagon-Northcott: of the 1 x mn row of the
#: entries for r = 0 (their Koszul complex), of the morphism for r = n - 1
#: (with m = n + 1 and with m >= n + 2).
STRAND_SPECS = [
    sylvester_spec(1, 2),
    ProblemSpec(3, 1, 0, (1, 1, 2), (0,)),
    ProblemSpec(2, 2, 0, (1, 1), (0, 0)),
    ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0)),
    chow_spec(2, 1),
    ProblemSpec(4, 2, 1, (1, 1, 1, 1), (0, 0)),
    ProblemSpec(4, 2, 1, (2, 1, 1, 1), (0, 0)),
    ProblemSpec(5, 2, 1, (1,) * 5, (0, 0)),
]

#: The smallest Lascoux spec (0 < r < n - 1): a 20x36 sigma_d at nu.
LASCOUX = ProblemSpec(3, 3, 1, (1, 1, 1), (0, 0, 0))


def refuse_gcd(monkeypatch):
    def refuse(*args):
        raise AssertionError("multivariate_gcd reached")

    monkeypatch.setattr(polyring, "multivariate_gcd", refuse)


class TestComplexStrand:
    @pytest.mark.parametrize("spec", STRAND_SPECS, ids=spec_id)
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_dimensions(self, spec, extra):
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        dims, maps = complex_strand(spec, d, phi)
        assert dims[:2] == build_sigma(spec, d, phi).shape
        assert sum((-1) ** p * dim for p, dim in enumerate(dims)) == 0
        assert len(dims) == len(maps) + 2
        for p, D in enumerate(maps, start=2):
            assert len(D) == dims[p]
            assert all(0 <= r < dims[p - 1] for col in D for r, _, _ in col)

    @pytest.mark.parametrize("spec", STRAND_SPECS, ids=spec_id)
    @pytest.mark.parametrize("extra", [0, 2])
    def test_differentials_compose_to_zero(self, spec, extra):
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        sigma = build_sigma(spec, d, phi)
        _, maps = complex_strand(spec, d, phi)
        pv = sigma.param_varset
        params = [Polynomial.variable(pv, name) for name in pv.names]
        zero = Polynomial.zero(pv)
        if maps:
            for col in maps[0]:
                for row in sigma.entries:
                    assert sum((sign * row[k] * params[t] for k, sign, t in col), zero).is_zero()
        for lower, upper in zip(maps, maps[1:]):
            for col in upper:
                acc = Counter()
                for k, s1, t1 in col:
                    for r, s2, t2 in lower[k]:
                        acc[(r, min(t1, t2), max(t1, t2))] += s1 * s2
                assert not any(acc.values())

    def test_other_specs_rejected(self):
        with pytest.raises(LascouxCaseError):
            complex_strand(LASCOUX, critical_degree(LASCOUX), generic_morphism(LASCOUX))


#: (spec, degree above nu, letter names): the acceptance goldens, the six
#: ``resultant`` benchmark inputs, the Chow forms of small scrolls, a
#: principal spec with m = n + 2 (a square 6x6 sigma_d, 60,600 terms) and an
#: r = 0 spec with n = 2 above nu (strand dims (10, 16, 6); at nu + 2 the
#: minors oracle takes half a minute).
COMPLEX_CASES = [
    (sylvester_spec(1, 1), 0, False),
    (sylvester_spec(1, 2), 0, False),
    (sylvester_spec(2, 2), 0, False),
    (sylvester_spec(2, 3), 2, False),
    (sylvester_spec(2, 2), 3, False),
    (sylvester_spec(3, 3), 1, False),
    (ProblemSpec(3, 1, 0, (1, 1, 2), (0,)), 0, False),
    (ProblemSpec(3, 1, 0, (1, 1, 1), (0,)), 1, False),
    (ProblemSpec(3, 1, 0, (1, 1, 1), (0,)), 2, False),
    (chow_spec(2), 0, True),
    (chow_spec(3), 0, True),
    (chow_spec(1, 1), 0, True),
    (chow_spec(2, 1), 0, True),
    (chow_spec(1, 2), 0, True),
    (ProblemSpec(4, 2, 1, (1, 1, 1, 1), (0, 0)), 0, False),
    (ProblemSpec(2, 2, 0, (1, 1), (0, 0)), 1, False),
]


def koszul_strand(spec, d, phi):
    """``complex_strand``'s output for r = 0, built as the Koszul complex of
    the m*n entries f_a, a = (j, i) in the order of sigma's columns: K_p has
    the basis e_A * mu (A a p-subset of the entries, lexicographic; deg mu =
    d - sum of deg f_a over A), and ``D_p(e_A mu) = sum_t (-1)^t f_{A_t} mu
    e_{A - A_t}``."""
    gens = [(j, i) for j in range(1, spec.n + 1) for i in range(1, spec.m + 1)]
    degs = [spec.d[i - 1] - spec.k[j - 1] for j, i in gens]
    entries = {}
    for t, (j, i, exps) in enumerate(phi.coeff_names):
        entries.setdefault((j, i), []).append((exps, t))
    nv = spec.N + 1
    dims, maps, index = [len(monomials_of_degree(nv, d))], [], {}
    for p in range(1, len(gens) + 1):
        basis = [
            (A, mu)
            for A in combinations(range(len(gens)), p)
            if d >= sum(degs[a] for a in A)
            for mu in monomials_of_degree(nv, d - sum(degs[a] for a in A))
        ]
        if not basis:
            break
        if index:
            maps.append(
                [
                    [
                        (index[(A[:t] + A[t + 1 :], tuple(map(add, mu, e)))], (-1) ** t, param)
                        for t, a in enumerate(A)
                        for e, param in entries[gens[a]]
                    ]
                    for A, mu in basis
                ]
            )
        dims.append(len(basis))
        index = {b: c for c, b in enumerate(basis)}
    return tuple(dims), maps


#: The r = 0 specs of the strand and route tests.
KOSZUL_SPECS = [spec for spec in dict.fromkeys(STRAND_SPECS + [c[0] for c in COMPLEX_CASES]) if spec.r == 0]


class TestKoszulStrand:
    @pytest.mark.parametrize("spec", KOSZUL_SPECS, ids=spec_id)
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_r0_strand_is_the_koszul_strand(self, spec, extra):
        """For r = 0 the Eagon-Northcott strand of the 1 x mn row is the
        Koszul strand of the entries, basis and order alike: the (j, i) order
        of the row fixes the block columns and ``minor_columns``."""
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        assert complex_strand(spec, d, phi) == koszul_strand(spec, d, phi)


#: The COMPLEX_CASES whose strand has a differential after sigma_d.
LATER_BLOCK_CASES = [
    (spec, extra, letters)
    for spec, extra, letters in COMPLEX_CASES
    if complex_strand(spec, critical_degree(spec) + extra, generic_morphism(spec))[1]
]


#: Every (spec, degree above nu) of ``COMPLEX_CASES`` and of the strand tests.
BLOCK_ROW_INPUTS = list(
    dict.fromkeys(
        [(spec, extra) for spec, extra, _ in COMPLEX_CASES]
        + [(spec, extra) for spec in STRAND_SPECS for extra in (0, 1, 2)]
    )
)


def chooses_blocks(spec, extra):
    """Whether the route chooses blocks on the strand at nu + extra: all but a
    square sigma_d with no further term, whose determinant it takes as is."""
    dims = complex_strand(spec, critical_degree(spec) + extra, generic_morphism(spec))[0]
    return dims[0] != dims[1] or len(dims) > 2


#: The BLOCK_ROW_INPUTS on which the route chooses blocks.
CHOSEN_BLOCK_INPUTS = [(spec, extra) for spec, extra in BLOCK_ROW_INPUTS if chooses_blocks(spec, extra)]


def packed_strand(spec, d, phi, ps):
    """The strand's dims and its differentials in the route's packed form
    (``ps``-bit fields): sigma_d's columns from ``_sigma_columns``, then each
    D_p as columns of packed cells, sign * parameter t packed as t alone."""
    dims, maps = complex_strand(spec, d, phi)
    nparams = len(phi.param_names)
    diffs = [_sigma_columns(spec, d, phi, ps)[2]]
    for p, D in enumerate(maps, start=2):
        cols = [[{}] * dims[p - 1] for _ in D]
        for col, cells in zip(D, cols):
            for r, sign, t in col:
                cells[r] = polyring._pack({tuple(int(u == t) for u in range(nparams)): sign}, nparams, ps)
        diffs.append(cols)
    return dims, maps, diffs


def two_format_blocks(columns, dims, maps, point, ps):
    """The block choice with D_1 and the later differentials in two formats:
    block 1 on ``_sigma_columns``' packed cells (``ps``-bit fields), unpacked
    and evaluated term by term, on all rows; block p >= 2 on
    ``complex_strand``'s (row, sign, parameter) triples of D_p, each entry
    sign * point[parameter], on the rows outside S_{p-1}.  S_p is the greedy
    pivot columns of block p; None when a block falls short of full row rank
    or S_P misses part of the top term."""
    nparams = len(point)
    sigma = [
        [sum(c * prod(x**k for x, k in zip(point, e)) for e, c in polyring._unpack(cell, nparams, ps).items()) for cell in col]
        for col in columns
    ]
    rows = list(range(dims[0]))
    cols = row_echelon(list(zip(*sigma)))[0]
    if len(cols) < len(rows):
        return None
    blocks = [(rows, cols)]
    for p, D in enumerate(maps, start=2):
        rows = [r for r in range(dims[p - 1]) if r not in cols]
        at = {r: u for u, r in enumerate(rows)}
        values = [[0] * len(D) for _ in rows]
        for c, col in enumerate(D):
            for r, sign, t in col:
                if r in at:
                    values[at[r]][c] = sign * point[t]
        cols = row_echelon(values)[0]
        if len(cols) < len(rows):
            return None
        blocks.append((rows, cols))
    return blocks if len(cols) == dims[-1] else None


class TestComplexRoute:
    @pytest.mark.parametrize(
        "spec, extra", BLOCK_ROW_INPUTS, ids=[f"{spec_id(spec)}-at-nu+{extra}" for spec, extra in BLOCK_ROW_INPUTS]
    )
    def test_block_rows_from_dims(self, spec, extra):
        """The route sizes its fields from the strand dims before it chooses
        the blocks: the row counts ``_block_rows`` derives from the dims are
        those of the blocks ``_compatible_blocks`` then chooses."""
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        ps = _field_bits(spec.r + 1)
        dims, _, diffs = packed_strand(spec, d, phi, ps)
        chosen = (_compatible_blocks(diffs, dims, point, ps) for point in _points(phi))
        blocks = next(filter(None, chosen))
        assert [len(rows) for rows, _ in blocks] == _block_rows(dims)
        assert all(rows > 0 for rows in _block_rows(dims))

    @pytest.mark.parametrize(
        "spec, extra", BLOCK_ROW_INPUTS, ids=[f"{spec_id(spec)}-at-nu+{extra}" for spec, extra in BLOCK_ROW_INPUTS]
    )
    def test_block_choice_matches_two_formats(self, spec, extra):
        """``_compatible_blocks`` chooses the rows and columns of every block,
        or None, as ``two_format_blocks`` does from sigma_d's packed columns
        and the strand's triples, at the all-zero point and at the route's
        first three points, in the route's fields.  BLOCK_ROW_INPUTS holds
        every strand of COMPLEX_CASES and so of LATER_BLOCK_CASES."""
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        first, *later = _block_rows(complex_strand(spec, d, phi)[0])
        ps = _field_bits(first * (spec.r + 1) + sum(later))
        dims, maps, diffs = packed_strand(spec, d, phi, ps)
        points = [[0] * len(phi.param_names), *islice(_points(phi), 3)]
        wants = [two_format_blocks(diffs[0], dims, maps, point, ps) for point in points]
        assert [_compatible_blocks(diffs, dims, point, ps) for point in points] == wants
        # both outcomes are compared: None at zero, blocks at some drawn point
        assert wants[0] is None and any(wants[1:])

    @pytest.mark.parametrize(
        "spec, extra", CHOSEN_BLOCK_INPUTS, ids=[f"{spec_id(spec)}-at-nu+{extra}" for spec, extra in CHOSEN_BLOCK_INPUTS]
    )
    def test_route_packs_every_differential(self, monkeypatch, spec, extra):
        """The route hands ``_compatible_blocks`` the differentials that
        ``packed_strand`` packs; it is stopped there, before any block
        determinant."""
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        first, *later = _block_rows(complex_strand(spec, d, phi)[0])
        ps = _field_bits(first * (spec.r + 1) + sum(later))
        handed = []

        def stop(diffs, *args):
            handed.append(diffs)
            raise LookupError("stopped")

        monkeypatch.setattr(resultant_engine, "_compatible_blocks", stop)
        with pytest.raises(LookupError, match="^stopped$"):
            resultant_gcd(spec, d)
        assert handed == [packed_strand(spec, d, phi, ps)[2]]

    @pytest.mark.parametrize(
        "spec, extra, letters",
        COMPLEX_CASES,
        ids=[f"{spec_id(spec)}-at-nu+{extra}" for spec, extra, _ in COMPLEX_CASES],
    )
    def test_matches_minors_route(self, monkeypatch, spec, extra, letters):
        d = critical_degree(spec) + extra
        with monkeypatch.context() as patch:
            refuse_gcd(patch)
            out = resultant_gcd(spec, d, letters=letters)
        oracle = resultant_by_minors(spec, d, letters=letters)
        assert out.confirmed and oracle.confirmed
        assert out.polynomial.terms == oracle.polynomial.terms
        assert out.block_degrees == oracle.block_degrees
        assert out.minor_columns == oracle.minor_columns[:1]

    def test_square_sigma_takes_its_determinant(self, monkeypatch):
        # no point is drawn: evaluation and elimination are never reached
        def refuse(*args):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(resultant_engine, "row_echelon", refuse)
        out = resultant_gcd(chow_spec(1, 1), letters=True)
        assert out.confirmed
        assert (out.minors_used, out.minor_columns) == (1, ((0, 1, 2),))

    def test_confirmed_checks_each_block(self, monkeypatch):
        """Sylvester (2, 3) has multidegree (3, 2); a multidegree with the
        same total but the blocks swapped must leave the result unconfirmed."""
        spec = sylvester_spec(2, 3)
        assert resultant_gcd(spec).block_degrees == multidegree(spec) == (3, 2)
        for module in (chern_degree, resultant_engine):
            monkeypatch.setattr(module, "multidegree", lambda spec: (2, 3))
        out = resultant_gcd(spec)
        assert out.block_degrees == (3, 2)
        assert not out.confirmed

    @pytest.mark.parametrize("spec", [sylvester_spec(2, 3), chow_spec(1, 2)], ids=spec_id)
    def test_builds_no_sigma_matrix(self, monkeypatch, spec):
        # the route reads sigma_d's integer columns; no Polynomial cells
        def refuse(*args):
            raise AssertionError("build_sigma called")

        monkeypatch.setattr(resultant_engine, "build_sigma", refuse)
        assert resultant_gcd(spec, critical_degree(spec) + 1).confirmed

    REDRAW_CASES = [(sylvester_spec(2, 3), 1), (ProblemSpec(3, 1, 0, (1, 1, 2), (0,)), 0)]

    @pytest.mark.parametrize("spec, extra", REDRAW_CASES, ids=[spec_id(spec) for spec, _ in REDRAW_CASES])
    def test_redraws_after_a_singular_point(self, monkeypatch, spec, extra):
        """At the all-zero point every block is singular, so the route draws
        the next point and gives the same output."""
        d = critical_degree(spec) + extra
        want = resultant_gcd(spec, d)
        points, compatible, calls = resultant_engine._points, resultant_engine._compatible_blocks, []

        def zero_first(phi):
            yield [0] * len(phi.param_names)
            yield from points(phi)

        def spy_blocks(*args):
            calls.append(compatible(*args))
            return calls[-1]

        monkeypatch.setattr(resultant_engine, "_points", zero_first)
        monkeypatch.setattr(resultant_engine, "_compatible_blocks", spy_blocks)
        assert resultant_gcd(spec, d) == want
        assert len(calls) == 2 and calls[0] is None

    @pytest.mark.parametrize("spec, extra", REDRAW_CASES, ids=[spec_id(spec) for spec, _ in REDRAW_CASES])
    def test_no_compatible_point_raises(self, monkeypatch, spec, extra):
        monkeypatch.setattr(resultant_engine, "_points", lambda phi: ([0] * len(phi.param_names) for _ in range(16)))
        with pytest.raises(PolyError, match=r"^could not find compatible nonsingular blocks$"):
            resultant_gcd(spec, critical_degree(spec) + extra)

    def test_lascoux_spec_raises_before_sigma(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(resultant_engine, "generic_morphism", refuse)
        monkeypatch.setattr(resultant_engine, "build_sigma", refuse)
        with pytest.raises(LascouxCaseError, match="Lascoux case"):
            resultant_gcd(LASCOUX)

    @pytest.mark.parametrize(
        "spec, extra, letters",
        LATER_BLOCK_CASES,
        ids=[f"{spec_id(spec)}-at-nu+{extra}" for spec, extra, _ in LATER_BLOCK_CASES],
    )
    def test_field_bound_covers_the_odd_product(self, monkeypatch, spec, extra, letters):
        """The degree bound that sizes the packed fields is at least the total
        degree of the product of the odd-p block determinants, the largest
        polynomial the route builds."""
        bounds, chosen, dets = {}, [], []
        field_bits = resultant_engine._field_bits
        compatible = resultant_engine._compatible_blocks
        det_packed = resultant_engine._det_packed

        def spy_bits(bound):
            # keyed by the calling function, whatever the order of the calls
            bounds.setdefault(sys._getframe(1).f_code.co_name, []).append(bound)
            return field_bits(bound)

        def spy_blocks(*args):
            chosen.append(compatible(*args))
            return chosen[-1]

        def spy_det(matrix):  # the block determinants, not sigma's minors
            out = det_packed(matrix)
            if sys._getframe(1).f_code.co_name == "resultant_gcd":
                dets.append(out)
            return out

        monkeypatch.setattr(resultant_engine, "_field_bits", spy_bits)
        monkeypatch.setattr(resultant_engine, "_compatible_blocks", spy_blocks)
        monkeypatch.setattr(resultant_engine, "_det_packed", spy_det)
        d = critical_degree(spec) + extra
        out = resultant_gcd(spec, d, letters=letters)
        # _sigma_columns sizes its fields for x0..xN at d, and takes the
        # parameter fields from the route
        assert bounds.pop("_sigma_columns") == [d]
        ((bound,),) = bounds.values()
        blocks = chosen[-1]
        assert len(blocks) > 1
        ps = [p for p, (rows, _) in enumerate(blocks, start=1) if rows]
        assert len(ps) == len(dets) == out.minors_used
        nparams, s = len(generic_morphism(spec).param_names), field_bits(bound)
        degrees = [max(map(sum, polyring._unpack(det, nparams, s))) for det in dets]
        assert bound >= sum(deg for p, deg in zip(ps, degrees) if p % 2)


class TestColumnsAt:
    """The route's evaluation of sigma_d's integer columns at a point against
    ``Polynomial.evaluate`` on ``build_sigma``'s cells, at seeded points."""

    @pytest.mark.parametrize(
        "spec",
        [
            sylvester_spec(2, 3),
            ProblemSpec(3, 1, 0, (1, 1, 2), (0,)),
            ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0)),
            chow_spec(1, 1),
        ],
        ids=spec_id,
    )
    @pytest.mark.parametrize("extra", [0, 1])
    def test_matches_evaluate(self, spec, extra):
        d = critical_degree(spec) + extra
        phi = generic_morphism(spec)
        sigma = build_sigma(spec, d, phi)
        rng = random.Random(4242 + extra)
        # build_sigma's fields, and the wider ones of a larger product
        for ps in (_field_bits(spec.r + 1), 16):
            columns = _sigma_columns(spec, d, phi, ps)[2]
            for _ in range(3):
                point = [rng.randint(-9, 9) for _ in phi.param_names]
                at = dict(zip(phi.param_names, point))
                want = [tuple(cell.evaluate(at) for cell in row) for row in sigma.entries]
                assert _columns_at(columns, range(len(want)), point, ps) == want
                rows = sorted(rng.sample(range(len(want)), len(want) // 2))
                assert _columns_at(columns, rows, point, ps) == [want[r] for r in rows]

    def test_powers_and_shared_cells(self):
        # a parameter field reaches r + 1 (3 here) in 8-bit fields; the
        # evaluation takes any exponent, and one {} is the zero cell of
        # several columns
        cell = polyring._pack({(3, 0): 3, (0, 1): -1}, 2, 8)
        zero = {}
        columns = [
            [cell, zero],
            [polyring._pack({(1, 2): 2}, 2, 8), cell],
            [zero, polyring._pack({(0, 0): 5}, 2, 8)],
            [zero, zero],
        ]
        assert _columns_at(columns, [0, 1], [2, -3], 8) == [(27, 36, 0, 0), (0, 27, 5, 0)]
        assert _columns_at(columns, [1], [2, -3], 8) == [(0, 27, 5, 0)]


class TestGenericSigmaCells:
    """``build_sigma``'s symbolic cells, unpacked from ``_sigma_columns``'
    packed keys, against ``generic_sigma_cells``: ``det_fraction_free`` on the
    generic entries, split by geometric monomial."""

    @pytest.mark.parametrize(
        "phi",
        [
            generic_morphism(sylvester_spec(2, 3)),
            generic_morphism(ProblemSpec(3, 1, 0, (1, 1, 2), (0,))),
            generic_morphism(ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0))),
            generic_morphism(LASCOUX),  # served by ``matrix`` only
            chow_generic_morphism(ScrollSpec((1, 1))),  # letter names
        ],
        ids=["sylvester-23", "macaulay-310-d112", "principal-321-d112", "lascoux-331", "S11-letters"],
    )
    @pytest.mark.parametrize("extra", [0, 1])
    def test_matches_det_fraction_free(self, phi, extra):
        spec = phi.spec
        sigma = build_sigma(spec, critical_degree(spec) + extra, phi)
        assert sigma.entries == generic_sigma_cells(sigma, phi)


class TestGenericMorphism:
    """The generic morphism is its coefficient layout: parameter names by
    (row, column, monomial), in (column, row, monomial) order."""

    PRINCIPAL = ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0))

    @pytest.mark.parametrize("letters", [False, True], ids=["default", "letters"])
    def test_builds_no_polynomial(self, letters):
        constructors = {Polynomial.__init__.__code__, VarSet.__init__.__code__, Fraction.__new__.__code__}
        made = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code in constructors:
                made.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            phi = generic_morphism(self.PRINCIPAL, letters)
        finally:
            sys.setprofile(None)
        assert made == []
        assert len(phi.param_names) == len(phi.coeff_names) == 2 * (2 + 2 + 3)

    def test_parameter_order(self):
        phi = generic_morphism(self.PRINCIPAL)
        assert phi.param_names == tuple(phi.coeff_names.values())
        keys = list(phi.coeff_names)
        assert keys == sorted(keys, key=lambda key: (key[1], key[0]))
        assert phi.param_names[:5] == ("c_1_1_1_0", "c_1_1_0_1", "c_2_1_1_0", "c_2_1_0_1", "c_1_2_1_0")
        assert phi.coeff_names[(2, 3, (1, 1))] == "c_2_3_1_1"

    def test_letters_fall_back_past_24_columns(self):
        phi = generic_morphism(ProblemSpec(25, 1, 0, (1,) * 25, (0,)), letters=True)
        names = {i: [name for (_, col, _), name in phi.coeff_names.items() if col == i] for i in (1, 24, 25)}
        assert names[1][:2] == ["a0", "a1"] and names[24][:2] == ["z0", "z1"]
        assert names[25][:2] == ["c_1_25_1_" + "0_" * 23 + "0", "c_1_25_0_1_" + "0_" * 22 + "0"]
        assert len(set(phi.param_names)) == len(phi.param_names) == 25 * 25


def integer_values(gen, rng):
    """Seeded integer values of the generic morphism's parameters, nonzero
    and from a wide range: the entries of a later block are +-one parameter,
    and small values often make such a block singular."""
    return {name: rng.choice((-1, 1)) * rng.randint(1, 999) for name in gen.param_names}


def morphism_at(gen, values):
    """The concrete morphism whose coefficients are ``values``, by name."""
    return _morphism_at(gen, [values[name] for name in gen.param_names])


class TestNumericCayley:
    """Cayley's quotient of the numeric blocks of the (4,2,1) d=(1,1,1,1)
    strands at nu+1 and nu+2, whose symbolic determinants are out of reach,
    against det(sigma_nu), a 6x6 square, at the same morphisms.  The blocks
    are chosen once by ``_compatible_blocks``; the quotient is then a
    constant times the resultant at every morphism where the even blocks
    are nonsingular, and so is det(sigma_nu).  This checks the p >= 2
    differentials of the general Eagon-Northcott strand."""

    SPEC = ProblemSpec(4, 2, 1, (1, 1, 1, 1), (0, 0))

    @staticmethod
    def quotient(spec, d, blocks, maps, gen, values):
        sigma = build_sigma(spec, d, morphism_at(gen, values)).entries
        point = [values[name] for name in gen.param_names]
        q = Fraction(1)
        for p, (rows, cols) in enumerate(blocks, start=1):
            if p == 1:
                matrix = [[sigma[r][c] for c in cols] for r in rows]
            else:
                at = {r: u for u, r in enumerate(rows)}
                matrix = [[0] * len(cols) for _ in rows]
                for v, c in enumerate(cols):
                    for r, sign, t in maps[p - 2][c]:
                        if r in at:
                            matrix[at[r]][v] = sign * point[t]
            det = rational_det(matrix)
            if p % 2:
                q *= det
            else:
                assert det != 0, f"block {p} is singular at this morphism"
                q /= det
        return q

    @pytest.mark.parametrize("extra, dims", [(1, (10, 18, 8)), (2, (15, 36, 24, 3))])
    def test_against_det_sigma_nu(self, extra, dims):
        spec = self.SPEC
        nu = critical_degree(spec)
        gen = generic_morphism(spec)
        ps = _field_bits(spec.r + 1)
        got, maps, diffs = packed_strand(spec, nu + extra, gen, ps)
        assert got == dims
        rng = random.Random(0xCA7 + extra)
        point = list(integer_values(gen, rng).values())
        blocks = _compatible_blocks(diffs, dims, point, ps)
        assert blocks is not None and len(blocks) == len(dims) - 1
        ratios = set()
        for _ in range(3):
            values = integer_values(gen, rng)
            square = rational_det(build_sigma(spec, nu, morphism_at(gen, values)).entries)
            assert square != 0
            ratios.add(self.quotient(spec, nu + extra, blocks, maps, gen, values) / square)
        (ratio,) = ratios
        assert ratio != 0
        # phi(1:0:0) of rank 1: row 2 there is twice row 1, so Res(phi) = 0
        values = integer_values(gen, rng)
        for i in range(1, spec.m + 1):
            values[gen.coeff_names[(2, i, (1, 0, 0))]] = 2 * values[gen.coeff_names[(1, i, (1, 0, 0))]]
        assert sigma_rank(spec, morphism_at(gen, values), nu + extra).vanishes
        assert self.quotient(spec, nu + extra, blocks, maps, gen, values) == 0


def count_det_calls(monkeypatch) -> list[int]:
    """Wrap ``det_fraction_free`` in every detres namespace that binds it,
    as the benchmark's tracer does; return the list of the sizes of the
    matrices it is then called with."""
    original = polyring.det_fraction_free
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name == "detres" or name.startswith("detres."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def spy_route(monkeypatch) -> dict:
    """Record, for each ``_det_packed`` and ``_pack`` call of
    ``resultant_engine``, whether ``_sigma_columns`` had returned, and the
    columns it returned."""
    seen = {"columns": [], "dets": [], "packs": []}
    det_packed, pack = resultant_engine._det_packed, resultant_engine._pack
    sigma_columns = resultant_engine._sigma_columns

    def columns(*args):
        out = sigma_columns(*args)
        seen["columns"].append(out[2])
        return out

    def det(matrix):
        seen["dets"].append((bool(seen["columns"]), matrix))
        return det_packed(matrix)

    def packed(*args):
        seen["packs"].append(bool(seen["columns"]))
        return pack(*args)

    monkeypatch.setattr(resultant_engine, "_sigma_columns", columns)
    monkeypatch.setattr(resultant_engine, "_det_packed", det)
    monkeypatch.setattr(resultant_engine, "_pack", packed)
    return seen


class TestDeterminantLayer:
    """The sigma minors Delta_{J,I} of the generic morphism are
    ``_det_packed`` minors of its packed entries, one per (J, I), with no
    ``det_fraction_free`` call; block 1 takes sigma_d's packed cells as they
    are, with no ``_pack`` after ``_sigma_columns``."""

    @staticmethod
    def check(seen, spec, d):
        (columns,) = seen["columns"]
        deltas = [m for after, m in seen["dets"] if not after]
        block1 = next(m for after, m in seen["dets"] if after)
        assert not any(seen["packs"]), "_pack called after _sigma_columns"
        cells = {id(cell) for col in columns for cell in col}
        assert all(id(cell) in cells for row in block1 for cell in row)
        assert all(len(m) == len(m[0]) == spec.r + 1 for m in deltas)
        sigma = build_sigma(spec, d, generic_morphism(spec))
        assert len(deltas) == len({(J, I) for J, I, _ in sigma.col_basis})

    def test_chow_form(self, monkeypatch):
        calls = count_det_calls(monkeypatch)
        refuse_gcd(monkeypatch)
        seen = spy_route(monkeypatch)
        assert chow_form(ScrollSpec((2, 1))).confirmed
        assert not calls
        spec = chow_problem(ScrollSpec((2, 1)))
        self.check(seen, spec, critical_degree(spec))

    @pytest.mark.parametrize(
        "spec", [sylvester_spec(2, 3), ProblemSpec(3, 1, 0, (1, 1, 1), (0,))], ids=spec_id
    )
    def test_complex_route_resultant(self, monkeypatch, spec):
        calls = count_det_calls(monkeypatch)
        refuse_gcd(monkeypatch)
        seen = spy_route(monkeypatch)
        assert resultant_gcd(spec, critical_degree(spec) + 1).confirmed
        assert not calls
        self.check(seen, spec, critical_degree(spec) + 1)


class TestOnePassDegrees:
    """The tests' one-pass ``degrees`` and the packed-key ``_block_degrees``
    against ``Polynomial.degree_in`` and ``Polynomial.degree`` on seeded
    random polynomials over the parameters of generic morphisms."""

    PHIS = pytest.mark.parametrize(
        "phi",
        [
            generic_morphism(sylvester_spec(2, 3)),
            generic_morphism(ProblemSpec(3, 1, 0, (1, 1, 2), (0,))),
            chow_generic_morphism(ScrollSpec((2, 1))),
        ],
        ids=["sylvester", "macaulay", "S21"],
    )

    @staticmethod
    def seeded(pv):
        rng = random.Random(808)
        for nterms in (0, 1, 2, 5, 12, 30):
            terms = {
                tuple(rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in pv.names): rng.randint(1, 9)
                for _ in range(nterms)
            }
            yield Polynomial(pv, terms)

    @staticmethod
    def expected(poly, phi):
        blocks = [poly.degree_in(block_names(phi, i)) for i in range(1, phi.spec.m + 1)]
        return blocks, poly.degree

    @staticmethod
    def sizes(phi):
        return [len(block_names(phi, i)) for i in range(1, phi.spec.m + 1)]

    @PHIS
    def test_matches_degree_in(self, phi):
        for poly in self.seeded(VarSet(phi.param_names)):
            assert degrees(poly, self.sizes(phi)) == self.expected(poly, phi)

    @PHIS
    @pytest.mark.parametrize("s", [8, 16])
    def test_packed_keys(self, phi, s):
        pv = VarSet(phi.param_names)
        polys = [*self.seeded(pv), Polynomial.constant(pv, 5)]
        # 127 is the largest degree an 8-bit field holds
        for t in (0, len(pv) // 2, len(pv) - 1):
            e = [0] * len(pv)
            e[t] = 127
            polys.append(Polynomial(pv, {tuple(e): -1, (0,) * len(pv): 3}))
        # 2^(s-1) - 1, the largest degree an s-bit field holds, spread over
        # two fields of the first block and of the last: 64 + 63 at s = 8
        top = (1 << s - 1) - 1
        for t in (0, len(pv) - self.sizes(phi)[-1]):
            e = [0] * len(pv)
            e[t], e[t + 1] = top - top // 2, top // 2
            polys.append(Polynomial(pv, {tuple(e): 2, (0,) * len(pv): 1}))
        for poly in polys:
            packed = polyring._pack(poly.terms, len(pv), s)
            assert _block_degrees(packed, self.sizes(phi), s) == self.expected(poly, phi)
