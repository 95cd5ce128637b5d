import ast
import heapq
import math
import random
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import pytest

import detres
from detres import polyring
from detres.polyring import (
    NEG_INFINITY,
    PolyError,
    Polynomial,
    VarSet,
    _det_packed,
    _dict_add,
    _dict_mul,
    _dict_try_div,
    _div_tuples,
    _field_bits,
    _from_terms,
    _mul_tuples,
    _normalize_int_dict,
    _pack,
    _packed_index,
    _prem,
    _unpack,
    det_fraction_free,
    glex_key,
    monomials_of_degree,
    multivariate_gcd,
    normalize_gcd_style,
    rational_from_json,
)
from detres.resultant_engine import rational_det
from minors_oracle import exact_div, laplace_det, try_exact_div

XY = VarSet(("x", "y"))
X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")


def random_poly(rng, varset, max_deg=3, nterms=4):
    terms = {}
    nv = len(varset)
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in range(nv))
        terms[e] = Fraction(rng.randint(-5, 5))
    return Polynomial(varset, terms)


class TestMonomials:
    def test_two_vars_degree_two(self):
        assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_two_vars_degree_four_count(self):
        # matches the 5 rows of the degree-4 basis on the projective line
        assert len(monomials_of_degree(2, 4)) == 5

    def test_four_vars_degree_three_count(self):
        brute = {
            (a, b, c, e)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            for e in range(4)
            if a + b + c + e == 3
        }
        got = monomials_of_degree(4, 3)
        assert type(got) is tuple and len(got) == 20
        assert set(got) == brute

    def test_counts_and_distinctness(self):
        for n in range(1, 5):
            for d in range(0, 6):
                ms = monomials_of_degree(n, d)
                assert len(ms) == math.comb(d + n - 1, n - 1)
                assert len(set(ms)) == len(ms)
                assert all(sum(e) == d for e in ms)

    def test_degree_zero(self):
        assert monomials_of_degree(3, 0) == ((0, 0, 0),)

    def test_bad_arguments(self):
        with pytest.raises(PolyError, match=r"^nvars must be >= 1$"):
            monomials_of_degree(0, 1)
        with pytest.raises(PolyError, match=r"^degree must be >= 0$"):
            monomials_of_degree(2, -1)

    @pytest.mark.parametrize("d", [2**63, 10**20])
    def test_degree_past_2_to_63_raises(self, d):
        # no basis of such a degree is ever listed: raised before any tuple
        with pytest.raises(PolyError, match=rf"^degree {d} is too large: exponents and degrees must stay below 2\^63$"):
            monomials_of_degree(2, d)

    def test_order_is_glex_descending(self):
        for nvars in range(1, 7):
            for d in range(0, 8):
                ms = monomials_of_degree(nvars, d)
                assert ms == tuple(sorted(ms, key=glex_key, reverse=True))


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_multiply_by_zero(self):
        p = X * X + 3 * Y
        assert (p * Polynomial.zero(XY)).terms == {}

    def test_cube_expansion(self):
        expected = X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3
        assert (X + Y) ** 3 == expected

    def test_powers_of_zero_and_constants(self):
        z = Polynomial.zero(XY)
        assert (z**3).is_zero() and z**0 == 1
        assert Polynomial.constant(XY, Fraction(-2, 3)) ** 3 == Fraction(-8, 27)
        assert (Fraction(1, 2) * X * Y + 1) ** 2 == Fraction(1, 4) * X * X * Y * Y + X * Y + 1

    def test_power_of_a_monomial_past_2_to_62(self):
        # square and multiply: about 2 log2(k) products, not k - 1
        assert (X ** (2**63 - 1)).terms == {(2**63 - 1, 0): 1}

    def test_powers_are_repeated_products(self):
        p, want = X + Y, Polynomial.constant(XY, 1)
        for k in range(10):
            assert p**k == want
            want = want * p

    @pytest.mark.parametrize("value", [3, 0, Fraction(1, 2)])
    def test_constant_hashes_as_its_value(self, value):
        """A constant polynomial equals its value, so it hashes as it: a set
        of the two holds one element."""
        for varset in (VarSet(["x"]), XY):
            c = Polynomial.constant(varset, value)
            assert c == value and hash(c) == hash(value)
            assert len({value, c}) == 1 and {c: 1}[value] == 1

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(30):
            p = random_poly(rng, XY)
            q = random_poly(rng, XY)
            r = random_poly(rng, XY)
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    def test_varset_mismatch(self):
        other = Polynomial.variable(VarSet(("z",)), "z")
        with pytest.raises(PolyError):
            X + other

    def test_zero_degree_marker(self):
        assert Polynomial.zero(XY).degree == NEG_INFINITY

    def test_str_with_constant_term(self):
        assert str(2 * X**2 + Fraction(1, 2) * Y - 3) == "2*x^2 + 1/2*y - 3"
        assert str(-X * Y + Fraction(7, 3)) == "-x*y + 7/3"
        assert str(Polynomial.constant(XY, -5)) == "-5"

    def test_canonical_no_zero_coeffs(self):
        p = X - X
        assert p.terms == {}

    @pytest.mark.parametrize("exps", [(1.5, 0), (True, 0), (0, 2.0), (1, Fraction(1))])
    def test_exponents_are_ints(self, exps):
        """Every exponent entry has type int, as ``from_json`` asks: a float
        fails in the packed kernel, and ``to_json`` would write a bool as a
        JSON boolean, which ``from_json`` refuses."""
        with pytest.raises(PolyError, match=r"is not a tuple of integers$"):
            Polynomial(XY, {exps: 2})

    def test_products_and_powers_pass_the_exponent_check(self):
        """``__mul__`` and ``__pow__`` build their results through the checked
        constructor: the exponent-tuple products, with int exponents."""
        rng = random.Random(113)
        for _ in range(10):
            p, q = random_poly(rng, XY), random_poly(rng, XY)
            assert (p * q).terms == tuple_mul(p.terms, q.terms)
            assert (p**3).terms == tuple_mul(tuple_mul(p.terms, p.terms), p.terms)
            for r in (p * q, p**3):
                assert all(type(x) is int for e in r.terms for x in e)
                assert all(type(c) is Fraction for c in r.terms.values())

    def test_terms_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            X.terms = {}

    def test_constant_minus_polynomial(self):
        assert 1 - X == -(X - 1)
        assert Fraction(1, 2) - X * Y == -(X * Y - Fraction(1, 2))

    def test_negative_power_raises(self):
        with pytest.raises(PolyError, match="negative powers"):
            X ** -1

    def test_never_equal_to_other_types(self):
        assert (X == "x") is False and X != "x"
        assert (Polynomial.constant(XY, 1) == "1") is False

    def test_truth_is_nonzero(self):
        assert not Polynomial.zero(XY) and X and Polynomial.constant(XY, -1)


class TestEvaluate:
    def test_full(self):
        p = X * X + Y
        assert p.evaluate({"x": 2, "y": 3}) == 7

    def test_partial(self):
        vs = VarSet(("a", "b", "x"))
        a = Polynomial.variable(vs, "a")
        b = Polynomial.variable(vs, "b")
        x = Polynomial.variable(vs, "x")
        assert (a * x + b).evaluate({"a": 1}) == x + b

    def test_unknown_variable(self):
        with pytest.raises(PolyError):
            X.evaluate({"z": 1})

    def test_matches_term_summation(self):
        rng = random.Random(7)
        for t in range(30):
            p = random_poly(rng, XY)
            kind = (int, Fraction, lambda v: Fraction(v, rng.randint(1, 9)))[t % 3]
            pt = {"x": kind(rng.randint(-4, 4)), "y": kind(rng.randint(-4, 4))}
            expected = sum(
                (c * pt["x"] ** e[0] * pt["y"] ** e[1] for e, c in p.terms.items()),
                Fraction(0),
            )
            value = p.evaluate(pt)
            assert value == expected and type(value) is Fraction
            # full assignment agrees with two partial ones
            partial = p.evaluate({"x": pt["x"]}).evaluate({"y": pt["y"]})
            assert partial == Polynomial.constant(XY, expected)


    def test_rational_coefficients_at_integer_point(self):
        rng = random.Random(8)
        for _ in range(20):
            terms = {}
            for _ in range(4):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            p = Polynomial(XY, terms)
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            value = p.evaluate({"x": x, "y": y})
            expected = sum((c * x ** e[0] * y ** e[1] for e, c in terms.items()), Fraction(0))
            assert value == expected
            assert type(value) is Fraction


class TestDeterminant:
    def test_2x2_symbolic(self):
        vs = VarSet(("a", "b", "c", "d"))
        a, b, c, d = (Polynomial.variable(vs, v) for v in "abcd")
        assert det_fraction_free([[a, b], [c, d]]) == a * d - b * c

    def test_zero_row(self):
        z = Polynomial.zero(XY)
        assert det_fraction_free([[X, Y], [z, z]]).is_zero()

    def test_non_square(self):
        for m in ([[X, Y]], [[X, Y], [X]], [[X], [Y]], []):
            with pytest.raises(PolyError):
                det_fraction_free(m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_laplace(self, n):
        rng = random.Random(40 + n)
        for _ in range(5):
            m = [
                [
                    Polynomial(
                        XY,
                        {
                            (1, 0): rng.randint(-3, 3),
                            (0, 1): rng.randint(-3, 3),
                            (0, 0): rng.randint(-3, 3),
                        },
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert det_fraction_free(m) == laplace_det(m)

    def test_row_swap_needed(self):
        z = Polynomial.zero(XY)
        one = Polynomial.constant(XY, 1)
        assert det_fraction_free([[z, one], [one, z]]) == Polynomial.constant(XY, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_entries(self, n):
        # rows with different denominators; a zero corner forces a row swap
        rng = random.Random(70 + n)
        for trial in range(6):
            m = [
                [
                    Polynomial(
                        XY,
                        {
                            e: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                            for e in ((1, 0), (0, 1), (0, 0))
                            if rng.random() < 0.7
                        },
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if trial % 2:
                m[0][0] = Polynomial.zero(XY)
            det = det_fraction_free(m)
            assert det == laplace_det(m)
            assert all(type(c) is Fraction for c in det.terms.values())
            for _ in range(3):
                pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in "xy"}
                numeric = [[e.evaluate(pt) for e in row] for row in m]
                assert det.evaluate(pt) == rational_det(numeric)


def sparse_matrix(rng, n, varset, density=0.6):
    """Seeded n x n matrix of sparse polynomials with rational coefficients;
    each row has its own denominators."""
    nv = len(varset)
    out = []
    for _ in range(n):
        den = rng.randint(1, 7)
        row = []
        for _ in range(n):
            terms = {}
            if rng.random() < density:
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 2) for _ in range(nv))
                    terms[e] = Fraction(rng.randint(-4, 4), den)
            row.append(Polynomial(varset, terms))
        out.append(row)
    return out


XYZ = VarSet(("x", "y", "z"))


def dense_entry(rng):
    """A nonzero polynomial in x, y, z with one to three terms of degree at
    most 2 in each variable and integer coefficients."""
    terms = {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(1, 6) for _ in range(rng.randint(1, 3))}
    return Polynomial(XYZ, terms)


def packed_det_terms(m):
    """``_det_packed`` on the packed entries of an integer matrix, unpacked;
    8-bit fields hold every degree below 128."""
    ints = [[_pack({e: int(c) for e, c in p.terms.items()}, 3, 8) for p in row] for row in m]
    return _unpack(_det_packed(ints), 3, 8)


class TestMinorExpansion:
    """``det_fraction_free`` against cofactor expansion and sympy."""

    def test_one_by_one(self):
        p = Polynomial(XY, {(2, 1): Fraction(-3, 4), (0, 0): Fraction(5)})
        assert det_fraction_free([[p]]) == p
        assert det_fraction_free([[Polynomial.zero(XY)]]).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sparse_matches_laplace(self, n):
        rng = random.Random(900 + n)
        for _ in range(4):
            m = sparse_matrix(rng, n, XYZ)
            assert det_fraction_free(m) == laplace_det(m)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_zero_row_and_zero_column(self, n):
        rng = random.Random(950 + n)
        z = Polynomial.zero(XYZ)
        m = sparse_matrix(rng, n, XYZ, density=0.9)
        m[n // 2] = [z] * n
        assert det_fraction_free(m).is_zero()
        m = sparse_matrix(rng, n, XYZ, density=0.9)
        for row in m:
            row[n - 1] = z
        assert det_fraction_free(m).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_leading_corner(self, n):
        # a zero leading 2x2 block: no nonzero entry in the top-left corner
        rng = random.Random(970 + n)
        z = Polynomial.zero(XYZ)
        for _ in range(3):
            m = sparse_matrix(rng, n, XYZ, density=0.9)
            m[0][0] = m[0][1] = m[1][0] = m[1][1] = z
            det = det_fraction_free(m)
            assert det == laplace_det(m)
            assert all(type(c) is Fraction for c in det.terms.values())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_both_expansion_ends(self, n):
        """The expansion starts from the last row: a sparse first row, a
        sparse last row, neither, a zero row at either end, and each matrix
        with its rows reversed."""
        rng = random.Random(980 + n)
        z = Polynomial.zero(XYZ)
        for _ in range(2):
            for sparse_row in (0, n - 1, None):
                m = sparse_matrix(rng, n, XYZ, density=1.0)
                if sparse_row is not None:
                    keep = rng.randrange(n)
                    m[sparse_row] = [p if c == keep else z for c, p in enumerate(m[sparse_row])]
                assert det_fraction_free(m) == laplace_det(m)
                assert det_fraction_free(m[::-1]) == laplace_det(m[::-1])
        for row in (0, n - 1):
            m = sparse_matrix(rng, n, XYZ, density=1.0)
            m[row] = [z] * n
            assert det_fraction_free(m).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_level_that_cancels_to_nothing(self, n, monkeypatch):
        """Two proportional bottom rows: every minor of the first grown level
        cancels to empty and is dropped, so no later row multiplies one and
        the determinant is 0."""
        rng = random.Random(1010 + n)
        m = [[dense_entry(rng) for _ in range(n)] for _ in range(n)]
        scale = Polynomial(XYZ, {(1, 0, 0): 2, (0, 0, 0): -3})
        m[-1] = [p * scale for p in m[-2]]
        calls, dict_addmul = [], polyring._dict_addmul

        def counting(*args):
            calls.append(args)
            return dict_addmul(*args)

        monkeypatch.setattr(polyring, "_dict_addmul", counting)
        assert packed_det_terms(m) == {}
        assert len(calls) == n * (n - 1)  # the first grown level alone
        assert laplace_det(m).is_zero()

    def test_minors_that_lose_some_terms(self):
        """A minor whose terms partly cancel keeps the others and no zero
        coefficient: at the top level (x - x - x^2 y, and x + y - x) and
        at a lower one, under random rows."""
        x, y, z = (Polynomial.variable(XYZ, v) for v in "xyz")
        one, zero = Polynomial.constant(XYZ, 1), Polynomial.zero(XYZ)
        cases = [
            [[x + y, one], [x, one]],
            [[one, -one, y], [zero, x, one], [x, zero, one]],
        ]
        rng = random.Random(1020)
        for n in (3, 4, 5):
            m = [[dense_entry(rng) for _ in range(n)] for _ in range(n)]
            m[-2][:2], m[-1][:2] = [x + y + z, one], [x + z, one]  # minor on columns 0, 1: y
            cases.append(m)
        for m in cases:
            got = packed_det_terms(m)
            assert got == laplace_det(m).terms and got
            assert 0 not in got.values()
            assert det_fraction_free(m) == laplace_det(m)

    def test_distinct_row_denominators(self):
        rng = random.Random(990)
        m = sparse_matrix(rng, 5, XYZ, density=0.8)
        dens = {c.denominator for row in m for p in row for c in p.terms.values()}
        assert len(dens) > 1
        det = det_fraction_free(m)
        assert det == laplace_det(m)
        for _ in range(3):
            pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in "xyz"}
            numeric = [[e.evaluate(pt) for e in row] for row in m]
            assert det.evaluate(pt) == rational_det(numeric)

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        ring = sympy.QQ["x", "y", "z"]
        rng = random.Random(1000 + n)
        nonzero = 0
        for _ in range(3):
            m = sparse_matrix(rng, n, XYZ)
            dm = DomainMatrix(
                [
                    [
                        ring.ring.from_dict(
                            {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
                        )
                        for p in row
                    ]
                    for row in m
                ],
                (n, n),
                ring,
            )
            want = {
                e: Fraction(int(c.numerator), int(c.denominator))
                for e, c in dm.det().items()
            }
            assert det_fraction_free(m).terms == want
            nonzero += bool(want)
        assert nonzero


class TestDivision:
    def test_exact(self):
        assert exact_div((X + Y) * (X - Y), X + Y) == X - Y

    def test_inexact_returns_none(self):
        assert try_exact_div(X * X + Y, X + Y) is None

    def test_zero_divisor(self):
        with pytest.raises(PolyError):
            exact_div(X, Polynomial.zero(XY))

    def test_rational_quotient(self):
        q = try_exact_div(X + 1, 2 * X + 2)
        assert q == Fraction(1, 2)
        assert type(q.terms[(0, 0)]) is Fraction

    def test_rational_factors(self):
        rng = random.Random(11)

        def frac(lo=-7):
            return Fraction(rng.randint(lo, 7), rng.randint(1, 5))

        for _ in range(10):
            f = Polynomial(XY, {(1, 0): frac(1), (0, 1): frac(), (0, 0): frac()})
            g = Polynomial(XY, {(2, 0): frac(), (1, 1): frac(1), (0, 0): frac()})
            assert try_exact_div(f * g, f) == g
            assert try_exact_div(f * g, g) == f

    def test_rational_inexact_returns_none(self):
        p = Fraction(1, 3) * X * X + Fraction(2, 5) * Y
        assert try_exact_div(p, Fraction(3, 7) * X + Fraction(1, 2)) is None
        assert try_exact_div(p + Fraction(1, 9), Fraction(1, 3) * X) is None


def quadratic_try_div(p, d):
    """Reference division: after every quotient term, rescan the whole
    remainder for its graded-lex leading term."""
    de = max(d, key=glex_key)
    dc = d[de]
    rest = [(e, c) for e, c in d.items() if e != de]
    r = dict(p)
    q = {}
    while r:
        re = max(r, key=glex_key)
        te = tuple(a - b for a, b in zip(re, de))
        if any(x < 0 for x in te):
            return None
        tc, rem = divmod(r[re], dc)
        if rem:
            return None
        q[te] = tc
        del r[re]
        for e, c in rest:
            ee = tuple(a + b for a, b in zip(te, e))
            s = r.get(ee, 0) - tc * c
            if s:
                r[ee] = s
            elif ee in r:
                del r[ee]
    return q


def random_int_dict(rng, nv, nterms, max_deg=3):
    out = {}
    for _ in range(nterms):
        c = rng.randint(-6, 6)
        if c:
            out[tuple(rng.randint(0, max_deg) for _ in range(nv))] = c
    return out


# -- oracles: the kernel on exponent tuples, as it was before packing -------


def tuple_mul(a, b):
    """Product of exponent-tuple term dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def tuple_try_div(p, d):
    """Exact division of exponent-tuple term dicts by a heap of pending
    products keyed by negated exponents, the negated degree in front."""
    if not d:
        raise PolyError("division by zero")
    if not p:
        return {}

    def key(e):
        return (-sum(e),) + tuple(-x for x in e)

    (lead, dc), *rest = sorted((key(e), c) for e, c in d.items())
    dividend = sorted((key(e), c) for e, c in p.items())
    q_keys, q_coeffs, heap = [], [], []
    k = 0
    while k < len(dividend) or heap:
        if k < len(dividend) and (not heap or dividend[k][0] <= heap[0][0]):
            m, c = dividend[k]
            k += 1
        else:
            m, c = heap[0][0], 0
        while heap and heap[0][0] == m:
            _, i, j = heapq.heappop(heap)
            c -= q_coeffs[i] * rest[j][1]
            if j + 1 < len(rest):
                heapq.heappush(heap, (tuple(map(add, q_keys[i], rest[j + 1][0])), i, j + 1))
        if not c:
            continue
        te = tuple(map(sub, m, lead))
        tc, rem = divmod(c, dc)
        if rem or max(te) > 0:
            return None
        q_keys.append(te)
        q_coeffs.append(tc)
        if rest:
            heapq.heappush(heap, (tuple(map(add, te, rest[0][0])), len(q_keys) - 1, 0))
    return {tuple(-x for x in t[1:]): c for t, c in zip(q_keys, q_coeffs)}


def tuple_prem(A, B, v):
    """Pseudo-remainder of exponent-tuple term dicts in variable ``v``, and
    the number of factors lc(B) multiplied in after the last step."""

    def deg(p):
        return max((e[v] for e in p), default=-1)

    def lc(p, shift):
        d = deg(p)
        return {e[:v] + (shift,) + e[v + 1 :]: c for e, c in p.items() if e[v] == d}

    dB, lB, R = deg(B), lc(B, 0), dict(A)
    e, steps = deg(A) - dB + 1, 0
    while R and deg(R) >= dB:
        lR = lc(R, deg(R) - dB)
        R = _dict_add(tuple_mul(lB, R), {x: -c for x, c in tuple_mul(lR, B).items()})
        steps += 1
    tail = e - steps if R else 0
    for _ in range(tail):
        R = tuple_mul(R, lB)
    return R, tail


def packed_div(p, d, nv, bound=None):
    """``_dict_try_div`` on tuple dicts packed with fields for ``bound``
    (default: the larger degree), the quotient unpacked."""
    degree = max(map(sum, [*p, *d]), default=0)
    s = _field_bits(degree if bound is None else bound)
    q = _dict_try_div(_pack(p, nv, s), _pack(d, nv, s), s)
    return None if q is None else _unpack(q, nv, s)


class TestHeapDivision:
    """``_dict_try_div`` on packed exponents against the quadratic
    rescanning loop and the heap division on exponent tuples."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadratic_loop(self, seed):
        rng = random.Random(seed)
        seen = {"exact": 0, "none": 0, "monomial": 0, "negative_lead": 0}
        for _ in range(60):
            nv = rng.randint(1, 4)
            d = random_int_dict(rng, nv, rng.choice([1, 1, 2, 3, 5]))
            if not d:
                continue
            if rng.random() < 0.5:
                lead = max(d, key=glex_key)
                d[lead] = -abs(d[lead])
            q = random_int_dict(rng, nv, rng.randint(1, 8))
            p = tuple_mul(d, q)
            bumped = dict(p)
            if bumped:
                e = rng.choice(sorted(bumped))
                bumped[e] += 1  # a quotient coefficient that is not an integer
            dividends = [
                p,
                _dict_add(p, random_int_dict(rng, nv, 3)),
                bumped,
                {e: 2 * c for e, c in p.items()},
                random_int_dict(rng, nv, 6),
            ]
            for dividend in dividends:
                dividend = {e: c for e, c in dividend.items() if c}
                want = quadratic_try_div(dividend, d) if dividend else {}
                assert tuple_try_div(dividend, d) == want
                if dividend:
                    assert _div_tuples(dividend, d) == want
                assert packed_div(dividend, d, nv) == want
                seen["exact" if want is not None else "none"] += 1
            seen["monomial"] += len(d) == 1
            seen["negative_lead"] += d[max(d, key=glex_key)] < 0
        assert all(seen.values()), seen

    def test_monomial_divisor_shifts_exponents(self):
        for div in (_div_tuples, lambda p, d: packed_div(p, d, 2)):
            assert div({(3, 1): 6, (2, 2): -4}, {(1, 1): -2}) == {(2, 0): -3, (1, 1): 2}
            assert div({(3, 1): 6, (0, 2): 4}, {(1, 1): 2}) is None
            assert div({(3, 1): 5}, {(1, 1): 2}) is None

    def test_zero_operands(self):
        s = _field_bits(1)
        one_x = _pack({(1,): 3}, 1, s)
        assert _dict_try_div({}, one_x, s) == {}
        with pytest.raises(PolyError):
            _dict_try_div(one_x, {}, s)
        x = Polynomial.variable(VarSet(("x",)), "x")
        assert try_exact_div(0 * x, 3 * x).is_zero()
        with pytest.raises(PolyError):
            try_exact_div(3 * x, 0 * x)


class TestPackedKernel:
    """The packed kernel against the exponent-tuple oracles."""

    def test_layout(self):
        # total degree on top, then x, y, z, one byte each below 128
        assert _field_bits(0) == _field_bits(127) == 8
        assert _field_bits(128) == 16 and _field_bits(40000) == 32
        assert _pack({(1, 2, 3): 5}, 3, 8) == {0x06010203: 5}
        assert _unpack({0x06010203: 5}, 3, 8) == {(1, 2, 3): 5}
        assert _pack({(0, 0): 7}, 2, 8) == {0: 7}
        for s in (8, 16, 32, 64):
            e = (0, 2**(s - 2), 3, 0)
            assert _unpack(_pack({e: 1}, 4, s), 4, s) == {e: 1}

    @pytest.mark.parametrize("nv", [1, 2, 4])
    def test_packed_index_is_the_packed_basis(self, nv):
        for d in range(5):
            basis = monomials_of_degree(nv, d)
            for s in (8, 16, 32):
                index = _packed_index(nv, d, s)
                packed = _pack({e: r for r, e in enumerate(basis)}, nv, s)
                assert list(index.items()) == list(packed.items())
                assert list(index.values()) == list(range(len(basis)))
                assert index is _packed_index(nv, d, s)
                with pytest.raises(TypeError):
                    index[0] = 0  # shared by every caller

    @pytest.mark.parametrize("nv", [1, 2, 3, 5])
    def test_sorted_packed_is_glex(self, nv):
        rng = random.Random(30 + nv)
        exps = list({tuple(rng.randint(0, 9) for _ in range(nv)) for _ in range(60)})
        for s in (8, 16):
            packed = _pack(dict.fromkeys(exps), nv, s)
            assert list(_unpack(dict.fromkeys(sorted(packed)), nv, s)) == sorted(exps, key=glex_key)
            assert _unpack({max(packed): 1}, nv, s) == {max(exps, key=glex_key): 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_mul_and_pow_match_tuples(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(40):
            nv = rng.randint(1, 4)
            a = random_int_dict(rng, nv, rng.randint(0, 6), max_deg=rng.choice([1, 3, 9]))
            b = random_int_dict(rng, nv, rng.randint(0, 6), max_deg=rng.choice([1, 3, 9]))
            want = tuple_mul(a, b)
            assert _mul_tuples(a, b) == want
            s = _field_bits(max(map(sum, [*a, *b]), default=0) * 2)
            assert _unpack(_dict_mul(_pack(a, nv, s), _pack(b, nv, s)), nv, s) == want
            k = rng.randint(1, 4)
            want = a
            for _ in range(k - 1):
                want = tuple_mul(want, a)
            vs = VarSet(f"v{i}" for i in range(nv))
            assert (Polynomial(vs, a) ** k).terms == want

    def test_degree_past_widest_field_raises(self):
        # 64-bit fields hold degrees up to 2^63 - 1 under their guard bits
        vs = VarSet(["x", "y"])
        p, x = Polynomial.monomial(vs, (2**62, 0)), Polynomial.variable(vs, "x")
        assert (p * Polynomial.monomial(vs, (2**62 - 1, 0))).terms == {(2**63 - 1, 0): 1}
        for compute in (lambda: p * p, lambda: x ** 2**63, lambda: det_fraction_free([[p, x], [x, p]])):
            with pytest.raises(PolyError, match=r"^degree 9223372036854775808 is too large"):
                compute()

    def test_exponent_at_field_maximum(self):
        # 127 is the largest value of a one-byte field below its guard bit
        a, b = {(64, 0): 2, (0, 64): 1}, {(63, 0): 3, (62, 1): -1}
        assert _field_bits(127) == 8
        s = 8
        prod = _dict_mul(_pack(a, 2, s), _pack(b, 2, s))
        assert _unpack(prod, 2, s) == tuple_mul(a, b)
        assert {(127, 0): 6} == {e: c for e, c in _unpack(prod, 2, s).items() if e == (127, 0)}
        p = tuple_mul(a, b)
        assert packed_div(p, a, 2) == b
        assert packed_div(p, b, 2) == a
        assert packed_div({(127, 0): 4}, {(127, 0): 2}, 2) == {(0, 0): 2}
        assert packed_div({(127, 0): 4}, {(0, 127): 2}, 2) is None
        assert packed_div({(0, 127): 4}, {(1, 0): 2}, 2) is None

    def test_no_borrow_across_fields(self):
        # x*y^3 / x^2: the x field would borrow from the y field above it
        assert tuple_try_div({(1, 3): 1}, {(2, 0): 1}) is None
        assert packed_div({(1, 3): 1}, {(2, 0): 1}, 2) is None
        assert packed_div({(1, 3): 1, (0, 4): 1}, {(2, 0): 1, (0, 2): 1}, 2) is None
        # y^3 / x: the degree field is large enough, the x field is not
        assert packed_div({(0, 3): 1}, {(1, 0): 1}, 2) is None
        assert packed_div({(0, 3, 1): 1}, {(0, 0, 2): 1}, 3) is None
        assert packed_div({(2, 3): 5}, {(2, 0): 5}, 2) == {(0, 3): 1}

    def test_single_term_and_constant_operands(self):
        assert packed_div({(0, 0): 6}, {(0, 0): 3}, 2) == {(0, 0): 2}
        assert packed_div({(0, 0): 6}, {(0, 0): 4}, 2) is None
        assert packed_div({(0, 0): 6}, {(1, 0): 3}, 2) is None
        assert packed_div({(1, 0): 6, (0, 1): -3}, {(0, 0): 3}, 2) == {(1, 0): 2, (0, 1): -1}
        assert packed_div({(2, 1): 6, (1, 2): 3}, {(1, 1): -3}, 2) == {(1, 0): -2, (0, 1): -1}
        assert _mul_tuples({}, {(1, 0): 2}) == {} == _mul_tuples({(1, 0): 2}, {})
        assert _mul_tuples({(0, 0): 3}, {(1, 2): 2}) == {(1, 2): 6}

    @pytest.mark.parametrize("seed", range(3))
    def test_division_of_products(self, seed):
        """(a * b) / b is a; (a * b + r) / b agrees with the tuple oracle."""
        rng = random.Random(700 + seed)
        for _ in range(40):
            nv = rng.randint(1, 4)
            a = random_int_dict(rng, nv, rng.randint(1, 6), max_deg=rng.choice([2, 5]))
            b = random_int_dict(rng, nv, rng.randint(1, 4), max_deg=rng.choice([2, 5]))
            if not a or not b:
                continue
            p = tuple_mul(a, b)
            assert packed_div(p, b, nv) == a
            for bound in (None, 2 * max(map(sum, [*p, *b]))):
                r = _dict_add(p, random_int_dict(rng, nv, 2))
                assert packed_div(r, b, nv, bound) == tuple_try_div(r, b)

    def test_field_overflow_raises(self):
        # x^100 * x^100 sets the guard bits of the x and degree fields
        s = 8
        square = _dict_mul(_pack({(100, 0): 1}, 2, s), _pack({(100, 0): 1}, 2, s))
        with pytest.raises(PolyError, match="overflow"):
            _unpack(square, 2, s)
        with pytest.raises(PolyError, match="overflow"):
            _unpack(_pack({(0, 128): 1}, 2, s), 2, s)
        assert _unpack(_pack({(0, 127): 1}, 2, s), 2, s) == {(0, 127): 1}

    @pytest.mark.parametrize("s", [8, 16, 32, 64])
    def test_degree_field_overflow_raises(self, s):
        """The exponents are read past the degree field, and its guard bit
        is tested all the same."""
        top = 1 << 3 * s - 1  # the degree field's guard bit, over x and y
        with pytest.raises(PolyError, match="overflow"):
            _unpack({top: 1}, 2, s)
        with pytest.raises(PolyError, match="overflow"):
            _unpack({top | _pack({(1, 2): 1}, 2, s).popitem()[0]: 1}, 2, s)

    @pytest.mark.parametrize("at", [0, 17, 39])
    def test_one_bad_key_among_many_raises(self, at):
        s = 8
        keys = list(_pack({e: 1 for e in monomials_of_degree(2, 39)}, 2, s))
        keys[at] |= 1 << s - 1  # y's guard bit
        with pytest.raises(PolyError, match="overflow"):
            _unpack(dict.fromkeys(keys, 1), 2, s)

    @pytest.mark.parametrize("seed", range(3))
    def test_prem_matches_tuples(self, seed):
        rng = random.Random(800 + seed)
        tails = 0
        for _ in range(40):
            nv = rng.randint(1, 3)
            v = rng.randrange(nv)
            A = random_int_dict(rng, nv, rng.randint(1, 6), max_deg=rng.choice([2, 4]))
            B = random_int_dict(rng, nv, rng.randint(1, 4), max_deg=rng.choice([1, 2]))
            if not A or not B or max(e[v] for e in B) > max(e[v] for e in A):
                continue
            want, tail = tuple_prem(A, B, v)
            assert _prem(A, B, v) == want
            tails += tail > 0
        assert tails

    def test_normalize_takes_glex_leader(self):
        terms = {(0, 3): -4, (1, 1): 6, (0, 0): 2}
        s = _field_bits(3)
        got = _unpack(_normalize_int_dict(_pack(terms, 2, s)), 2, s)
        assert got == _normalize_int_dict(terms, glex_key) == {(0, 3): 2, (1, 1): -3, (0, 0): -1}


class TestGcd:
    def test_shared_linear_factor(self):
        p = X * X - Y * Y
        q = X * X + 2 * X * Y + Y * Y
        assert multivariate_gcd(p, q) == X + Y

    def test_gcd_with_unit(self):
        assert multivariate_gcd(X * X + Y, Polynomial.constant(XY, 1)) == 1

    def test_both_zero_errors(self):
        z = Polynomial.zero(XY)
        with pytest.raises(PolyError):
            multivariate_gcd(z, z)

    def test_normalizing_zero_errors(self):
        with pytest.raises(PolyError, match="zero polynomial"):
            normalize_gcd_style(Polynomial.zero(XY))

    def test_construct_and_recover(self):
        rng = random.Random(2024)
        found = 0
        while found < 12:
            p = random_poly(rng, XY, max_deg=2, nterms=3)
            q = random_poly(rng, XY, max_deg=2, nterms=3)
            w = random_poly(rng, XY, max_deg=2, nterms=3)
            if p.is_zero() or q.is_zero() or w.is_zero():
                continue
            if multivariate_gcd(p, q) != 1:
                continue
            found += 1
            g = multivariate_gcd(p * w, q * w)
            assert g == normalize_gcd_style(w)

    def test_divides_inputs(self):
        rng = random.Random(99)
        for _ in range(10):
            p = random_poly(rng, XY)
            q = random_poly(rng, XY)
            if p.is_zero() and q.is_zero():
                continue
            g = multivariate_gcd(p, q)
            assert try_exact_div(p, g) is not None
            assert try_exact_div(q, g) is not None

    def test_normalization(self):
        g = multivariate_gcd(-4 * X - 4 * Y, -2 * X * X + -2 * X * Y)
        # integer content 1, positive glex leading coefficient
        assert g == X + Y

    def test_three_variables(self):
        vs = VarSet(("x", "y", "z"))
        x, y, z = (Polynomial.variable(vs, v) for v in "xyz")
        w = x * y + z * z + 1
        g = multivariate_gcd(w * (x + y), w * (x - z))
        assert g == w

    def test_no_other_module_names_the_gcd(self):
        """No computation takes a gcd: no module of detres but polyring names
        the gcd in its code (the package's export table lists it in a
        string), so no entry point can call it.  Nor does any other module
        name ``evaluate`` or ``det_fraction_free``, so nothing new comes to
        depend on these oracle functions."""
        oracles = {"multivariate_gcd", "normalize_gcd_style", "evaluate", "det_fraction_free"}
        for path in sorted(Path(detres.__file__).parent.glob("*.py")):
            if path.name == "polyring.py":
                continue
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert not names & oracles, path.name

    def test_term_order_does_not_matter(self):
        """Shuffled insertion orders of the same two polynomials give the same
        gcd, with its terms in the same order."""
        vs = VarSet(("x", "y", "z"))
        rng = random.Random(1212)
        for _ in range(4):
            w, a, b = (random_poly(rng, vs, max_deg=2, nterms=4) for _ in range(3))
            if w.is_zero() or a.is_zero() or b.is_zero():
                continue
            p, q = w * a, w * b
            want = list(multivariate_gcd(p, q).terms.items())
            for _ in range(3):
                shuffled = [
                    Polynomial(vs, dict(rng.sample(list(t.terms.items()), len(t.terms))))
                    for t in (p, q)
                ]
                assert list(multivariate_gcd(*shuffled).terms.items()) == want


class TestTrustedConstructor:
    """``_from_terms`` against the checked ``Polynomial`` constructor."""

    @pytest.mark.parametrize("den", [1, 2, -3, 12])
    def test_matches_checked_constructor(self, den):
        vs = VarSet(("x", "y", "z"))
        rng = random.Random(404 + den)
        for nterms in (0, 1, 3, 8, 15):
            terms = random_int_dict(rng, 3, nterms)
            got = _from_terms(vs, terms, den)
            want = Polynomial(vs, {e: Fraction(c, den) for e, c in terms.items()})
            assert got == want and got.varset is vs
            assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
            assert hash(got) == hash(want)

    @pytest.mark.parametrize("den", [1, -3])
    def test_repeated_coefficients_share_one_fraction(self, den):
        vs = VarSet(("x", "y", "z"))
        terms = {e: [2, -1, 2, 6, -1, 5][k % 6] for k, e in enumerate(monomials_of_degree(3, 4))}
        got = _from_terms(vs, terms, den)
        assert got == Polynomial(vs, {e: Fraction(c, den) for e, c in terms.items()})
        assert list(got.terms) == list(terms)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert len({id(c) for c in got.terms.values()}) == len(set(terms.values())) == 4

    def test_fraction_coefficients(self):
        terms = {(2, 0): Fraction(3, 4), (0, 1): Fraction(-5)}
        got = _from_terms(XY, terms)
        assert got == Polynomial(XY, terms)
        assert all(type(c) is Fraction for c in got.terms.values())


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_poly(rng, XY)
            assert Polynomial.from_json(p.to_json()) == p

    def test_terms_sorted_descending(self):
        p = X + Y * Y + 1
        data = p.to_json()
        assert data["vars"] == ["x", "y"]
        assert [t["e"] for t in data["terms"]] == [[0, 2], [1, 0], [0, 0]]

    def test_exact_fraction_strings(self):
        p = Polynomial(XY, {(1, 0): Fraction(1, 3)})
        assert p.to_json()["terms"][0]["c"] == "1/3"

    def test_integer_coefficient(self):
        data = {"vars": ["x", "y"], "terms": [{"c": -3, "e": [1, 0]}]}
        assert Polynomial.from_json(data) == -3 * X

    @pytest.mark.parametrize(
        "terms",
        [
            [{"c": "1", "e": [0.5, 0.5]}],
            [{"c": "1", "e": [True, 0]}],
            [{"c": "1", "e": [1, 0]}, {"c": "-1", "e": [1, 0]}],
            [{"c": 0.1, "e": [1, 0]}],
            [{"c": True, "e": [1, 0]}],
            [{"c": "1/0", "e": [1, 0]}],
            [{"c": "one", "e": [1, 0]}],
            [{"c": "1", "e": "10"}],
        ],
        ids=["float-exp", "bool-exp", "repeated-exp", "float-c", "bool-c",
             "zero-den", "word-c", "string-exp"],
    )
    def test_rejects_malformed_terms(self, terms):
        with pytest.raises(PolyError):
            Polynomial.from_json({"vars": ["x", "y"], "terms": terms})

    @pytest.mark.parametrize(
        "data, reason",
        [
            ([{"c": "1", "e": [1, 0]}], "an object with a list 'terms'"),
            ({"terms": []}, "vars None is not a list of strings"),
            ({"vars": "xy", "terms": []}, "vars 'xy' is not a list of strings"),
            ({"vars": ["x", 1], "terms": []}, r"vars \['x', 1\] is not a list of strings"),
            ({"vars": ["x", "y"]}, "an object with a list 'terms'"),
            ({"vars": ["x", "y"], "terms": {"c": "1", "e": [1, 0]}}, "an object with a list 'terms'"),
            ({"vars": ["x", "y"], "terms": [{"e": [1, 0]}]}, "with 'e' and 'c'"),
            ({"vars": ["x", "y"], "terms": [{"c": "1"}]}, "with 'e' and 'c'"),
            ({"vars": ["x", "y"], "terms": ["1"]}, "with 'e' and 'c'"),
        ],
        ids=["list", "no-vars", "string-vars", "int-var", "no-terms", "object-terms",
             "no-c", "no-e", "string-term"],
    )
    def test_rejects_malformed_shape(self, data, reason):
        with pytest.raises(PolyError, match=reason):
            Polynomial.from_json(data)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("-3/4", Fraction(-3, 4)),
            ("7", Fraction(7)),
            (" 7 ", Fraction(7)),
            ("1.5", Fraction(3, 2)),
            ("1e3", Fraction(1000)),
            (" 1/2\n", Fraction(1, 2)),
            ("+5", Fraction(5)),
            (".5", Fraction(1, 2)),
            ("1E-2", Fraction(1, 100)),
            # Fraction reads "_" from Python 3.11 and whitespace at "/" from 3.12
            ("1_000", None),
            ("1_0/3", None),
            ("3/1_0", None),
            ("1.5_0", None),
            ("1e1_0", None),
            ("2 / 3", None),
            ("1 /2", None),
            ("1/ 2", None),
            ("1\t/2", None),
            ("1/\n2", None),
            ("1\u2003/2", None),
            # refused by Fraction on every version
            ("1/0", None),
            ("", None),
            ("x", None),
            ("1/2/3", None),
            ("1 2", None),
            ("1. 5", None),
            ("1/-2", None),
            ("inf", None),
        ],
    )
    def test_rational_strings(self, text, value):
        if value is None:
            with pytest.raises(PolyError, match="^coefficient .* is not a rational number$"):
                rational_from_json(text)
        else:
            got = rational_from_json(text)
            assert type(got) is Fraction and got == value
