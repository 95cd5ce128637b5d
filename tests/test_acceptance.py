"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
All comparisons are exact; the only allowed slack is the global
normalization constant of resultants, which is fixed by the documented
normalization (integer content 1, positive graded-lex leading coefficient).
"""

import random
import time
from fractions import Fraction
from itertools import product

from detres.chern_degree import ProblemSpec, multidegree, total_degree
from detres.partition_schur import complex_terms, dual, trim
from detres.polyring import (
    Polynomial,
    VarSet,
    det_fraction_free,
    monomials_of_degree,
    multivariate_gcd,
    normalize_gcd_style,
)
from detres.resultant_engine import (
    build_sigma,
    concrete_morphism,
    critical_degree,
    generic_morphism,
    resultant_gcd,
    staircase_specialization,
    vanish_test,
)
from detres.scroll_chow import (
    PlaneStiefel,
    ScrollSpec,
    chow_generic_morphism,
    chow_form,
    chow_problem,
    parametrize,
    plane_meets_scroll,
    scroll_equations,
)
from minors_oracle import laplace_det, try_exact_div


def verdict(num, ok, detail, t0):
    line = (
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        f" ({time.monotonic() - t0:.2f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_1_multidegree_formulas():
    t0 = time.monotonic()
    ok = True
    for d1, d2 in product(range(1, 6), repeat=2):
        ok &= multidegree(ProblemSpec(2, 1, 0, (d1, d2), (0,))) == (d2, d1)
    for d in product(range(1, 5), repeat=3):
        for k in (0, 1):
            if min(d) <= k:
                continue
            d1, d2, d3 = d
            ok &= multidegree(ProblemSpec(3, 2, 1, d, (k, 0))) == (
                d2 + d3 - k,
                d1 + d3 - k,
                d1 + d2 - k,
            )
    for d1, d2 in product(range(1, 5), repeat=2):
        for k in (0, 1):
            if min(d1, d2) <= k:
                continue
            ok &= multidegree(ProblemSpec(2, 2, 0, (d1, d2), (k, 0))) == (
                d2 * (d2 - k) * (2 * d1 - k),
                d1 * (d1 - k) * (2 * d2 - k),
            )
    ok &= time.monotonic() - t0 < 1.0
    verdict(1, ok, "multidegree reproduces all three published families", t0)


def test_criterion_2_critical_degree():
    t0 = time.monotonic()
    ok = True
    for d in [(1, 1), (2, 3), (1, 2, 3), (4, 4, 4, 4)]:
        m = len(d)
        ok &= critical_degree(ProblemSpec(m, 1, 0, d, (0,))) == sum(d) - m + 1
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
            ok &= critical_degree(spec.twisted(l)) == nu
        specs += 1
    ok &= time.monotonic() - t0 < 1.0
    verdict(2, ok, "Macaulay critical degree and twist invariance (50 specs)", t0)


def _classical_sylvester(spec):
    d1, d2 = spec.d
    gen = generic_morphism(spec)
    pvars = VarSet(gen.param_names)
    deg = d1 + d2 - 1
    cols = monomials_of_degree(2, deg)
    col_index = {e: c for c, e in enumerate(cols)}
    rows = []
    for i, (di, shifts) in enumerate(((d1, d2), (d2, d1)), start=1):
        for s in range(shifts):
            row = [Polynomial.zero(pvars)] * len(cols)
            for exps in monomials_of_degree(2, di):
                target = (exps[0] + shifts - 1 - s, exps[1] + s)
                row[col_index[target]] = Polynomial.variable(
                    pvars, gen.coeff_names[(1, i, exps)]
                )
            rows.append(row)
    return laplace_det(rows)


def test_criterion_3_sylvester_oracle():
    t0 = time.monotonic()
    ok = True
    for d1, d2 in [(1, 1), (1, 2), (2, 2)]:
        spec = ProblemSpec(2, 1, 0, (d1, d2), (0,))
        out = resultant_gcd(spec)
        oracle = normalize_gcd_style(_classical_sylvester(spec))
        ok &= out.confirmed and out.polynomial == oracle
    ok &= time.monotonic() - t0 < 10.0
    verdict(3, ok, "resultant_gcd equals classical Sylvester determinants", t0)


def _golden_s21_matrix(pvars):
    """The published 5x6 matrix, transcribed entry by entry.

    Fixture convention: our build_sigma reproduces it with the identity
    row/column permutation and a global sign of -1.
    """
    v = lambda name: Polynomial.variable(pvars, name)

    def band(u, w):
        u0, u1, u2, u3, u4 = (v(f"{u}{i}") for i in range(5))
        w0, w1, w2, w3, w4 = (v(f"{w}{i}") for i in range(5))
        return [
            u3 * w0 - u0 * w3,
            u4 * w0 + u3 * w1 - u1 * w3 - u0 * w4,
            u4 * w1 + u3 * w2 - u2 * w3 - u1 * w4,
            u4 * w2 - u2 * w4,
        ]

    z = Polynomial.zero(pvars)
    cols = []
    for pair in (("a", "b"), ("a", "c"), ("b", "c")):
        e = band(*pair)
        cols.append(e + [z])
        cols.append([z] + e)
    # transpose to rows
    return [[cols[c][r] for c in range(6)] for r in range(5)]


def test_criterion_4_s21_matrix_golden():
    t0 = time.monotonic()
    scroll = ScrollSpec((2, 1))
    problem = chow_problem(scroll)
    phi = chow_generic_morphism(scroll)
    nu = critical_degree(problem)
    sigma = build_sigma(problem, nu, phi)
    ok = nu == 4 and sigma.shape == (5, 6)
    golden = _golden_s21_matrix(sigma.param_varset)
    # identity permutation, global sign -1
    entrywise = all(
        sigma.entries[r][c] == -golden[r][c]
        for r in range(5)
        for c in range(6)
    )
    for sign in (1, -1):
        multiset_ok = sorted(
            str(sign * e) for row in sigma.entries for e in row
        ) == sorted(str(e) for row in golden for e in row)
        if multiset_ok:
            break
    ok &= entrywise and multiset_ok
    ok &= time.monotonic() - t0 < 1.0
    verdict(4, ok, "sigma_4 of S(2,1) equals the published 5x6 matrix (sign -1)", t0)


def test_criterion_5_s21_chow_form():
    t0 = time.monotonic()
    out = chow_form(ScrollSpec((2, 1)))
    ok = out.confirmed and out.block_degrees == (3, 3, 3)
    ok &= out.polynomial.degree == 9
    vs = out.polynomial.varset
    idx = {v: i for i, v in enumerate(vs.names)}

    def coeff(mono):
        e = [0] * len(vs.names)
        for name, p in mono.items():
            e[idx[name]] += p
        return out.polynomial.terms.get(tuple(e), Fraction(0))

    # published expansion: -a4^3 b2^2 b3 c0^3 + a3 a4^2 b2^2 b4 c0^3
    #                      + 2 a2 a4^2 b2 b3 b4 c0^3 + ...
    g = -coeff({"a4": 3, "b2": 2, "b3": 1, "c0": 3})
    ok &= g != 0
    ok &= coeff({"a3": 1, "a4": 2, "b2": 2, "b4": 1, "c0": 3}) == g
    ok &= coeff({"a2": 1, "a4": 2, "b2": 1, "b3": 1, "b4": 1, "c0": 3}) == 2 * g
    ok &= time.monotonic() - t0 < 600.0
    verdict(
        5,
        ok,
        f"S(2,1) Chow form degrees (3,3,3), published terms with constant {g}",
        t0,
    )


def test_criterion_6_degree_consistency():
    t0 = time.monotonic()
    ok = True
    for d1, d2 in [(1, 1), (1, 2), (2, 2)]:
        spec = ProblemSpec(2, 1, 0, (d1, d2), (0,))
        out = resultant_gcd(spec)
        ok &= out.block_degrees == multidegree(spec)
        ok &= out.polynomial.degree == total_degree(spec)
    scroll = ScrollSpec((2, 1))
    out = chow_form(scroll)
    problem = chow_problem(scroll)
    ok &= out.block_degrees == multidegree(problem)
    ok &= out.polynomial.degree == total_degree(problem)
    verdict(6, ok, "computed per-block degrees equal the degree formulas", t0)


def _plane_through(spec, point):
    j0 = next(i for i, p in enumerate(point) if p)
    rows = []
    for i in range(len(point)):
        if i == j0 or len(rows) == spec.r + 1:
            continue
        row = [Fraction(0)] * len(point)
        row[i] = point[j0]
        row[j0] = -point[i]
        rows.append(tuple(row))
    return PlaneStiefel(tuple(rows))


def test_criterion_7_rank_test_soundness():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(777)
    for degrees in [(2, 1), (1, 1)]:
        scroll = ScrollSpec(degrees)
        for _ in range(50):
            pt = parametrize(
                scroll,
                (rng.randint(-4, 4), rng.randint(1, 4)),
                tuple(rng.randint(1, 4) for _ in range(scroll.r)),
            )
            ok &= plane_meets_scroll(scroll, _plane_through(scroll, pt)) is True
    # nonvanishing side: staircase and verified generic morphisms
    vs = VarSet(("x0", "x1"))
    for d in [(1, 1), (1, 2), (2, 2)]:
        spec = ProblemSpec(2, 1, 0, d, (0,))
        ok &= vanish_test(spec, staircase_specialization(spec)) is False
    spec11 = ProblemSpec(2, 1, 0, (1, 1), (0,))
    done = 0
    while done < 100:
        a = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        if a[0] * a[3] - a[1] * a[2] == 0:  # classical 2x2 resultant
            continue
        f = Polynomial(vs, {(1, 0): a[0], (0, 1): a[1]})
        g = Polynomial(vs, {(1, 0): a[2], (0, 1): a[3]})
        phi = concrete_morphism(spec11, [[f, g]])
        ok &= vanish_test(spec11, phi) is False
        done += 1
    ok &= time.monotonic() - t0 < 30.0
    verdict(7, ok, "vanish_test sound on 100 incident planes and 100 nonvanishing morphisms", t0)


def test_criterion_8_combinatorics():
    t0 = time.monotonic()
    ok = dual((1, 2, 4)) == (1, 1, 2, 3)
    for m in range(2, 7):
        for n in range(1, m + 1):
            for r in range(0, n):
                if (m - r) * (n - r) < 2:
                    continue
                ok &= [t.I for t in complex_terms(m, n, r) if t.homological_index == -1] == [(r + 1,)]
    # principal Eagon-Northcott shapes
    for n in range(1, 5):
        for m in range(n + 1, n + 5):
            r = n - 1
            all_terms = complex_terms(m, n, r)
            for s in range(1, m - n + 2):
                terms = [t for t in all_terms if t.homological_index == -s]
                ok &= len(terms) == 1
                ok &= terms[0].I == (n + s - 1,)
                ok &= terms[0].I_prime == trim((1,) * (n - 1) + (s,))
                ok &= terms[0].ampleness == n - 1
    ok &= time.monotonic() - t0 < 1.0
    verdict(8, ok, "dual, unique p=-1 term, Eagon-Northcott shapes", t0)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(20260823)
    XY = VarSet(("x", "y"))

    def rand_poly(nterms=4, max_deg=3):
        terms = {}
        for _ in range(nterms):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            terms[e] = Fraction(rng.randint(-5, 5))
        return Polynomial(XY, terms)

    # ring axioms
    for _ in range(20):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        ok &= (p + q) + r == p + (q + r)
        ok &= p * (q + r) == p * q + p * r
    # det vs Laplace up to 4x4
    for n in (2, 3, 4):
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
        ok &= det_fraction_free(m) == laplace_det(m)
    # gcd construct and recover
    found = 0
    while found < 8:
        p, q, w = rand_poly(3, 2), rand_poly(3, 2), rand_poly(3, 2)
        if p.is_zero() or q.is_zero() or w.is_zero():
            continue
        if multivariate_gcd(p, q) != 1:
            continue
        ok &= multivariate_gcd(p * w, q * w) == normalize_gcd_style(w)
        ok &= try_exact_div(p * w, multivariate_gcd(p * w, q * w)) is not None
        found += 1
    # multidegree twist invariance: the division by c(F) must absorb a twist
    for _ in range(10):
        twists = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        n = len(twists)
        d = tuple(max(twists) + 1 + i for i in range(n + 1))
        spec = ProblemSpec(n + 1, n, n - 1, d, twists)
        ok &= all(multidegree(spec.twisted(l)) == multidegree(spec) for l in (-2, 3))
    # dual involution
    for _ in range(30):
        parts = tuple(sorted(rng.randint(0, 5) for _ in range(rng.randint(0, 5))))
        ok &= dual(dual(parts)) == trim(parts)
    # parametrized points annihilate scroll equations
    for degrees in [(2,), (2, 1), (1, 1)]:
        scroll = ScrollSpec(degrees)
        coords = scroll.coordinate_names()
        for _ in range(5):
            pt = parametrize(
                scroll,
                (rng.randint(-3, 3), rng.randint(1, 3)),
                tuple(rng.randint(1, 3) for _ in range(scroll.r)),
            )
            for eq in scroll_equations(scroll):
                ok &= eq.evaluate(dict(zip(coords, pt))) == 0
    ok &= time.monotonic() - t0 < 30.0
    verdict(9, ok, "seeded property suites (ring, det, gcd, twist, dual, scroll)", t0)
