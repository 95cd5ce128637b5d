import random
from itertools import product

import pytest

from detres import chern_degree
from detres.chern_degree import (
    ExistenceError,
    ProblemSpec,
    existence_check,
    multidegree,
    total_degree,
)


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def e_sym(k, values):
    from itertools import combinations

    return sum(prod(c) for c in combinations(values, k))


class TestExistence:
    def test_sylvester(self):
        ok, bad = existence_check(ProblemSpec(2, 1, 0, (1, 1), (0,)))
        assert ok and not bad

    def test_three_column_family(self):
        spec = ProblemSpec(3, 2, 1, (2, 3, 4), (1, 0))
        ok, _ = existence_check(spec)
        assert ok
        assert spec.N == 1

    def test_degree_violation(self):
        ok, bad = existence_check(ProblemSpec(2, 1, 0, (1, 1), (1,)))
        assert not ok
        assert any("d_" in b for b in bad)

    def test_ambient_too_small(self):
        ok, bad = existence_check(ProblemSpec(1, 1, 0, (1,), (0,)))
        assert not ok

    def test_shape_mismatch(self):
        with pytest.raises(ExistenceError):
            ProblemSpec(2, 1, 0, (1,), (0,))

    @pytest.mark.parametrize(
        "spec, bad",
        [
            (ProblemSpec(1, 2, 0, (1,), (0, 0)), ["m >= n fails: m=1, n=2"]),
            (ProblemSpec(2, 2, 2, (1, 1), (0, 0)), ["n > r fails: n=2, r=2", "ambient dimension N=-1 is below 1"]),
            (ProblemSpec(2, 1, -1, (1, 1), (0,)), ["r >= 0 fails: r=-1"]),
        ],
        ids=["m-below-n", "r-equals-n", "negative-r"],
    )
    def test_rank_inequalities(self, spec, bad):
        assert spec.diagnostics() == bad


class TestMultidegree:
    def test_sylvester_family(self):
        for d1, d2 in product(range(1, 6), repeat=2):
            spec = ProblemSpec(2, 1, 0, (d1, d2), (0,))
            assert multidegree(spec) == (d2, d1)

    def test_sylvester_numeric(self):
        assert multidegree(ProblemSpec(2, 1, 0, (3, 5), (0,))) == (5, 3)

    def test_three_column_family(self):
        for d in product(range(1, 5), repeat=3):
            for k in (0, 1):
                if min(d) <= k:
                    continue
                spec = ProblemSpec(3, 2, 1, d, (k, 0))
                d1, d2, d3 = d
                assert multidegree(spec) == (
                    d2 + d3 - k,
                    d1 + d3 - k,
                    d1 + d2 - k,
                )

    def test_rank_zero_p3_family(self):
        for d1, d2 in product(range(1, 4), repeat=2):
            for k in (0,):
                spec = ProblemSpec(2, 2, 0, (d1, d2), (k, 0))
                assert multidegree(spec) == (
                    d2 * (d2 - k) * (2 * d1 - k),
                    d1 * (d1 - k) * (2 * d2 - k),
                )

    def test_symmetry_under_column_permutation(self):
        spec = ProblemSpec(3, 2, 1, (2, 3, 4), (1, 0))
        base = multidegree(spec)
        perm = ProblemSpec(3, 2, 1, (4, 2, 3), (1, 0))
        assert multidegree(perm) == (base[2], base[0], base[1])

    def test_twist_invariance(self):
        rng = random.Random(55)
        tried = 0
        while tried < 20:
            m = rng.randint(2, 4)
            n = rng.randint(1, m)
            r = rng.randint(0, n - 1)
            if (m - r) * (n - r) - 1 < 1 or (m - r) * (n - r) - 1 > 3:
                continue
            k = tuple(rng.randint(-2, 2) for _ in range(n))
            d = tuple(max(k) + rng.randint(1, 3) for _ in range(m))
            spec = ProblemSpec(m, n, r, d, k)
            base = multidegree(spec)
            for l in range(-3, 4):
                assert multidegree(spec.twisted(l)) == base
            tried += 1

    def test_existence_failure_raises(self):
        with pytest.raises(ExistenceError):
            multidegree(ProblemSpec(2, 1, 0, (1, 1), (1,)))


class TestTotalDegree:
    def test_sylvester(self):
        assert total_degree(ProblemSpec(2, 1, 0, (3, 4), (0,))) == 7

    def test_macaulay(self):
        # n=1, k=(0): e_{m-1}(d)
        for d in [(1, 2, 3), (2, 2, 2)]:
            m = len(d)
            spec = ProblemSpec(m, 1, 0, d, (0,))
            assert total_degree(spec) == e_sym(m - 1, d)

    def test_principal_trivial_f(self):
        # principal case, F trivial of rank n: n * e_{m-n}(d)
        for m, n in [(3, 2), (4, 2), (4, 3)]:
            r = n - 1
            if (m - r) * (n - r) - 1 < 1:
                continue
            d = tuple(range(1, m + 1))
            spec = ProblemSpec(m, n, r, d, (0,) * n)
            assert total_degree(spec) == n * e_sym(m - n, d)


def recursive_dual_det(rows):
    """Oracle: Laplace expansion along the first row, recursively, of a
    matrix of dual numbers ``[pure, alpha_1 part, ..., alpha_m part]``."""
    if len(rows) == 1:
        return rows[0][0]
    acc = [0] * len(rows[0][0])
    for j, x in enumerate(rows[0]):
        minor = recursive_dual_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        term = [x[0] * minor[0]] + [x[0] * b + minor[0] * a for a, b in zip(x[1:], minor[1:])]
        acc = [a + (-1) ** j * b for a, b in zip(acc, term)]
    return acc


def quadric_family(q):
    """The spec (q+2, q, 0) with d = (2, ..., 2) and k = (1, 0, ..., 0)."""
    return ProblemSpec(q + 2, q, 0, (2,) * (q + 2), (1,) + (0,) * (q - 1))


def r0_closed_form(spec):
    """For r = 0 the resultant is that of the m*n entries, of degrees
    d_i - k_j, and its degree in the coefficients of entry (j, i) is the
    product of the other entries' degrees: N_i sums these over j."""
    degs = {(j, i): spec.d[i] - spec.k[j] for j in range(spec.n) for i in range(spec.m)}
    return tuple(
        sum(prod(v for key, v in degs.items() if key != (j, i)) for j in range(spec.n))
        for i in range(spec.m)
    )


class TestDualDet:
    """The banded determinant by minors on column sets: the r = 0 closed
    form, the count of dual products, and the recursive Laplace expansion
    as an oracle."""

    def test_r0_closed_form_at_q12(self):
        spec = quadric_family(12)
        assert multidegree(spec) == r0_closed_form(spec)

    def test_r0_closed_form_small(self):
        for spec in [quadric_family(q) for q in range(1, 8)] + [
            s for s in random_specs(31, 40, 11) if s.r == 0
        ]:
            assert multidegree(spec) == r0_closed_form(spec)

    def test_products_at_q8(self, monkeypatch):
        calls = []
        dual_mul = chern_degree._dual_mul

        def counted(x, y):
            calls.append(1)
            return dual_mul(x, y)

        monkeypatch.setattr(chern_degree, "_dual_mul", counted)
        spec = quadric_family(8)
        assert multidegree(spec) == r0_closed_form(spec)
        assert 0 < len(calls) <= 8 * 2 ** 7

    def test_against_recursive_expansion(self, monkeypatch):
        specs = (
            [quadric_family(q) for q in range(1, 7)]
            + random_specs(47, 40, 11)
            + [ProblemSpec(3, 3, 1, (1, 1, 1), (0, 0, 0)), ProblemSpec(4, 4, 2, (5, 3, 6, 4), (1, 0, 2, 1))]
        )
        got = [multidegree(spec) for spec in specs]
        monkeypatch.setattr(chern_degree, "_dual_det", recursive_dual_det)
        assert got == [multidegree(spec) for spec in specs]

    def test_random_matrices(self):
        rng = random.Random(0xD0A1)
        for size in range(1, 7):
            for _ in range(20):
                rows = [
                    [[rng.choice([0, 0, 1, -2, 3]) for _ in range(3)] for _ in range(size)]
                    for _ in range(size)
                ]
                assert chern_degree._dual_det(rows) == recursive_dual_det(rows)


def random_specs(seed, count, max_n):
    """Seeded valid specs with 1 <= N <= max_n."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        m = rng.randint(1, 5)
        n = rng.randint(1, m)
        r = rng.randint(0, n - 1)
        if not 1 <= (m - r) * (n - r) - 1 <= max_n:
            continue
        k = tuple(rng.randint(-3, 3) for _ in range(n))
        d = tuple(max(k) + rng.randint(1, 4) for _ in range(m))
        specs.append(ProblemSpec(m, n, r, d, k))
    return specs


class TestSympyOracle:
    """Both banded-determinant conventions in sympy's Z[h, alpha], with h
    kept symbolic and no term in h or alpha dropped: the alpha_i h^N
    coefficients of the (p, q) determinant of c(E)/c(F), and of the (q, p)
    determinant of c(F)/c(E), with geometric series for the inverses."""

    @staticmethod
    def alpha_coeffs(sympy, spec, e_over_f):
        from sympy.polys.matrices import DomainMatrix

        ring, h, *alphas = sympy.ring(
            ["h"] + [f"a{i}" for i in range(1, spec.m + 1)], sympy.ZZ
        )
        p, q = spec.m - spec.r, spec.n - spec.r
        size, band = (q, p) if e_over_f else (p, q)
        length = p + q
        e_roots = [di * h + a for di, a in zip(spec.d, alphas)]
        f_roots = [kj * h for kj in spec.k]
        top, bottom = (e_roots, f_roots) if e_over_f else (f_roots, e_roots)
        # series in t as coefficient lists, cut after t^(length - 1)
        series = [ring.one] + [ring.zero] * (length - 1)
        factors = [[ring.one, -x] for x in top]
        for x in bottom:
            factors.append([ring.one])
            while len(factors[-1]) < length:
                factors[-1].append(factors[-1][-1] * x)
        for factor in factors:
            series = [
                sum(
                    (factor[j] * series[s - j] for j in range(min(s, len(factor) - 1) + 1)),
                    ring.zero,
                )
                for s in range(length)
            ]

        def c(s):
            return series[s] if s >= 0 else ring.zero

        delta = DomainMatrix(
            [[c(band - a + b) for b in range(size)] for a in range(size)],
            (size, size),
            ring.to_domain(),
        ).det()
        return tuple(int(delta.coeff(a * h**spec.N)) for a in alphas)

    @pytest.mark.parametrize("spec", random_specs(2002, 12, 5), ids=repr)
    def test_both_conventions(self, spec):
        sympy = pytest.importorskip("sympy", minversion="1.14")
        sign = (-1) ** ((spec.m - spec.r) * (spec.n - spec.r))
        ef = self.alpha_coeffs(sympy, spec, e_over_f=True)
        fe = self.alpha_coeffs(sympy, spec, e_over_f=False)
        assert multidegree(spec) == tuple(sign * x for x in ef)
        assert ef == tuple(sign * x for x in fe)
