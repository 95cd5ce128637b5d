import random
from itertools import combinations_with_replacement

import pytest

from detres.partition_schur import (
    INFINITY,
    PartitionError,
    check_partition,
    complex_terms,
    conc,
    dual,
    lemma510,
    schur_dim,
    trim,
)


def enumerate_ssyt(I, rank):
    """Brute-force semistandard tableau count: the oracle for ``schur_dim``."""
    lam = tuple(sorted(trim(I), reverse=True))
    if not lam:
        return 1
    if len(lam) > rank:
        return 0

    rows = [[0] * r for r in lam]

    def fill(i, j):
        if i == len(lam):
            return 1
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])  # weakly increasing along rows
        if i > 0 and j < lam[i - 1]:
            lo = max(lo, rows[i - 1][j] + 1)  # strictly increasing down columns
        total = 0
        for v in range(lo, rank + 1):
            rows[i][j] = v
            total += fill(ni, nj)
        return total

    return fill(0, 0)


def all_partitions(max_part, max_len):
    for ln in range(max_len + 1):
        yield from combinations_with_replacement(range(max_part + 1), ln)


class TestDual:
    def test_worked_example(self):
        assert dual((1, 2, 4)) == (1, 1, 2, 3)

    def test_single_row(self):
        for k in range(1, 6):
            assert dual((k,)) == (1,) * k

    def test_involution(self):
        for parts in all_partitions(5, 4):
            if sum(parts) <= 12:
                assert dual(dual(parts)) == trim(parts)

    def test_transposition_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            parts = tuple(sorted(rng.randint(0, 5) for _ in range(rng.randint(1, 5))))
            boxes = {(i, j) for i, p in enumerate(parts) for j in range(p)}
            transposed = {(j, i) for i, j in boxes}
            # row lengths of the transposed diagram, sorted increasing
            cols = sorted(
                sum(1 for (i, _) in transposed if i == r)
                for r in {i for i, _ in transposed}
            )
            assert dual(parts) == tuple(cols)

    def test_malformed(self):
        with pytest.raises(PartitionError):
            check_partition((2, 1))
        with pytest.raises(PartitionError):
            check_partition((-1, 2))


class TestConc:
    def test_sorted_concatenation(self):
        assert conc((1, 2), (3, 4)) == ((1, 2, 3, 4), 0)

    def test_repeated_value_empty(self):
        # shifted sequence (1, 1): repeat
        H, amp = conc((1,), (0,))
        assert H is None and amp == INFINITY

    def test_negative_entry_empty(self):
        H, amp = conc((-1,), (5,))
        assert H is None and amp == INFINITY

    def test_line_partition_against_padding(self):
        # I = (r+1) against O_r gives ampleness r
        for r in range(1, 5):
            H, amp = conc((r + 1,), (0,) * r)
            assert H is not None
            assert amp == r

    def test_inversion_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            I = tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3))))
            J = tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3))))
            H, amp = conc(I, J)
            r = len(I)
            shifted = [I[t] + t for t in range(r)] + [
                J[t] + r + t for t in range(len(J))
            ]
            if len(set(shifted)) != len(shifted):
                assert H is None
                continue
            # bubble sort count
            seq = list(shifted)
            count = 0
            for i in range(len(seq)):
                for j in range(len(seq) - 1 - i):
                    if seq[j] > seq[j + 1]:
                        seq[j], seq[j + 1] = seq[j + 1], seq[j]
                        count += 1
            assert amp == count


class TestLemma510:
    def test_line_partition(self):
        for m, n, r in [(3, 2, 1), (4, 3, 2), (5, 3, 1)]:
            q = n - r
            I = (0,) * (q - 1) + (r + 1,)
            ip, ni = lemma510(I, m, n, r)
            assert ip == (1,) * (r + 1)
            assert ni == r

    def test_principal_eagon_northcott(self):
        # q=1: I=(n+s-1) gives n(I) = (n-1)*... = p*r with p=1, I'=(1^r, s)
        for n in range(2, 5):
            m = n + 3
            r = n - 1
            for s in range(1, m - n + 2):
                ip, ni = lemma510((n + s - 1,), m, n, r)
                assert ni == n - 1
                assert ip == trim((1,) * r + (s,))

    def test_far_left_term(self):
        for m, n, r in [(4, 2, 1), (5, 3, 1), (4, 3, 2)]:
            q = n - r
            ip, ni = lemma510((m,) * q, m, n, r)
            assert ni == q * r
            assert ip is not None

    def test_empty_partition(self):
        assert lemma510((), 4, 3, 1) == ((), 0)

    def test_annihilating_index(self):
        # I=(2,3) with n=3, r=1: greatest square p=2 but i_{q-p+1}=2 < p+r=3
        assert lemma510((2, 3), 3, 3, 1) == (None, None)

    def test_malformed(self):
        with pytest.raises(PartitionError):
            lemma510((3, 1), 4, 3, 1)
        with pytest.raises(PartitionError):
            lemma510((1,) * 5, 4, 3, 1)
        with pytest.raises(PartitionError, match=r"^part 3 exceeds m=2$"):
            lemma510((3,), 2, 1, 0)
        with pytest.raises(PartitionError, match=r"^need m >= n > r >= 0, got \(2, 3, 1\)$"):
            lemma510((1,), 2, 3, 1)

    def test_matches_conc_exhaustively(self):
        # cross-check against conc(I, O_r) on all I with parts <= 5, q <= 3
        for q in (1, 2, 3):
            for r in (0, 1, 2, 3):
                n = q + r
                for m in range(n, 6):
                    for I in combinations_with_replacement(range(m + 1), q):
                        ip, ni = lemma510(I, m, n, r)
                        H, amp = conc(I, (0,) * r)
                        if H is None:
                            assert ip is None and ni is None
                        else:
                            assert ip == trim(H)
                            assert ni == amp


def terms_at(m, n, r, p):
    return [t for t in complex_terms(m, n, r) if t.homological_index == p]


class TestComplexTerms:
    def test_p_zero_is_structure_sheaf(self):
        terms = terms_at(4, 2, 1, 0)
        assert len(terms) == 1
        assert terms[0].I == ()
        assert terms[0].I_prime == ()

    def test_p_minus_one_unique_line(self):
        for m in range(2, 7):
            for n in range(1, m + 1):
                for r in range(0, n):
                    if (m - r) * (n - r) < 2:
                        continue
                    terms = terms_at(m, n, r, -1)
                    assert [t.I for t in terms] == [(r + 1,)]

    def test_minimal_index_far_left(self):
        m, n, r = 4, 2, 1
        q = n - r
        terms = terms_at(m, n, r, q * r - m * q)
        assert [t.I for t in terms] == [(m,) * q]

    def test_one_pass_matches_grouped_enumeration(self):
        # every surviving I, grouped by n(I) - |I| ascending, lex order within
        for m in range(1, 7):
            for n in range(1, m + 1):
                for r in range(n):
                    q = n - r
                    groups = {}
                    for I in combinations_with_replacement(range(m + 1), q):
                        i_prime, n_of_i = lemma510(I, m, n, r)
                        if i_prime is not None:
                            groups.setdefault(n_of_i - sum(I), []).append((trim(I), i_prime, n_of_i))
                    want = [(p, *term) for p in sorted(groups) for term in groups[p]]
                    terms = complex_terms(m, n, r)
                    assert [(t.homological_index, *t) for t in terms] == want
                    assert all(q * r - m * q <= t.homological_index <= 0 for t in terms)

    def test_principal_eagon_northcott_shapes(self):
        # one term per index, I=(n+s-1), I'=(1^(n-1), s)
        for n in range(1, 5):
            for m in range(n, n + 5):
                r = n - 1
                if m - n + 1 < 2:
                    continue
                for s in range(1, m - n + 2):
                    terms = terms_at(m, n, r, -s)
                    assert len(terms) == 1
                    t = terms[0]
                    assert t.I == (n + s - 1,)
                    assert t.I_prime == trim((1,) * (n - 1) + (s,))
                    assert t.ampleness == n - 1
                # total length m - n + 2 including index 0
                assert len(complex_terms(m, n, r)) == m - n + 2

    @pytest.mark.parametrize("mnr", [(2, 3, 1), (3, 2, 2), (3, 2, -1)])
    def test_bad_ranks(self, mnr):
        with pytest.raises(PartitionError, match=rf"^need m >= n > r >= 0, got \({', '.join(map(str, mnr))}\)$"):
            complex_terms(*mnr)

    def test_homological_identity(self):
        for t in complex_terms(5, 3, 1):
            assert t.homological_index == t.ampleness - sum(t.I)


class TestSchurDim:
    def test_wedge_square(self):
        assert schur_dim((1, 1), 2) == 1

    def test_sym_square(self):
        assert schur_dim((2,), 2) == 3

    def test_mixed(self):
        assert schur_dim((1, 2), 2) == 2

    def test_vanishes_beyond_rank(self):
        assert schur_dim((1, 1, 1), 2) == 0
        assert schur_dim((1,) * 4, 3) == 0

    def test_empty(self):
        assert schur_dim((), 3) == 1

    def test_rank_zero(self):
        with pytest.raises(PartitionError, match=r"^rank must be positive$"):
            schur_dim((1,), 0)

    def test_matches_tableau_enumeration(self):
        for rank in (1, 2, 3):
            for parts in all_partitions(3, 3):
                assert schur_dim(parts, rank) == enumerate_ssyt(parts, rank)
