"""Partition combinatorics for determinantal complexes.

Partitions are stored weakly increasing, as tuples ``(i_1, ..., i_r)`` with
``0 <= i_1 <= ... <= i_r``.  Two partitions differing only by leading zeros
are identified; ``trim`` produces the canonical representative.  The empty
result of a failed concatenation (the annihilating Schur index) is modelled
as ``None`` and must not be confused with the zero partition ``()``.

The homological bookkeeping here enumerates the term shapes of the
resolution of a rank-deficiency locus: one pass over the admissible indices
``I`` computes each pair ``(I', n(I))`` by its closed form (``lemma510``)
and sorts the terms by homological degree.  The shifted-sequence
concatenation ``conc`` (inversion counting) is kept as that form's test
oracle.  In the principal case (rank bound one less than the smaller rank)
this reproduces the Eagon-Northcott shapes.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

Partition = tuple[int, ...]

INFINITY = float("inf")


class PartitionError(ValueError):
    """Raised on malformed partition input."""


def check_partition(parts: Sequence[int]) -> Partition:
    t = tuple(parts)
    if any(p < 0 for p in t):
        raise PartitionError(f"negative part in {t!r}")
    if any(a > b for a, b in zip(t, t[1:])):
        raise PartitionError(f"parts not weakly increasing: {t!r}")
    return t


def trim(parts: Sequence[int]) -> Partition:
    """Canonical representative: drop leading zeros."""
    t = check_partition(parts)
    i = 0
    while i < len(t) and t[i] == 0:
        i += 1
    return t[i:]


def dual(parts: Sequence[int]) -> Partition:
    """Transposed Ferrer diagram; an involution.

    Example: dual((1, 2, 4)) == (1, 1, 2, 3).
    """
    t = trim(parts)
    if not t:
        return ()
    top = t[-1]
    # Column j of the diagram has one box for every part >= j.
    return tuple(sum(1 for p in t if p >= j) for j in range(top, 0, -1))


def _inversions(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


def conc(I: Sequence[int], J: Sequence[int]) -> tuple[Partition | None, int | float]:
    """Generalized concatenation of integer tuples.

    Forms the shifted sequence ``(i_1, i_2+1, ..., i_r+r-1, j_1+r, ...,
    j_q+r+q-1)``.  When its entries are non-negative and pairwise distinct
    the sorted sequence determines a unique partition, returned with its
    ampleness: the number of adjacent transpositions needed to sort, i.e.
    the inversion count.  Otherwise returns ``(None, inf)``.
    """
    r = len(I)
    shifted = [I[t] + t for t in range(r)] + [J[t] + r + t for t in range(len(J))]
    if len(set(shifted)) != len(shifted) or any(s < 0 for s in shifted):
        return None, INFINITY
    amp = _inversions(shifted)
    s = sorted(shifted)
    H = tuple(s[t] - t for t in range(len(s)))
    return check_partition(H), amp


def lemma510(
    I: Sequence[int], m: int, n: int, r: int
) -> tuple[Partition | None, int | None]:
    """Closed form for ``(I', n(I))`` of an index of the resolution.

    ``I`` has length at most ``q = n - r`` with parts at most ``m``.  ``p``
    is the dimension of the greatest square contained in the diagram of
    ``I``; if ``i_{q-p+1} < p + r`` the Schur index annihilates and ``(None,
    None)`` is returned, otherwise ``n(I) = p*r`` and ``I'`` interleaves the
    ``p``-block of width ``r`` between the unshifted head and the shifted
    tail of ``I``.
    """
    if not (m >= n > r >= 0):
        raise PartitionError(f"need m >= n > r >= 0, got {(m, n, r)}")
    q = n - r
    t = trim(I)
    if len(t) > q:
        raise PartitionError(f"partition {t!r} longer than q={q}")
    if t and t[-1] > m:
        raise PartitionError(f"part {t[-1]} exceeds m={m}")
    padded = (0,) * (q - len(t)) + t
    # Greatest square: largest p with i_{q-p+1} >= p (1-based from the top).
    p = 0
    for s in range(1, q + 1):
        if padded[q - s] >= s:
            p = s
        else:
            break
    if p == 0:
        return ((), 0) if not t else (None, None)
    if padded[q - p] < p + r:
        return None, None
    head = padded[: q - p]
    tail = tuple(x - r for x in padded[q - p :])
    # head's last part is at most p, as p is the greatest square, and
    # tail's first is at least p, by the guard above: I' is increasing.
    return trim(head + (p,) * r + tail), p * r


class ComplexTerm(NamedTuple):
    """One summand of the resolution: the index ``I``, its ``I'`` and ``n(I)``."""

    I: Partition
    I_prime: Partition
    ampleness: int

    @property
    def homological_index(self) -> int:
        return self.ampleness - sum(self.I)


def complex_terms(m: int, n: int, r: int) -> list[ComplexTerm]:
    """Every term of the resolution, by homological index ascending.

    Enumerates partitions ``I`` with parts at most ``m`` and length at most
    ``q = n - r`` whose Schur index survives, once; each term's homological
    index ``n(I) - |I|`` lies in ``[qr - mq, 0]``.  The sort is stable, so
    the terms of one index keep lex order on ``I`` padded to length ``q``.
    """
    if not (m >= n > r >= 0):
        raise PartitionError(f"need m >= n > r >= 0, got {(m, n, r)}")
    terms = []
    for I in combinations_with_replacement(range(m + 1), n - r):
        i_prime, n_of_i = lemma510(I, m, n, r)
        if i_prime is not None:
            terms.append(ComplexTerm(trim(I), i_prime, n_of_i))
    return sorted(terms, key=lambda t: t.homological_index)


def schur_dim(I: Sequence[int], rank: int) -> int:
    """Dimension of the Schur module of index ``I`` for the given rank.

    Counts semistandard Young tableaux of the decreasing rewrite of ``I``
    with entries in ``1..rank`` (hook content formula); zero exactly when
    the length of ``I`` exceeds the rank.
    """
    if rank < 1:
        raise PartitionError("rank must be positive")
    lam = tuple(sorted(trim(I), reverse=True))
    if not lam:
        return 1
    if len(lam) > rank:
        return 0
    lam_dual = [sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1)]
    num = 1
    den = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            num *= rank + j - i
            den *= row - j + lam_dual[j - 1] - i + 1
    assert num % den == 0
    return num // den

