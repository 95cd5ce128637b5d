"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping monomial exponent tuples to nonzero
``Fraction`` coefficients, tagged with an ordered variable set.  The
representation is canonical: two polynomials are equal exactly when their
variable sets and term maps are equal.  All operations are pure; values are
immutable after construction and safe to share between threads.

``Fraction`` appears only in ``Polynomial.terms``.  The determinant (a
division-free memoized minor expansion), exact division and the gcd first
clear denominators once and then run on integer term dicts; by Gauss's
lemma an exact division over Q is exact over Z once the divisor is
primitive.  ``_det_int`` (the determinant on integer dicts), ``_minor``
(its expansion, for a matrix already on integer dicts) and ``_from_terms``
(a ``Polynomial`` from a canonical term dict, unchecked) let callers stay
on integer dicts across several steps.

Monomial order is graded lexicographic (higher total degree first, ties
broken by the exponent tuple with the leftmost variable most significant).
This order fixes the row/column orderings of the resultant matrices built on
top of this module and the normalization of gcds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, sub
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")


class PolyError(ValueError):
    """Raised on malformed polynomial inputs (varset mismatch, bad division)."""


class VarSet:
    """An ordered collection of distinct variable names.

    The order is significant: it fixes the positions of monomial exponent
    tuples and the graded-lex monomial order.  Equality and hash are those
    of ``names``.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VarSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("VarSet is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VarSet:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash((self.names,))

    def __repr__(self) -> str:
        return f"VarSet(names={self.names!r})"

    def __reduce__(self):
        return (VarSet, (self.names,))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None


def glex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing the graded-lex order (ascending)."""
    return (sum(exps), exps)


def monomials_of_degree(nvars: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree ``d`` in ``nvars`` variables.

    Returned in graded-lex descending order (so ``x**d`` first); the count is
    ``binomial(d + nvars - 1, nvars - 1)``.
    """
    if nvars < 1:
        raise PolyError("nvars must be >= 1")
    if d < 0:
        raise PolyError("degree must be >= 0")
    out = []
    # Choose positions of the d unit increments among the variables.
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(key=glex_key, reverse=True)
    return out


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("varset", "terms", "_hash")

    def __init__(self, varset: VarSet, terms: Mapping[Exponent, Fraction | int]):
        canon: dict[Exponent, Fraction] = {}
        nv = len(varset)
        for exps, coeff in terms.items():
            if len(exps) != nv:
                raise PolyError(
                    f"exponent tuple {exps!r} does not match {nv} variables"
                )
            if min(exps, default=0) < 0:
                raise PolyError(f"negative exponent in {exps!r}")
            c = Fraction(coeff)
            if c != 0:
                canon[tuple(exps)] = c
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # Pickle rebuilds through __init__: the slots cannot be assigned.
        return (Polynomial, (self.varset, self.terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, varset: VarSet) -> "Polynomial":
        return cls(varset, {})

    @classmethod
    def constant(cls, varset: VarSet, value: Fraction | int) -> "Polynomial":
        return cls(varset, {(0,) * len(varset): Fraction(value)})

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> "Polynomial":
        e = [0] * len(varset)
        e[varset.index(name)] = 1
        return cls(varset, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(
        cls, varset: VarSet, exps: Exponent, coeff: Fraction | int = 1
    ) -> "Polynomial":
        return cls(varset, {tuple(exps): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | float:
        """Total degree; ``NEG_INFINITY`` for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def degree_in(self, names: Iterable[str]) -> int | float:
        """Total degree with respect to a subset of the variables."""
        idx = [self.varset.index(v) for v in names]
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e[i] for i in idx) for e in self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_varset(self, other: "Polynomial") -> None:
        if self.varset != other.varset:
            raise PolyError("operands do not share a variable set")

    def __add__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.varset, other)
        self._check_varset(other)
        return Polynomial(self.varset, _dict_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.varset, _dict_scale(self.terms, -1))

    def __sub__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other: "int | Fraction") -> "Polynomial":
        return -self + other

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(self.varset, _dict_scale(self.terms, Fraction(other)))
        self._check_varset(other)
        return Polynomial(self.varset, _dict_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolyError("negative powers are not supported")
        if k == 0:
            return Polynomial.constant(self.varset, 1)
        return Polynomial(self.varset, _dict_pow(self.terms, k))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.varset, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.varset, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=glex_key, reverse=True):
            c = self.terms[e]
            factors = [
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.varset.names, e)
                if p
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, point: Mapping[str, Fraction | int]
    ) -> "Fraction | Polynomial":
        """Substitute exact values for variables.

        A full assignment (every variable of the varset bound) returns a
        ``Fraction``; a partial assignment returns a ``Polynomial`` over the
        same varset with the bound variables eliminated.
        """
        values: dict[int, Fraction | int] = {}
        for name, v in point.items():
            values[self.varset.index(name)] = v if type(v) is int else Fraction(v)
        if len(values) == len(self.varset):
            # At an integer point the sum runs in int arithmetic, with the
            # coefficients' denominators cleared once.
            if all(type(v) is int for v in values.values()):
                (terms,), den = _clear_denominators(self.terms)
            else:
                terms, den = self.terms, 1
            powers: dict[tuple[int, int], Fraction | int] = {}
            total = 0
            for e, c in terms.items():
                for i, k in enumerate(e):
                    if k:
                        p = powers.get((i, k))
                        if p is None:
                            p = powers[(i, k)] = values[i] ** k
                        c *= p
                total += c
            return Fraction(total, den)
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            for i, val in values.items():
                if e[i]:
                    c = c * val ** e[i]
            e2 = tuple(0 if i in values else x for i, x in enumerate(e))
            s = out.get(e2, 0) + c
            if s:
                out[e2] = s
            elif e2 in out:
                del out[e2]
        return Polynomial(self.varset, out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form: terms sorted graded-lex descending, exact coefficients."""
        terms = [
            {"c": str(self.terms[e]), "e": list(e)}
            for e in sorted(self.terms, key=glex_key, reverse=True)
        ]
        return {"vars": list(self.varset.names), "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        """Inverse of ``to_json``: exponents must be integers, each ``c`` a
        string or an integer, and no exponent may appear twice."""
        varset = VarSet(tuple(data["vars"]))
        terms: dict[Exponent, Fraction] = {}
        for t in data["terms"]:
            e, c = t["e"], t["c"]
            if type(e) not in (list, tuple) or any(type(x) is not int for x in e):
                raise PolyError(f"exponent {e!r} is not a list of integers")
            c = rational_from_json(c)
            if tuple(e) in terms:
                raise PolyError(f"exponent {e!r} appears twice")
            terms[tuple(e)] = c
        return cls(varset, terms)


def rational_from_json(c) -> Fraction:
    """An exact rational from JSON: a string such as ``"-3/4"`` or an integer.

    Floats and booleans are refused rather than rounded, as is a zero
    denominator.
    """
    if type(c) not in (int, str):
        raise PolyError(f"coefficient {c!r} is not a string or an integer")
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError):
        raise PolyError(f"coefficient {c!r} is not a rational number") from None


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def try_exact_div(p: Polynomial, d: Polynomial) -> Polynomial | None:
    """Return ``p / d`` when the division is exact, else ``None``.

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
    q = _dict_try_div(P, {e: c // content for e, c in D.items()})
    if q is None:
        return None
    scale = Fraction(d_den, p_den * content)
    return Polynomial(p.varset, q if scale == 1 else _dict_scale(q, scale))


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    q = try_exact_div(p, d)
    if q is None:
        raise PolyError("division is not exact")
    return q


# ---------------------------------------------------------------------------
# Division-free determinant (memoized minor expansion)
# ---------------------------------------------------------------------------


def det_fraction_free(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by memoized minor expansion.

    Each row is scaled by the lcm of its denominators.  The integer
    determinant is then expanded along the rows, top to bottom, with every
    minor on the remaining rows computed once and cached by its column set
    (Gentleman & Johnson, ACM TOMS 2(3), 1976): only ring operations, no
    division, and zero entries and zero minors are skipped.  The result is
    divided by the product of the row lcms once at the end; it is identical
    to cofactor expansion.
    """
    det, den = _det_int(matrix)
    return _from_terms(matrix[0][0].varset, det, den)


def _det_int(matrix: Sequence[Sequence[Polynomial]]) -> tuple[IntDict, int]:
    """The integer core of ``det_fraction_free``: the determinant of the
    row-scaled matrix as an integer term dict, and the product of the row
    scales, which the determinant of ``matrix`` is that dict divided by."""
    n = len(matrix)
    if n == 0:
        raise PolyError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise PolyError("matrix is not square")
    rows = [_clear_denominators(*[entry.terms for entry in row]) for row in matrix]
    one = {(0,) * len(matrix[0][0].varset): 1}
    det = _minor([int_row for int_row, _ in rows], {0: one}, (1 << n) - 1)
    return det, math.prod(row_den for _, row_den in rows)


def _minor(m: Sequence[Sequence[IntDict]], minors: dict[int, IntDict], cols: int) -> IntDict:
    """The minor of the square integer matrix ``m`` on its last
    popcount(cols) rows and the columns set in ``cols``, expanded along its
    first row.  ``minors`` memoizes the smaller minors and maps 0 to the
    constant 1; as an argument, not a closure cell, it is freed by reference
    counting when the caller drops it."""
    row = m[len(m) - cols.bit_count()]
    acc: IntDict = {}
    sign = 1
    rest = cols
    while rest:
        bit = rest & -rest
        rest ^= bit
        entry = row[bit.bit_length() - 1]
        if entry:
            sub = minors.get(cols ^ bit)
            if sub is None:
                sub = _minor(m, minors, cols ^ bit)
            if sub:
                _dict_addmul(acc, entry, sub, sign)
        sign = -sign
    out = minors[cols] = {e: c for e, c in acc.items() if c}
    return out


def _from_terms(varset: VarSet, terms: Mapping, den: int = 1) -> Polynomial:
    """The polynomial ``terms / den`` from a canonical term dict (exponent
    tuples of the varset's length, int or Fraction coefficients, none
    zero), built without ``Polynomial``'s per-term checks."""
    p = Polynomial(varset, {})
    if den == 1:  # Fraction(c) is much cheaper than Fraction(c, 1)
        canon = {e: Fraction(c) for e, c in terms.items()}
    else:
        canon = {e: Fraction(c, den) for e, c in terms.items()}
    object.__setattr__(p, "terms", canon)
    return p


# ---------------------------------------------------------------------------
# Multivariate gcd (primitive-part subresultant PRS)
# ---------------------------------------------------------------------------


def multivariate_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd of two polynomials over a common varset.

    The result is normalized to integer content 1 with a positive coefficient
    on the graded-lex leading monomial.  Algorithm: recursive primitive-part
    subresultant PRS over the selected main variable, with content
    extraction; candidate remainders are verified by exact trial division, so
    every early exit is exact.  The inputs are put in graded-lex descending
    order on entry: the cost of the PRS depends, by orders of magnitude, on
    the order of the terms, and now only on their set.
    """
    p._check_varset(q)
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd(0, 0) is undefined")
    (P, Q), _ = _clear_denominators(p.terms, q.terms)
    P, Q = ({e: t[e] for e in sorted(t, key=glex_key, reverse=True)} for t in (P, Q))
    return Polynomial(p.varset, _normalize_int_dict(_gcd_dict(P, Q)))


def normalize_gcd_style(p: Polynomial) -> Polynomial:
    """Apply the gcd normalization (integer content 1, positive leading
    coefficient under graded-lex) to an arbitrary nonzero polynomial."""
    if p.is_zero():
        raise PolyError("cannot normalize the zero polynomial")
    (P,), _ = _clear_denominators(p.terms)
    return Polynomial(p.varset, _normalize_int_dict(P))


# -- dict-level helpers ------------------------------------------------------
# The ring helpers (_dict_add to _dict_pow) only add and multiply, so
# Polynomial runs them on its Fraction terms too; everything that divides
# takes integer dicts.

IntDict = dict  # Exponent -> int


def _dict_add(a: IntDict, b: IntDict) -> IntDict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _dict_mul(a: IntDict, b: IntDict) -> IntDict:
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out: IntDict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _dict_addmul(acc: IntDict, a: IntDict, b: IntDict, sign: int) -> None:
    """Add ``sign * a * b`` to ``acc`` in place, leaving zero terms in it."""
    get = acc.get
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


def _dict_scale(a: IntDict, c) -> IntDict:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _dict_pow(a: IntDict, k: int) -> IntDict:
    """``a**k`` for ``k >= 1`` by binary powering."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else _dict_mul(out, a)
        k >>= 1
        if k:
            a = _dict_mul(a, a)
    return out


def _dict_try_div(p: IntDict, d: IntDict) -> IntDict | None:
    """Exact division of integer term dicts under graded-lex; None if the
    quotient is not an integer polynomial.

    A monomial divisor shifts the exponents.  Otherwise the dividend is
    walked once in graded-lex order while a heap holds the pending products
    of the quotient terms found so far with the divisor's other terms
    (Monagan & Pearce, CASC 2007).  Heap keys are exponents negated with
    the negated degree in front, so that tuple order is graded-lex
    descending and a monomial product is an elementwise sum.
    """
    if not d:
        raise PolyError("division by zero")
    if not p:
        return {}
    if len(d) == 1:
        ((de, dc),) = d.items()
        q: IntDict = {}
        for e, c in p.items():
            te = tuple(map(sub, e, de))
            tc, rem = divmod(c, dc)
            if rem or min(te, default=0) < 0:
                return None
            q[te] = tc
        return q
    # Imported here so that importing detres (and starting the CLI) loads
    # no module it did not load before.
    from heapq import heappop, heappush

    def key(e: Exponent) -> Exponent:
        return (-sum(e),) + tuple(-x for x in e)

    (lead, dc), *rest = sorted((key(e), c) for e, c in d.items())
    dividend = sorted((key(e), c) for e, c in p.items())
    q_keys: list[Exponent] = []
    q_coeffs: list[int] = []
    heap: list[tuple[Exponent, int, int]] = []
    k = 0
    while k < len(dividend) or heap:
        if k < len(dividend) and (not heap or dividend[k][0] <= heap[0][0]):
            m, c = dividend[k]
            k += 1
        else:
            m, c = heap[0][0], 0
        while heap and heap[0][0] == m:
            _, i, j = heappop(heap)
            c -= q_coeffs[i] * rest[j][1]
            if j + 1 < len(rest):
                heappush(heap, (tuple(map(add, q_keys[i], rest[j + 1][0])), i, j + 1))
        if not c:
            continue
        te = tuple(map(sub, m, lead))
        tc, rem = divmod(c, dc)
        if rem or max(te) > 0:
            return None
        q_keys.append(te)
        q_coeffs.append(tc)
        heappush(heap, (tuple(map(add, te, rest[0][0])), len(q_keys) - 1, 0))
    return {tuple(-x for x in t[1:]): c for t, c in zip(q_keys, q_coeffs)}


def _clear_denominators(*terms: Mapping[Exponent, Fraction]) -> tuple[list[IntDict], int]:
    """Scale term maps by the lcm of all their denominators; return the
    integer dicts and that lcm (1 when there are no terms)."""
    den = math.lcm(*[c.denominator for t in terms for c in t.values()])
    return [
        {e: c.numerator * (den // c.denominator) for e, c in t.items()}
        for t in terms
    ], den


def _int_content(p: IntDict) -> int:
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g


def _normalize_int_dict(p: IntDict) -> IntDict:
    """Integer content 1, positive graded-lex leading coefficient."""
    if not p:
        return {}
    g = _int_content(p)
    if p[max(p, key=glex_key)] < 0:
        g = -g
    return {e: c // g for e, c in p.items()}


def _deg_in(p: IntDict, v: int) -> int:
    return max((e[v] for e in p), default=-1)


def _monomial_content(p: IntDict) -> Exponent:
    it = iter(p)
    m = list(next(it))
    for e in it:
        for i, x in enumerate(e):
            if x < m[i]:
                m[i] = x
    return tuple(m)


def _shift_exps(p: IntDict, delta: Exponent, sign: int = 1) -> IntDict:
    return {
        tuple(a + sign * b for a, b in zip(e, delta)): c for e, c in p.items()
    }


def _coeffs_in(p: IntDict, v: int) -> dict[int, IntDict]:
    """Coefficients of powers of variable ``v`` (with that slot zeroed)."""
    out: dict[int, IntDict] = {}
    for e, c in p.items():
        k = e[v]
        e0 = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(k, {})[e0] = c
    return out


def _is_const(p: IntDict) -> bool:
    return len(p) <= 1 and all(not any(e) for e in p)


def _gcd_dict(P: IntDict, Q: IntDict) -> IntDict:
    """Primitive-PRS gcd on integer term dicts (result sign-unnormalized)."""
    if not P:
        return dict(Q)
    if not Q:
        return dict(P)
    mP = _monomial_content(P)
    mQ = _monomial_content(Q)
    common = tuple(min(a, b) for a, b in zip(mP, mQ))
    P = _shift_exps(P, mP, -1)
    Q = _shift_exps(Q, mQ, -1)
    icP = _int_content(P)
    icQ = _int_content(Q)
    ic = math.gcd(icP, icQ)
    if icP != 1:
        P = {e: c // icP for e, c in P.items()}
    if icQ != 1:
        Q = {e: c // icQ for e, c in Q.items()}
    g = _gcd_primitive(P, Q)
    g = _dict_scale(g, ic) if ic != 1 else g
    return _shift_exps(g, common, +1)


def _gcd_primitive(P: IntDict, Q: IntDict) -> IntDict:
    """Gcd of integer-primitive dicts with trivial monomial content."""
    if P == Q:
        return dict(P)
    if _is_const(P) or _is_const(Q):
        return {(0,) * _nvars(P, Q): 1}
    nv = _nvars(P, Q)
    shared = [
        v for v in range(nv) if _deg_in(P, v) > 0 and _deg_in(Q, v) > 0
    ]
    if not shared:
        return {(0,) * nv: 1}
    v = min(shared, key=lambda x: min(_deg_in(P, x), _deg_in(Q, x)))
    contP, ppP = _content_pp(P, v)
    contQ, ppQ = _content_pp(Q, v)
    contg = _gcd_dict(contP, contQ)
    g = _prs_gcd(ppP, ppQ, v)
    if _is_const(contg) and next(iter(contg.values())) in (1, -1):
        return g
    return _dict_mul(contg, g)


def _nvars(P: IntDict, Q: IntDict) -> int:
    for e in P or Q:
        return len(e)
    raise PolyError("cannot infer variable count")


def _content_pp(P: IntDict, v: int) -> tuple[IntDict, IntDict]:
    coeffs = list(_coeffs_in(P, v).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if _is_const(cont) and abs(next(iter(cont.values()))) == 1:
            break
        cont = _gcd_dict(cont, c)
    if _is_const(cont) and abs(next(iter(cont.values()))) == 1:
        nv = _nvars(P, P)
        return {(0,) * nv: 1}, P
    pp = _dict_try_div(P, cont)
    if pp is None:  # pragma: no cover - content divides by construction
        raise PolyError("internal error: content does not divide")
    return cont, pp


def _lc_in(p: IntDict, v: int) -> IntDict:
    d = _deg_in(p, v)
    return {
        e[:v] + (0,) + e[v + 1 :]: c for e, c in p.items() if e[v] == d
    }


def _prem(A: IntDict, B: IntDict, v: int) -> IntDict:
    """Pseudo-remainder prem(A, B) with respect to variable ``v``."""
    dB = _deg_in(B, v)
    lB = _lc_in(B, v)
    R = dict(A)
    e = _deg_in(A, v) - dB + 1
    steps = 0
    while R and _deg_in(R, v) >= dB:
        dR = _deg_in(R, v)
        lR = {
            ex[:v] + (dR - dB,) + ex[v + 1 :]: c
            for ex, c in _lc_in(R, v).items()
        }
        R = _dict_add(_dict_mul(lB, R), _dict_scale(_dict_mul(lR, B), -1))
        steps += 1
    if steps < e and R:
        R = _dict_mul(R, _dict_pow(lB, e - steps))
    return R


def _prs_gcd(A: IntDict, B: IntDict, v: int) -> IntDict:
    """Subresultant PRS gcd of primitive (w.r.t. ``v``) dicts.

    Each remainder is tried as a gcd candidate by exact trial division into
    the inputs; a successful candidate is the gcd, so the early exit never
    sacrifices exactness.
    """
    if _deg_in(A, v) < _deg_in(B, v):
        A, B = B, A
    P0, Q0 = A, B
    nv = _nvars(A, B)
    one = {(0,) * nv: 1}
    g: IntDict = one
    h: IntDict = one
    while True:
        dA = _deg_in(A, v)
        dB = _deg_in(B, v)
        if dB == 0:
            return dict(one)
        delta = dA - dB
        R = _prem(A, B, v)
        if not R:
            _, pp = _content_pp(B, v)
            return pp
        if _deg_in(R, v) == 0:
            return dict(one)
        cand = {e: c // _int_content(R) for e, c in R.items()}
        if _dict_try_div(P0, cand) is not None and _dict_try_div(Q0, cand) is not None:
            return cand
        divisor = _dict_mul(g, _dict_pow(h, delta)) if delta else g
        Rn = _dict_try_div(R, divisor)
        if Rn is None:  # pragma: no cover - subresultant theory guarantees it
            raise PolyError("internal error: inexact PRS division")
        A, B = B, Rn
        g = _lc_in(A, v)
        if delta > 0:
            hn = _dict_try_div(_dict_pow(g, delta), _dict_pow(h, delta - 1)) if delta > 1 else _dict_pow(g, 1)
            if hn is None:  # pragma: no cover
                raise PolyError("internal error: inexact h update")
            h = hn
