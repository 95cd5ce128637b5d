"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping monomial exponent tuples to nonzero
``Fraction`` coefficients, tagged with an ordered variable set.  The
representation is canonical: two polynomials are equal exactly when their
variable sets and term maps are equal.  All operations are pure; values are
immutable after construction and safe to share between threads.

``Fraction`` appears only in ``Polynomial.terms``.  The determinant (a
division-free memoized minor expansion), the gcd and evaluation clear all
denominators by one lcm (``_clear_denominators``, which
``resultant_engine`` also applies to a concrete morphism); the first two run
on the integer kernel (``_det_packed``, ``_dict_mul``, ``_dict_try_div``,
``_normalize_int_dict``), whose term dicts are keyed by packed exponents: a
monomial product is one int add.  No public function divides polynomials.
With P variables, the top field of a packed exponent holds the total degree
and the P fields below it the exponents of variables 0 (most significant)
to P-1.  A field is w value bits under a guard bit that stays 0;
``_field_bits`` takes w from a bound on every degree a computation
reaches, rounded up to whole bytes, and ``_unpack`` raises on a set guard
bit.  Int order is graded-lex order, the leading term is ``max(p)``, and
``lead`` divides ``m`` exactly when ``((m | G) - lead) & G == G`` for the
guard bits G: a field that would borrow clears its own guard bit instead.
Callers on exponent tuples pack at the boundary and unpack once.

Monomial order is graded lexicographic (higher total degree first, ties
broken by the exponent tuple with the leftmost variable most significant).
This order fixes the row/column orderings of the resultant matrices built on
top of this module and the normalization of gcds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from struct import Struct
from itertools import combinations_with_replacement
from operator import mul, or_
from types import MappingProxyType
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


@cache
def monomials_of_degree(nvars: int, d: int) -> tuple[Exponent, ...]:
    """All exponent tuples of total degree ``d`` in ``nvars`` variables.

    The count is ``binomial(d + nvars - 1, nvars - 1)``.  The variables of
    the d unit increments come in lexicographic order, so the tuples come
    lex-descending, which at one degree is graded-lex descending (``x**d``
    first).  Each basis is built once per process and shared.
    """
    if nvars < 1:
        raise PolyError("nvars must be >= 1")
    if d < 0:
        raise PolyError("degree must be >= 0")
    _field_bits(d)  # raises for d >= 2^63, past any basis and any packed field
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[Exponent, Fraction | int]):
        canon: dict[Exponent, Fraction] = {}
        nv = len(varset)
        for exps, coeff in terms.items():
            if len(exps) != nv:
                raise PolyError(
                    f"exponent tuple {exps!r} does not match {nv} variables"
                )
            for x in exps:
                if type(x) is not int:  # as in from_json: no float, no bool
                    raise PolyError(f"exponent {exps!r} is not a tuple of integers")
                if x < 0:
                    raise PolyError(f"negative exponent in {exps!r}")
            c = Fraction(coeff)
            if c != 0:
                canon[tuple(exps)] = c
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "terms", canon)

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
        return max(map(sum, self.terms), default=NEG_INFINITY)

    def degree_in(self, names: Iterable[str]) -> int | float:
        """Total degree with respect to a subset of the variables."""
        idx = [self.varset.index(v) for v in names]
        return max([sum(e[i] for i in idx) for e in self.terms], default=NEG_INFINITY)

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
        return Polynomial(self.varset, _mul_tuples(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolyError("negative powers are not supported")
        nv, s = len(self.varset), _field_bits(k * max(map(sum, self.terms), default=0))
        packed, out = _pack(self.terms, nv, s), {0: 1}  # {0: 1} is the packed 1
        for bit in bin(k)[2:]:  # square and multiply, from k's top bit down
            out = _dict_mul(out, out)
            if bit == "1":
                out = _dict_mul(out, packed)
        return Polynomial(self.varset, _unpack(out, nv, s))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.varset, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        if not any(map(any, self.terms)):  # a constant, 0 included, equals its value
            return hash(sum(self.terms.values()))
        return hash((self.varset, frozenset(self.terms.items())))

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
        same varset with the bound variables eliminated.  The coefficients'
        denominators are cleared by one lcm, so at an integer point the
        terms are summed in int arithmetic; each power of a value is taken
        once, and the sums are divided by the lcm at the end.
        """
        values = {self.varset.index(name): v if type(v) is int else Fraction(v) for name, v in point.items()}
        keep = [int(i not in values) for i in range(len(self.varset))]
        (terms,), den = _clear_denominators(self.terms)
        powers: dict[tuple[int, int], Fraction | int] = {}
        out: dict[Exponent, Fraction | int] = {}
        for e, c in terms.items():
            for i, v in values.items():
                if e[i]:
                    p = powers.get((i, e[i]))
                    if p is None:
                        p = powers[i, e[i]] = v ** e[i]
                    c *= p
            rest = tuple(map(mul, e, keep))
            if total := out.get(rest, 0) + c:
                out[rest] = total
            else:  # the terms cancel
                out.pop(rest, None)
        if len(values) == len(self.varset):
            return Fraction(sum(out.values()), den)
        return _from_terms(self.varset, out, den)

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
        """Inverse of ``to_json``: an object with a list ``vars`` of strings
        and a list ``terms`` of objects, each with an exponent ``e`` (a list
        of integers) and a coefficient ``c`` (a string or an integer); no
        exponent may appear twice."""
        if type(data) is not dict or type(data.get("terms")) is not list:
            raise PolyError("a polynomial is an object with a list 'terms'")
        if type(data.get("vars")) is not list or any(type(v) is not str for v in data["vars"]):
            raise PolyError(f"vars {data.get('vars')!r} is not a list of strings")
        varset = VarSet(data["vars"])
        terms: dict[Exponent, Fraction] = {}
        for t in data["terms"]:
            if type(t) is not dict or "e" not in t or "c" not in t:
                raise PolyError(f"term {t!r} is not an object with 'e' and 'c'")
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

    Floats and booleans are refused rather than rounded, as are a zero
    denominator, "_" and inner whitespace: ``Fraction`` reads "1_000" from
    Python 3.11 on and "2 / 3" from 3.12 on, and other inner spaces never.
    """
    if type(c) not in (int, str):
        raise PolyError(f"coefficient {c!r} is not a string or an integer")
    try:
        if type(c) is int or ("_" not in c and len(c.split()) == 1):
            return Fraction(c)
    except (ValueError, ZeroDivisionError):
        pass
    raise PolyError(f"coefficient {c!r} is not a rational number")


# ---------------------------------------------------------------------------
# Division-free determinant (memoized minor expansion)
# ---------------------------------------------------------------------------


def det_fraction_free(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by memoized minor expansion.

    The matrix is scaled by the lcm L of all its denominators, and the
    integer determinant is built from its minors one row at a time, every
    minor computed once per column set (Gentleman & Johnson, ACM TOMS 2(3),
    1976; see ``_det_packed``): only ring operations, no division, and zero
    entries and zero minors are skipped.  The result is divided by L^n once
    at the end; it is identical to cofactor expansion, and a 1x1 matrix
    gives its entry.  The expansion runs on packed exponents, with fields
    for degrees up to n times the largest entry degree.
    """
    n = len(matrix)
    if n == 0:
        raise PolyError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise PolyError("matrix is not square")
    ints, den = _clear_denominators(*[entry.terms for row in matrix for entry in row])
    nv = len(matrix[0][0].varset)
    s = _field_bits(n * max([sum(e) for t in ints for e in t], default=0))
    det = _det_packed([[_pack(t, nv, s) for t in ints[r : r + n]] for r in range(0, n * n, n)])
    return _from_terms(matrix[0][0].varset, _unpack(det, nv, s), den**n)


def _det_packed(m: Sequence[Sequence[IntDict]]) -> IntDict:
    """The determinant of the square matrix ``m`` of packed integer dicts.

    The rows are taken one at a time from the last.  ``level`` maps each
    column set to the nonzero minor on it and the rows taken; one more row
    gives the sum over columns c of +-entry(c) times the minor on the other
    columns (Laplace's expansion along that row).  Only two levels of
    nonzero minors are kept.  Each minor is kept as ``_dict_addmul`` built
    it: it is copied only when one of its coefficients cancelled to 0, and
    dropped when every one did."""
    level = {1 << c: entry for c, entry in enumerate(m[-1]) if entry}
    for row in m[-2::-1]:
        entries = [(1 << c, entry) for c, entry in enumerate(row) if entry]
        grown: dict[int, IntDict] = {}
        for cols, sub in level.items():
            for bit, entry in entries:
                if not cols & bit:
                    acc = grown.get(cols | bit)
                    if acc is None:
                        acc = grown[cols | bit] = {}
                    odd = (cols & (bit - 1)).bit_count() & 1
                    _dict_addmul(acc, entry, sub, -1 if odd else 1)
        level = {}
        for cols, acc in grown.items():
            if 0 in acc.values():
                acc = {e: c for e, c in acc.items() if c}
            if acc:
                level[cols] = acc
    return level.get((1 << len(m)) - 1, {})


def _from_terms(varset: VarSet, terms: Mapping, den: int = 1) -> Polynomial:
    """The polynomial ``terms / den`` from a canonical term dict (exponent
    tuples of the varset's length, int or Fraction coefficients, none
    zero), built without ``Polynomial``'s per-term checks.  A result leaves
    the kernel with one ``Fraction`` per distinct coefficient, shared by
    every term with that coefficient: a large result has few distinct
    coefficients (S(2,2)'s Chow form 24 for 20,791 terms), and a
    ``Fraction`` is immutable."""
    p = Polynomial(varset, {})
    # Fraction(c) is much cheaper than Fraction(c, 1)
    shared = {c: Fraction(c) if den == 1 else Fraction(c, den) for c in set(terms.values())}
    object.__setattr__(p, "terms", {e: shared[c] for e, c in terms.items()})
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
    the order of the terms.
    """
    p._check_varset(q)
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd(0, 0) is undefined")
    (P, Q), _ = _clear_denominators(p.terms, q.terms)
    P, Q = ({e: t[e] for e in sorted(t, key=glex_key, reverse=True)} for t in (P, Q))
    return Polynomial(p.varset, _normalize_int_dict(_gcd_dict(P, Q), glex_key))


def normalize_gcd_style(p: Polynomial) -> Polynomial:
    """Apply the gcd normalization (integer content 1, positive leading
    coefficient under graded-lex) to an arbitrary nonzero polynomial."""
    if p.is_zero():
        raise PolyError("cannot normalize the zero polynomial")
    (P,), _ = _clear_denominators(p.terms)
    return Polynomial(p.varset, _normalize_int_dict(P, glex_key))


# -- dict-level helpers ------------------------------------------------------
# _dict_add and _dict_scale take any keys and coefficients; the kernel takes
# packed exponents, and everything that divides takes integer dicts.

IntDict = dict  # packed exponent (or Exponent, where said) -> int


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
    if len(b) < len(a):
        a, b = b, a
    acc: IntDict = {}
    _dict_addmul(acc, a, b, 1)
    return {e: c for e, c in acc.items() if c}


def _dict_addmul(acc: IntDict, a: IntDict, b: IntDict, sign: int) -> None:
    """Add ``sign * a * b`` to ``acc`` in place, leaving zero terms in it."""
    get = acc.get
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _dict_scale(a: IntDict, c) -> IntDict:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _dict_try_div(p: IntDict, d: IntDict, s: int) -> IntDict | None:
    """Exact division of packed integer term dicts, in fields of ``s`` bits
    that hold the degrees of both; None if the quotient is not an integer
    polynomial.  The dividend is walked once in graded-lex (int) order while
    a heap holds the pending products of the quotient terms found so far
    with the divisor's other terms (Monagan & Pearce, CASC 2007), keyed by
    their negated exponents: no product exceeds the dividend's degree."""
    if not d:
        raise PolyError("division by zero")
    if not p:
        return {}
    # Imported here so that importing detres (and starting the CLI) loads
    # no module it did not load before.
    from heapq import heappop, heappush

    guards = _guards(max(max(p), max(d)).bit_length() // s + 1, s)
    (lead, dc), *rest = sorted(d.items(), reverse=True)
    dividend = sorted(p.items(), reverse=True)
    q_exps: list[int] = []
    q_coeffs: list[int] = []
    heap: list[tuple[int, int, int]] = []
    k = 0
    while k < len(dividend) or heap:
        if k < len(dividend) and (not heap or dividend[k][0] >= -heap[0][0]):
            m, c = dividend[k]
            k += 1
        else:
            m, c = -heap[0][0], 0
        while heap and heap[0][0] == -m:
            _, i, j = heappop(heap)
            c -= q_coeffs[i] * rest[j][1]
            if j + 1 < len(rest):
                heappush(heap, (-q_exps[i] - rest[j + 1][0], i, j + 1))
        if not c:
            continue
        tc, rem = divmod(c, dc)
        if rem or ((m | guards) - lead) & guards != guards:
            return None
        q_exps.append(m - lead)
        q_coeffs.append(tc)
        if rest:
            heappush(heap, (lead - m - rest[0][0], len(q_exps) - 1, 0))
    return dict(zip(q_exps, q_coeffs))


def _field_bits(bound: int) -> int:
    """The field size s = w + 1 (8, 16, 32 or 64) for degrees up to ``bound``;
    a bound of 2^63 or more fits no field, and raises."""
    if bound >> 63:
        raise PolyError(f"degree {bound} is too large: exponents and degrees must stay below 2^63")
    return 8 << (bound.bit_length() // 8).bit_length()


def _guards(fields: int, s: int) -> int:
    """The guard bits of the lowest ``fields`` fields of ``s`` bits."""
    return ((1 << fields * s) - 1) // ((1 << s) - 1) << (s - 1)


@cache
def _layout(nvars: int, s: int) -> Struct:
    """The fields of a packed exponent, whole bytes: degree, then variables."""
    return Struct(f">{nvars + 1}{'BHIQ'[s.bit_length() - 4]}")


@cache
def _exponent_layout(nvars: int, s: int) -> Struct:
    """``_layout`` with the degree field read as pad bytes, of the same size:
    unpacking a key gives its exponent tuple alone."""
    return Struct(f">{s // 8}x{nvars}{'BHIQ'[s.bit_length() - 4]}")


def _pack(terms: Mapping[Exponent, object], nvars: int, s: int) -> IntDict:
    """Exponent-tuple terms with packed exponents, in fields of ``s`` bits."""
    pack = _layout(nvars, s).pack
    return {int.from_bytes(pack(sum(e), *e), "big"): c for e, c in terms.items()}


@cache
def _packed_index(nvars: int, d: int, s: int) -> Mapping[int, int]:
    """The position of each monomial of ``monomials_of_degree(nvars, d)`` by
    its packed key in fields of ``s`` bits, in basis order; built once per
    process and shared, so it is a read-only view."""
    return MappingProxyType(_pack({e: r for r, e in enumerate(monomials_of_degree(nvars, d))}, nvars, s))


def _unpack(terms: IntDict, nvars: int, s: int) -> dict:
    """Packed terms with exponent tuples again, read past the degree field
    (``_exponent_layout``); a set guard bit, in any field of any key, means a
    degree bound was too small, and raises."""
    if reduce(or_, terms, 0) & _guards(nvars + 1, s):
        raise PolyError("packed exponent field overflow")
    layout = _exponent_layout(nvars, s)
    unpack, size = layout.unpack, layout.size
    return {unpack(key.to_bytes(size, "big")): c for key, c in terms.items()}


def _mul_tuples(a: IntDict, b: IntDict) -> IntDict:
    """``_dict_mul`` on exponent-tuple dicts: packed for it, unpacked once."""
    if not a or not b:
        return {}
    nv, s = len(next(iter(a))), _field_bits(max(map(sum, a)) + max(map(sum, b)))
    return _unpack(_dict_mul(_pack(a, nv, s), _pack(b, nv, s)), nv, s)


def _div_tuples(p: IntDict, d: IntDict) -> IntDict | None:
    """``_dict_try_div`` on nonzero exponent-tuple dicts: packed, unpacked once."""
    nv, s = len(next(iter(p))), _field_bits(max(map(sum, [*p, *d])))
    q = _dict_try_div(_pack(p, nv, s), _pack(d, nv, s), s)
    return None if q is None else _unpack(q, nv, s)


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


def _normalize_int_dict(p: IntDict, key=None) -> IntDict:
    """Integer content 1, positive graded-lex leading coefficient; ``key``
    is ``glex_key`` for exponent tuples, None for packed exponents."""
    if not p:
        return {}
    g = _int_content(p)
    if p[max(p, key=key)] < 0:
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
    return _mul_tuples(contg, g)


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
    pp = _div_tuples(P, cont)
    if pp is None:  # pragma: no cover - content divides by construction
        raise PolyError("internal error: content does not divide")
    return cont, pp


def _prem(A: IntDict, B: IntDict, v: int) -> IntDict:
    """Pseudo-remainder prem(A, B) with respect to variable ``v``.

    It runs packed: no step adds more than deg B to the degree, and there
    are at most e steps.  ``m >> sv & mask`` is the degree of v in m, and
    ``k * unit`` takes k off it and off the total degree."""
    nv, dB = len(next(iter(A))), _deg_in(B, v)
    e = _deg_in(A, v) - dB + 1
    s = _field_bits(max(map(sum, A)) + e * max(map(sum, B)))
    sv, mask = (nv - 1 - v) * s, (1 << s) - 1
    unit = (1 << sv) + (1 << nv * s)
    R, B = _pack(A, nv, s), _pack(B, nv, s)
    lB = {m - dB * unit: c for m, c in B.items() if m >> sv & mask == dB}
    steps = 0
    while R and (dR := max(m >> sv & mask for m in R)) >= dB:
        lR = {m - dB * unit: c for m, c in R.items() if m >> sv & mask == dR}
        R = _dict_add(_dict_mul(lB, R), _dict_scale(_dict_mul(lR, B), -1))
        steps += 1
    if steps < e and R:
        R = _dict_mul(R, reduce(_dict_mul, [lB] * (e - steps)))
    return _unpack(R, nv, s)


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
        if _div_tuples(P0, cand) is not None and _div_tuples(Q0, cand) is not None:
            return cand
        Rn = _div_tuples(R, reduce(_mul_tuples, [h] * delta, g))
        if Rn is None:  # pragma: no cover - subresultant theory guarantees it
            raise PolyError("internal error: inexact PRS division")
        A, B = B, Rn
        g = {e[:v] + (0,) + e[v + 1 :]: c for e, c in A.items() if e[v] == dB}  # lc of A
        if delta > 0:
            hn = _div_tuples(reduce(_mul_tuples, [g] * delta), reduce(_mul_tuples, [h] * (delta - 1), one))
            if hn is None:  # pragma: no cover
                raise PolyError("internal error: inexact h update")
            h = hn
