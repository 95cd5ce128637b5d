"""Command-line front end with JSON I/O and machine-readable exit codes.

Exit codes: 0 success (or nonvanishing for the test subcommands), 10
vanishing, 2 invalid input, 3 existence-check failure, 4 unconfirmed
resultant (its degree is not the predicted one: a fault), 5 a Lascoux spec
(0 < r < n - 1) given to ``resultant``.  JSON outputs carry a top-level
``"schema": "detres/1"`` field and are byte-deterministic for fixed inputs.

``resultant`` and ``chow`` compute the resultant polynomial with
``resultant_gcd``: the determinant of the complex whose first differential
is sigma_d, by Cayley's formula, with ``minors_used`` the number of square
determinants taken.  That complex is the Eagon-Northcott complex of the
morphism for principal specs with r = n - 1 (every Chow form among them),
and of the 1 x mn row of its entries (their Koszul complex) for r = 0; for
the other specs ``resultant`` exits 5 at once, and ``matrix``, ``test`` and
``complex`` still serve them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

from .chern_degree import ExistenceError, ProblemSpec, critical_degree, require_existence

if TYPE_CHECKING:
    from .resultant_engine import ConcreteMorphism, SigmaMatrix
    from .scroll_chow import PlaneStiefel, ScrollSpec

SCHEMA = "detres/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXISTENCE = 3
EXIT_UNCONFIRMED = 4
EXIT_LASCOUX = 5
EXIT_VANISHES = 10


class InputError(Exception):
    """Invalid user input: bad file, bad JSON, bad shape."""


def _load_json(path: str):
    """The JSON in ``path``; a file that is not UTF-8 (``ValueError``, as is
    bad JSON) or nests too deep for the parser is an ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _json_int(value) -> int:
    """A JSON integer; floats, booleans and strings are not coerced."""
    if type(value) is not int:
        raise TypeError(f"{json.dumps(value)} is not an integer")
    return value


def _load_spec(path: str) -> ProblemSpec:
    data = _load_json(path)
    try:
        if type(data) is not dict:
            raise TypeError("a problem spec is an object with fields m, n, r, d and k")
        for field in "mnrdk":
            if field not in data:
                raise ValueError(f"field {field} is missing")
            if field in "dk" and type(data[field]) is not list:
                raise TypeError(f"{field} must be a list of integers, not {json.dumps(data[field])}")
        return ProblemSpec(
            m=_json_int(data["m"]),
            n=_json_int(data["n"]),
            r=_json_int(data["r"]),
            d=tuple(_json_int(x) for x in data["d"]),
            k=tuple(_json_int(x) for x in data["k"]),
        )
    except (TypeError, ValueError, ExistenceError) as exc:
        raise InputError(f"bad problem spec in {path}: {exc}") from exc


def _load_phi(path: str, spec: ProblemSpec) -> ConcreteMorphism:
    from .polyring import PolyError, Polynomial
    from .resultant_engine import concrete_morphism
    # A spec without a resultant exits 3 even when the morphism is bad too.
    require_existence(spec)
    data = _load_json(path)
    try:
        if type(data) is not list or any(type(row) is not list for row in data):
            raise PolyError("a morphism is a list of rows, each a list of entries")
        rows = [[Polynomial.from_json(cell) for cell in row] for row in data]
        return concrete_morphism(spec, rows)
    except PolyError as exc:
        raise InputError(f"bad morphism in {path}: {exc}") from exc


def _load_plane(path: str) -> PlaneStiefel:
    """Rows of entries, each a rational string or a JSON integer."""
    from .polyring import PolyError, rational_from_json
    from .scroll_chow import PlaneStiefel
    data = _load_json(path)
    try:
        if type(data) is not list or any(type(row) is not list for row in data):
            raise PolyError("a plane is a list of rows, each a list of entries")
        return PlaneStiefel(
            rows=tuple(tuple(rational_from_json(v) for v in row) for row in data)
        )
    except PolyError as exc:
        raise InputError(f"bad plane in {path}: {exc}") from exc


def _parse_scroll(text: str) -> ScrollSpec:
    from .scroll_chow import ScrollSpec
    try:
        return ScrollSpec(tuple(int(x) for x in text.split(",")))
    except (ValueError, ExistenceError) as exc:
        raise InputError(f"bad scroll degrees {text!r}: {exc}") from exc


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _sigma_json(sigma: SigmaMatrix) -> dict:
    if sigma.symbolic:
        entries = [[e.to_json() for e in row] for row in sigma.entries]
    else:
        entries = [[str(e) for e in row] for row in sigma.entries]
    return {
        "d": sigma.d,
        "symbolic": sigma.symbolic,
        "row_basis": [list(e) for e in sigma.row_basis],
        "col_basis": [
            {"J": list(J), "I": list(I), "mu": list(mu)}
            for J, I, mu in sigma.col_basis
        ],
        "entries": entries,
        "omitted_columns": sigma.omitted_columns,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_degree(args) -> int:
    from .chern_degree import existence_check, multidegree
    spec = _load_spec(args.spec)
    ok, bad = existence_check(spec)
    if not ok:
        if args.json:
            _emit_json({"schema": SCHEMA, "exists": False, "diagnostics": bad})
        else:
            print("exists: false")
            for b in bad:
                print(f"  {b}")
        return EXIT_EXISTENCE
    md = multidegree(spec)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "exists": True,
                "N": spec.N,
                "multidegree": list(md),
                "total_degree": sum(md),
                "critical_degree": critical_degree(spec),
            }
        )
    else:
        print(f"exists: true")
        print(f"N: {spec.N}")
        print(f"multidegree: {list(md)}")
        print(f"total_degree: {sum(md)}")
        print(f"critical_degree: {critical_degree(spec)}")
    return EXIT_OK


def _cmd_matrix(args) -> int:
    from .resultant_engine import build_sigma, generic_morphism
    spec = _load_spec(args.spec)
    d = args.degree if args.degree is not None else critical_degree(spec)
    if args.phi:
        phi = _load_phi(args.phi, spec)
    else:
        phi = generic_morphism(spec)
    sigma = build_sigma(spec, d, phi)
    if args.json:
        _emit_json({"schema": SCHEMA, **_sigma_json(sigma)})
    else:
        rows, cols = sigma.shape
        print(f"sigma_{d}: {rows} x {cols} ({sigma.omitted_columns} omitted column groups)")
        for row in sigma.entries:
            print("  [" + ", ".join(str(e) for e in row) + "]")
    return EXIT_OK


def _resultant_payload(out) -> dict:
    return {
        "polynomial": out.polynomial.to_json(),
        "block_degrees": list(out.block_degrees),
        "confirmed": out.confirmed,
        "minors_used": out.minors_used,
        "normalization": out.normalization,
    }


def _cmd_resultant(args) -> int:
    from .resultant_engine import LascouxCaseError, resultant_gcd
    spec = _load_spec(args.spec)
    try:
        out = resultant_gcd(spec, d=args.degree)
    except LascouxCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LASCOUX
    if args.json:
        _emit_json({"schema": SCHEMA, **_resultant_payload(out)})
    else:
        print(f"degree per column block: {list(out.block_degrees)}")
        print(f"confirmed: {out.confirmed} (minors used: {out.minors_used})")
        print(out.polynomial)
    return EXIT_OK if out.confirmed else EXIT_UNCONFIRMED


def _cmd_test(args) -> int:
    from .resultant_engine import sigma_rank
    spec = _load_spec(args.spec)
    phi = _load_phi(args.phi, spec)
    result = sigma_rank(spec, phi, args.degree)
    if args.json:
        _emit_json({"schema": SCHEMA, **result._asdict(), "vanishes": result.vanishes})
    else:
        print(f"rank: {result.rank} of {result.rows}")
        print(f"vanishes: {str(result.vanishes).lower()}")
    return EXIT_VANISHES if result.vanishes else EXIT_OK


def _cmd_chow(args) -> int:
    from .resultant_engine import build_sigma
    from .scroll_chow import chow_form, chow_generic_morphism, chow_problem
    scroll = _parse_scroll(args.scroll)
    problem = chow_problem(scroll)
    sigma = build_sigma(problem, critical_degree(problem), chow_generic_morphism(scroll))
    out = None if args.matrix_only else chow_form(scroll)
    payload: dict = {"schema": SCHEMA, "matrix": _sigma_json(sigma)}
    if out is not None:
        payload["chow_form"] = _resultant_payload(out)
    if args.json:
        _emit_json(payload)
    else:
        rows, cols = sigma.shape
        print(f"chow matrix: {rows} x {cols}")
        for row in sigma.entries:
            print("  [" + ", ".join(str(e) for e in row) + "]")
        if out is not None:
            print(f"chow form degrees per block: {list(out.block_degrees)}")
            print(f"confirmed: {out.confirmed}")
            print(out.polynomial)
    return EXIT_UNCONFIRMED if out is not None and not out.confirmed else EXIT_OK


def _cmd_chow_test(args) -> int:
    from .scroll_chow import plane_diagnostics
    scroll = _parse_scroll(args.scroll)
    plane = _load_plane(args.plane)
    diag = plane_diagnostics(scroll, plane)
    if args.json:
        _emit_json({"schema": SCHEMA, **diag})
    else:
        print(f"stiefel rank: {diag['stiefel_rank']}")
        if diag["degenerate"]:
            print("warning: degenerate plane (rank-deficient Stiefel matrix)")
        print(f"meets scroll: {str(diag['meets_scroll']).lower()}")
    return EXIT_VANISHES if diag["meets_scroll"] else EXIT_OK


def _cmd_complex(args) -> int:
    from .partition_schur import complex_terms
    spec = _load_spec(args.spec)
    require_existence(spec)
    q = spec.n - spec.r
    lo = q * spec.r - spec.m * q
    indices = [args.p] if args.p is not None else list(range(lo, 1))
    terms = []
    for p in indices:
        terms.extend(complex_terms(spec.m, spec.n, spec.r, p))
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "terms": [
                    {
                        "p": t.homological_index,
                        "I": list(t.I),
                        "I_prime": list(t.I_prime),
                        "n_of_I": t.ampleness,
                    }
                    for t in terms
                ],
            }
        )
    else:
        for t in terms:
            print(
                f"p={t.homological_index} I={tuple(t.I)} "
                f"I'={tuple(t.I_prime)} n(I)={t.ampleness}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detres",
        description="Determinantal resultants of split bundle morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("degree", help="existence, multidegree and total degree")
    p.add_argument("--spec", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("matrix", help="build the sigma_d matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--phi", default=None, help="concrete morphism JSON file (default: generic)")
    add_json(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("resultant", help="resultant polynomial of the generic morphism")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("test", help="rank-based vanishing test")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--degree", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("chow", help="Chow matrix/form of a rational normal scroll")
    p.add_argument("--scroll", required=True, help="comma-separated degrees, e.g. 2,1")
    p.add_argument("--matrix-only", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_chow)

    p = sub.add_parser("chow-test", help="does a plane meet the scroll?")
    p.add_argument("--scroll", required=True)
    p.add_argument("--plane", required=True, help="JSON: rows of rational strings")
    add_json(p)
    p.set_defaults(func=_cmd_chow_test)

    p = sub.add_parser("complex", help="terms of the resolution by homological index")
    p.add_argument("--spec", required=True)
    p.add_argument("-p", type=int, default=None, help="homological index (default: all)")
    add_json(p)
    p.set_defaults(func=_cmd_complex)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Exact numbers may pass the int/str digit limit (Python 3.11+): lift it
    # while main runs, and restore it for a caller in the same process.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ExistenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXISTENCE
    except ValueError as exc:
        # Imported only here: `degree` and `complex` never load polyring.
        from .polyring import PolyError
        if not isinstance(exc, PolyError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
