"""Command-line front end with JSON I/O and machine-readable exit codes.

Exit codes: 0 success (or nonvanishing for the test subcommands), 10
vanishing, 2 invalid input, 3 existence-check failure, 4 unconfirmed
resultant (its degrees are not the predicted ones: a fault), 5 a Lascoux spec
(0 < r < n - 1) given to ``resultant``, 141 stdout closed by its reader
(128 + SIGPIPE, with nothing on stderr).  ``main`` is the one writer of
stdout.  JSON outputs carry a top-level ``"schema": "detres/1"`` field and
are byte-deterministic for fixed inputs.

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
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .chern_degree import ExistenceError, ProblemSpec, critical_degree, require_existence

if TYPE_CHECKING:
    from .resultant_engine import ConcreteMorphism, SigmaMatrix
    from .scroll_chow import PlaneStiefel, ScrollSpec
    Result = tuple[int, Callable[[], dict], Iterable[str]]

SCHEMA = "detres/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXISTENCE = 3
EXIT_UNCONFIRMED = 4
EXIT_LASCOUX = 5
EXIT_VANISHES = 10
EXIT_BROKEN_PIPE = 141


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


def _load_rows(path: str, what: str, cell, build):
    """``build`` of the JSON list of lists in ``path``, each entry read by ``cell``."""
    from .polyring import PolyError
    data = _load_json(path)
    try:
        if type(data) is not list or any(type(row) is not list for row in data):
            raise PolyError(f"a {what} is a list of rows, each a list of entries")
        return build([[cell(v) for v in row] for row in data])
    except PolyError as exc:
        raise InputError(f"bad {what} in {path}: {exc}") from exc


def _load_phi(path: str, spec: ProblemSpec) -> ConcreteMorphism:
    from .polyring import Polynomial
    from .resultant_engine import concrete_morphism
    # A spec without a resultant exits 3 even when the morphism is bad too.
    require_existence(spec)
    return _load_rows(path, "morphism", Polynomial.from_json, lambda rows: concrete_morphism(spec, rows))


def _load_plane(path: str) -> PlaneStiefel:
    """Rows of entries, each a rational string or a JSON integer."""
    from .polyring import rational_from_json
    from .scroll_chow import PlaneStiefel
    return _load_rows(path, "plane", rational_from_json, PlaneStiefel)


def _parse_scroll(text: str) -> ScrollSpec:
    from .scroll_chow import ScrollSpec
    try:
        return ScrollSpec(tuple(int(x) for x in text.split(",")))
    except (ValueError, ExistenceError) as exc:
        raise InputError(f"bad scroll degrees {text!r}: {exc}") from exc


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


def _sigma_lines(sigma: SigmaMatrix, head: str) -> Iterator[str]:
    """``head`` formatted with sigma and its shape, then one line per row."""
    yield head.format(sigma, *sigma.shape)
    for row in sigma.entries:
        yield "  [" + ", ".join(str(e) for e in row) + "]"


# ---------------------------------------------------------------------------
# Subcommands: each returns its exit code, JSON payload and text lines.
# ---------------------------------------------------------------------------


def _cmd_degree(args) -> Result:
    from .chern_degree import existence_check, multidegree
    spec = _load_spec(args.spec)
    ok, bad = existence_check(spec)
    if not ok:
        lines = chain(["exists: false"], (f"  {b}" for b in bad))
        return EXIT_EXISTENCE, lambda: {"exists": False, "diagnostics": bad}, lines
    md = multidegree(spec)
    payload = {
        "exists": True,
        "N": spec.N,
        "multidegree": list(md),
        "total_degree": sum(md),
        "critical_degree": critical_degree(spec),
    }
    return EXIT_OK, lambda: payload, (f"{key}: {json.dumps(v)}" for key, v in payload.items())


def _cmd_matrix(args) -> Result:
    from .resultant_engine import build_sigma, generic_morphism
    spec = _load_spec(args.spec)
    d = args.degree if args.degree is not None else critical_degree(spec)
    if args.phi:
        phi = _load_phi(args.phi, spec)
    else:
        phi = generic_morphism(spec)
    sigma = build_sigma(spec, d, phi)
    head = "sigma_{0.d}: {1} x {2} ({0.omitted_columns} omitted column groups)"
    return EXIT_OK, lambda: _sigma_json(sigma), _sigma_lines(sigma, head)


def _resultant_payload(out) -> dict:
    return {
        "polynomial": out.polynomial.to_json(),
        "block_degrees": list(out.block_degrees),
        "confirmed": out.confirmed,
        "minors_used": out.minors_used,
        "normalization": out.normalization,
    }


def _cmd_resultant(args) -> Result:
    from .resultant_engine import resultant_gcd
    spec = _load_spec(args.spec)
    out = resultant_gcd(spec, d=args.degree)

    def lines():
        yield f"degree per column block: {list(out.block_degrees)}"
        yield f"confirmed: {out.confirmed} (minors used: {out.minors_used})"
        yield str(out.polynomial)
    return EXIT_OK if out.confirmed else EXIT_UNCONFIRMED, lambda: _resultant_payload(out), lines()


def _cmd_test(args) -> Result:
    from .resultant_engine import sigma_rank
    spec = _load_spec(args.spec)
    phi = _load_phi(args.phi, spec)
    result = sigma_rank(spec, phi, args.degree)

    def lines():
        yield f"rank: {result.rank} of {result.rows}"
        yield f"vanishes: {str(result.vanishes).lower()}"
    code = EXIT_VANISHES if result.vanishes else EXIT_OK
    return code, lambda: {**result._asdict(), "vanishes": result.vanishes}, lines()


def _cmd_chow(args) -> Result:
    from .resultant_engine import build_sigma
    from .scroll_chow import chow_form, chow_generic_morphism, chow_problem
    scroll = _parse_scroll(args.scroll)
    problem = chow_problem(scroll)
    sigma = build_sigma(problem, critical_degree(problem), chow_generic_morphism(scroll))
    out = None if args.matrix_only else chow_form(scroll)

    def payload():
        matrix = {"matrix": _sigma_json(sigma)}
        return matrix if out is None else {**matrix, "chow_form": _resultant_payload(out)}

    def lines():
        yield from _sigma_lines(sigma, "chow matrix: {1} x {2}")
        if out is not None:
            yield f"chow form degrees per block: {list(out.block_degrees)}"
            yield f"confirmed: {out.confirmed}"
            yield str(out.polynomial)
    return EXIT_UNCONFIRMED if out is not None and not out.confirmed else EXIT_OK, payload, lines()


def _cmd_chow_test(args) -> Result:
    from .scroll_chow import plane_diagnostics
    scroll = _parse_scroll(args.scroll)
    plane = _load_plane(args.plane)
    diag = plane_diagnostics(scroll, plane)

    def lines():
        yield f"stiefel rank: {diag['stiefel_rank']}"
        if diag["degenerate"]:
            yield "warning: degenerate plane (rank-deficient Stiefel matrix)"
        yield f"meets scroll: {str(diag['meets_scroll']).lower()}"
    return EXIT_VANISHES if diag["meets_scroll"] else EXIT_OK, lambda: diag, lines()


def _cmd_complex(args) -> Result:
    from .partition_schur import complex_terms
    spec = _load_spec(args.spec)
    require_existence(spec)
    terms = complex_terms(spec.m, spec.n, spec.r)
    if args.p is not None:
        terms = [t for t in terms if t.homological_index == args.p]
    lines = (
        f"p={t.homological_index} I={tuple(t.I)} "
        f"I'={tuple(t.I_prime)} n(I)={t.ampleness}"
        for t in terms
    )

    def payload():
        return {
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
    return EXIT_OK, payload, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detres",
        description="Determinantal resultants of split bundle morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("degree", _cmd_degree, "existence, multidegree and total degree")
    p.add_argument("--spec", required=True)

    p = command("matrix", _cmd_matrix, "build the sigma_d matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--phi", default=None, help="concrete morphism JSON file (default: generic)")

    p = command("resultant", _cmd_resultant, "resultant polynomial of the generic morphism")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, default=None)

    p = command("test", _cmd_test, "rank-based vanishing test")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--degree", type=int, default=None)

    p = command("chow", _cmd_chow, "Chow matrix/form of a rational normal scroll")
    p.add_argument("--scroll", required=True, help="comma-separated degrees, e.g. 2,1")
    p.add_argument("--matrix-only", action="store_true")

    p = command("chow-test", _cmd_chow_test, "does a plane meet the scroll?")
    p.add_argument("--scroll", required=True)
    p.add_argument("--plane", required=True, help="JSON: rows of rational strings")

    p = command("complex", _cmd_complex, "terms of the resolution by homological index")
    p.add_argument("--spec", required=True)
    p.add_argument("-p", type=int, default=None, help="homological index (default: all)")

    for p in sub.choices.values():  # main writes JSON for every subcommand
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Exact numbers may pass the int/str digit limit (Python 3.11+): lift it
    # while main runs, and restore it for a caller in the same process.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        code, payload, lines = args.func(args)
        if args.json:
            lines = [json.dumps({"schema": SCHEMA, **payload()}, indent=2)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: the interpreter's flush at exit goes to /dev/null.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, ExistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXISTENCE if isinstance(exc, ExistenceError) else EXIT_INVALID
    except ValueError as exc:
        # Imported only here: `degree` and `complex` load neither module.
        from .polyring import PolyError
        from .resultant_engine import LascouxCaseError
        if not isinstance(exc, PolyError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LASCOUX if isinstance(exc, LascouxCaseError) else EXIT_INVALID
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
