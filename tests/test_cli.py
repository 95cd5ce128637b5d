import ast
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import detres

from detres.cli import _build_parser, main
from detres.polyring import Polynomial


@pytest.fixture
def spec_file(tmp_path):
    def write(name, spec):
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        return str(p)

    return write


SYLVESTER = {"m": 2, "n": 1, "r": 0, "d": [3, 5], "k": [0]}
SYL11 = {"m": 2, "n": 1, "r": 0, "d": [1, 1], "k": [0]}
BAD = {"m": 2, "n": 1, "r": 0, "d": [1, 1], "k": [1]}


SYL12 = {"m": 2, "n": 1, "r": 0, "d": [1, 2], "k": [0]}


def monomial_json(names, exps):
    return {"vars": names, "terms": [{"c": "1", "e": exps}]}


def term_json(terms):
    return {"vars": ["x0", "x1"], "terms": terms}


X0 = monomial_json(["x0", "x1"], [1, 0])


def phi_json(rows):
    return [[p.to_json() for p in row] for row in rows]


def make_phi(entries):
    """entries: list of rows of (coeff_x, coeff_y) linear forms."""
    from detres.polyring import VarSet

    vs = VarSet(("x0", "x1"))
    return [
        [Polynomial(vs, {(1, 0): a, (0, 1): b}) for a, b in row]
        for row in entries
    ]


class TestDegree:
    def test_sylvester_json(self, spec_file, capsys):
        path = spec_file("s.json", SYLVESTER)
        assert main(["degree", "--spec", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "detres/1"
        assert data["multidegree"] == [5, 3]
        assert data["total_degree"] == 8

    def test_text_mode(self, spec_file, capsys):
        path = spec_file("s.json", SYLVESTER)
        assert main(["degree", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "multidegree: [5, 3]" in out

    def test_existence_failure(self, spec_file, capsys):
        path = spec_file("bad.json", BAD)
        assert main(["degree", "--spec", path]) == 3

    def test_missing_file(self, capsys):
        assert main(["degree", "--spec", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("m", 1.7), ("m", True), ("r", "0"), ("d", [1, 1.0]), ("k", [False])],
    )
    def test_non_integer_field(self, spec_file, capsys, field, value):
        path = spec_file("s.json", {**SYL11, field: value})
        assert main(["degree", "--spec", path]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ([2, 1, 0, [1, 1], [0]], "a problem spec is an object with fields m, n, r, d and k"),
            ("m=2 n=1 r=0", "a problem spec is an object with fields m, n, r, d and k"),
            ({**SYL11, "d": 5}, "d must be a list of integers, not 5"),
            ({"m": 2, "n": 1, "r": 0, "d": [1, 1]}, "field k is missing"),
        ],
        ids=["list", "string", "scalar-d", "missing-k"],
    )
    def test_malformed_spec(self, spec_file, capsys, spec, reason):
        path = spec_file("s.json", spec)
        assert main(["degree", "--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad problem spec in {path}: {reason}\n"

    def test_byte_determinism(self, spec_file, capsys):
        path = spec_file("s.json", SYLVESTER)
        main(["degree", "--spec", path, "--json"])
        first = capsys.readouterr().out
        main(["degree", "--spec", path, "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestMatrix:
    def test_generic_json_round_trip(self, spec_file, capsys):
        path = spec_file("s.json", SYL11)
        assert main(["matrix", "--spec", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "detres/1"
        assert len(data["row_basis"]) == 2
        for row in data["entries"]:
            for cell in row:
                Polynomial.from_json(cell)  # parses back

    def test_concrete(self, spec_file, tmp_path, capsys):
        path = spec_file("s.json", SYL11)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
        assert main(
            ["matrix", "--spec", path, "--phi", str(phi), "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["symbolic"] is False


    def test_negative_degree(self, spec_file, capsys):
        path = spec_file("s.json", SYL11)
        assert main(["matrix", "--spec", path, "--degree", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree must be >= 0\n"

    def test_generic_flag_removed(self, spec_file, capsys):
        path = spec_file("s.json", SYL11)
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--spec", path, "--generic"])
        assert exc.value.code == 2

    def test_entry_degree_above_d(self, spec_file, capsys):
        """An entry of degree 300 at d = 0: both column groups are omitted."""
        path = spec_file("s.json", {"m": 2, "n": 1, "r": 0, "d": [300, 1], "k": [0]})
        assert main(["matrix", "--spec", path, "--degree", "0"]) == 0
        assert capsys.readouterr().out == "sigma_0: 1 x 0 (2 omitted column groups)\n  []\n"
        assert main(["matrix", "--spec", path, "--degree", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["row_basis"], data["col_basis"], data["entries"]) == ([[0, 0]], [], [[]])
        assert data["omitted_columns"] == 2


@pytest.mark.parametrize("command", ["matrix", "resultant", "test", "complex"])
def test_existence_failure_exit_three(spec_file, tmp_path, capsys, command):
    path = spec_file("bad.json", BAD)
    argv = [command, "--spec", path]
    if command == "test":
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
        argv += ["--phi", str(phi)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d_1 > k_1 fails" in captured.err


class TestResultant:
    def test_sylvester(self, spec_file, capsys):
        path = spec_file("s.json", SYL11)
        assert main(["resultant", "--spec", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["confirmed"] is True
        assert data["block_degrees"] == [1, 1]
        poly = Polynomial.from_json(data["polynomial"])
        assert poly.degree == 2

    def test_macaulay_above_critical_degree_confirmed(self, spec_file, capsys):
        # three linear forms on P^2 at nu + 2 = 3: exits 0, not 4 (unconfirmed)
        path = spec_file("m.json", {"m": 3, "n": 1, "r": 0, "d": [1, 1, 1], "k": [0]})
        assert main(["resultant", "--spec", path, "--degree", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["confirmed"] is True
        assert data["block_degrees"] == [1, 1, 1]
        assert Polynomial.from_json(data["polynomial"]).degree == 3

    def test_lascoux_spec_exits_five(self, spec_file, capsys, monkeypatch):
        # (3,3,1) d=(1,1,1): 0 < r < n - 1, and a 20x36 sigma_d at nu
        from detres import resultant_engine

        def refuse(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(resultant_engine, "generic_morphism", refuse)
        monkeypatch.setattr(resultant_engine, "build_sigma", refuse)
        path = spec_file("l.json", {"m": 3, "n": 3, "r": 1, "d": [1, 1, 1], "k": [0, 0, 0]})
        start = time.perf_counter()
        assert main(["resultant", "--spec", path, "--json"]) == 5
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "Lascoux case" in captured.err

    def test_budget_flag_removed(self, spec_file, capsys):
        path = spec_file("s.json", SYL11)
        with pytest.raises(SystemExit) as exc:
            main(["resultant", "--spec", path, "--budget", "8"])
        assert exc.value.code == 2


class TestVanishTest:
    def test_nonvanishing_exit_zero(self, spec_file, tmp_path, capsys):
        path = spec_file("s.json", SYL11)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
        assert main(["test", "--spec", path, "--phi", str(phi)]) == 0

    def test_vanishing_exit_ten(self, spec_file, tmp_path, capsys):
        path = spec_file("s.json", SYL11)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (1, 0)]]))))
        assert main(["test", "--spec", path, "--phi", str(phi)]) == 10

    def test_bad_phi(self, spec_file, tmp_path, capsys):
        path = spec_file("s.json", SYL11)
        phi = tmp_path / "phi.json"
        phi.write_text("not json")
        assert main(["test", "--spec", path, "--phi", str(phi)]) == 2

    @pytest.mark.parametrize("degree", ["1", "0"])
    def test_degree_below_critical(self, spec_file, tmp_path, capsys, degree):
        # (x0, x1^2) has no common zero; below nu = 2 sigma drops rank anyway
        path = spec_file("s.json", SYL12)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[X0, monomial_json(["x0", "x1"], [0, 2])]]))
        argv = ["test", "--spec", path, "--phi", str(phi), "--json"]
        assert main(argv + ["--degree", degree]) == 2
        assert capsys.readouterr().out == ""
        assert main(argv) == 0

    def test_phi_vars_matched_by_name(self, spec_file, tmp_path, capsys):
        # (x1, x0^2), the first entry written under vars [x1, x0]
        path = spec_file("s.json", SYL12)
        phi = tmp_path / "phi.json"
        phi.write_text(
            json.dumps(
                [[monomial_json(["x1", "x0"], [1, 0]), monomial_json(["x0", "x1"], [2, 0])]]
            )
        )
        assert main(["test", "--spec", path, "--phi", str(phi), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vanishes"] is False
        assert data["rank"] == data["rows"] == 3

    @pytest.mark.parametrize(
        "phi, reason",
        [
            ([[]], "row 1 must have 2 entries"),
            ([], "expected 1 rows"),
            ([[X0]], "row 1 must have 2 entries"),
            ([[X0, X0], [X0, X0]], "expected 1 rows"),
            (
                [[monomial_json(["y0", "y1"], [1, 0]), monomial_json(["y0", "y1"], [0, 1])]],
                "variables ['y0', 'y1'] are not ['x0', 'x1'] in some order",
            ),
            (
                [[monomial_json(["x0", "x1", "x2"], [1, 0, 0]), X0]],
                "variables ['x0', 'x1', 'x2'] are not ['x0', 'x1'] in some order",
            ),
            ([[term_json([{"c": "1", "e": [0.5, 0.5]}]), X0]], "exponent [0.5, 0.5] is not a list of integers"),
            ([[term_json([{"c": "1", "e": [True, 0]}]), X0]], "exponent [True, 0] is not a list of integers"),
            (
                [[term_json([{"c": "1", "e": [1, 0]}, {"c": "-1", "e": [1, 0]}]), X0]],
                "exponent [1, 0] appears twice",
            ),
            ([[term_json([{"c": 0.1, "e": [1, 0]}]), X0]], "coefficient 0.1 is not a string or an integer"),
            ([[{"vars": ["x0", "x1"]}, X0]], "a polynomial is an object with a list 'terms'"),
            ([[term_json([{"e": [1, 0]}]), X0]], "term {'e': [1, 0]} is not an object with 'e' and 'c'"),
            ({"rows": [[X0, X0]]}, "a morphism is a list of rows, each a list of entries"),
            ([[{"vars": "x0x1", "terms": X0["terms"]}, X0]], "vars 'x0x1' is not a list of strings"),
            ([[term_json([{"c": "1", "e": [1]}]), X0]], "exponent tuple (1,) does not match 2 variables"),
            ([[term_json([{"c": "1", "e": [2, -1]}]), X0]], "negative exponent in (2, -1)"),
        ],
        ids=[
            "empty-row", "no-rows", "short-row", "extra-row", "other-vars", "three-vars",
            "float-exponent", "bool-exponent", "repeated-exponent", "float-coefficient",
            "missing-terms", "missing-coefficient", "object-file", "string-vars",
            "short-exponent", "negative-exponent",
        ],
    )
    def test_malformed_phi(self, spec_file, tmp_path, capsys, phi, reason):
        path = spec_file("s.json", SYL11)
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(phi))
        assert main(["test", "--spec", path, "--phi", str(phi_path)]) == 2
        assert capsys.readouterr().err == f"error: bad morphism in {phi_path}: {reason}\n"


class TestChow:
    def test_matrix_only(self, capsys):
        assert main(["chow", "--scroll", "2,1", "--matrix-only", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["matrix"]["row_basis"]) == 5
        assert len(data["matrix"]["col_basis"]) == 6

    def test_builds_sigma_once(self, monkeypatch, capsys):
        import detres.resultant_engine as engine

        calls = []

        def counting(*args):
            calls.append(args)
            return build_sigma(*args)

        build_sigma = engine.build_sigma
        monkeypatch.setattr(engine, "build_sigma", counting)
        assert main(["chow", "--scroll", "1,1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert len(data["matrix"]["row_basis"]) == 3

    def test_bad_scroll(self, capsys):
        assert main(["chow", "--scroll", "2,x", "--matrix-only"]) == 2
        assert main(["chow", "--scroll", "2,0", "--matrix-only"]) == 2

    def test_matrix_payload_same_as_matrix_only(self, capsys):
        assert main(["chow", "--scroll", "2,1", "--matrix-only", "--json"]) == 0
        matrix_only = json.loads(capsys.readouterr().out)
        assert main(["chow", "--scroll", "2,1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matrix"] == matrix_only["matrix"]
        assert data["chow_form"]["confirmed"]

    def test_budget_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chow", "--scroll", "2,1", "--budget", "8"])
        assert exc.value.code == 2


class TestChowTest:
    def test_meeting_plane(self, tmp_path, capsys):
        plane = tmp_path / "plane.json"
        plane.write_text(
            json.dumps(
                [
                    ["1", "-1", "0", "0", "0"],
                    ["0", "1", "-1", "0", "0"],
                    ["0", "0", "0", "1", "-1"],
                ]
            )
        )
        assert main(["chow-test", "--scroll", "2,1", "--plane", str(plane)]) == 10

    def test_missing_plane(self, capsys):
        assert main(["chow-test", "--scroll", "2,1", "--plane", "/no.json"]) == 2

    def test_integer_entries(self, tmp_path, capsys):
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps([[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]]))
        assert main(["chow-test", "--scroll", "2,1", "--plane", str(plane)]) == 10

    @pytest.mark.parametrize(
        "plane",
        [
            [["1/0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
            [[0.1, "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
            [[True, "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
            [["x", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
            {"10000": 0, "01000": 0, "00100": 0},
            ["10000", "01000", "00100"],
            "1",
            # Fraction reads "2 / 3" from Python 3.12 on and "1_000" from 3.11 on
            [["1", "0", "0", "0", "0"], ["0", "2 / 3", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
            [["1_000", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
        ],
        ids=[
            "zero-denominator", "float", "bool", "not-a-number", "object",
            "string-rows", "string", "spaced-slash", "underscore",
        ],
    )
    def test_malformed_plane(self, tmp_path, capsys, plane):
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane))
        assert main(["chow-test", "--scroll", "2,1", "--plane", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad plane") and captured.err.count("\n") == 1


class TestComplex:
    def test_minus_one_line(self, spec_file, capsys):
        path = spec_file("s.json", SYLVESTER)
        assert main(["complex", "--spec", path, "-p", "-1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "p=-1 I=(1,) I'=(1,) n(I)=0"

    def test_json_round_trip(self, spec_file, capsys):
        path = spec_file("s.json", SYLVESTER)
        assert main(["complex", "--spec", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "detres/1"
        assert {t["p"] for t in data["terms"]} == {-2, -1, 0}


BAD_FILES = {
    "not-utf8": b"\xff\xfe",
    "too-deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("kind", BAD_FILES)
@pytest.mark.parametrize("role", ["spec", "phi", "plane"])
def test_unreadable_json_exits_two(spec_file, tmp_path, capsys, role, kind):
    """A file that is not UTF-8 or nests past the parser's depth is invalid
    input: exit 2 with one error line, whichever argument names it."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_FILES[kind])
    argv = {
        "spec": ["degree", "--spec", str(bad)],
        "phi": ["test", "--spec", spec_file("s.json", SYL11), "--phi", str(bad)],
        "plane": ["chow-test", "--scroll", "2,1", "--plane", str(bad)],
    }[role]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}: ") and captured.err.count("\n") == 1


def digit_limit():
    """Python's int/str digit limit (3.11+), or None where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextmanager
def no_digit_limit():
    """Lift the int/str digit limit for the block."""
    limit = digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestExactBigNumbers:
    """Exact numbers past the int/str digit limit go in and come out whole,
    and ``main`` leaves the limit as it found it."""

    def test_degree_of_a_5000_digit_degree(self, spec_file, capsys):
        big = 10**5000
        with no_digit_limit():
            path = spec_file("s.json", {"m": 2, "n": 1, "r": 0, "d": [1, big], "k": [0]})
        limit = digit_limit()
        assert main(["degree", "--spec", path, "--json"]) == 0
        assert digit_limit() == limit
        with no_digit_limit():
            data = json.loads(capsys.readouterr().out)
        assert data["multidegree"] == [big, 1]
        assert data["total_degree"] == big + 1

    def test_matrix_of_a_degree_past_2_to_63(self, spec_file, tmp_path, capsys):
        # packed exponents hold degrees below 2^63: past that, one error line
        path = spec_file("s.json", {"m": 2, "n": 1, "r": 0, "d": [2**70, 1], "k": [0]})
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps([[monomial_json(["x0", "x1"], [2**70, 0]), monomial_json(["x0", "x1"], [0, 1])]]))
        assert main(["matrix", "--spec", path, "--phi", str(phi), "--degree", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degree ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["matrix", "resultant", "test"])
    def test_degree_option_past_2_to_63(self, spec_file, tmp_path, capsys, command):
        # no degree basis is listed past 2^63: one error line, not a traceback
        path = spec_file("s.json", SYL11)
        argv = [command, "--spec", path, "--degree", str(10**20)]
        if command == "test":
            phi = tmp_path / "phi.json"
            phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
            argv += ["--phi", str(phi)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: degree {10**20} is too large: exponents and degrees must stay below 2^63\n"

    def test_matrix_of_3000_digit_coefficients(self, spec_file, tmp_path, capsys):
        rng, lo, hi = random.Random(3000), 10**2999, 10**3000
        phi = make_phi([[(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(3)] for _ in range(2)])
        path = spec_file("s.json", {"m": 3, "n": 2, "r": 1, "d": [1, 1, 1], "k": [0, 0]})
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(phi_json(phi)))
        limit = digit_limit()
        assert main(["matrix", "--spec", path, "--phi", str(phi_path), "--json"]) == 0
        assert digit_limit() == limit
        with no_digit_limit():
            data = json.loads(capsys.readouterr().out)
            cells = [[Fraction(c) for c in row] for row in data["entries"]]
        assert data["col_basis"] == [{"J": [1, 2], "I": list(I), "mu": [0, 0]} for I in ([1, 2], [1, 3], [2, 3])]
        for c, I in enumerate(([0, 1], [0, 2], [1, 2])):
            minor = phi[0][I[0]] * phi[1][I[1]] - phi[0][I[1]] * phi[1][I[0]]
            assert [row[c] for row in cells] == [minor.terms.get(tuple(e), 0) for e in data["row_basis"]]
        # past the default limit of 4300 digits, about 14284 bits
        assert max(abs(c.numerator).bit_length() for row in cells for c in row) > 14300


#: The names ``detres`` re-exported from its modules before it loaded them
#: on first access, less ``exact_div``: only the tests divide polynomials
#: now, and they have their own (``minors_oracle.exact_div``).
FORMER_EXPORTS = (
    "Polynomial VarSet det_fraction_free monomials_of_degree multivariate_gcd"
    " ProblemSpec existence_check multidegree total_degree"
    " complex_terms conc dual lemma510 schur_dim"
    " ConcreteMorphism GenericMorphism build_sigma critical_degree generic_morphism"
    " resultant_gcd staircase_specialization vanish_test"
    " PlaneStiefel ScrollSpec chow_form chow_problem plane_meets_scroll plucker_coords"
    " scroll_equations"
).split()


def source_env() -> dict:
    """The environment with the source tree first on ``PYTHONPATH``."""
    src = str(Path(detres.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_script(script: str) -> str:
    """The last stdout line of ``script`` run by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=source_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestSingleWriter:
    """Only ``main`` writes stdout: a subcommand returns its exit code, a
    callable for its JSON payload and an iterable of text lines."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--spec", "SPEC"],
            ["matrix", "--spec", "SPEC"],
            ["resultant", "--spec", "SPEC"],
            ["test", "--spec", "SPEC", "--phi", "PHI"],
            ["chow", "--scroll", "2,1"],
            ["chow-test", "--scroll", "2,1", "--plane", "PLANE"],
            ["complex", "--spec", "SPEC"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommands_print_nothing(self, spec_file, tmp_path, capsys, argv):
        phi, plane = tmp_path / "phi.json", tmp_path / "plane.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
        plane.write_text(json.dumps([[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]]))
        files = {"SPEC": spec_file("s.json", SYL11), "PHI": str(phi), "PLANE": str(plane)}
        args = _build_parser().parse_args([files.get(a, a) for a in argv])
        code, payload, lines = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert type(code) is int and "schema" not in payload()
        assert all(type(line) is str for line in lines)
        assert capsys.readouterr() == ("", "")


class TestClosedStdout:
    """A reader that closes stdout early ends the run with exit 141 and
    nothing on stderr, not a ``BrokenPipeError`` traceback."""

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["degree", "resultant"])
    def test_closed_before_start(self, spec_file, command, json_flag):
        path = spec_file("s.json", SYLVESTER)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "detres.cli", command, "--spec", path, *json_flag],
                stdout=write_end, stderr=subprocess.PIPE, env=source_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_closed_after_ten_bytes(self):
        # about 320 kB of JSON: far past the 64 KiB a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "detres.cli", "chow", "--scroll", "2,1", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(), bufsize=0,
        )
        try:
            assert proc.stdout.read(10) == b'{\n  "schem'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert err == b""


class TestLazyImports:
    def test_degree_loads_only_what_it_needs(self, spec_file):
        path = spec_file("syl.json", SYLVESTER)
        script = (
            "import sys, detres.cli\n"
            f"code = detres.cli.main(['degree', '--spec', {path!r}, '--json'])\n"
            "heavy = ('detres.resultant_engine', 'detres.scroll_chow', 'detres.partition_schur')\n"
            "print(code, [m for m in heavy if m in sys.modules])\n"
        )
        assert run_script(script) == "0 []"

    @pytest.mark.parametrize("command", ["degree", "complex"])
    def test_no_polynomial_modules(self, spec_file, command):
        # main imports polyring and resultant_engine only on an error
        path = spec_file("syl.json", SYLVESTER)
        runs = [[command, "--spec", path], [command, "--spec", path, "--json"]]
        script = (
            "import sys, detres.cli\n"
            f"codes = [detres.cli.main(argv) for argv in {runs!r}]\n"
            "heavy = ('detres.polyring', 'detres.resultant_engine')\n"
            "print(codes, [m for m in heavy if m in sys.modules])\n"
        )
        assert run_script(script) == "[0, 0] []"

    def test_no_dataclasses_or_inspect(self, spec_file, tmp_path):
        # Each costs milliseconds of every process's start-up.
        path = spec_file("s.json", SYL11)
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(phi_json(make_phi([[(1, 0), (0, 1)]]))))
        runs = [
            ["degree", "--spec", path],
            ["matrix", "--spec", path],
            ["resultant", "--spec", path],
            ["test", "--spec", path, "--phi", str(phi)],
            ["chow", "--scroll", "2,1", "--matrix-only"],
        ]
        script = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "import detres.cli\n"
            f"codes = [detres.cli.main(argv) for argv in {runs!r}]\n"
            "slow = ('dataclasses', 'inspect')\n"
            "print(codes, [m for m in slow if m in sys.modules and m not in bare])\n"
        )
        assert run_script(script) == "[0, 0, 0, 0, 0] []"

    def test_public_names_still_exposed(self):
        namespace: dict = {}
        exec("from detres import *", namespace)
        for name in FORMER_EXPORTS:
            assert name in dir(detres)
            assert namespace[name] is getattr(detres, name)
        assert "exact_div" not in namespace and not hasattr(detres, "exact_div")

    def test_names_are_not_cached(self):
        assert detres.chow_form is detres.scroll_chow.chow_form
        assert "chow_form" not in vars(detres)
        with pytest.raises(AttributeError):
            detres.no_such_name


class TestStdlibOnly:
    def test_every_absolute_import_is_stdlib(self):
        """The runtime is stdlib-only: every absolute import in the package
        names a top-level module of the standard library."""
        paths = sorted(Path(detres.__file__).parent.glob("*.py"))
        assert paths
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    assert module.partition(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, module)


class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        """Every name that a module of the package or of the tests imports is
        used in that module; ``from __future__ import annotations`` is a
        compiler directive, not a name."""
        paths = sorted(Path(detres.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
        assert len(paths) > 2
        unused = []
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [a.asname or a.name.partition(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [a.asname or a.name for a in node.names]
                else:
                    continue
                unused += [(path.name, node.lineno, name) for name in bound if name not in used]
        assert not unused, unused
