"""The four benchmark workloads: inputs from a seed, operations and checks.

Each builder returns a list of ``Op``.  One round of a workload runs every
op once, in order; a run repeats whole rounds.  ``Op.run`` is the timed
call into detres; ``Op.check`` tests its output against the independent
computations in ``oracles`` and runs outside the timed region.  An op with
a ``fault`` fails every time today because of the named defect; it stays
in the round and is counted as failed until the defect is fixed.

detres is imported inside the builders, so that the set-up time measured
around a builder includes the import.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Any, Callable

import oracles as orc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]
    fault: str | None = None


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def poly_value(poly, assign: dict) -> Fraction:
    """A detres polynomial evaluated term by term at ``assign`` (name -> value)."""
    names = poly.varset.names
    total = Fraction(0)
    for e, c in poly.terms.items():
        v = c
        for name, k in zip(names, e):
            if k:
                v *= assign[name] ** k
        total += v
    return total


def json_poly_value(data: dict, assign: dict) -> Fraction:
    """A polynomial in detres's JSON form evaluated at ``assign``."""
    total = Fraction(0)
    for t in data["terms"]:
        v = Fraction(t["c"])
        for name, k in zip(data["vars"], t["e"]):
            v *= assign[name] ** k
        total += v
    return total


def result_digest(out) -> str:
    return _sha(
        (sorted(out.polynomial.terms.items()), out.confirmed, out.minors_used)
    )


def _generic_entry(nvars: int, deg: int, names: list[str], params: list[str]) -> dict:
    """Generic form sum_mu p_mu * x^mu with one-hot parameter exponents."""
    out = {}
    for mono, name in zip(orc.monomials(nvars, deg), names):
        pe = [0] * len(params)
        pe[params.index(name)] = 1
        out[mono + tuple(pe)] = 1
    return out


def sigma_matches(payload: dict, m, n, r, d, k, entries, nvars, params) -> bool:
    """Whether a symbolic sigma JSON equals the benchmark's own construction."""
    deg = payload["d"]
    cells, rows, cols = orc.sigma_entries(m, n, r, d, k, entries, deg, nvars)
    got_rows = [tuple(e) for e in payload["row_basis"]]
    got_cols = [(tuple(c["J"]), tuple(c["I"]), tuple(c["mu"])) for c in payload["col_basis"]]
    if sorted(got_rows) != sorted(rows) or sorted(got_cols) != sorted(cols):
        return False
    for rho, row in zip(got_rows, payload["entries"]):
        for col, cell in zip(got_cols, row):
            got = {
                tuple(sorted((v, x) for v, x in zip(cell["vars"], t["e"]) if x)): Fraction(t["c"])
                for t in cell["terms"]
            }
            want = {
                tuple(sorted((params[i], x) for i, x in enumerate(pe) if x)): Fraction(c)
                for pe, c in cells.get((rho, col), {}).items()
                if c
            }
            if got != want:
                return False
    return True


# ---------------------------------------------------------------------------
# chow: Chow forms of the scrolls S(2), S(3) and S(1,1)
# ---------------------------------------------------------------------------

LETTERS = "abcdefghijklmnopqrstuvwz"

#: The scrolls of one round.  S(2,1), S(1,2) and larger scrolls take
#: seconds to minutes each, too long to be repeated within a run (see
#: README.md, "Inputs left out").
CHOW_SCROLLS = ((2,), (3,), (1, 1))


def _block_offsets(degrees) -> list[int]:
    offs, o = [], 0
    for d in degrees:
        offs.append(o)
        o += d + 1
    return offs


def scroll_point(degrees, rng) -> list[int]:
    """X_{i,j} = lam_i x^(d_i - j) y^j at random integers x, y, lam."""
    x, y = rng.randint(-5, 5), rng.randint(1, 5)
    lam = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in degrees]
    return [l * x ** (d - j) * y**j for l, d in zip(lam, degrees) for j in range(d + 1)]


def plane_through(point, rows: int, rng) -> list[list[Fraction]]:
    """Random full-rank Stiefel matrix whose linear forms vanish at ``point``."""
    j0 = next(i for i, p in enumerate(point) if p)
    while True:
        plane = []
        for _ in range(rows):
            row = [Fraction(rng.randint(-5, 5)) for _ in point]
            row[j0] = 0
            row[j0] = -sum(c * p for c, p in zip(row, point)) / point[j0]
            plane.append(row)
        if orc.fraction_rank(plane) == rows:
            return plane


def plane_binary_minors(degrees, plane) -> list[list]:
    """Maximal minors of the restriction of the plane to the scroll.

    Entry (i, t) is the binary form sum_j plane[t][offset_i + j] x^(d_i - j) y^j;
    the plane meets the scroll exactly when these r x r minors share a zero.
    """
    offs = _block_offsets(degrees)
    M = [
        [{(d - j, j): plane[t][off + j] for j in range(d + 1) if plane[t][off + j]} for t in range(len(plane))]
        for d, off in zip(degrees, offs)
    ]
    total = sum(degrees)
    forms = []
    for keep in combinations(range(len(plane)), len(degrees)):
        minor = orc.poly_det([[row[t] for t in keep] for row in M])
        forms.append([minor.get((total - s, s), 0) for s in range(total + 1)])
    return forms


def plane_missing(degrees, rng) -> list[list[Fraction]]:
    """Random plane whose binary minors have no common zero: it misses the scroll."""
    rows = len(degrees) + 1
    while True:
        plane = [[Fraction(rng.randint(-5, 5)) for _ in range(sum(d + 1 for d in degrees))] for _ in range(rows)]
        if orc.fraction_rank(plane) == rows and not orc.binary_forms_share_root(
            plane_binary_minors(degrees, plane)
        ):
            return plane


def stiefel_assignment(plane) -> dict:
    """Chow-form parameter names: letter of the plane row, then the coordinate index."""
    return {f"{LETTERS[t]}{c}": v for t, row in enumerate(plane) for c, v in enumerate(row)}


def random_planes(degrees, count: int, rng) -> list[list[list[Fraction]]]:
    """Random full-rank planes (rows of linear-form coefficients)."""
    rows, width = len(degrees) + 1, sum(d + 1 for d in degrees)
    planes = []
    while len(planes) < count:
        plane = [[Fraction(rng.randint(-5, 5)) for _ in range(width)] for _ in range(rows)]
        if orc.fraction_rank(plane) == rows:
            planes.append(plane)
    return planes


def _sylvester_multiple_planes(poly, planes) -> bool:
    """For a rational normal curve, whether the Chow form is one nonzero
    constant times the Sylvester resultant of the plane's two rows, read as
    binary forms of the curve's degree, at every plane given."""
    ratios = set()
    for plane in planes:
        res = orc.sylvester_det(plane[0], plane[1])
        value = poly_value(poly, stiefel_assignment(plane))
        if not res:
            if value:
                return False
            continue
        ratios.add(value / res)
    return len(ratios) == 1 and 0 not in ratios


def _check_chow(out, degrees, meeting, missing, sylvester_planes) -> bool:
    r = len(degrees)
    if not out.confirmed or out.block_degrees != (sum(degrees),) * (r + 1):
        return False
    poly = out.polynomial
    if r == 1 and not _sylvester_multiple_planes(poly, sylvester_planes):
        return False
    if any(poly_value(poly, stiefel_assignment(p)) != 0 for p in meeting):
        return False
    return all(poly_value(poly, stiefel_assignment(p)) != 0 for p in missing)


def build_chow(seed: int) -> list[Op]:
    import detres

    rng = random.Random(seed)
    ops = []
    for degrees in CHOW_SCROLLS:
        scroll = detres.ScrollSpec(degrees)
        meeting = [plane_through(scroll_point(degrees, rng), len(degrees) + 1, rng) for _ in range(2)]
        missing = [plane_missing(degrees, rng)]
        sylvester = random_planes(degrees, 3, rng) if len(degrees) == 1 else []
        ops.append(
            Op(
                name="chow-S" + "".join(map(str, degrees)),
                run=lambda s=scroll: detres.chow_form(s),
                check=lambda out, d=degrees, a=meeting, b=missing, c=sylvester: _check_chow(out, d, a, b, c),
                digest=result_digest,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# resultant: gcd of maximal minors on generic Sylvester and Macaulay specs
# ---------------------------------------------------------------------------

MINOR_SELECTION_FAULT = (
    "minor selection: _candidate_column_sets tries only single-column swaps of one"
    " greedy pivot set, so all 8 minors share columns 0-7 and an extra factor, and"
    " the gcd stays unconfirmed (degree 4, expected 3)"
)

#: Sylvester (d1, d2) at nu + extra, and Macaulay (3,1,0) d at nu + extra,
#: with the fault that makes an op fail today (None: it must succeed).
#: Each needs a real gcd (two or more minors) and takes about 0.1 s or
#: less, so that a run repeats it many times.
SYLVESTER_CASES = (((2, 3), 2), ((2, 2), 3), ((3, 3), 1))
MACAULAY_CASES = (((1, 1, 2), 0, None), ((1, 1, 1), 1, None), ((1, 1, 1), 2, MINOR_SELECTION_FAULT))


def _generic_coeffs(d, nvars, rng) -> list[dict]:
    return [{e: rng.randint(-50, 50) for e in orc.monomials(nvars, di)} for di in d]


def _coeff_assignment(coeffs: list[dict]) -> dict:
    """detres parameter names c_<row>_<col>_<exponents> for n = 1 forms."""
    return {
        f"c_1_{i}_" + "_".join(map(str, e)): Fraction(c)
        for i, form in enumerate(coeffs, start=1)
        for e, c in form.items()
    }


def _binary(form: dict, deg: int) -> list:
    return [form.get((deg - t, t), 0) for t in range(deg + 1)]


def _sylvester_multiple(evaluate, d, points) -> bool:
    """Whether a resultant is one nonzero constant times the numeric
    Sylvester determinant at every coefficient point."""
    ratios = {
        evaluate(_coeff_assignment(c)) / orc.sylvester_det(_binary(c[0], d[0]), _binary(c[1], d[1]))
        for c in points
    }
    return len(ratios) == 1 and 0 not in ratios


def _check_sylvester(out, d, points) -> bool:
    return (
        out.confirmed
        and out.block_degrees == (d[1], d[0])
        and _sylvester_multiple(lambda a: poly_value(out.polynomial, a), d, points)
    )


def _check_macaulay(out, d, zero_point, generic_point) -> bool:
    blocks = tuple(prod(d[:i] + d[i + 1 :]) for i in range(len(d)))
    return (
        out.confirmed
        and out.block_degrees == blocks
        and poly_value(out.polynomial, _coeff_assignment(zero_point)) == 0
        and poly_value(out.polynomial, _coeff_assignment(generic_point)) != 0
    )


def common_zero_forms(d, nvars, rng) -> list[dict]:
    """Random forms of degrees ``d`` that all vanish at a hidden point (1, p1, ...)."""
    p = (1,) + tuple(rng.randint(-3, 3) for _ in range(nvars - 1))
    forms = _generic_coeffs(d, nvars, rng)
    for di, f in zip(d, forms):
        lead = (di,) + (0,) * (nvars - 1)
        f[lead] -= sum(c * orc.value(e, p) for e, c in f.items())
    return forms


def nonvanishing_forms(d, nvars, rng) -> list[dict]:
    """Random forms of degrees ``d`` with no common zero: sigma_nu of the
    morphism they form has full row rank modulo a prime."""
    nu = orc.critical_degree(len(d), 1, 0, d, (0,))
    while True:
        forms = _generic_coeffs(d, nvars, rng)
        rows = orc.concrete_sigma_rows(len(d), 1, 0, d, (0,), [forms], nu, nvars)
        if orc.rank_mod_p(rows) == len(rows):
            return forms


def build_resultant(seed: int) -> list[Op]:
    import detres

    rng = random.Random(seed)
    ops = []
    for d, extra in SYLVESTER_CASES:
        spec = detres.ProblemSpec(2, 1, 0, d, (0,))
        nu = orc.critical_degree(2, 1, 0, d, (0,))
        points = []
        while len(points) < 3:
            c = _generic_coeffs(d, 2, rng)
            if orc.sylvester_det(_binary(c[0], d[0]), _binary(c[1], d[1])):
                points.append(c)
        ops.append(
            Op(
                name=f"sylvester-{d[0]}-{d[1]}-at-nu+{extra}",
                run=lambda s=spec, dd=nu + extra: detres.resultant_gcd(s, d=dd),
                check=lambda out, d=d, pts=points: _check_sylvester(out, d, pts),
                digest=result_digest,
            )
        )
    for d, extra, fault in MACAULAY_CASES:
        spec = detres.ProblemSpec(3, 1, 0, d, (0,))
        nu = orc.critical_degree(3, 1, 0, d, (0,))
        zero_point = common_zero_forms(d, 3, rng)
        generic_point = nonvanishing_forms(d, 3, rng)
        ops.append(
            Op(
                name=f"macaulay-310-d{''.join(map(str, d))}-at-nu+{extra}",
                run=lambda s=spec, dd=nu + extra: detres.resultant_gcd(s, d=dd),
                check=lambda out, d=d, z=zero_point, g=generic_point: _check_macaulay(out, d, z, g),
                digest=result_digest,
                fault=fault,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# vanish: exact rank tests on concrete morphisms for spec (3,3,1), k = 0
# ---------------------------------------------------------------------------

#: (d, vanishing) of each op of a round, all drawn from the run's seed.
#: d = (1,1,1) gives a 20x36 sigma, whose rank test takes tens of
#: milliseconds; d = (2,1,1) (56x120) takes about 1 s and larger ones far
#: more, too long to be repeated within a run (see README.md).
VANISH_INPUTS = tuple(((1, 1, 1), vanishing) for vanishing in (False, True) * 3)


def concrete_entries(d, n, nvars, rng, vanishing: bool):
    """Random integer morphism with entry (j, i) of degree d_i (k = 0).

    A vanishing one is built so that at a hidden point p = (1, p1, ...) the
    matrix equals the rank-one u v^T, below the rank bound r + 1 = 2; that
    point is returned with it (None for a nonvanishing one).
    """
    rows = [[{e: rng.randint(-2, 2) for e in orc.monomials(nvars, di)} for di in d] for _ in range(n)]
    if not vanishing:
        return rows, None
    p = (1,) + tuple(rng.randint(-3, 3) for _ in range(nvars - 1))
    u = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
    v = [rng.choice([-2, -1, 1, 2]) for _ in d]
    for j, row in enumerate(rows):
        for i, f in enumerate(row):
            lead = (d[i],) + (0,) * (nvars - 1)
            f[lead] += u[j] * v[i] - sum(c * orc.value(e, p) for e, c in f.items())
    return rows, p


def _full_rank(d, entries, cache: dict) -> bool:
    """Whether the benchmark's own sigma_nu has full row rank modulo a prime
    (so the morphism does not vanish); computed once per input."""
    if "full" not in cache:
        nu = orc.critical_degree(3, 3, 1, d, (0, 0, 0))
        rows = orc.concrete_sigma_rows(3, 3, 1, d, (0, 0, 0), entries, nu, 4)
        cache["full"] = orc.rank_mod_p(rows) == len(rows)
    return cache["full"]


def _check_vanish(verdict, d, entries, witness, cache) -> bool:
    """Vanishing: the matrix has rank <= 1 at the witness point.  Nonvanishing:
    the rank certificate holds."""
    if witness is not None:
        at_p = [[sum(c * orc.value(e, witness) for e, c in f.items()) for f in row] for row in entries]
        return verdict is True and orc.fraction_rank(at_p) <= 1
    return verdict is False and _full_rank(d, entries, cache)


def build_vanish(seed: int) -> list[Op]:
    import detres
    from detres import Polynomial, ProblemSpec, VarSet
    from detres.resultant_engine import ConcreteMorphism

    rng = random.Random(seed)
    varset = VarSet(tuple(f"x{t}" for t in range(4)))
    ops = []
    for k, (d, vanishing) in enumerate(VANISH_INPUTS):
        spec = ProblemSpec(3, 3, 1, d, (0, 0, 0))
        while True:
            entries, witness = concrete_entries(d, 3, 4, rng, vanishing)
            cache: dict = {}
            # With coefficients this small a random draw vanishes now and
            # then, so a nonvanishing draw is certified here and redrawn if
            # need be.
            if vanishing or _full_rank(d, entries, cache):
                break
        phi = ConcreteMorphism(
            spec, varset, tuple(tuple(Polynomial(varset, f) for f in row) for row in entries)
        )
        ops.append(
            Op(
                name=f"{k}-d{''.join(map(str, d))}-{'vanishing' if vanishing else 'nonvanishing'}",
                run=lambda s=spec, f=phi: detres.vanish_test(s, f),
                check=lambda out, d=d, e=entries, w=witness, c=cache: _check_vanish(out, d, e, w, c),
                digest=repr,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cli: fresh `python -m detres.cli` processes over every subcommand
# ---------------------------------------------------------------------------

VAR_ORDER_FAULT = (
    "phi variable order: the phi loader reads exponents by position and ignores"
    " `vars`, so (x1, x0^2) written as x1 under [x1, x0] is read as (x0, x0^2)"
    " and reported as vanishing (exit 10)"
)

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "detres.cli", *argv],
        capture_output=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    from detres import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _json_out(result, code: int):
    got_code, stdout = result
    if got_code != code:
        return None
    data = json.loads(stdout)
    return data if data.get("schema") == "detres/1" else None


def _check_degree(result, d) -> bool:
    data = _json_out(result, 0)
    m = len(d)
    md = [prod(d[:i] + d[i + 1 :]) for i in range(m)]
    return data is not None and data == {
        "schema": "detres/1",
        "exists": True,
        "N": m - 1,
        "multidegree": md,
        "total_degree": sum(md),
        "critical_degree": sum(d) - m + 1,
    }


def _check_complex(result, m, r) -> bool:
    """Principal case n = r + 1: Eagon-Northcott terms, one per index r - m .. 0."""
    data = _json_out(result, 0)
    want = [
        {"p": p, "I": [r - p], "I_prime": [1] * r + [-p], "n_of_I": r} for p in range(r - m, 0)
    ] + [{"p": 0, "I": [], "I_prime": [], "n_of_I": 0}]
    return data is not None and data["terms"] == want


def _check_test(result, d, vanishing: bool) -> bool:
    data = _json_out(result, 10 if vanishing else 0)
    rows = sum(d)  # sigma at nu = d1 + d2 - 1 is square of size d1 + d2
    return (
        data is not None
        and data["vanishes"] is vanishing
        and (data["rows"], data["cols"]) == (rows, rows)
        and (data["rank"] < rows if vanishing else data["rank"] == rows)
    )


def _check_resultant(result, d, points) -> bool:
    data = _json_out(result, 0)
    return (
        data is not None
        and data["confirmed"]
        and data["block_degrees"] == [d[1], d[0]]
        and _sylvester_multiple(lambda a: json_poly_value(data["polynomial"], a), d, points)
    )


def _check_sylvester_matrix(result, d) -> bool:
    data = _json_out(result, 0)
    if data is None or not data["symbolic"]:
        return False
    params = [f"c_1_{i}_{a}_{b}" for i, di in enumerate(d, start=1) for a, b in orc.monomials(2, di)]
    entries = [[_generic_entry(2, di, [f"c_1_{i}_{a}_{b}" for a, b in orc.monomials(2, di)], params) for i, di in enumerate(d, start=1)]]
    return data["d"] == sum(d) - 1 and sigma_matches(data, 2, 1, 0, d, (0,), entries, 2, params)


def _check_chow_matrix(result, degrees) -> bool:
    data = _json_out(result, 0)
    if data is None or "chow_form" in data:
        return False
    r = len(degrees)
    m, k = r + 1, tuple(-x for x in degrees)
    offs = _block_offsets(degrees)
    params = [f"{LETTERS[t]}{c}" for t in range(m) for c in range(sum(x + 1 for x in degrees))]
    entries = [
        [_generic_entry(2, dj, [f"{LETTERS[t]}{off + j}" for j in range(dj + 1)], params) for t in range(m)]
        for dj, off in zip(degrees, offs)
    ]
    nu = orc.critical_degree(m, r, r - 1, (0,) * m, k)
    return data["matrix"]["d"] == nu and sigma_matches(data["matrix"], m, r, r - 1, (0,) * m, k, entries, 2, params)


def _check_chow_test(result, meets: bool) -> bool:
    data = _json_out(result, 10 if meets else 0)
    return data == {"schema": "detres/1", "meets_scroll": meets, "stiefel_rank": 3, "degenerate": False}


def _check_existence_failure(result) -> bool:
    code, stdout = result
    if code != 3:
        return False
    data = json.loads(stdout)
    return data["exists"] is False and data["diagnostics"] == ["d_1 > k_1 fails: 1 <= 1", "d_2 > k_1 fails: 1 <= 1"]


def _binary_json(coeffs: list, deg: int) -> dict:
    return {"vars": ["x0", "x1"], "terms": [{"c": str(c), "e": [deg - t, t]} for t, c in enumerate(coeffs) if c]}


def _binary_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _spec_json(m, n, r, d, k) -> str:
    return json.dumps({"m": m, "n": n, "r": r, "d": list(d), "k": list(k)})


def build_cli(seed: int, workdir: Path, inprocess: bool = False) -> list[Op]:
    import detres  # noqa: F401  (set-up includes the import, as for the other workloads)

    rng = random.Random(seed)
    runner = cli_inprocess if inprocess else cli_subprocess
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        return str(path)

    syl = (rng.randint(1, 3), rng.randint(1, 3))
    mac = tuple(rng.randint(1, 2) for _ in range(3))
    cr = rng.randint(0, 1)
    cm = rng.randint(cr + 2, cr + 3)
    syl_spec = write("syl.json", _spec_json(2, 1, 0, syl, (0,)))
    mac_spec = write("mac.json", _spec_json(3, 1, 0, mac, (0,)))
    bad_spec = write("bad.json", _spec_json(2, 1, 0, (1, 1), (1,)))
    cx_spec = write("complex.json", _spec_json(cm, cr + 1, cr, (1,) * cm, (0,) * (cr + 1)))
    small_spec = write("syl12.json", _spec_json(2, 1, 0, (1, 2), (0,)))
    small_points = []
    while len(small_points) < 2:
        c = _generic_coeffs((1, 2), 2, rng)
        if orc.sylvester_det(_binary(c[0], 1), _binary(c[1], 2)):
            small_points.append(c)

    # binary forms sharing the root (a : 1), and a pair certified coprime
    a = rng.randint(-4, 4)
    f = _binary_mul([1, -a], [rng.randint(-5, 5) for _ in range(syl[0])])
    g = _binary_mul([1, -a], [rng.randint(-5, 5) for _ in range(syl[1])])
    van_phi = write("phi_vanishing.json", json.dumps([[_binary_json(f, syl[0]), _binary_json(g, syl[1])]]))
    while True:
        f = [rng.randint(-5, 5) for _ in range(syl[0] + 1)]
        g = [rng.randint(-5, 5) for _ in range(syl[1] + 1)]
        if orc.sylvester_det(f, g):
            break
    nonvan_phi = write("phi_nonvanishing.json", json.dumps([[_binary_json(f, syl[0]), _binary_json(g, syl[1])]]))
    # (x1, x0^2): no common zero, but the first entry lists its variables as [x1, x0]
    order_phi = write(
        "phi_var_order.json",
        json.dumps([[
            {"vars": ["x1", "x0"], "terms": [{"c": "1", "e": [1, 0]}]},
            {"vars": ["x0", "x1"], "terms": [{"c": "1", "e": [2, 0]}]},
        ]]),
    )
    order_spec = write("syl_order.json", _spec_json(2, 1, 0, (1, 2), (0,)))
    meet = write("plane_meets.json", json.dumps([[str(v) for v in row] for row in plane_through(scroll_point((2, 1), rng), 3, rng)]))
    miss = write("plane_misses.json", json.dumps([[str(v) for v in row] for row in plane_missing((2, 1), rng)]))

    def op(name, argv, check, fault=None):
        return Op(name=name, run=lambda: runner(argv), check=check, digest=_sha, fault=fault)

    return [
        op("degree-sylvester", ["degree", "--spec", syl_spec, "--json"], lambda res: _check_degree(res, syl)),
        op("degree-macaulay", ["degree", "--spec", mac_spec, "--json"], lambda res: _check_degree(res, mac)),
        op("degree-no-existence", ["degree", "--spec", bad_spec, "--json"], _check_existence_failure),
        op("complex", ["complex", "--spec", cx_spec, "--json"], lambda res: _check_complex(res, cm, cr)),
        op("matrix-sylvester", ["matrix", "--spec", syl_spec, "--json"], lambda res: _check_sylvester_matrix(res, syl)),
        op(
            "resultant-sylvester-1-2-at-nu+1",
            ["resultant", "--spec", small_spec, "--degree", "3", "--json"],
            lambda res: _check_resultant(res, (1, 2), small_points),
        ),
        op("test-vanishing", ["test", "--spec", syl_spec, "--phi", van_phi, "--json"], lambda res: _check_test(res, syl, True)),
        op("test-nonvanishing", ["test", "--spec", syl_spec, "--phi", nonvan_phi, "--json"], lambda res: _check_test(res, syl, False)),
        op(
            "test-phi-var-order",
            ["test", "--spec", order_spec, "--phi", order_phi, "--json"],
            lambda res: _check_test(res, (1, 2), False),
            fault=VAR_ORDER_FAULT,
        ),
        op("chow-matrix-S21", ["chow", "--scroll", "2,1", "--matrix-only", "--json"], lambda res: _check_chow_matrix(res, (2, 1))),
        op("chow-matrix-S22", ["chow", "--scroll", "2,2", "--matrix-only", "--json"], lambda res: _check_chow_matrix(res, (2, 2))),
        op("chow-test-meets", ["chow-test", "--scroll", "2,1", "--plane", meet, "--json"], lambda res: _check_chow_test(res, True)),
        op("chow-test-misses", ["chow-test", "--scroll", "2,1", "--plane", miss, "--json"], lambda res: _check_chow_test(res, False)),
    ]
