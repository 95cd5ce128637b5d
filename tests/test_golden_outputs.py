"""Golden digests of the command-line outputs and of the parameter names.

Each case runs ``cli.main`` in-process, once in text mode and once with
``--json``, and compares the exit code and the sha256 of stdout with the
values recorded in ``GOLDEN``; ``NAME_GOLDEN`` holds the sha256 of the
generic morphism's parameter names, one a line, under both naming rules.
Outputs are byte-deterministic, so any change to a byte of them, including
the order of terms, rows or columns, shows here; a change that alters an
output on purpose records its new digest.  CI also runs this module under two values of ``PYTHONHASHSEED``,
so that no output order can come from string hashing.
"""

import hashlib
import json

import pytest

from detres import cli
from detres.chern_degree import ProblemSpec
from detres.cli import main
from detres.polyring import Polynomial
from detres.resultant_engine import generic_morphism
from detres.scroll_chow import ScrollSpec, chow_problem

SPECS = {
    "sylvester": {"m": 2, "n": 1, "r": 0, "d": [2, 3], "k": [0]},
    "syl11": {"m": 2, "n": 1, "r": 0, "d": [1, 1], "k": [0]},
    "syl12": {"m": 2, "n": 1, "r": 0, "d": [1, 2], "k": [0]},
    "macaulay": {"m": 3, "n": 1, "r": 0, "d": [1, 1, 1], "k": [0]},
    "mac112": {"m": 3, "n": 1, "r": 0, "d": [1, 1, 2], "k": [0]},
    "lascoux": {"m": 3, "n": 3, "r": 1, "d": [1, 1, 1], "k": [0, 0, 0]},
    "principal": {"m": 3, "n": 2, "r": 1, "d": [1, 1, 2], "k": [0, 0]},
    # d_i > k_1 fails for both columns: no resultant
    "no-resultant": {"m": 2, "n": 1, "r": 0, "d": [1, 1], "k": [1]},
}


def form(terms):
    """A form in x0, x1 from (coefficient, exponent) pairs."""
    return {"vars": ["x0", "x1"], "terms": [{"c": c, "e": e} for c, e in terms]}


FILES = {
    # (x0, x1): no common zero
    "phi-apart": [[form([("1", [1, 0])]), form([("1", [0, 1])])]],
    # (x0, 2 x0): both vanish at (0 : 1)
    "phi-meet": [[form([("1", [1, 0])]), form([("2", [1, 0])])]],
    # (x0 + 1/2 x1, x0^2 - 3 x1^2): rational coefficients in sigma
    "phi-fractions": [
        [
            form([("1", [1, 0]), ("1/2", [0, 1])]),
            form([("1", [2, 0]), ("-3", [0, 2])]),
        ]
    ],
    # denominators 2 in row 1 and 3 in row 2: one lcm per row differs from
    # one lcm for the whole morphism
    "phi-rows": [
        [
            form([("1/2", [1, 0]), ("1", [0, 1])]),
            form([("1", [1, 0]), ("-1/2", [0, 1])]),
            form([("1", [2, 0]), ("1/4", [1, 1]), ("1", [0, 2])]),
        ],
        [
            form([("1/3", [0, 1])]),
            form([("1", [1, 0]), ("2/3", [0, 1])]),
            form([("-1/3", [2, 0]), ("1", [0, 2])]),
        ],
    ],
    # exponent (1,) over x0, x1: rejected by Polynomial
    "phi-short-exponent": [[form([("1", [1])]), form([("1", [0, 1])])]],
    # exponent (2, -1): rejected by Polynomial
    "phi-negative-exponent": [[form([("1", [2, -1])]), form([("1", [0, 1])])]],
    # meets S(2,1)
    "plane": [["1", "-1", "0", "0", "0"], ["0", "1", "-1", "0", "0"], ["0", "0", "0", "1", "-1"]],
    # fractional entries in every row, in both blocks of S(2,1)
    "plane-fractions": [
        ["1/2", "-1", "0", "0", "0"],
        ["0", "1", "-1/3", "0", "2/7"],
        ["0", "0", "0", "1", "-1/5"],
    ],
    # two equal rows: the Stiefel matrix has rank 2 < 3
    "plane-degenerate": [
        ["1", "-1", "0", "0", "0"],
        ["1", "-1", "0", "0", "0"],
        ["0", "0", "0", "1", "-1"],
    ],
}

#: Each case: the argument list, with "spec:NAME" and "file:NAME" standing
#: for the path of a file written from ``SPECS`` or ``FILES``.
CASES = {
    "degree": ["degree", "--spec", "spec:sylvester"],
    "matrix-generic": ["matrix", "--spec", "spec:sylvester"],
    "matrix-phi": ["matrix", "--spec", "spec:syl12", "--phi", "file:phi-fractions"],
    "resultant-sylvester": ["resultant", "--spec", "spec:sylvester"],
    "resultant-macaulay-above-nu": ["resultant", "--spec", "spec:macaulay", "--degree", "2"],
    # strand dims (15, 26, 12, 1): blocks of 15, 11 and 1 rows, and column
    # blocks of 3, 3 and 6 parameters
    "resultant-three-blocks": ["resultant", "--spec", "spec:mac112", "--degree", "4"],
    "test-vanishes": ["test", "--spec", "spec:syl11", "--phi", "file:phi-meet"],
    "test-nonvanishing": ["test", "--spec", "spec:syl11", "--phi", "file:phi-apart"],
    "chow": ["chow", "--scroll", "2,1"],
    "chow-matrix-only": ["chow", "--scroll", "2,1", "--matrix-only"],
    # 20,791 terms with 24 distinct coefficients: the first large result
    "chow-2-2": ["chow", "--scroll", "2,2"],
    "chow-test": ["chow-test", "--scroll", "2,1", "--plane", "file:plane"],
    "matrix-phi-rows": ["matrix", "--spec", "spec:principal", "--phi", "file:phi-rows"],
    "test-phi-rows": ["test", "--spec", "spec:principal", "--phi", "file:phi-rows"],
    "chow-test-fractions": ["chow-test", "--scroll", "2,1", "--plane", "file:plane-fractions"],
    "complex": ["complex", "--spec", "spec:lascoux"],
    # index -2 of (3,3,1) holds two terms: this pins their order
    "complex-index": ["complex", "--spec", "spec:lascoux", "-p", "-2"],
    "degree-no-resultant": ["degree", "--spec", "spec:no-resultant"],
    "chow-test-degenerate": ["chow-test", "--scroll", "2,1", "--plane", "file:plane-degenerate"],
    "test-phi-short-exponent": ["test", "--spec", "spec:syl11", "--phi", "file:phi-short-exponent"],
    "matrix-phi-short-exponent": ["matrix", "--spec", "spec:syl11", "--phi", "file:phi-short-exponent"],
    "test-phi-negative-exponent": ["test", "--spec", "spec:syl11", "--phi", "file:phi-negative-exponent"],
    "matrix-phi-negative-exponent": ["matrix", "--spec", "spec:syl11", "--phi", "file:phi-negative-exponent"],
}

#: "<exit code> <sha256 of stdout>" per case and mode.
GOLDEN = {
    "degree text": "0 66e49a4406fe1b2fe22c67b5e80df11167229028d190d546cbe326f6ce3bffbb",
    "degree json": "0 ec185e43fe53d9583b25cc6ef350a5b0a76b31316fe2e137b5a5489d1bbb22c1",
    "matrix-generic text": "0 adb6f386a6b45bc15614a6dd668d9ca54e9364342591f90273b25f231f34e850",
    "matrix-generic json": "0 bf923066fc7513c6dc6cae7a97451b0fae04b318181121fb89f63c8be86564e8",
    "matrix-phi text": "0 59fcd01b3513f12def184194de055874ff080f3672081b3b3905fe6878830d3d",
    "matrix-phi json": "0 c7d49f182fb973d923c5e9a5a5a6551e8e566f5ce763587537a79c09189eee40",
    "resultant-sylvester text": "0 cda5d8a0337e1a38854222e8f491b02ed41c9aabba53ef0788bc1868bcf112ca",
    "resultant-sylvester json": "0 e4164f101765b53816ab5c96e51577555ac2e2fadffbdfee33f7871f9cd56e4b",
    "resultant-macaulay-above-nu text": "0 d3cd791da58a9e99c4db21e7604c85c7da785746ac270cd12a066fa6534f3717",
    "resultant-macaulay-above-nu json": "0 aec8425b6acbacd760f1259a252d6724b0141554d6eda4fc8779ac9f415ec891",
    "resultant-three-blocks text": "0 a4d11d6c74305335c20faf09fad549ba08db73c3330e6ba99d860cefdc62dc0e",
    "resultant-three-blocks json": "0 a3dda5bc76adb9781843aa9e55ef7fac04691ba7bdcf365950353f73ee880c6d",
    "test-vanishes text": "10 a6c96878f75b2a4fd168ca8c8cf6a32675f748ce0c2ccfbaaf6ece10bed1c7c6",
    "test-vanishes json": "10 8445b5913bf00294fcb41388d4eddf388ef2305d1e1eb00a689456e9f113ef38",
    "test-nonvanishing text": "0 784a08c159ca623a36191876ca319de3cd47898d09fb8d6b5aeee416ec551512",
    "test-nonvanishing json": "0 c6b46dc47d9cb315616bea1f3d3319a81ea9acf6d25dff462092df12a3a7158c",
    "chow text": "0 514242642c0c7612563a9ffe67dff96c2167527d00ab4307c9c9628c7bc51a44",
    "chow json": "0 e854eb8d546ef06fa99acfaafb550309b86219a8278f628d1c4026822a35552d",
    "chow-matrix-only text": "0 847eb7e4b24d9c17bf57f1806e158f64012914a75da4e1a2913afa9a796c5360",
    "chow-matrix-only json": "0 4a39516577b41562d6f769ef6a540f6081ed8768c259a3f00e84f325d14f63c5",
    "chow-2-2 text": "0 04a5b252a4453fe92403f19a66b0b32173746fdb4197889c36b95b4d69dd9d94",
    "chow-2-2 json": "0 923dfe701967b389dded03d7341f1998d94630a0cfac24e99dc725d7d261535e",
    "chow-test text": "10 21782e08293c55c40fa76a16cb99821c822c610f32fa29637a95747cb596f472",
    "chow-test json": "10 64da7674d9dd516c956570d5f9274bb10da34826ebafdf877e89a66cdfb6edad",
    "matrix-phi-rows text": "0 6675762a301a3bb1ed8815536d55ca997fb18f09015dc1fb5f50caa3c785f505",
    "matrix-phi-rows json": "0 d149644ed2056e904199e6a6475735891cb94b5520c384cb71966df0eb84fd14",
    "test-phi-rows text": "0 8ba81afbf5916610fdc1a973b74dc9362d887904cc79b33bf7c336a5a0b8bec7",
    "test-phi-rows json": "0 99c382a1fb977109138428e74966b5cc75c59506c8a578d2d918381db8a497d7",
    "chow-test-fractions text": "0 7f87aa06aa32bb69b53745ea49f4d238ce7144bbf1a85edb6df3d50ec8e49b26",
    "chow-test-fractions json": "0 be06ce5c74cf246250e4735c58cd65c4a01f35f30f0ef045184120707cb28fad",
    "complex text": "0 3a6949a92075cfa6216237d0d93b6f6a75de7feabc2fa560872eee5e3e6af2e2",
    "complex json": "0 de04ab001c9a2bd0516d3ee9d15c1b9e601b674fcc0fc3fc2c55b9424e7e499e",
    "complex-index text": "0 dbfed18986b7b268ce79892ecbac3700fc4d5999bfb4772e7bc5846959824b0c",
    "complex-index json": "0 40d773f44c50d71d62972bdfe68f95298ad1b188f04c6c99a5d993efd3da2e15",
    "degree-no-resultant text": "3 22e2c79a0db594d06dd41b747608657a0826f68a58f29b6d4f7d0b9a17f3acbb",
    "degree-no-resultant json": "3 72d5eb24ae9648ebeab955af34c856be0a6ccb55c75cde99ad6e3adaa6a5ee60",
    "chow-test-degenerate text": "10 ddb8f18de63822870747c06da23b57e0b543ecb5f50cc00d41b040d70d3c5dec",
    "chow-test-degenerate json": "10 958878a908d7515cf01f0162a9d29da697b6fe38780c23db239ae6bb9763aba0",
    "test-phi-short-exponent text": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "test-phi-short-exponent json": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "matrix-phi-short-exponent text": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "matrix-phi-short-exponent json": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "test-phi-negative-exponent text": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "test-phi-negative-exponent json": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "matrix-phi-negative-exponent text": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "matrix-phi-negative-exponent json": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def run(argv, tmp_path, capsys) -> str:
    """``main`` on ``argv`` with its file arguments written under ``tmp_path``:
    the exit code and the sha256 of what it printed."""
    resolved = []
    for arg in argv:
        kind, _, name = arg.partition(":")
        if kind in ("spec", "file") and name:
            path = tmp_path / f"{kind}-{name}.json"
            path.write_text(json.dumps((SPECS if kind == "spec" else FILES)[name]))
            arg = str(path)
        resolved.append(arg)
    capsys.readouterr()
    code = main(resolved)
    out = capsys.readouterr().out
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()}"


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_output_digest(case, mode, tmp_path, capsys):
    argv = CASES[case] + (["--json"] if mode == "json" else [])
    assert run(argv, tmp_path, capsys) == GOLDEN[f"{case} {mode}"]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_each_mode_builds_only_its_own_output(case, mode, tmp_path, capsys, monkeypatch):
    """Text mode never builds the JSON payload (``to_json``, ``_sigma_json``),
    and ``--json`` never formats a polynomial as text (``__str__``); the
    digests hold with the other mode's formatter made to raise."""

    def refuse(*args):
        raise AssertionError(f"the {mode} output formatted the other mode's output")

    if mode == "text":
        monkeypatch.setattr(Polynomial, "to_json", refuse)
        monkeypatch.setattr(cli, "_sigma_json", refuse)
    else:
        monkeypatch.setattr(Polynomial, "__str__", refuse)
    argv = CASES[case] + (["--json"] if mode == "json" else [])
    assert run(argv, tmp_path, capsys) == GOLDEN[f"{case} {mode}"]


NAME_SPECS = {
    "sylvester": ProblemSpec(2, 1, 0, (2, 3), (0,)),
    "macaulay": ProblemSpec(3, 1, 0, (1, 1, 2), (0,)),
    "lascoux": ProblemSpec(3, 3, 1, (1, 1, 1), (0, 0, 0)),
    "principal": ProblemSpec(3, 2, 1, (1, 1, 2), (0, 0)),
    "chow-2": chow_problem(ScrollSpec((2,))),
    "chow-2-1": chow_problem(ScrollSpec((2, 1))),
    "chow-1-1-1": chow_problem(ScrollSpec((1, 1, 1))),
    "chow-3-2": chow_problem(ScrollSpec((3, 2))),
    # 25 columns: the 25th is past the last letter and keeps c_j_i_e
    "wide": ProblemSpec(25, 1, 0, (1,) * 25, (0,)),
}

#: sha256 of the parameter names, one a line, per spec and naming rule.
NAME_GOLDEN = {
    "sylvester c_j_i_e": "d91b9298250535e994e29437b82773fffec8e4d35b04c57ff57fe4a2f529a5f2",
    "sylvester letters": "a7e68bfd461a31a4968c63cef214617798617ae9ea31e9a7ba11ad1237247b8f",
    "macaulay c_j_i_e": "876328c8fb25096988cccffd5d3a344eec0fed6bf1cb5ad18e7725961a441895",
    "macaulay letters": "bbafe8fc0dca6763087bc2e573d04d9f6af4b9d55d7fdc90d01e8fefb01276a7",
    "lascoux c_j_i_e": "3ae79f196b117f44f5e4f60a57f3d64f535b62b07566dcce62cd7e30c08403ba",
    "lascoux letters": "49fe3faaf09a64562e927fd4f75b13cda22f41099a6d43bfeaeb44b8037b0e3e",
    "principal c_j_i_e": "0458a2084144583f7e7c4988736f3797494bee4b3ea17afc9c4fa300d3a86687",
    "principal letters": "5f60818f2f8a9cae01b01664bc0a724d1a1198c2668b667180fe117dd96a772a",
    "chow-2 c_j_i_e": "9f136614edb3399e221b502f98a4349754864b23f4afc95620c126624f19d437",
    "chow-2 letters": "07f8e5ef1f1f28aa58e805b162aef5dfe3b1d41d5d3c446ddf59a531b3b7680f",
    "chow-2-1 c_j_i_e": "a077486810fefb0f8b307d01a835a5c9d1f22bdd723bb40c1735a46ddb1c7f14",
    "chow-2-1 letters": "1ba6e446690510736f3d074f8896e8380996b5ae0250b5b2a003ed9c6acd9cf0",
    "chow-1-1-1 c_j_i_e": "8ee74103b4e0d0a153af628d78cd072c7ba2602d456acec74545f2efc4b500df",
    "chow-1-1-1 letters": "5f25e01af5df254f7c726cf44e02dd0f21c83bd088236f2838ca6245716773ed",
    "chow-3-2 c_j_i_e": "3a182f67fbcb02acbeaa5e7eccf149d6579ac8670fef341a67831cb42092aef3",
    "chow-3-2 letters": "77267a1db04b98333364d8b4779d008a0ac4fdd66eb82ea7e4e1aa1e96592c66",
    "wide c_j_i_e": "b1000f35cdff1e84d9ea64a0868f4b8549177433f3e8b3f02d2c7036eaa9eb7c",
    "wide letters": "cff07ca6bc54dfa4af7e38fcdc15c55ba62c1c21e1961c43ca5cf7c1cdb5239a",
}


@pytest.mark.parametrize("rule", ["c_j_i_e", "letters"])
@pytest.mark.parametrize("spec", list(NAME_SPECS))
def test_parameter_names_digest(spec, rule):
    names = generic_morphism(NAME_SPECS[spec], rule == "letters").param_names
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == NAME_GOLDEN[f"{spec} {rule}"]
