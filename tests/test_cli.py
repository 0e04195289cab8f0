"""End-to-end command line behavior: output, determinism, exit codes.

Exit code contract: 0 the property holds, 1 it fails, 2 malformed input.
"""

import contextlib
import io
import json
import math
import time
import warnings
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eustar import cli, qseries, search
from eustar.certify import certify_extremal
from eustar.cli import main
from eustar.lattice import InputError, format_rational, lattice_from_json_dict, rational_parts
from eustar.rootsys import build_star, catalog, recognize_star
from eustar.star import is_eutactic, star_from_json_dict


@pytest.fixture
def a1_file(tmp_path):
    p = tmp_path / "a1.json"
    p.write_text(json.dumps({"gram": [[1]], "vectors": [["1"]]}))
    return str(p)


@pytest.fixture
def two_file(tmp_path):
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"gram": [[2]], "vectors": [["1/2"], ["1/2"]]}))
    return str(p)


@pytest.fixture
def i2_file(tmp_path):
    p = tmp_path / "i2.json"
    p.write_text(json.dumps({"gram": [[1, 0], [0, 1]]}))
    return str(p)


def test_check(a1_file, two_file, tmp_path, capsys):
    assert main(["check", a1_file]) == 0
    assert capsys.readouterr().out == "eutactic\n"
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"gram": [[2]], "vectors": [["1/2"]]}))
    assert main(["check", str(single)]) == 1
    assert capsys.readouterr().out == "not eutactic\n"


def test_check_bad_inputs(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["check", str(notjson)]) == 2
    capsys.readouterr()


def test_extremal(a1_file, two_file, capsys):
    assert main(["extremal", a1_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"extremal": True, "min": "0", "threshold": "0",
                   "witness": ["1/2"]}
    assert main(["extremal", two_file]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["extremal"] is False and out["threshold"] == "1/24"


@pytest.mark.parametrize("gram,vectors,message", [
    ([[2]], [], "a star needs at least one vector"),
    ([[2, 1], [1, 2]], [["1/3", "1/3"], ["0", "0"]], "vector 1: zero vector not allowed"),
    ([[2, 1], [1, 2]], [["1/3", "1/3"], ["1", "0", "0"]], "vector 1: length 3, expected 2"),
    ([[2]], [["1/3"]], "vector 0: not in the dual lattice (pairings ['2/3'])"),
    ([[2, 1], [1, 2]], [["1", "0"], ["1/2", "0"]],
     "vector 1: not in the dual lattice (pairings ['1', '1/2'])"),
    ([[1]], [[True]], "expected a rational, got the boolean True"),
], ids=["empty", "zero", "wrong_length", "non_dual", "half_dual", "boolean"])
def test_bad_star_rejected(gram, vectors, message, tmp_path, capsys):
    star = tmp_path / "bad.json"
    star.write_text(json.dumps({"gram": gram, "vectors": vectors}))
    for command in ("check", "extremal", "expand", "recognize"):
        assert main([command, str(star)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_extremal_catalog_type(capsys):
    assert main(["extremal", "--type", "G2"]) == 0
    out = capsys.readouterr().out
    assert out == ('{"extremal": true, "min": "1/6", "threshold": "1/6", '
                   '"witness": ["1/12", "1/4"]}\n')
    assert main(["extremal"]) == 2
    assert "star file or --type" in capsys.readouterr().err


def test_expand_dump(capsys):
    assert main(["expand", "--type", "A1", "--order", "60"]) == 0
    assert capsys.readouterr().out == \
        "3 -1/2 -1\n3 1/2 1\n27 -3/2 1\n27 3/2 -1\n"


def test_expand_holomorphy(two_file, capsys):
    assert main(["expand", two_file, "--order", "60", "--check-holomorphic"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "5 -1/1 -1/12"
    assert lines[-1] == "4 violating terms"
    assert main(["expand", "--type", "A2", "--order", "120",
                 "--check-holomorphic"]) == 0
    assert capsys.readouterr().out == "holomorphic\n"


def test_expand_singular_and_heat(two_file, capsys):
    assert main(["expand", "--type", "B2", "--order", "120",
                 "--check-singular"]) == 0
    assert capsys.readouterr().out == "singular support\n"
    assert main(["expand", two_file, "--order", "60", "--check-singular"]) == 1
    capsys.readouterr()
    assert main(["expand", "--type", "A2", "--order", "120", "--heat"]) == 0
    assert capsys.readouterr().out == "heat: zero\n"
    assert main(["expand", two_file, "--order", "60", "--heat"]) == 1
    assert capsys.readouterr().out.endswith("heat: nonzero\n")


def test_expand_eta_override(two_file, capsys):
    # eta exponent 2 instead of rank 1: no eta factor at all for N = 2.
    assert main(["expand", two_file, "--order", "30", "--eta", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["6 -1/1 1", "6 0/1 -2", "6 1/1 1"]


def test_expand_order_below_lowest_exponent(capsys):
    # The A2 block starts at n24 = 8 (three theta factors, eta^-1).
    for order in ("0", "2", "7"):
        assert main(["expand", "--type", "A2", "--order", order]) == 0
        assert capsys.readouterr().out == ""
    assert main(["expand", "--type", "A2", "--order", "2", "--check-singular"]) == 0
    assert capsys.readouterr().out == "singular support\n"
    assert main(["expand", "--type", "A2", "--order", "8"]) == 0
    assert capsys.readouterr().out.startswith("8 ")


def test_expand_negative_order(capsys):
    assert main(["expand", "--type", "A2", "--order", "-5"]) == 2
    assert "--order" in capsys.readouterr().err


def test_order_env(monkeypatch, capsys):
    # The output depends on argv alone: EUSTAR_ORDER is ignored.
    monkeypatch.delenv("EUSTAR_ORDER", raising=False)
    assert main(["expand", "--type", "A1"]) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("EUSTAR_ORDER", "20")
    assert main(["expand", "--type", "A1"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.count("\n") > 2


@pytest.mark.parametrize("command", ["extremal", "expand"])
def test_star_file_and_type_exclusive(command, two_file, capsys):
    assert main([command, "--type", "A1", two_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "not both" in err


def test_catalog(capsys):
    assert main(["catalog", "--type", "A2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "gram": [[2, 1], [1, 2]],
        "vectors": [["-1/3", "2/3"], ["2/3", "-1/3"], ["1/3", "1/3"]]}
    assert main(["catalog", "--type", "A2", "--lattice"]) == 0
    assert json.loads(capsys.readouterr().out) == {"gram": [[2, 1], [1, 2]]}
    assert main(["catalog", "--type", "Z9"]) == 2
    capsys.readouterr()


def test_search_and_alias(i2_file, capsys):
    assert main(["search", i2_file]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["stars"] == 1
    assert report["counterexamples"] == []
    assert report["extremal"][0]["types"] == "A1 x A1"
    assert main(["search", i2_file]) == 0
    assert capsys.readouterr().out == first  # deterministic output
    # search has no second spelling, and catalog emits the star without a flag.
    for argv in (["verify-theorem", i2_file], ["catalog", "--type", "A2", "--star"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_search_non_extremal_lattice(tmp_path, capsys):
    p = tmp_path / "three.json"
    p.write_text(json.dumps({"gram": [[3]]}))
    assert main(["search", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"counterexamples": [], "extremal": [], "stars": 1}


@pytest.mark.parametrize("gram", [[[1, 1], [1, 1]], [[1, 2], [2, 1]]],
                         ids=["semidefinite", "indefinite"])
def test_search_rejects_gram_not_positive_definite(gram, tmp_path, capsys):
    p = tmp_path / "gram.json"
    p.write_text(json.dumps({"gram": gram}))
    assert main(["search", str(p)]) == 2
    assert capsys.readouterr().err == "error: Gram matrix is not positive definite\n"


def test_recognize(a1_file, tmp_path, capsys):
    assert main(["recognize", a1_file]) == 0
    assert capsys.readouterr().out == "A1\n"
    multi = tmp_path / "multi.json"
    multi.write_text(json.dumps({"gram": [[1]], "vectors": [["1"], ["2"]]}))
    assert main(["recognize", str(multi)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["axiom"] == "integer-multiple"
    assert "witness" in out


# Malformed files, as star files and as lattice files: each must end in exit 2
# with one error line, never a traceback.
DIGITS = "1" * 5000  # more digits than int() converts
MALFORMED = {
    "not_utf8": (b'\xff\xfe{"gram": [[1]], "vectors": [["1"]]}', b'\xff\xfe{"gram": [[1]]}'),
    "deeply_nested": (b"[" * 100000, b"[" * 100000),
    "5000_digits": (f'{{"gram": [[{DIGITS}]], "vectors": [["1"]]}}'.encode(),
                    f'{{"gram": [[{DIGITS}]]}}'.encode()),
    "exponent": (b'{"gram": [[1]], "vectors": [["1e3000000"]]}', b'{"gram": [[1e3000000]]}'),
    "decimal": (b'{"gram": [[1]], "vectors": [["1.5"]]}', b'{"gram": [[1.5]]}'),
}


@pytest.mark.parametrize("command", ["check", "extremal", "expand", "recognize", "search"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_file_exits_2(command, kind, tmp_path, capsys):
    star, lattice = MALFORMED[kind]
    p = tmp_path / "bad.json"
    p.write_bytes(lattice if command == "search" else star)
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("entry", [10 ** 12, 10 ** 20, 10 ** 400], ids=["1e12", "1e20", "1e400"])
def test_search_box_budget_exits_2(entry, tmp_path, capsys):
    # The alphabet's walk on [[G_11]] lists 2 isqrt(G_11) + 1 points, all of
    # them axis points, which are counted before the walk goes past its first.
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"gram": [[entry]]}))
    assert main(["search", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the alphabet of this Gram matrix lists more than "
                            f"{search._MAX_POINTS} points\n")


@pytest.mark.parametrize("rank", [13, 30])
def test_search_high_rank_identity_exits_quickly(rank, tmp_path, capsys):
    # The box of I_l holds 3^l vectors, so rank 13 and above were refused;
    # the walk lists 2l + 1 points, and the signs are chosen without
    # comparing 2^(l-1) choices.  One star, the l unit vectors, extremal.
    p = tmp_path / "identity.json"
    p.write_text(json.dumps({"gram": [[int(i == j) for j in range(rank)]
                                      for i in range(rank)]}))
    start = time.perf_counter()
    assert main(["search", str(p)]) == 0
    assert time.perf_counter() - start < 5
    report = json.loads(capsys.readouterr().out)
    assert report["stars"] == 1 and report["counterexamples"] == []
    assert len(report["extremal"]) == 1


def test_parser_built_once_and_help_unchanged(capsys):
    # main reuses one parser; a parse leaves nothing behind for the next one.
    assert cli._parser() is cli._parser()
    helps = []
    for parse in (main, main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["search", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] == helps[2]
    assert helps[0].startswith("usage: eustar search")
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["extremal", "--type", "A1"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == ["1/2"]


# Star files for the 0/1/2 contract: a root star's file, or that of a star
# on a small Gram, damaged by a few edits.
BASE_STARS = [build_star(catalog(label)).to_json_dict() for label in ("A1", "A2", "B2", "G2", "A3")]
BASE_STARS += [{"gram": [[2]], "vectors": [["1/2"], ["1/2"]]},
               {"gram": [[1, 0], [0, 1]], "vectors": [["1", "0"], ["0", "1"]]}]
BAD_ENTRIES = [True, False, 1.5, 0.0, [1], [["1"]], None, "1/0", "x", "1e3", 3, "-2/4", " 1/3 "]


@st.composite
def damaged_star_files(draw):
    """The JSON of a star file with up to four edits: a vector repeated,
    negated, doubled, dropped or replaced by a rational one, perhaps off the
    dual lattice; a zero or wrong-length vector added; or one entry replaced
    by a bool, float, list, null, "1/0" or another JSON value."""
    base = draw(st.sampled_from(BASE_STARS))
    vectors = [list(v) for v in base["vectors"]]
    l = len(base["gram"])
    rational = st.builds(lambda p, q: format_rational(Q(p, q)),
                         st.integers(-6, 6), st.integers(1, 7))
    for edit in draw(st.lists(st.sampled_from(
            ("repeat", "negate", "double", "drop", "rational", "zero", "length", "entry")),
            max_size=4)):
        j = draw(st.integers(0, len(vectors))) if vectors else 0
        if edit == "zero":
            vectors.insert(j, ["0"] * l)
        elif edit == "length":
            vectors.insert(j, ["1"] * draw(st.sampled_from((0, l - 1, l + 1))))
        elif edit == "rational":
            vectors.insert(j, draw(st.lists(rational, min_size=l, max_size=l)))
        elif j < len(vectors) and vectors[j]:
            v = vectors[j]
            if edit == "repeat":
                vectors.append(list(v))
            elif edit == "drop":
                del vectors[j]
            elif edit == "entry":
                v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
            else:
                c = -1 if edit == "negate" else 2
                with contextlib.suppress(InputError):
                    vectors[j] = [format_rational(c * Q(*rational_parts(x))) for x in v]
    return {"gram": base["gram"], "vectors": vectors}


@settings(max_examples=300, deadline=None)
@given(damaged_star_files())
def test_check_and_recognize_keep_the_exit_contract(tmp_path_factory, data):
    """check, recognize and extremal exit 0, 1 or 2 on any star file, with no
    escaping exception.  Exit 2 comes only with the InputError that loading
    the file raises, or from extremal on a star that is not eutactic, as one
    error line on stderr: no other star the loader accepts makes a command
    reject its input, and extremal's exit follows certify_extremal."""
    path = tmp_path_factory.getbasetemp() / "generated.star.json"
    path.write_text(json.dumps(data))
    try:
        star, message = star_from_json_dict(data), None
    except InputError as exc:
        star, message = None, str(exc)
    for command, holds in (("check", is_eutactic),
                           ("recognize", lambda s: recognize_star(s).ok),
                           ("extremal", lambda s: certify_extremal(s).is_extremal)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        if star is None:
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
        elif command == "extremal" and not is_eutactic(star):
            # certify_extremal's one InputError: its search needs a eutactic star.
            assert (code, out.getvalue(), err.getvalue()) == \
                (2, "", "error: min_deficiency requires a eutactic star\n")
        else:
            assert code == (0 if holds(star) else 1) and err.getvalue() == ""
            assert out.getvalue().endswith("\n") and out.getvalue().count("\n") == 1


EXPAND_VERDICTS = [
    ((), None),
    (("--check-holomorphic",), lambda block: not qseries.check_holomorphic(block)),
    (("--check-singular",), qseries.check_singular_support),
    (("--heat",), lambda block: qseries.heat_apply(block).is_zero()),
]


@settings(max_examples=300, deadline=None)
@given(damaged_star_files())
def test_expand_keeps_the_exit_contract(tmp_path_factory, data):
    """expand exits 0, 1 or 2 on any star file at --order 60, plain and with
    each check, with no escaping exception.  Exit 2 comes only with the
    InputError that loading the file raises, as one error line on stderr.
    Otherwise a check's exit follows its qseries predicate, a plain dump
    exits 0, and stderr stays empty; the one warning is theta_block's
    RuntimeWarning for a star that is not eutactic."""
    path = tmp_path_factory.getbasetemp() / "generated.star.json"
    path.write_text(json.dumps(data))
    try:
        star, message = star_from_json_dict(data), None
    except InputError as exc:
        star, message = None, str(exc)
    if star is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            block = qseries.theta_block(star, n24_max=60)
        eutactic = is_eutactic(star)
    for flags, holds in EXPAND_VERDICTS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["expand", str(path), "--order", "60", *flags])
        warned = [(w.category, str(w.message)) for w in caught]
        if star is None:
            assert (code, out.getvalue(), err.getvalue(), warned) == \
                (2, "", f"error: {message}\n", [])
            continue
        assert code == (0 if holds is None or holds(block) else 1)
        assert err.getvalue() == ""
        assert warned == ([] if eutactic else
                          [(RuntimeWarning, "theta_block of a non-eutactic star")])


# Lattice files for the 0/1/2 contract of search: a small positive definite
# Gram, or the rank-13 identity, whose box of 3^13 vectors is over the
# budget though its alphabet has 13, damaged by a few edits.
BASE_GRAMS = [[[1]], [[2]], [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[4, 1], [1, 4]],
              [[3, 3], [3, 6]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
              [[3, 2, 1], [2, 4, 2], [1, 2, 3]],
              [[int(i == j) for j in range(13)] for i in range(13)]]
BAD_GRAM_ENTRIES = [True, False, 1.5, 2.0, "1", "1/0", " 2/4", [1], [[2]], None]


@st.composite
def damaged_lattice_files(draw):
    """The JSON of a lattice file with up to four edits to a base Gram: a
    row dropped, added or cut short (non-square), one side of an
    off-diagonal pair changed (non-symmetric), a row and its column copied
    onto another (singular), a diagonal entry negated (indefinite), a
    symmetric pair or a diagonal entry set to 10^400 (huge), one entry
    replaced by a bool, float, string, list or null, or a row by a non-list."""
    gram = [list(row) for row in draw(st.sampled_from(BASE_GRAMS))]
    for edit in draw(st.lists(st.sampled_from(
            ("shape", "asymmetric", "copy", "negate", "huge", "entry")), max_size=3)):
        if not gram or not all(isinstance(row, list) and row for row in gram):
            break
        n = len(gram)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        numeric = all(type(x) is int for row in gram for x in row)
        if edit == "shape":
            shape = draw(st.sampled_from(("drop", "add", "cut", "row")))
            if shape == "drop":
                del gram[i]
            elif shape == "add":
                gram.append([draw(st.integers(-2, 2)) for _ in gram[0]])
            elif shape == "cut":
                gram[i] = gram[i][:-1]
            else:
                gram[i] = draw(st.sampled_from((1, "1", None, {"1": 1})))
        elif any(len(row) != n for row in gram):
            continue
        elif edit == "asymmetric" and numeric and i != j:
            gram[i][j] += draw(st.sampled_from((-1, 1)))
        elif edit == "copy" and numeric and i != j:
            for row in gram:
                row[j] = row[i]
            gram[j] = list(gram[i])
        elif edit == "negate" and numeric:
            gram[i][i] = -gram[i][i]
        elif edit == "huge":
            gram[i][j] = gram[j][i] = 10 ** 400
        elif edit == "entry":
            gram[i][j] = draw(st.sampled_from(BAD_GRAM_ENTRIES))
    return {"gram": gram}


def _budget_refuses(lattice, cap):
    """Whether the alphabet's budget must refuse the lattice: False if its box
    prod_i (2 isqrt(G_ii) + 1) holds at most cap vectors, as every point the
    walk lists lies in it; True if more than cap axis points t e_i have
    t^2 (G^-1)_ii <= 1; None, either outcome, in between."""
    gi, d = lattice.dual_gram()
    l = lattice.rank
    if math.prod(2 * math.isqrt(lattice.gram[i][i]) + 1 for i in range(l)) <= cap:
        return False
    if 1 + sum(2 * math.isqrt(d // gi[i][i]) for i in range(l)) > cap:
        return True
    return None


@settings(max_examples=300, deadline=None)
@given(damaged_lattice_files())
def test_search_keeps_the_exit_contract(tmp_path_factory, data):
    """search exits 0, 1 or 2 on any lattice file, with no escaping
    exception.  Exit 2 comes only with the InputError that loading the file
    raises, or with the alphabet walk's budget on a lattice the loader
    accepts, as one error line on stderr; otherwise the report is one JSON
    line, and the exit is 1 iff it lists a counterexample.  The budget never
    refuses a lattice whose box prod_i (2 isqrt(G_ii) + 1) holds at most
    search._MAX_POINTS vectors, as every point the walk lists lies in it,
    and always refuses one with more axis points than that; in between the
    test takes either outcome, and checks the walk's count in no other way."""
    path = tmp_path_factory.getbasetemp() / "generated.lattice.json"
    path.write_text(json.dumps(data))
    try:
        lattice, message = lattice_from_json_dict(data), None
    except InputError as exc:
        lattice, message = None, str(exc)
    budget = (f"the alphabet of this Gram matrix lists more than "
              f"{search._MAX_POINTS} points")
    refuses = lattice is not None and _budget_refuses(lattice, search._MAX_POINTS)
    if refuses:
        message = budget
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["search", str(path)])
    if refuses is None and code == 2:
        message = budget
    if message is not None:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
    else:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
        report = json.loads(out.getvalue())
        assert code == (1 if report["counterexamples"] else 0)
