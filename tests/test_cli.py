"""End-to-end command line behavior: output, determinism, exit codes.

Exit code contract: 0 the property holds, 1 it fails, 2 malformed input.
"""

import json

import pytest

from eustar.cli import main


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
    ([[1]], [[True]], "expected a rational, got the boolean True"),
], ids=["empty", "zero", "wrong_length", "non_dual", "boolean"])
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
    monkeypatch.setenv("EUSTAR_ORDER", "20")
    assert main(["expand", "--type", "A1"]) == 0
    assert capsys.readouterr().out == "3 -1/2 -1\n3 1/2 1\n"
    monkeypatch.setenv("EUSTAR_ORDER", "abc")
    assert main(["expand", "--type", "A1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("EUSTAR_ORDER", "-4")
    assert main(["expand", "--type", "A1"]) == 2
    capsys.readouterr()
    # An explicit --order wins over the environment.
    monkeypatch.setenv("EUSTAR_ORDER", "abc")
    assert main(["expand", "--type", "A1", "--order", "30"]) == 0
    capsys.readouterr()


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
    assert main(["verify-theorem", i2_file]) == 0
    assert capsys.readouterr().out == first
    assert main(["search", i2_file]) == 0
    assert capsys.readouterr().out == first  # deterministic output


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
