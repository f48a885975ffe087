import json

import pytest

from gtsingular import cli
from gtsingular.cli import main, parse_basis_spec, parse_shift_spec, shift_spec
from gtsingular.distributions import DistVector
from gtsingular.tableau import Shift, canonical_test_point


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shift_spec_grammar():
    assert parse_shift_spec("id") == Shift.identity()
    assert parse_shift_spec("(2,1)+1") == Shift({(2, 1): 1})
    assert parse_shift_spec("(1,1)-2,(2,2)+3") == Shift({(1, 1): -2, (2, 2): 3})
    assert parse_shift_spec("(2,1)+1, (2,1)+1") == Shift({(2, 1): 2})
    assert parse_shift_spec(" (2,1)+1,(2,1)-1 ") == Shift.identity()
    s = Shift({(1, 1): -2, (2, 2): 3})
    assert parse_shift_spec(shift_spec(s)) == s
    assert shift_spec(Shift.identity()) == "id"
    with pytest.raises(Exception):
        parse_shift_spec("(2,1)")
    with pytest.raises(Exception):
        parse_basis_spec("D5:id")


def test_phi_text(capsys):
    code, out, _ = run(capsys, "phi", "--n", "2", "--gen", "1,2")
    assert code == 0
    assert (
        out.strip()
        == "(-x[1][1]^2 + x[1][1]*x[2][1] + x[1][1]*x[2][2] - x[2][1]*x[2][2]) σ[1,1]^-1"
    )
    code, out, _ = run(capsys, "phi", "--n", "3", "--gen", "1,1")
    assert code == 0 and out.strip() == "(x[1][1]) id"


def test_phi_cold_warm_identical(capsys):
    args = ("phi", "--n", "3", "--gen", "1,3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_act_examples(capsys):
    code, out, _ = run(capsys, "act", "--gen", "1,1", "--basis", "D1:id")
    assert code == 0 and out.strip() == "D1:id = 1/5"
    code, out, _ = run(capsys, "act", "--gen", "2,2", "--basis", "D2:(2,1)+1")
    assert code == 0
    labels = {line.split(" = ")[0] for line in out.strip().splitlines()}
    assert labels <= {"D2:(2,2)+1", "D1:(2,2)+1"}


def test_act_cold_warm_identical(capsys):
    args = ("act", "--gen", "2,3", "--basis", "D2:(2,2)+1", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_act_usage_errors(capsys):
    code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", "nope")
    assert code == 2 and "basis" in err
    code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", "D2:(2,1)+1,(2,2)+1")
    assert code == 2 and "transposition-fixed" in err
    code, _, err = run(capsys, "act", "--gen", "9,9", "--basis", "D1:id")
    assert code == 2
    for basis in ("D1:(0,1)+1", "D1:(2,3)+1"):
        code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", basis)
        assert code == 2 and len(err.splitlines()) == 1 and "position" in err
    # a malformed pair, and a bottom-row pair the context rejects
    for singular in ("2,1", "a,b,c", "3,1,2"):
        code, out, err = run(capsys, "act", "--singular", singular, "--gen", "1,1", "--basis", "D1:id")
        assert code == 2 and out == "" and len(err.splitlines()) == 1, singular
        assert err.startswith("error:"), singular


def test_phi_usage_errors(capsys):
    for argv in (
        ("--n", "3", "--gen", "1,7"),
        ("--gen", "1"),
        ("--gen", "a,b"),
        # orders above MAX_ORDER = 12 have no packed monomials
        ("--n", "20", "--gen", "3,3"),
        ("--n", "13", "--gen", "1,1"),
    ):
        code, out, err = run(capsys, "phi", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith("error:"), argv
        if argv[0] == "--n" and int(argv[1]) > 12:
            assert "at most 12" in err, argv


def test_cli_writes_nothing_to_disk(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert run(capsys, "phi", "--n", "3", "--gen", "1,3")[0] == 0
    assert run(capsys, "act", "--gen", "2,2", "--basis", "D2:(2,1)+1")[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_classify_default_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0 and out.strip() == "OneSingular(2,1,2)"
    pt = tmp_path / "generic.json"
    pt.write_text(
        json.dumps(
            {"n": 3, "rows": [["1/5"], ["1/3", "1/7"], ["1/11", "2/13", "3/17"]]}
        )
    )
    code, out, _ = run(capsys, "classify", "--point", str(pt))
    assert code == 0 and out.strip() == "Generic"
    doubly = tmp_path / "other.json"
    doubly.write_text(
        json.dumps({"n": 3, "rows": [["1/5"], ["1/4", "5/4"], ["1/7", "8/7", "3/13"]]})
    )
    code, out, _ = run(capsys, "classify", "--point", str(doubly))
    assert code == 0 and out.strip() == "Other"


def test_classify_malformed_point(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (
        "{not json",
        # JSON numbers where rational strings belong: an int and a float entry
        '{"n":3,"rows":[[1],[2,3],[4,5,6]]}',
        '{"n":3,"rows":[["1"],["2","3"],["4",5.5,"6"]]}',
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "classify", "--point", str(bad))
        assert code == 2 and out == "", text
        assert len(err.splitlines()) == 1 and "cannot read point" in err, text


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "homomorphism")
    assert code == 0 and "16/16 passed" in out
    # the order suites take no point or pair: passing one is a usage error
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps(canonical_test_point(3).to_json()))
    p13 = tmp_path / "p13.json"
    rows = [[f"{i}/{100 + k}" for i in range(1, k + 1)] for k in range(1, 14)]
    p13.write_text(json.dumps({"n": 13, "rows": rows}))
    for argv in (
        ("--singular", "9,9,9", "--n", "2", "homomorphism"),
        ("--point", str(p3), "--n", "2", "homomorphism"),
        ("--point", str(p3), "ring"),
        # a suite named twice is ambiguous, never silently one of the two
        ("--n", "2", "homomorphism", "--suite", "ring"),
        ("--n", "2", "ring", "--suite", "ring"),
        # an order-3 point where order 4 is asked for
        ("--n", "4", "--point", str(p3), "singularity"),
        # orders above MAX_ORDER = 12, by --n or by the point's own order
        ("--n", "13", "homomorphism"),
        ("--n", "13", "ring"),
        ("--point", str(p13), "module"),
        ("--point", str(p13), "singularity"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:")
        if "13" in argv or str(p13) in argv:
            assert "at most 12" in err, argv
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "verify")
    assert code == 2 and "pick a suite" in err
    # a degenerate order is a usage error, never a traceback or a vacuous pass
    for n, suite in (("0", "ring"), ("-1", "ring"), ("0", "homomorphism"), ("-3", "homomorphism")):
        code, out, err = run(capsys, "verify", "--n", n, suite)
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and "order" in err


def test_verify_context_suites_at_order_4(tmp_path, capsys):
    pt = tmp_path / "order4.json"
    rows = [["1/5"], ["1/3", "1/3"], ["1/7", "2/11", "3/13"], ["1/17", "2/19", "3/23", "4/29"]]
    pt.write_text(json.dumps({"n": 4, "rows": rows}))
    code, out, _ = run(capsys, "verify", "--n", "4", "--point", str(pt), "singularity")
    assert code == 0 and out.strip() == "suite singularity: 101/101 passed"
    # the shipped point is order 3 only, so order 4 still needs --point
    code, out, err = run(capsys, "verify", "--n", "4", "module")
    assert code == 2 and out == "" and "no default point for order 4" in err


def test_verify_suite_flag_form(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--suite", "homomorphism", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["total"] == 16


def test_point_json_matches_canonical(tmp_path, capsys):
    pt = tmp_path / "canonical.json"
    pt.write_text(json.dumps(canonical_test_point(3).to_json()))
    code, out, _ = run(capsys, "classify", "--point", str(pt))
    assert code == 0 and out.strip() == "OneSingular(2,1,2)"


def test_shipped_fixture_is_canonical():
    from pathlib import Path

    from gtsingular.tableau import Point

    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "canonical_point_n3.json"
    with open(fixture, "r", encoding="utf-8") as fh:
        assert Point.from_json(json.load(fh)) == canonical_test_point(3)


def test_zero_vector_text_and_entry_point(capsys, monkeypatch):
    """The zero vector prints as 0; the console-script entry exits with the
    code main returns."""
    assert cli.dist_vector_text(DistVector.zero()) == "0"
    monkeypatch.setattr("sys.argv", ["gtsingular", "phi", "--n", "3", "--gen", "1,1"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0 and capsys.readouterr().out.strip() == "(x[1][1]) id"
    monkeypatch.setattr("sys.argv", ["gtsingular", "phi", "--n", "3", "--gen", "1,7"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
