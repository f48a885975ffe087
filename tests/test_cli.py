import contextlib
import importlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gtsingular
from gtsingular import cli, gtformulas, suites
from gtsingular.cli import main, parse_basis_spec, parse_shift_spec, shift_spec
from gtsingular.distributions import DistVector
from gtsingular.tableau import Shift, canonical_test_point
from tests_helpers import ROW3_POINT


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
    with pytest.raises(ValueError, match="KIND:SHIFTSPEC"):
        parse_basis_spec("D1")


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


def test_act_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", "nope")
    assert code == 2 and "basis" in err
    code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", "D2:(2,1)+1,(2,2)+1")
    assert code == 2 and "transposition-fixed" in err
    code, _, err = run(capsys, "act", "--gen", "9,9", "--basis", "D1:id")
    assert code == 2
    # the kind is refused by the one label rule, not by the parser
    assert run(capsys, "act", "--gen", "2,2", "--basis", "D3:id") == (
        2, "", "error: unknown distribution kind 'D3'\n"
    )
    for basis in ("D1:(0,1)+1", "D1:(2,3)+1"):
        code, _, err = run(capsys, "act", "--gen", "1,1", "--basis", basis)
        assert code == 2 and len(err.splitlines()) == 1 and "position" in err
    # a point with no singular context: not 1-singular, or its pair in the bottom row
    pt = tmp_path / "point.json"
    for rows, message in [
        ([["1/5"], ["1/3", "1/7"], ["1/11", "2/13", "3/17"]],
         "point classifies as Generic, not OneSingular"),
        ([["1/5"], ["1/3", "1/7"], ["1/11", "1/11", "3/17"]],
         "singular pair in the bottom row produces no singular denominators; context rejected"),
    ]:
        pt.write_text(json.dumps({"n": 3, "rows": rows}))
        code, out, err = run(capsys, "act", "--point", str(pt), "--gen", "1,1", "--basis", "D1:id")
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_act_at_a_row3_pair_takes_no_pair_flag(tmp_path, capsys):
    """The context is read off the point: at an order-4 point 1-singular at
    (3,1,2), act runs with only --point."""
    pt = tmp_path / "row3.json"
    pt.write_text(json.dumps(ROW3_POINT.to_json()))
    code, out, err = run(capsys, "act", "--point", str(pt), "--gen", "3,4", "--basis", "D2:(3,2)+1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "D1:id = -10315214429/21506397825"
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("act", "--singular", "2,1,2", "--gen", "1,1", "--basis", "D1:id"),
        ("classify", "--singular", "2,1,2"),
        ("verify", "--singular", "2,1,2", "functional"),
        ("verify", "--n", "2", "--suite", "homomorphism"),
    ],
)
def test_no_pair_or_suite_flag(capsys, argv):
    """No command takes a singular pair or a --suite flag: each is a usage
    error with one stderr line and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: unrecognized arguments: --s")


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
        if argv[0] == "--gen":
            assert err == f"error: generator spec must be r,s, got {argv[1]!r}\n"


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


def test_classify_rejects_an_order_mismatch_and_a_singular_pair(tmp_path, capsys):
    """classify checks --n against the point's order as act and verify do:
    a mismatch gives exit 2, one error line and no output."""
    pt = tmp_path / "p3.json"
    pt.write_text(json.dumps(canonical_test_point(3).to_json()))
    for argv, message in [
        (["--n", "4", "--point", str(pt)], "error: point has order 3, expected 4"),
    ]:
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out, err) == (2, "", message + "\n"), argv
    assert run(capsys, "classify", "--n", "3", "--point", str(pt))[:2] == (0, "OneSingular(2,1,2)\n")


def test_classify_malformed_point(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (
        "{not json",
        # JSON numbers where rational strings belong: an int and a float entry
        '{"n":3,"rows":[[1],[2,3],[4,5,6]]}',
        '{"n":3,"rows":[["1"],["2","3"],["4",5.5,"6"]]}',
        # nesting deeper than the JSON parser's recursion limit
        "[" * 200000 + "]" * 200000,
        # an order that reads as an infinite float
        '{"n": 1e400, "rows": []}',
        # orders that are not JSON integers: a float, a string and a bool
        '{"n": 3.9, "rows": [["1"], ["2", "3"], ["4", "5", "6"]]}',
        '{"n": "3", "rows": [["1"], ["2", "3"], ["4", "5", "6"]]}',
        '{"n": true, "rows": [["1"]]}',
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "classify", "--point", str(bad))
        assert code == 2 and out == "", text
        assert len(err.splitlines()) == 1 and "cannot read point" in err, text


def test_a_short_exponent_literal_exits_at_once(tmp_path):
    """A coordinate with an exponent past the int digit limit, of either
    sign, exits 2 with one stderr line in a fresh process well under a
    second; `Fraction` alone would build 10**100000000 for over a minute.
    Exponents within the limit still read."""
    point = tmp_path / "p.json"
    src = str(Path(gtsingular.__file__).resolve().parents[1])

    def classify(literal: str):
        rows = [[literal], ["1/3", "1/3"], ["1/7", "2/11", "3/13"]]
        point.write_text(json.dumps({"n": 3, "rows": rows}))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gtsingular.cli", "classify", "--point", str(point)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        return proc, time.perf_counter() - start

    for literal in ("1e100000000", "1E-100000000"):
        proc, seconds = classify(literal)
        assert proc.returncode == 2 and proc.stdout == "", literal
        assert proc.stderr.splitlines() == [
            f"error: cannot read point file {point}: bad rational literal {literal!r}"
        ]
        assert seconds < 1, (literal, seconds)
    for literal in ("1e3", "2.5e-3", "1e4000"):
        proc, _ = classify(literal)
        assert (proc.returncode, proc.stderr) == (0, ""), literal


def test_classify_point_of_the_wrong_shape(tmp_path, capsys):
    """A point file that is valid JSON of the wrong shape gives exit 2 and
    one stderr line naming what is wrong: not an object, a missing key, or
    rows that are not a list of lists."""
    bad = tmp_path / "p.json"
    rows = "the point's rows must be a list of lists"
    for text, message in (
        ('{"n": 3}', "a point needs the key 'rows'"),
        ('{"rows": [["1"]]}', "a point needs the key 'n'"),
        ("[1, 2]", "a point must be a JSON object, got list"),
        ('"point"', "a point must be a JSON object, got str"),
        ('{"n": 3, "rows": "abc"}', rows),
        ('{"n": 3, "rows": [["1"], 2, ["4", "5", "6"]]}', rows),
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "classify", "--point", str(bad))
        assert code == 2 and out == "", text
        assert err.splitlines() == [f"error: cannot read point file {bad}: {message}"], text


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "homomorphism")
    assert code == 0 and "16/16 passed" in out
    # the order suites take no point: passing one is a usage error
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps(canonical_test_point(3).to_json()))
    p13 = tmp_path / "p13.json"
    rows = [[f"{i}/{100 + k}" for i in range(1, k + 1)] for k in range(1, 14)]
    p13.write_text(json.dumps({"n": 13, "rows": rows}))
    for argv in (
        ("--singular", "9,9,9", "--n", "2", "homomorphism"),
        ("--point", str(p3), "--n", "2", "homomorphism"),
        ("--point", str(p3), "ring"),
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


def test_out_of_memory_keeps_the_exit_contract(capsys, monkeypatch):
    """A run that exhausts memory exits 2 with one stderr line and nothing
    on stdout, not with a traceback."""

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(gtformulas, "verify_homomorphism", exhausted)
    code, out, err = run(capsys, "verify", "--n", "3", "homomorphism")
    assert code == 2 and out == "" and err == "error: out of memory\n"


def test_a_result_that_cannot_be_written_keeps_the_exit_contract(capsys, monkeypatch):
    """A closed pipe on stdout: the console entry exits 2 with one stderr
    line, not 1, the code of a failed check, and drops the unwritten
    result, so the flush at exit has nowhere to fail."""
    read, write = os.pipe()
    os.close(read)
    closed = open(write, "w", encoding="utf-8")
    monkeypatch.setattr("sys.stdout", closed)
    monkeypatch.setattr("sys.argv", ["gtsingular", "classify"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    closed.close()
    # a stdout closed at start: Python sets sys.stdout to None
    monkeypatch.setattr("sys.stdout", None)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: [Errno 9] standard output is closed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--n", "3", "--gen", "1,3"),
        ("act", "--gen", "2,3", "--basis", "D2:(2,2)+1"),
        ("classify",),
        ("verify", "--n", "3", "ring", "--format", "json"),
        pytest.param(("-h",), id="help"),
        pytest.param(("phi", "-h"), id="phi-help"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_closed_or_full_stdout_exits_2_with_one_line(argv):
    """A gtsingular process whose stdout is a pipe with no reader, buffered
    or not, /dev/full where it exists, or closed at start (POSIX), exits 2
    with one `error:` line and no traceback or shutdown message; so does
    its help text."""
    src = str(Path(gtsingular.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)

    def run_into(stdout, env, **kw):
        return subprocess.run(
            [sys.executable, "-m", "gtsingular.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60, **kw,
        )

    for unbuffered in (False, True):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_into(write, dict(env, PYTHONUNBUFFERED="1") if unbuffered else env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n"), unbuffered
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = run_into(full, env)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")
    if os.name == "posix":
        proc = run_into(None, env, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 9] standard output is closed\n")


@pytest.mark.parametrize(
    "coordinate",
    [pytest.param("9" * 4000, id="4000-nines"), pytest.param("9999e4299", id="9999e4299")],
)
def test_a_result_too_long_to_print_keeps_the_exit_contract(tmp_path, capsys, coordinate):
    """A coordinate that reads within the int digit limit can make a printed
    value pass it: printing raises ValueError, and that exits 2 with one
    stderr line and nothing on stdout, not with a traceback."""
    pt = tmp_path / "p.json"
    rows = [[coordinate], ["1/3", "1/3"], ["1/7", "2/11", "3/13"]]
    pt.write_text(json.dumps({"n": 3, "rows": rows}))
    code, out, err = run(capsys, "act", "--point", str(pt), "--gen", "1,2", "--basis", "D1:id")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: a result has more than") and "Traceback" not in err
    assert "PYTHONINTMAXSTRDIGITS" in err and "set_int_max_str_digits" not in err
    if len(coordinate) == 4000:
        code, out, err = run(capsys, "act", "--point", str(pt), "--gen", "1,1", "--basis", "D1:id")
        assert (code, err) == (0, "") and out == f"D1:id = {coordinate}\n"


def test_main_is_the_one_catch_for_value_errors(capsys, monkeypatch):
    """Any ValueError a command raises, printing included, exits 2 with its
    text; an InvariantViolation is a fault, not an input error, and
    propagates."""
    from gtsingular.distributions import InvariantViolation

    def fails(exc):
        def render(d):
            raise exc

        return render

    argv = ("act", "--gen", "1,2", "--basis", "D1:id")
    monkeypatch.setattr(cli, "dist_vector_text", fails(ValueError("x")))
    assert run(capsys, *argv) == (2, "", "error: x\n")
    monkeypatch.setattr(cli, "dist_vector_text", fails(InvariantViolation("y")))
    with pytest.raises(InvariantViolation, match="y"):
        main(list(argv))


def test_verify_context_suites_at_order_4(tmp_path, capsys):
    pt = tmp_path / "order4.json"
    rows = [["1/5"], ["1/3", "1/3"], ["1/7", "2/11", "3/13"], ["1/17", "2/19", "3/23", "4/29"]]
    pt.write_text(json.dumps({"n": 4, "rows": rows}))
    code, out, _ = run(capsys, "verify", "--n", "4", "--point", str(pt), "singularity")
    assert code == 0 and out.strip() == "suite singularity: 101/101 passed"
    # the shipped point is order 3 only, so order 4 still needs --point
    code, out, err = run(capsys, "verify", "--n", "4", "module")
    assert code == 2 and out == "" and "no default point for order 4" in err


def test_verify_functional(tmp_path, capsys):
    """`functional` runs on the singular context like the other context
    suites: at the shipped point by default, at any order given a point."""
    code, out, err = run(capsys, "verify", "functional")
    assert (code, out, err) == (0, "suite functional: 100/100 passed\n", "")
    code, out, _ = run(capsys, "verify", "--format", "json", "functional")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert (report["suite"], report["passed"], report["total"]) == ("functional", 100, 100)
    pt = tmp_path / "row3.json"
    pt.write_text(json.dumps(ROW3_POINT.to_json()))
    argv = ("verify", "--n", "4", "--point", str(pt), "functional")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "suite functional: 100/100 passed\n"


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


def test_module_main_guard(capsys, monkeypatch):
    """`python -m gtsingular.cli` runs the console entry."""
    monkeypatch.setattr("sys.argv", ["gtsingular", "phi", "--n", "2", "--gen", "2,2"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("gtsingular.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "(-x[1][1] + x[2][1] + x[2][2] + 1) id"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("phi", "--n", "3"), id="missing-flag"),
        pytest.param(("phi", "--n", "3", "--gen", "1,1", "--bogus"), id="unknown-flag"),
        pytest.param(("verify", "--n", "x", "ring"), id="non-integer-n"),
        pytest.param(("act", "--gen", "1,1", "--basis", "D1:id", "--format", "xml"), id="bad-format"),
        pytest.param((), id="missing-subcommand"),
        pytest.param(("frob",), id="unknown-subcommand"),
    ],
)
def test_argparse_errors_keep_the_exit_contract(capsys, argv):
    """argparse's own errors exit 2 with one `error:` line and no usage text."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error:"), err


def test_help_still_exits_zero(capsys):
    for argv in (["-h"], ["verify", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")


def test_package_names_resolve_on_first_use():
    """Each name of gtsingular.__all__ is its module's object, imported on
    first use; an unknown name raises AttributeError."""
    for name in gtsingular.__all__:
        home = importlib.import_module(f"gtsingular.{gtsingular._HOME[name]}")
        assert getattr(gtsingular, name) is getattr(home, name)
    with pytest.raises(AttributeError):
        gtsingular.no_such_name


LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("gtsingular."))
import gtsingular
out = [loaded()]
from gtsingular import cli
out.append(loaded())
for argv in sys.argv[1:]:
    cli.main(json.loads(argv))
    out.append(loaded())
print(json.dumps(out), file=sys.stderr)
"""


def test_cli_imports_only_what_a_command_uses():
    """`import gtsingular` loads no module of the package, `gtsingular.cli`
    only itself, and a command the modules it uses: no suites for classify,
    phi or act."""
    commands = [
        ["classify"],
        ["phi", "--n", "2", "--gen", "1,2"],
        ["act", "--gen", "2,3", "--basis", "D1:id"],
    ]
    src = str(Path(gtsingular.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *map(json.dumps, commands)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    bare, cli_only, classify, phi, act = json.loads(proc.stderr)
    assert bare == [] and cli_only == ["gtsingular.cli"]
    assert "gtsingular.tableau" in classify and "gtsingular.gtformulas" not in classify
    assert "gtsingular.gtformulas" in phi and "gtsingular.distributions" not in phi
    assert "gtsingular.distributions" in act and "gtsingular.suites" not in act


def _other_format_renderer(*args, **kwargs):
    raise AssertionError("the renderer of the format not asked for ran")


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--n", "4", "--gen", "1,4"),
        ("act", "--gen", "1,3", "--basis", "D2:(2,2)+1"),
        ("act", "--gen", "2,2", "--basis", "D1:(2,1)+1,(2,2)+1"),
        ("verify", "--n", "2", "homomorphism"),
        ("verify", "module"),
    ],
)
def test_cli_renders_only_the_chosen_format(capsys, monkeypatch, argv):
    """A text run never builds the JSON payload and a JSON run never builds
    the text, and each prints what it printed with both renderers present."""
    from gtsingular.skewring import RingElement

    expected = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("text", "json")}
    assert expected["text"][0] == expected["json"][0] == 0
    with monkeypatch.context() as m:
        m.setattr(RingElement, "to_json", _other_format_renderer)
        m.setattr(DistVector, "to_json", _other_format_renderer)
        assert run(capsys, *argv, "--format", "text") == expected["text"]
    with monkeypatch.context() as m:
        m.setattr(RingElement, "__repr__", _other_format_renderer)
        m.setattr(cli, "dist_vector_text", _other_format_renderer)
        m.setattr(cli, "verify_text", _other_format_renderer)
        assert run(capsys, *argv, "--format", "json") == expected["json"]


def test_verify_failure_lines_render_only_as_text(capsys, monkeypatch):
    """A failing suite's FAIL lines are built for text alone; JSON prints the
    report without its checks."""
    report = {"suite": "ring", "ok": False, "passed": 1, "total": 2, "checks": [1, 2],
              "failures": [{"pair": [[1, 2], [2, 1]]}]}
    monkeypatch.setattr(suites, "ring_suite", lambda n: report)
    code, out, _ = run(capsys, "verify", "--n", "2", "ring")
    assert code == 1
    assert out == 'suite ring: 1/2 passed\nFAIL {"pair": [[1, 2], [2, 1]]}\n'
    monkeypatch.setattr(cli, "verify_text", _other_format_renderer)
    code, out, _ = run(capsys, "verify", "--n", "2", "ring", "--format", "json")
    assert code == 1 and "checks" not in json.loads(out)
    assert json.loads(out)["failures"] == report["failures"]


# --- the exit contract on generated input ----------------------------------

def exit_contract(argv) -> int:
    """main's exit code on argv, asserting the contract: 0, or 2 with
    exactly one stderr line and nothing on stdout.  main never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    return code


def spaced(text):
    """text with spaces drawn around it."""
    return st.tuples(st.sampled_from(["", " ", "  "]), st.sampled_from(["", " "])).map(
        lambda pad: pad[0] + text + pad[1]
    )


def mostly(good, bad):
    """A draw of good three times in four, else of bad."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda strategy: strategy)


# a shift atom (k,i)+m or (k,i)-m, spaced or not: at one of the three
# positions of rows 1 and 2, which the order-3 module shifts, so a spec
# often repeats a position, or at any position of rows up to 4
POSITION = st.one_of(st.integers(1, 2).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
                     st.tuples(st.integers(0, 4), st.integers(0, 4)))
ATOM = st.tuples(POSITION, st.sampled_from(["+", "-"]), st.integers(0, 3)).flatmap(
    lambda a: spaced(f"({a[0][0]},{a[0][1]}){a[1]}{a[2]}")
)
SHIFT_SPEC = mostly(
    st.one_of(
        spaced("id"),
        st.tuples(st.lists(ATOM, min_size=1, max_size=4), st.sampled_from(["", "", " ", ","])).map(
            lambda t: ",".join(t[0]) + t[1]
        ),
    ),
    st.text(alphabet="()+-,0123456789 id", max_size=12),
)
BASIS_SPEC = mostly(
    st.tuples(st.sampled_from(["D1", "D2"]), SHIFT_SPEC).map(":".join),
    st.one_of(st.tuples(st.sampled_from(["D3", "d1", "T", ""]), SHIFT_SPEC).map(":".join),
              SHIFT_SPEC),
)
GEN_SPEC = mostly(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda rs: f"{rs[0]},{rs[1]}"),
    st.one_of(
        st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda rs: f"{rs[0]},{rs[1]}"),
        st.text(alphabet="0123456789,- x", max_size=6),
    ),
)


@settings(max_examples=150, deadline=None)
@given(GEN_SPEC, BASIS_SPEC)
def test_act_keeps_the_exit_contract_on_generated_specs(gen, basis):
    """act at the shipped order-3 point, 1-singular at (2,1,2), on
    generated generator and basis specs: well-formed ones of every kind and
    row, repeated, spaced and trailing atoms, and malformed ones."""
    exit_contract(["act", "--gen", gen, "--basis", basis])


SHIPPED_ROWS = [["1/5"], ["1/3", "1/3"], ["1/7", "2/11", "3/13"]]
BAD_LITERAL = st.sampled_from(["x", "1/0", "", "1//2", "nan", "inf", "1e", "--1", 5, 1.5, None,
                               [], "1/3 "])


@st.composite
def malformed_points(draw):
    """The shipped point's JSON with one or two defects: a missing key, an
    order that is not a JSON integer or disagrees with the rows, a short or
    long row, a bad literal."""
    data = {"n": 3, "rows": [list(row) for row in SHIPPED_ROWS]}
    for _ in range(draw(st.integers(1, 2))):
        defect = draw(st.sampled_from(["key", "n", "row", "literal"]))
        rows = data.get("rows")
        if defect == "key":
            data.pop(draw(st.sampled_from(["n", "rows"])), None)
        elif defect == "n":
            data["n"] = draw(st.sampled_from([3.0, "3", True, None, [3], 0, 1, 2, 4, -3, 13]))
        elif defect == "row" and rows:
            k = draw(st.integers(0, len(rows) - 1))
            if draw(st.booleans()) or not rows[k]:
                rows[k] = rows[k] + ["1/2"]
            else:
                rows[k] = rows[k][:-1]
        elif defect == "literal" and rows:
            k = draw(st.integers(0, len(rows) - 1))
            if rows[k]:
                rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(BAD_LITERAL)
    return data


@settings(max_examples=100, deadline=None)
@given(malformed_points(), st.sampled_from(["classify", "act"]))
def test_malformed_point_files_keep_the_exit_contract(tmp_path_factory, data, command):
    """classify and act on a point file with generated defects: exit 2
    with one stderr line, or 0 where the defects leave a valid point."""
    point = tmp_path_factory.mktemp("point") / "p.json"
    point.write_text(json.dumps(data))
    argv = [command, "--point", str(point)]
    if command == "act":
        argv += ["--gen", "1,2", "--basis", "D1:id"]
    exit_contract(argv)
