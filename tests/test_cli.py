import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lazytwist
from lazytwist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_h2_a4(capsys):
    code, out, _ = run_cli(capsys, "h2", "A4")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_order"] == 2
    assert rep["order_bounds"] == [2, 2]
    assert rep["status"] == "exact"


def test_twist_verify_fixture(capsys):
    code, out, _ = run_cli(capsys, "twist-verify", "A4", "A4_twist")
    assert code == 0
    assert json.loads(out) == {"twist": True, "invariant": True,
                               "normalized": True}


def test_twist_theta_fixture(capsys):
    code, out, _ = run_cli(capsys, "twist-theta", "A4", "A4_twist")
    assert code == 0
    rep = json.loads(out)
    assert rep["socle_order"] == 4
    assert rep["form"]["matrix"] == [[0, 1], [1, 0]]


def test_liecheck_s3(capsys):
    code, out, _ = run_cli(capsys, "liecheck", "S3")
    assert code == 0
    assert json.loads(out) == {"group": "S3", "injective": True,
                               "exact": True, "kernel_dim": 6}


def test_group_info_autc_bg(capsys):
    code, out, _ = run_cli(capsys, "group-info", "Wall32")
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 32 and info["center_order"] == 2
    code, out, _ = run_cli(capsys, "autc", "Wall32")
    assert json.loads(out)["inn_index"] == 2
    code, out, _ = run_cli(capsys, "bg", "D8")
    assert json.loads(out)["bg_size"] == 3


def test_inline_and_file_groups(tmp_path, capsys):
    table = {"name": "K", "table": [[0, 1], [1, 0]]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(capsys, "h2", str(path))
    assert code == 0 and json.loads(out)["exact_order"] == 1
    perms = {"name": "S3", "perm_generators": [[2, 1, 3], [2, 3, 1]]}
    code, out, _ = run_cli(capsys, "h2", json.dumps(perms))
    assert code == 0 and json.loads(out)["exact_order"] == 1


def test_inline_json_longer_than_a_file_name(capsys):
    # a spec longer than the OS allows for a file name is still inline JSON
    cyclic12 = {"name": "C12",
                "table": [[(i + j) % 12 for j in range(12)]
                          for i in range(12)]}
    spec = json.dumps(cyclic12)
    assert len(spec) > 255
    code, out, _ = run_cli(capsys, "h2", spec)
    assert code == 0
    rep = json.loads(out)
    assert rep["group"] == "C12" and rep["exact_order"] == 1
    code, _, err = run_cli(capsys, "twist-verify", "A4", "x" * 300)
    assert code == 2 and "not found" in err


def run_cli_process(*argv, optimize=False, timeout=120):
    """The CLI in a fresh interpreter, under python -O if asked."""
    src = Path(lazytwist.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "lazytwist.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)


def test_paper_suite_survives_optimize():
    # python -O strips asserts; the verdict checks must not depend on them
    proc = run_cli_process("paper-suite", optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == []


def test_no_assert_in_library():
    # python -O strips assert statements, so no check in the library may
    # be one
    src = Path(lazytwist.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_twist_commands_survive_optimize(capsys):
    for group, tensor in [("A4", "A4_twist"), ("Wall32", "Wall_F")]:
        for cmd in ["twist-verify", "twist-theta"]:
            code, out, _ = run_cli(capsys, cmd, group, tensor)
            assert code == 0
            proc = run_cli_process(cmd, group, tensor, optimize=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == out, (cmd, tensor)


def test_malformed_tensor_files_exit_2(tmp_path):
    # a malformed tensor file is an input error, also under python -O
    # where no assert guards the tensor code; bad coefficients sit on the
    # term (0, 3), which the shipped tensor lacks, so no repeat check
    # fires before theirs
    good = json.loads(
        (Path(lazytwist.__file__).parent / "data" / "A4_twist.json")
        .read_text())
    one = {"n": 1, "terms": [[0, "1"]]}
    terms = {
        "one-index": ({"g": [3], "c": one}, "needs 2 indices"),
        "index-12": ({"g": [12, 0], "c": one}, "needs 2 indices"),
        "index-minus-1": ({"g": [-1, 0], "c": one}, "needs 2 indices"),
        "index-not-int": ({"g": [1.5, 0], "c": one}, "needs 2 indices"),
        "listed-twice": (dict(good["terms"][0]), "listed twice"),
        "term-not-object": (5, "not an object"),
    }
    coefficients = {
        "conductor-0": ({"n": 0, "terms": [[0, "1"]]}, "conductor 0"),
        "conductor-null": ({"n": None, "terms": [[0, "1"]]}, "conductor None"),
        "coefficient-null": ({"n": 1, "terms": [[0, None]]}, "[0, None]"),
        "coefficient-1-over-0": ({"n": 1, "terms": [[0, "1/0"]]}, "'1/0'"),
        "exponent-0.5": ({"n": 3, "terms": [[0.5, "1"]]}, "[0.5, '1']"),
        "exponent-twice": ({"n": 3, "terms": [[1, "1"], [1, "2"]]},
                           "exponent 1 is listed twice"),
        "number-terms-5": ({"n": 1, "terms": 5}, "terms 5"),
    }
    files = {name: (dict(good, terms=good["terms"] + [term]), msg)
             for name, (term, msg) in terms.items()}
    files.update((name, (dict(good, terms=good["terms"]
                              + [{"g": [0, 3], "c": c}]), msg))
                 for name, (c, msg) in coefficients.items())
    files["tensor-terms-5"] = (dict(good, terms=5), "list 'terms'")
    files["tensor-not-object"] = ([good], "list 'terms'")
    for name, (bad, msg) in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        for optimize in (False, True):
            proc = run_cli_process("twist-verify", "A4", str(path),
                                   optimize=optimize, timeout=60)
            assert proc.returncode == 2, (name, optimize, proc.stderr)
            assert proc.stderr.startswith("error: "), (name, proc.stderr)
            assert msg in proc.stderr, (name, proc.stderr)
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(dict(good, degree="2")))
    assert main(["twist-verify", "A4", str(path)]) == 2


def test_malformed_group_json_exits_2():
    # malformed group JSON is an input error, also under python -O
    cases = {
        '{"table": 5}': "'table' is not a list of lists",
        '{"table": [5]}': "'table' is not a list of lists",
        '{"perm_generators": 5}': "'perm_generators' is not a list",
        '{"perm_generators": [[2, 1], []]}': "'perm_generators' is not",
        '{"perm_generators": [["2", "1"]]}': "'perm_generators' is not",
        '{"table": [[0]], "name": 5}': "group name 5 is not a string",
        '{"table": [[false, true], [true, false]]}': "entry out of range",
        '[[0]]': "group JSON is not an object",
        '5': "group JSON is not an object",
    }
    for spec, msg in cases.items():
        for optimize in (False, True):
            proc = run_cli_process("group-info", spec, optimize=optimize,
                                   timeout=60)
            assert proc.returncode == 2, (spec, optimize, proc.stderr)
            assert proc.stderr.startswith("error: "), (spec, proc.stderr)
            assert msg in proc.stderr, (spec, proc.stderr)
            assert proc.stdout == "", (spec, proc.stdout)


def test_twist_verify_refuses_large_closed_support(tmp_path):
    # the support is all 288 pairs of S4 x A4, beyond the 200-element cap
    # of tensor inversion, so it is refused at once like its generators,
    # whatever the coefficients, not inverted by a dense solve of order 288
    from lazytwist.fixtures import builtin_group

    S4 = builtin_group("S4")
    A4 = sorted({S4.table[x][x] for x in range(S4.order)})
    assert len(A4) == 12
    pairs = [[g, h] for g in range(S4.order) for h in A4]
    for name, coeff in (("unequal", lambda i: f"{i + 1}/7"),
                        ("ones", lambda i: "1")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"group": "S4", "degree": 2, "terms": [
            {"g": t, "c": {"n": 1, "terms": [[0, coeff(i)]]}}
            for i, t in enumerate(pairs)]}))
        proc = run_cli_process("twist-verify", "S4", str(path), timeout=60)
        assert proc.returncode == 2, (name, proc.stderr)
        assert "bound 200" in proc.stderr and proc.stdout == "", name


def test_error_exits(tmp_path, capsys):
    code, _, err = run_cli(capsys, "h2", "NoSuchGroup")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 1], [0, 1]]}))
    code, _, err = run_cli(capsys, "h2", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "twist-verify", "A4", "missing.json")
    assert code == 2
    # Wr_5 (order 15625) is no builtin
    code, _, err = run_cli(capsys, "group-info", "Wr_5")
    assert code == 2 and "error" in err


def test_order_bounds_exit_2(capsys, monkeypatch):
    # a builtin C<n> beyond both the construction cap and --max-order is
    # refused before its n x n table is built, and a non-positive order is
    # named
    import lazytwist.fixtures

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    with monkeypatch.context() as m:
        m.setattr(lazytwist.fixtures, "from_table", refuse)
        code, out, err = run_cli(capsys, "--max-order", "128", "h2", "C1500")
    assert code == 2 and out == "" and "order 1500" in err
    code, out, err = run_cli(capsys, "h2", "C0")
    assert code == 2 and out == "" and "order 0" in err
    # a larger --max-order raises the cap with it
    code, out, err = run_cli(capsys, "--max-order", "1024", "h2", "C600")
    assert code == 0 and json.loads(out)["exact_order"] == 1
    # the abelian closed form still honours --max-order: C2^8 has order 256
    table = [[i ^ j for j in range(256)] for i in range(256)]
    code, out, err = run_cli(capsys, "h2", json.dumps({"table": table}))
    assert code == 2 and out == "" and "256" in err


def test_output_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "h2", "D8")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    code, out1, _ = run_cli(capsys, "twist-theta", "Wall32", "Wall_F")
    code, out2, _ = run_cli(capsys, "twist-theta", "Wall32", "Wall_F")
    assert out1 == out2


def test_pretty_output_parses_to_compact(capsys):
    # --pretty only indents: both outputs parse to the same object
    for argv in (["h2", "A4"], ["twist-theta", "A4", "A4_twist"]):
        code, compact, _ = run_cli(capsys, *argv)
        assert code == 0 and compact.count("\n") == 1
        code, pretty, _ = run_cli(capsys, "--pretty", *argv)
        assert code == 0 and pretty.startswith("{\n  ")
        assert json.loads(pretty) == json.loads(compact), argv


def test_fixture_dir_flag(tmp_path, capsys):
    from lazytwist.fixtures import builtin_group
    from lazytwist.cli import packaged_tensor

    A4 = builtin_group("A4")
    F = packaged_tensor("A4_twist", A4)
    path = tmp_path / "mytwist.json"
    path.write_text(json.dumps(F.to_json("A4")))
    code, out, _ = run_cli(capsys, "--fixture-dir", str(tmp_path),
                           "twist-verify", "A4", "mytwist")
    assert code == 0 and json.loads(out)["twist"] is True


def test_paper_suite(capsys):
    code, out, _ = run_cli(capsys, "paper-suite")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == []
    assert data["summary"]["total"] == 16
    assert {r["group"] for r in data["reports"]} >= {"A4", "D8", "Wall32"}


def test_twist_theta_rejects_non_invariant(tmp_path, capsys):
    import json as _json
    from lazytwist.fixtures import builtin_group
    from lazytwist.hopf import GTensor, gauge
    from lazytwist.cli import packaged_tensor

    A4 = builtin_group("A4")
    F = packaged_tensor("A4_twist", A4)
    sigma = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    a = GTensor(A4, 1, {(0,): 2, (sigma,): 1})
    skew = gauge(a, F)
    path = tmp_path / "skew.json"
    path.write_text(_json.dumps(skew.to_json("A4")))
    code = main(["twist-theta", "A4", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and "error" in captured.err


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # a path the OS cannot read (a directory here) is an input error
    code, out, err = run_cli(capsys, "h2", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, err = run_cli(capsys, "twist-verify", "A4", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    # an unknown builtin name is caught where groups are loaded; any other
    # KeyError is a fault of the program and must surface
    import lazytwist.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "h2_compute", broken)
    with pytest.raises(KeyError):
        main(["h2", "A4"])


_OPERANDS = {"group-info": ["A4"], "autc": ["A4"], "bg": ["A4"],
             "h2": ["A4"], "twist-verify": ["A4", "A4_twist"],
             "twist-theta": ["A4", "A4_twist"], "liecheck": ["A4"],
             "paper-suite": []}


def test_wrong_operand_count_exits_2(capsys):
    for command, operands in _OPERANDS.items():
        wrong = [operands + ["A4"]] + ([operands[:-1]] if operands else [])
        for argv in wrong:
            with pytest.raises(SystemExit) as exc:
                main([command, *argv])
            assert exc.value.code == 2, (command, argv)
            assert capsys.readouterr().out == "", (command, argv)


def test_unknown_or_missing_command_exits_2(capsys):
    for argv in (["no-such-command", "A4"], [], ["--pretty"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_help_lists_every_command_with_operands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command, operands in _OPERANDS.items():
        usage = " ".join([command, *["GROUP", "TENSOR"][:len(operands)]])
        assert f"  {usage}  " in out, command


def test_options_may_follow_the_command(capsys):
    code, before, _ = run_cli(capsys, "--pretty", "h2", "A4")
    assert code == 0 and before.startswith("{\n  ")
    for argv in (["h2", "A4", "--pretty"], ["h2", "--pretty", "A4"]):
        code, after, _ = run_cli(capsys, *argv)
        assert code == 0 and after == before, argv
    code, out, err = run_cli(capsys, "h2", "C600", "--max-order", "1024")
    assert code == 0 and json.loads(out)["exact_order"] == 1


def test_one_parser_serves_every_call(capsys):
    # no option or operand of one call is left over for the next:
    # --max-order 1024 lets h2 build C600, and the default of the call
    # after it does not
    calls = [("--pretty", "h2", "A4"), ("h2", "A4"),
             ("h2", "C600", "--max-order", "1024"), ("h2", "C600"),
             ("twist-verify", "A4", "A4_twist"), ("group-info", "S3")]
    first = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0, 0]
    assert first[0][1] != first[1][1] == json.dumps(
        json.loads(first[0][1]), separators=(",", ":")) + "\n"
    assert [run_cli(capsys, *argv) for argv in calls] == first


# argv the reader must read as argparse's parse_intermixed_args did
_ARGVS = [
    # flags before, between and after the words
    "h2 A4", "--pretty h2 A4", "h2 --pretty A4", "h2 A4 --pretty",
    "--max-order 64 h2 A4", "h2 --max-order 64 A4", "h2 A4 --max-order 64",
    "--fixture-dir d twist-verify A4 F", "twist-verify A4 --fixture-dir d F",
    "--pretty --max-order 7 --fixture-dir d bg D8",
    # "=" forms and unique prefixes
    "--max-order=64 h2 A4", "--fixture-dir=d h2 A4", "--fixture-dir= h2 A4",
    "--max 64 h2 A4", "--m=64 h2", "--pre h2 A4", "--p h2", "--fix d h2",
    "--fixture-dir=a=b h2", "--max-order=+9 h2", "--max-order 1_0 h2",
    # "--" ends the flags
    "h2 -- A4", "-- h2 A4", "h2 A4 --", "h2 -- --pretty",
    "h2 -- --max-order 5", "--pretty h2 -- -x", "--max-order 5 h2 -- A4",
    # a repeated flag: the last one wins
    "--max-order 1 --max-order 2 h2", "--pretty --pretty h2",
    "--fixture-dir a h2 --fixture-dir b",
    # words that start with "-"
    "h2 -5", "h2 A4 -5", "h2 -1.5", "h2 -.5", "h2 -", "h2 '-x y'",
    "--fixture-dir -5 h2", "--fixture-dir '-x y' h2", "--fixture-dir - h2",
    "--max-order -- h2", "h2 '' ''", "h2 A4 B C",
    # missing values
    "h2 --max-order", "h2 A4 --fixture-dir", "--max-order --pretty h2",
    "--fixture-dir -x h2", "--fixture-dir -h h2", "--fixture-dir --fix h2",
    "h2 --fixture-dir --", "--fixture-dir -- x h2", "--max-order= h2",
    "--max-order x h2", "--max-order 6.0 h2", "--max=6' '4 h2",
    # values a switch refuses
    "--pretty= h2", "--pretty=x h2", "--help=x", "-hx", "-h=x", "'-h y'",
    # unknown flags
    "-x h2 A4", "h2 A4 -x", "-p h2", "--PRETTY h2", "---x h2", "h2 -5x",
    "--nope h2", "--max-order-x h2", "--=x h2", "--help --=x", "--=x --help",
    "-x --help",
    # a missing or unknown command
    "", "--pretty", "--max-order 5", "bogus A4", "- h2", "-5 h2",
    "'--pre tty' h2", "'' A4", "H2 A4",
    # help, wherever it stands
    "-h", "--help", "--h", "--he", "h2 A4 --help", "bogus --help",
    "-h --max-order", "-h --max-order x", "--max-order x -h",
]


def _read_both(argv, capsys):
    """(result, stdout, stderr) of the reference parser and of
    cli._read_argv; the result is the five values read, or the exit
    code."""
    from lazytwist.cli import _read_argv
    from tests_helpers import build_parser

    parser = build_parser()
    runs = []
    for read in (parser.parse_intermixed_args, _read_argv):
        try:
            got = vars(read(list(argv)))
        except SystemExit as exc:
            got = exc.code
        runs.append((got, *capsys.readouterr()))
    return runs


def test_reader_matches_the_reference_parser(capsys):
    import shlex

    for line in _ARGVS:
        argv = shlex.split(line)
        (want, _, _), (got, out, err) = _read_both(argv, capsys)
        if isinstance(want, dict):
            assert got == want, argv
            assert out == err == "", argv
        elif want == 2:
            assert got == 2, argv
            usage, error, rest = err.split("\n", 2)
            assert usage.startswith("usage: lazytwist ") and rest == ""
            assert error.startswith("lazytwist: error: ") and out == ""
        else:
            assert want == got == 0, argv
            assert out.startswith("usage: lazytwist ") and err == "", argv


def test_double_dash_ends_the_flags(capsys):
    # the first "--" ends the flags and every later word is an operand;
    # argparse's intermixed parse (Python 3.10 to 3.13) instead drops a
    # "--" met before the command and reads on for flags, and drops a
    # second "--" that follows the command with no operand between
    from lazytwist.cli import _read_argv

    for argv in (["--", "--pretty", "h2"],
                 ["--pretty", "--", "--max-order", "5", "h2"]):
        with pytest.raises(SystemExit) as exc:
            _read_argv(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    for argv, command, operands in (
            (["--", "h2", "--pretty"], "h2", ["--pretty"]),
            (["h2", "--", "--", "A4"], "h2", ["--", "A4"]),
            (["h2", "A4", "--", "--"], "h2", ["A4", "--"])):
        args = _read_argv(argv)
        assert (args.command, args.operands, args.pretty) == (
            command, operands, False), argv


def test_paper_suite_honours_max_order(capsys):
    # a bound below a suite group's order exits 2 with nothing on stdout,
    # as every other command does; at 81, the largest suite order, the
    # output is that of the default bound
    code, out, err = run_cli(capsys, "--max-order", "8", "paper-suite")
    assert code == 2 and out == "" and "exceeds bound 8" in err
    code, out, _ = run_cli(capsys, "--max-order", "81", "paper-suite")
    assert code == 0 and out == run_cli(capsys, "paper-suite")[1]
    code, out, err = run_cli(capsys, "--max-order", "80", "paper-suite")
    assert code == 2 and out == "" and "|G| = 81 exceeds bound 80" in err


def test_max_order_must_be_at_least_1(capsys):
    # argparse read any integer; 0 and -5 then failed every command with a
    # group as "|G| = 12 exceeds bound -5", and paper-suite ignored them
    for value in ("0", "-5", "-0", "x", ""):
        for argv in (["--max-order", value, "h2", "A4"],
                     [f"--max-order={value}", "paper-suite"],
                     ["h2", "A4", "--max", value]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == "", argv
            assert "lazytwist: error: --max-order" in err, argv
    code, out, _ = run_cli(capsys, "--max-order", "12", "h2", "A4")
    assert code == 0 and json.loads(out)["exact_order"] == 2
    code, out, err = run_cli(capsys, "--max-order", "11", "h2", "A4")
    assert code == 2 and out == "" and "exceeds" in err


def test_help_is_one_fixed_text(capsys):
    from lazytwist.cli import _FLAGS

    texts = set()
    for argv in (["-h"], ["--help"], ["--he"], ["h2", "A4", "--help"],
                 ["bogus", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == "", argv
        texts.add(out)
    (text,) = texts
    for flag in _FLAGS:
        assert f"\n  {flag}" in text, flag
