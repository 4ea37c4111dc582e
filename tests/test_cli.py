import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_error_exits(tmp_path, capsys):
    code, _, err = run_cli(capsys, "h2", "NoSuchGroup")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 1], [0, 1]]}))
    code, _, err = run_cli(capsys, "h2", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "twist-verify", "A4", "missing.json")
    assert code == 2
    # Wr_5 is addressable but refuses to build at desk scale
    code, _, err = run_cli(capsys, "group-info", "Wr_5")
    assert code == 2 and "error" in err


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
