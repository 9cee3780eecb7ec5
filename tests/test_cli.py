import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from groupgeom import cli
from groupgeom.cli import main
from groupgeom.words import Presentation, format_presentation, standard_presentation


@pytest.fixture()
def zz_file(tmp_path):
    path = tmp_path / "zz.grp"
    path.write_text(format_presentation(standard_presentation("zz")))
    return str(path)


@pytest.fixture()
def f2_file(tmp_path):
    path = tmp_path / "f2.grp"
    path.write_text(format_presentation(standard_presentation("free", 2)))
    return str(path)


@pytest.fixture()
def surf_file(tmp_path):
    path = tmp_path / "surf2.grp"
    path.write_text(format_presentation(standard_presentation("surface", 2)))
    return str(path)


def test_module_entry_point_runs_a_command():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "groupgeom.cli", "pres", "--family", "zz"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == format_presentation(standard_presentation("zz"))


def test_equal_exit_codes(zz_file, capsys):
    assert main(["equal", "--pres", zz_file, "aaabb", "ababa"]) == 0
    assert capsys.readouterr().out.strip() == "EQUAL"
    assert main(["equal", "--pres", zz_file, "a", "b"]) == 1
    assert capsys.readouterr().out.strip() == "NOT-EQUAL"


def test_equal_unknown_exit_code(tmp_path, capsys):
    path = tmp_path / "generic.grp"
    path.write_text("gens: a b\nrels: abAB\n")
    code = main(["equal", "--pres", str(path), "aabbAABB", "1", "--max-area", "0"])
    assert code == 2
    assert capsys.readouterr().out.strip() == "UNKNOWN"


def test_reduce_prints_empty_marker(surf_file, capsys):
    assert main(["reduce", "--pres", surf_file, "abABcdCD"]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "1"
    assert out[1] == "steps=1"


def test_reduce_long_identity_word(surf_file, capsys):
    import random

    from groupgeom.dehn import dehn_reduce
    from groupgeom.words import format_word, invert, reduce_onto, symmetrize

    surf = standard_presentation("surface", 2)
    rng = random.Random(20)
    forms = symmetrize(surf).members
    w = []
    while len(w) < 20000:
        g = tuple(rng.choice(surf.letters()) for _ in range(rng.randint(0, 6)))
        reduce_onto(w, g + rng.choice(forms) + invert(g))
    assert main(["reduce", "--pres", surf_file, format_word(tuple(w), surf)]) == 0
    steps = dehn_reduce(surf, tuple(w))[1].step_count
    assert capsys.readouterr().out.split() == ["1", f"steps={steps}"]


def test_normal_form(zz_file, capsys):
    assert main(["normal-form", "--pres", zz_file, "ababa"]) == 0
    assert capsys.readouterr().out.strip() == "aaabb"


def test_verify_dehn_exit_codes(zz_file, surf_file, capsys):
    assert main(["verify-dehn", "--pres", zz_file, "--insertions", "2", "--max-len", "8"]) == 1
    assert "aabbAABB" in capsys.readouterr().out
    assert main(["verify-dehn", "--pres", surf_file, "--insertions", "2", "--max-len", "12"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_ball_json_schema_and_roundtrip(zz_file, capsys):
    assert main(["ball", "--pres", zz_file, "--radius", "2"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert list(payload) == ["radius", "vertices", "edges", "dist"]
    assert payload["radius"] == 2
    assert len(payload["vertices"]) == 13
    assert payload["vertices"][0] == "1"
    assert payload["dist"][0] == 0
    assert all(isinstance(e[1], str) for e in payload["edges"])
    # byte-identical re-emission
    assert json.dumps(payload) + "\n" == text


def test_ball_out_file(zz_file, tmp_path):
    out = tmp_path / "ball.json"
    assert main(["ball", "--pres", zz_file, "--radius", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["vertices"]) == 5


def test_area_and_unknown(zz_file, capsys):
    assert main(["area", "--pres", zz_file, "aabbAABB"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["area", "--pres", zz_file, "aabbAABB", "--max-area", "2"]) == 2
    assert capsys.readouterr().out.strip() == "UNKNOWN"


def test_dehn_function_fit_pipeline(zz_file, tmp_path, capsys):
    assert main(["dehn-function", "--pres", zz_file, "--n", "8", "--max-area", "20"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "n,maxArea,argmax"
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(csv_text)
    assert main(["fit", str(csv_path)]) == 0
    # rows 1, 2, 4 over n = 4, 6, 8: exactly quadratic-ish growth
    assert capsys.readouterr().out.startswith("quadratic")


def test_fit_reads_stdin_without_a_path(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n,value\n4,1\n6,2\n8,4\n"))
    assert main(["fit"]) == 0
    assert capsys.readouterr().out.startswith("quadratic")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("4,nan\n8,2\n12,3\n16,4\n", "row (4, nan)"),
        ("4,1\n8,inf\n12,3\n16,4\n", "row (8, inf)"),
        ("4,1\n4,2\n4,3\n", "two distinct lengths"),
        ("4,1\n4.5,9\n8,2\n12,3\n16,4\n", "row '4.5,9'"),
        ("4,1\n8,x\n12,3\n16,4\n", "row '8,x'"),
        ("4,1\n8\n12,3\n16,4\n", "row '8'"),
    ],
    ids=["nan", "inf", "one-length", "non-integer-length", "non-numeric-value", "no-value"],
)
def test_fit_rejects_non_finite_and_single_length_tables(tmp_path, capsys, rows, message):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("n,value\n" + rows)
    assert main(["fit", str(csv_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_delta_text_and_json(zz_file, capsys):
    assert main(["delta", "--pres", zz_file, "--radius", "4"]) == 0
    assert capsys.readouterr().out.startswith("delta=2")
    assert main(["delta", "--pres", zz_file, "--radius", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 2
    assert payload["samplingPolicy"] == "exhaustive"
    assert payload["witness"]["distance"] == 2


@pytest.mark.parametrize("relator", ["a", "aa"])
def test_delta_sample_of_a_ball_without_triangles(tmp_path, capsys, relator):
    path = tmp_path / "cyclic.grp"
    path.write_text(f"gens: a\nrels: {relator}\n")
    argv = ["delta", "--pres", str(path), "--radius", "2", "--sample", "3", "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "delta=0 triangles=0\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "delta": 0,
        "trianglesExamined": 0,
        "samplingPolicy": "random(seed=1, count=3)",
        "witness": None,
    }


def test_delta_sample_past_the_triple_count_examines_every_triple(surf_file, capsys):
    argv = ["delta", "--pres", surf_file, "--radius", "3", "--sample", "20000", "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "delta=0 triangles=5068\n"


def test_delta_sample_requires_seed(zz_file, capsys):
    assert main(["delta", "--pres", zz_file, "--radius", "4", "--sample", "5"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--radius", "1"], "needs radius >= 2"),
        (["--radius", "4", "--sample", "0", "--seed", "1"], "sample count must be at least 1"),
        (["--radius", "4", "--sample", "5"], "needs an explicit seed"),
    ],
    ids=["radius", "sample", "seed"],
)
def test_delta_refuses_bad_arguments_before_building_the_ball(
    zz_file, capsys, monkeypatch, args, message
):
    def no_ball(*_):
        raise AssertionError("built the ball")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    assert main(["delta", "--pres", zz_file, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["delta", "--pres", "ZZ", "--radius", "3", "--sample", "-3", "--seed", "1"], "sample"),
        (["hplane", "verify", "--triangles", "-3", "--seed", "1"], "triangle count"),
        (
            ["hplane", "verify", "--triangles", "3", "--seed", "1", "--diameter", "-5"],
            "diameter",
        ),
        (
            ["hplane", "verify", "--triangles", "3", "--seed", "1", "--diameter", "nan"],
            "diameter",
        ),
        (
            ["bench", "--pres", "ZZ", "--solver", "dehn", "--sizes", ",", "--source", "trivial"],
            "sizes",
        ),
        (
            ["bench", "--pres", "ZZ", "--solver", "dehn", "--sizes", "-4", "--source", "worst"],
            "sizes",
        ),
        (["area", "--pres", "ZZ", "aabbAABB", "--max-area", "-1"], "nonnegative"),
        (["area", "--pres", "ZZ", "aabbAABB", "--max-len", "-3"], "nonnegative"),
        (["dehn-function", "--pres", "ZZ", "--n", "6", "--max-area", "-1"], "nonnegative"),
        (["dehn-function", "--pres", "ZZ", "--n", "-1"], "word length"),
        (["dehn-function", "--pres", "ZZ", "--n", "-5"], "word length"),
        (
            ["dehn-function", "--pres", "F2", "--n", "-1", "--max-area", "16", "--max-len", "0"],
            "word length",
        ),
        (["equal", "--pres", "ZZ", "ab", "ba", "--max-area", "-1"], "nonnegative"),
        (["qi", "--pres", "ZZ", "--gens-b", ",", "--radius", "2"], "generating sets"),
        (
            ["qi", "--pres", "ZZ", "--gens-a", ",", "--gens-b", "a,b", "--radius", "2"],
            "generating sets",
        ),
        (
            ["qi", "--pres", "ZZ", "--gens-a", "", "--gens-b", "a,b", "--radius", "2"],
            "generating sets must be nonempty",
        ),
        (["qi", "--pres", "ZZ", "--gens-b", "a", "--radius", "3"], "same group"),
        (["qi", "--pres", "ZZ", "--gens-b", "a,b", "--radius", "-1"], "radius must be nonnegative"),
        (
            ["bench", "--pres", "ZZ", "--solver", "dehn", "--sizes", "4", "--source", "worst",
             "--insertions", "-1"],
            "insertions must be nonnegative",
        ),
    ],
    ids=[
        "sample", "triangles", "diameter", "nan-diameter", "no-sizes", "negative-size",
        "area-max-area", "area-max-len", "dehn-function-max-area", "dehn-function-n",
        "dehn-function-n-past-length-cap", "dehn-function-n-free", "equal-max-area",
        "qi-empty-b", "qi-empty-a", "qi-blank-a", "qi-subgroup", "qi-negative-radius",
        "bench-insertions",
    ],
)
def test_out_of_range_counts_are_error_exits(zz_file, f2_file, capsys, args, message):
    assert main([{"ZZ": zz_file, "F2": f2_file}.get(a, a) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_qi_output(zz_file, capsys):
    assert main(["qi", "--pres", zz_file, "--gens-b", "a,b,ab", "--radius", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=2 c=0")


def test_hplane_verify(capsys):
    assert main(["hplane", "verify", "--triangles", "40", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")


def test_bench_csv(zz_file, capsys):
    assert main(
        ["bench", "--pres", zz_file, "--solver", "zz-nf", "--sizes", "4,8", "--source", "worst"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,steps,wallNanos,trials"
    n, steps, _, trials = lines[1].split(",")
    assert (n, steps, trials) == ("4", "4", "1")


def test_pres_writer_roundtrip(tmp_path, capsys):
    out = tmp_path / "f2.grp"
    assert main(["pres", "--family", "free", "--param", "2", "--out", str(out)]) == 0
    assert out.read_text() == "gens: a b\nfamily: free 2\n"


def test_parse_errors_reported_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("gens: a b\nrels: axb\n")
    assert main(["equal", "--pres", str(bad), "a", "a"]) == 2
    err = capsys.readouterr().err
    assert "2:2" in err


def test_bad_word_reports_column(zz_file, capsys):
    assert main(["reduce", "--pres", zz_file, "abq"]) == 2
    assert "1:3" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["reduce", "--pres", "/nonexistent/x.grp", "a"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["fit", "{missing}/rows.csv"],
        ["pres", "--family", "zz", "--out", "{missing}/zz.grp"],
        ["ball", "--pres", "{zz}", "--radius", "1", "--out", "{missing}/ball.json"],
        ["reduce", "--pres", "{directory}", "a"],
    ],
    ids=["fit-missing-csv", "pres-out-missing-dir", "ball-out-missing-dir", "pres-is-a-directory"],
)
def test_file_errors_are_error_exits(zz_file, tmp_path, capsys, args):
    # Exit 1 is kept for FAIL and NOT-EQUAL; a file error carries no text position.
    paths = {"missing": tmp_path / "missing", "zz": zz_file, "directory": tmp_path}
    assert main([a.format(**paths) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and not re.match(r"error: \d+:\d+:", captured.err)


def test_usage_error_exit_code(capsys):
    assert main(["equal"]) == 2


def test_cli_matches_library(zz_file, capsys):
    from groupgeom.oracle import Tristate, words_equal
    from groupgeom.words import parse_presentation, parse_word

    pres = parse_presentation(Path(zz_file).read_text())
    u = parse_word("aaabb", pres)
    v = parse_word("ababa", pres)
    assert words_equal(pres, u, v) is Tristate.EQUAL
    assert main(["equal", "--pres", zz_file, "aaabb", "ababa"]) == 0
    capsys.readouterr()


def test_delta_too_large_for_memory_is_an_error_exit(zz_file, capsys, monkeypatch):
    from groupgeom import cayley

    monkeypatch.setattr(cayley, "physical_memory", lambda: 1_000)
    assert main(["delta", "--pres", zz_file, "--radius", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: delta estimation of a 41-vertex ball needs about")


def test_memory_error_without_text_names_the_subcommand(zz_file, capsys, monkeypatch):
    from groupgeom import cli

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_dispatch", exhausted)
    assert main(["ball", "--pres", zz_file, "--radius", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ball ran out of memory\n"


def _assert_undecided_exit(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


def test_normal_form_over_radius_budget_is_undecided(surf_file, capsys):
    _assert_undecided_exit(["normal-form", "--pres", surf_file, "abababababab"], capsys)


def test_dehn_function_with_exhausted_caps_is_undecided(tmp_path, capsys):
    path = tmp_path / "generic-zz.grp"
    path.write_text("gens: a b\nrels: abAB\n")
    argv = ["dehn-function", "--pres", str(path), "--n", "8", "--max-area", "2"]
    _assert_undecided_exit(argv, capsys)


def test_ball_with_unknown_dedup_is_undecided(tmp_path, capsys):
    path = tmp_path / "t.grp"
    path.write_text("gens: a b\nrels: aaa\nrels: bb\nrels: abab\n")
    err = _assert_undecided_exit(["ball", "--pres", str(path), "--radius", "2"], capsys)
    # No caps can make the area search prove two elements different.
    assert "raise the budget" not in err
    assert "never different" in err


def _untagged_file(tmp_path, family, param):
    """The standard presentation's file without its family line."""
    pres = standard_presentation(family, param)
    path = tmp_path / "untagged.grp"
    path.write_text(format_presentation(Presentation(pres.generators, pres.relators)))
    return str(path)


def _ball_json(pres_file, radius, capsys):
    assert main(["ball", "--pres", pres_file, "--radius", str(radius)]) == 0
    return json.loads(capsys.readouterr().out)


def test_untagged_free_group_answers_like_the_tagged_one(tmp_path, f2_file, capsys):
    untagged = _untagged_file(tmp_path, "free", 2)
    assert Path(untagged).read_text() == "gens: a b\n"
    assert main(["equal", "--pres", untagged, "ab", "ba"]) == 1
    assert capsys.readouterr().out == "NOT-EQUAL\n"
    assert _ball_json(untagged, 2, capsys) == _ball_json(f2_file, 2, capsys)


def test_untagged_surface_group_answers_like_the_tagged_one(tmp_path, surf_file, capsys):
    untagged = _untagged_file(tmp_path, "surface", 2)
    assert Path(untagged).read_text() == "gens: a b c d\nrels: abABcdCD\n"
    assert main(["equal", "--pres", untagged, "Cdc", "d"]) == 1
    assert capsys.readouterr().out == "NOT-EQUAL\n"
    ball = _ball_json(untagged, 3, capsys)
    assert Counter(ball["dist"]) == {0: 1, 1: 8, 2: 56, 3: 392}
    assert ball == _ball_json(surf_file, 3, capsys)
