"""Quick tests of the benchmark itself: python3 -m pytest perfbench

Every workload runs to its end at a small size, and every check rejects a
deliberately wrong answer, so that no check passes by default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
gg = run.load_program()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_rounds(name, tracer=None, seed=5):
    workload = workloads.WORKLOADS[name](gg, seed, workloads.SMALL)
    return run.measure(workload, 0.0, tracer)


@pytest.mark.parametrize("name", ["surface", "flat", "hplane"])
def test_workload_runs_to_its_end(name):
    rounds = small_rounds(name)
    assert len(rounds) == 1
    assert rounds[0].attempted > 0 and rounds[0].failed == 0, rounds[0].messages
    metrics = run.end_to_end(0.5, rounds)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["surface", "flat", "hplane"])
def test_traced_run_reports_every_layer_metric(name):
    tracer = tracing.Tracer()
    rounds = small_rounds(name, tracer)
    assert [r.traced for r in rounds] == [False, True]
    assert all(r.failed == 0 for r in rounds)
    metrics = run.per_layer(tracer, rounds)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Every wrapper is gone once the round ends.
    assert gg.oracle.words_equal.__module__ == "groupgeom.oracle"
    assert gg.words.Presentation.check_word.__module__ == "groupgeom.words"


def test_layers_land_on_their_workloads():
    surface = run.per_layer(t := tracing.Tracer(), small_rounds("surface", t))
    flat = run.per_layer(t := tracing.Tracer(), small_rounds("flat", t))
    hplane = run.per_layer(t := tracing.Tracer(), small_rounds("hplane", t))
    assert surface["dehn.reduce_calls"][0] > 0 and flat["dehn.reduce_calls"][0] == 0
    assert flat["isoperimetry.area_calls"][0] > 0 and surface["isoperimetry.area_calls"][0] == 0
    assert flat["oracle.area_fallbacks"][0] > 0
    assert hplane["hplane.point_to_side_calls"][0] > 0
    assert hplane["cayley.find_calls"][0] == 0 and hplane["oracle.equal_calls"][0] == 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0]
    assert math.isclose(a["self"][0], a["dur"][0] - a["dur"][1])


def test_time_exponent_reads_linear_and_quadratic():
    sizes = np.repeat([32, 64, 128, 256], 3)
    assert math.isclose(tracing.time_exponent(sizes, sizes * 1e-6), 1.0)
    assert math.isclose(tracing.time_exponent(sizes, sizes**2 * 1e-9), 2.0)


# -- each check fails on a wrong answer --------------------------------------


def flipped(fn):
    def wrong(*args, **kwargs):
        answer = fn(*args, **kwargs)
        T = gg.oracle.Tristate
        return T.NOT_EQUAL if answer is T.EQUAL else T.EQUAL

    return wrong


@pytest.mark.parametrize("name", ["surface", "flat"])
def test_flipped_decisions_fail(monkeypatch, name):
    workload = workloads.WORKLOADS[name](gg, 5, workloads.SMALL)
    monkeypatch.setattr(gg.oracle, "words_equal", flipped(gg.oracle.words_equal))
    rnd = workload.run_round(None)
    assert rnd.failed == rnd.decisions > 0


@pytest.mark.parametrize("name", ["surface", "flat"])
def test_a_smaller_ball_fails(monkeypatch, name):
    build = gg.cayley.build_ball
    workload = workloads.WORKLOADS[name](gg, 5, workloads.SMALL)
    monkeypatch.setattr(gg.cayley, "build_ball", lambda p, r, *a: build(p, r - 1, *a))
    rnd = workload.run_round(None)
    assert any("sphere sizes" in m for m in rnd.messages)


def test_an_exception_counts_as_failed(monkeypatch):
    workload = workloads.WORKLOADS["hplane"](gg, 5, workloads.SMALL)

    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(gg.hplane, "verify_thinness_bound", broken)
    rnd = workload.run_round(None)
    assert rnd.failed == 1 and "broken" in rnd.messages[0]


def test_stream_truth_is_proved_by_the_retraction():
    pres = gg.standard_presentation("surface", 2)
    stream = workloads.surface_stream(random.Random(1), pres.relators[0], (40,), 6)
    for u, v, truth in stream:
        w = checks.free_reduce(u + checks.inverse(v))
        image = checks.retract_to_free(w, workloads.SURFACE_RETRACTION)
        assert bool(image) == (truth == "NOT_EQUAL")
    assert checks.check_decision("NOT_EQUAL", "EQUAL") is not None
    assert checks.check_decision("EQUAL", "EQUAL") is None


def test_closed_forms():
    assert checks.surface_sphere_sizes(4) == [1, 8, 56, 392, 2736]
    assert checks.closed_reduced_word_count(10) == 2600
    assert checks.closed_reduced_word_count(8) == 360
    assert len(checks.reduced_words(2, 5)) == 485


def test_dehn_rows_off_by_one_fail():
    zz = gg.standard_presentation("zz")
    table = gg.dehn_function(zz, 8)
    assert checks.check_dehn_rows(table, 8) is None
    rows = list(table.rows)
    rows[-1] = dataclasses.replace(rows[-1], max_area=rows[-1].max_area + 1)
    assert checks.check_dehn_rows(dataclasses.replace(table, rows=tuple(rows)), 8) is not None
    rows = list(table.rows)
    rows[-1] = dataclasses.replace(rows[-1], words_examined=rows[-1].words_examined - 1)
    assert checks.check_dehn_rows(dataclasses.replace(table, rows=tuple(rows)), 8) is not None


@pytest.fixture(scope="module")
def zz_ball():
    ball = gg.build_ball(gg.standard_presentation("zz"), 4)
    return ball, gg.delta_estimate(ball)


def test_wrong_distance_row_fails(zz_ball):
    ball, _ = zz_ball
    matrix = ball.distance_matrix().copy()
    assert checks.check_distance_rows(ball, matrix, [0, 5]) is None
    matrix[5, 7] += 1
    assert checks.check_distance_rows(ball, matrix, [0, 5]) is not None


def test_wrong_thinness_fails(zz_ball):
    ball, report = zz_ball
    rows = checks.RowCache(ball)
    assert report.delta > 0
    assert checks.check_witness(ball, report, rows) is None
    for wrong in (report.delta - 1, report.delta + 1):
        bad = dataclasses.replace(
            report, delta=wrong, witness=dataclasses.replace(report.witness, distance=wrong)
        )
        assert checks.check_witness(ball, bad, rows) is not None
    tri = report.witness.triangle
    assert checks.check_triangle(ball, tri, report.delta, rows, report.delta) is None
    assert checks.check_triangle(ball, tri, report.delta - 1, rows, report.delta) is not None
    assert checks.check_triangle(ball, tri, report.delta + 1, rows, report.delta + 1) is not None


def test_wrong_hplane_answers_fail():
    bound = checks.HPLANE_BOUND
    assert checks.check_survey(bound - 0.1, 10, 10) is None
    assert checks.check_survey(bound + 1e-3, 10, 10) is not None
    assert checks.check_survey(bound - 0.1, 9, 10) is not None
    H = gg.hplane.HPoint
    p, a, b = (0.3, 0.5), (-1.0, 1.0), (2.0, 3.0)
    exact = gg.hplane.point_to_side(H(*p), H(*a), H(*b))
    assert checks.check_point_to_side(exact, p, a, b) is None
    assert checks.check_point_to_side(exact + 1e-3, p, a, b) is not None
    assert checks.check_point_to_side(exact - 1e-3, p, a, b) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hplane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
