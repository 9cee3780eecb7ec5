import pytest

from groupgeom.bench import WordSource, run_bench
from groupgeom.isoperimetry import fit_growth
from groupgeom.words import standard_presentation

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)


def test_worst_case_swap_counts_are_quadratic():
    sizes = [2 * m for m in range(1, 11)]
    table = run_bench(ZZ, "zz-nf", sizes, WordSource("worst"))
    for row in table:
        m = row.n // 2
        assert row.steps == m * m
    assert fit_growth([(r.n, r.steps) for r in table]).kind == "quadratic"


def test_step_counts_deterministic():
    src = WordSource("random", seed=42)
    t1 = run_bench(ZZ, "dehn", [6, 10, 14], src)
    t2 = run_bench(ZZ, "dehn", [6, 10, 14], src)
    assert [(r.n, r.steps, r.trials) for r in t1] == [(r.n, r.steps, r.trials) for r in t2]


def test_dehn_steps_bounded_by_length():
    table = run_bench(F2, "dehn", [4, 8, 16, 24], WordSource("random", seed=7))
    for row in table:
        assert row.steps <= row.n


def test_dehn_steps_bounded_on_identity_words():
    table = run_bench(SURF2, "dehn", list(range(8, 17, 2)), WordSource("trivial", insertions=2))
    # pieces between distinct relator conjugates have length 1, so two
    # insertions only reach lengths 16 - 2c for c <= 1, plus the relators
    assert [r.n for r in table] == [8, 14, 16]
    for row in table:
        assert 0 < row.steps <= row.n
        assert row.trials > 0


def test_rows_sorted():
    table = run_bench(ZZ, "zz-nf", [8, 4, 12], WordSource("worst"))
    assert [r.n for r in table] == [4, 8, 12]


def test_inapplicable_pairs_rejected():
    with pytest.raises(ValueError):
        run_bench(SURF2, "zz-nf", [8], WordSource("worst"))
    with pytest.raises(ValueError):
        run_bench(standard_presentation("free", 1), "dehn", [4], WordSource("worst"))
    with pytest.raises(ValueError):
        WordSource("random")  # no seed
    with pytest.raises(ValueError):
        WordSource("fuzz")
    with pytest.raises(ValueError, match="unknown solver 'magic'"):
        run_bench(ZZ, "magic", [4], WordSource("worst"))


@pytest.mark.parametrize("sizes", [[], [-4], [4, -1]])
@pytest.mark.parametrize("kind", ["worst", "trivial"])
def test_run_bench_rejects_empty_or_negative_sizes(sizes, kind):
    match = r"sizes must be nonempty and nonnegative|sizes\[\d\] must be nonnegative"
    with pytest.raises(ValueError, match=match):
        run_bench(ZZ, "dehn", sizes, WordSource(kind))
