import pytest

from groupgeom.qi import _minimal_quarters, _satisfies, compare_metrics
from groupgeom.words import parse_word, standard_presentation

ZZ = standard_presentation("zz")
F1 = standard_presentation("free", 1)
F2 = standard_presentation("free", 2)


def gens(pres, *texts):
    return [parse_word(t, pres) for t in texts]


@pytest.mark.parametrize(
    "gens_a, gens_b", [(None, []), ([], [(1,), (2,)]), ([], [])], ids=["b", "a", "both"]
)
def test_empty_generating_set_is_rejected(gens_a, gens_b):
    with pytest.raises(ValueError, match="generating sets must be nonempty"):
        compare_metrics(ZZ, gens_a, gens_b, 2)


def test_identical_generating_sets():
    report = compare_metrics(ZZ, None, gens(ZZ, "a", "b"), 4)
    assert (report.lam, report.c) == (1.0, 0)


def test_zz_with_diagonal_generator():
    report = compare_metrics(ZZ, None, gens(ZZ, "a", "b", "ab"), 6)
    assert (report.lam, report.c) == (2.0, 0)
    assert report.element_count == 85  # the whole radius-6 ball is common


def test_free_rank_one_sparse_generators():
    report = compare_metrics(F1, None, gens(F1, "aa", "aaa"), 6)
    assert report.lam == 3.0
    assert report.c <= 2


def test_minimality_of_reported_grid_point():
    # recompute the distance pairs the fit saw, then check the invariant:
    # stepping either coordinate down reintroduces a violation
    from groupgeom.cayley import ElementIndex
    from groupgeom.qi import _metric_bfs

    index = ElementIndex(ZZ)
    da = _metric_bfs(index, gens(ZZ, "a", "b"), 6)
    db = _metric_bfs(index, gens(ZZ, "a", "b", "ab"), 6)
    common = sorted(set(da) & set(db))
    pairs = [(da[e], db[e]) for e in common]
    report = compare_metrics(ZZ, None, gens(ZZ, "a", "b", "ab"), 6)
    k = round(report.lam * 4)
    assert _satisfies(pairs, k, report.c)
    if k > 4:
        assert not _satisfies(pairs, k - 1, report.c)
    if report.c > 0:
        assert not _satisfies(pairs, k, report.c - 1)


def test_role_swap_gives_valid_constants_each_way():
    a_words = gens(ZZ, "a", "b")
    b_words = gens(ZZ, "a", "b", "ab")
    fwd = compare_metrics(ZZ, a_words, b_words, 5)
    rev = compare_metrics(ZZ, b_words, a_words, 5)
    assert fwd.lam >= 1.0 and rev.lam >= 1.0


def test_free_rank_two_doubled_generators():
    # {aa, b} only generates a proper subgroup: a is never reached.
    with pytest.raises(ValueError, match="may not generate the same group"):
        compare_metrics(F2, None, gens(F2, "aa", "b"), 5)


@pytest.mark.parametrize(
    "pres, gens_a, gens_b, radius",
    [
        (ZZ, None, ("a",), 3),  # <a> is a proper subgroup of Z^2
        (ZZ, ("a",), ("a", "b"), 3),  # the same with the roles swapped
        (ZZ, None, ("a", "b"), 0),  # only the identity is reached
        (F1, None, ("aa", "aaa"), 2),  # aaa is 3 steps of a
    ],
    ids=["subgroup-b", "subgroup-a", "radius-0", "radius-too-small"],
)
def test_each_set_must_reach_the_other(pres, gens_a, gens_b, radius):
    gens_a = None if gens_a is None else gens(pres, *gens_a)
    with pytest.raises(ValueError, match="or the radius is too small"):
        compare_metrics(pres, gens_a, gens(pres, *gens_b), radius)


def test_minimal_quarters_edge_cases():
    assert _minimal_quarters([(0, 0)], 0) == 4
    assert _minimal_quarters([(3, 1)], 0) == 12
    assert _minimal_quarters([(0, 2)], 1) is None
    assert _minimal_quarters([(0, 2)], 2) == 4


def test_words_must_fit_alphabet():
    with pytest.raises(ValueError):
        compare_metrics(ZZ, None, [(3,)], 3)
