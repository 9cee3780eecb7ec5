import random

import pytest

from groupgeom.cayley import ElementIndex
from groupgeom.qi import QIReport, _metric_bfs, _minimal_quarters, _satisfies, compare_metrics
from groupgeom.words import invert, parse_word, standard_presentation

ZZ = standard_presentation("zz")
F1 = standard_presentation("free", 1)
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)


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
    # one quarter less reintroduces a violation
    index = ElementIndex(ZZ)
    da = _metric_bfs(index, gens(ZZ, "a", "b"), 6)
    db = _metric_bfs(index, gens(ZZ, "a", "b", "ab"), 6)
    common = sorted(set(da) & set(db))
    pairs = [(da[e], db[e]) for e in common]
    report = compare_metrics(ZZ, None, gens(ZZ, "a", "b", "ab"), 6)
    k = round(report.lam * 4)
    assert report.c == 0
    assert _satisfies(pairs, k)
    if k > 4:
        assert not _satisfies(pairs, k - 1)


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
    assert _minimal_quarters([(0, 0)]) == 4
    assert _minimal_quarters([(3, 1)]) == 12
    assert _minimal_quarters([(1, 3)]) == 12
    assert _minimal_quarters([(0, 0), (2, 3), (3, 2), (5, 5)]) == 6


def _reference_minimal_quarters(pairs, c):
    """Least k with lambda = k/4 >= 1 satisfying both inequalities, if any."""
    k = 4
    for ds, dt in pairs:
        if dt + c == 0:
            if ds > 0:
                return None
        else:
            k = max(k, -(-4 * ds // (dt + c)))
        if ds == 0:
            if dt > c:
                return None
        else:
            k = max(k, -(-(4 * dt - 4 * c) // ds))
    return k


def _reference_compare(presentation, gens_a, gens_b, radius):
    """The grid search over (c, k), additive constant first: the fit before
    it was found that c = 0 always fits."""
    if gens_a is None:
        gens_a = [(k,) for k in range(1, presentation.rank + 1)]
    index = ElementIndex(presentation)
    da = _metric_bfs(index, gens_a, radius)
    db = _metric_bfs(index, gens_b, radius)
    for gens, dist in ((gens_a, db), (gens_b, da)):
        if any(index.find_or_add(w) not in dist for w in gens):
            raise ValueError("a word of one set is not within the radius of the other")
    common = sorted(set(da) & set(db))
    pairs = [(da[e], db[e]) for e in common]
    for c in range(0, max((max(ds, dt) for ds, dt in pairs), default=0) + 1):
        k = _reference_minimal_quarters(pairs, c)
        if k is not None:
            return QIReport(k / 4.0, c, len(common))
    return QIReport(1.0, 0, len(common))


def _random_generating_set(pres, rng):
    """The standard generators after up to two Nielsen moves (g -> g h^+-1)
    and inversions, shuffled with up to two extra words of 1-3 letters.
    The moves keep a generating set; the radius may still be too small."""
    r = pres.rank
    words = [[g] for g in range(1, r + 1)]
    for _ in range(rng.randint(0, 2) if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        words[i].append(rng.choice((1, -1)) * (j + 1))
    words = [tuple(w) if rng.random() < 0.5 else invert(tuple(w)) for w in words]
    for _ in range(rng.randint(0, 2)):
        length = rng.randint(1, 3)
        words.append(tuple(rng.choice((1, -1)) * rng.randint(1, r) for _ in range(length)))
    rng.shuffle(words)
    return words


def test_closed_form_fit_matches_the_grid_search():
    fits = 0
    for pres, radius, draws in ((ZZ, 4, 200), (F1, 4, 80), (F2, 3, 120), (SURF2, 2, 200)):
        rng = random.Random(radius * 1000 + pres.rank)
        for _ in range(draws):
            gens_a = None if rng.random() < 0.3 else _random_generating_set(pres, rng)
            gens_b = _random_generating_set(pres, rng)
            try:
                expected = _reference_compare(pres, gens_a, gens_b, radius)
            except ValueError:
                with pytest.raises(ValueError, match="or the radius is too small"):
                    compare_metrics(pres, gens_a, gens_b, radius)
                continue
            assert expected.c == 0
            assert compare_metrics(pres, gens_a, gens_b, radius) == expected
            fits += 1
    assert fits >= 400


def test_words_must_fit_alphabet():
    with pytest.raises(ValueError):
        compare_metrics(ZZ, None, [(3,)], 3)
