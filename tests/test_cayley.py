import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeom import cayley, isoperimetry
from groupgeom.cayley import ElementIndex, all_geodesics, build_ball
from groupgeom.isoperimetry import AreaCaps
from groupgeom.oracle import Tristate, UndecidedError, canonical_form, words_equal
from groupgeom.qi import compare_metrics
from groupgeom.words import Presentation, multiply, parse_word, standard_presentation

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)


def test_free_ball_counts():
    for r in range(0, 7):
        assert len(build_ball(F2, r)) == 1 + 2 * (3**r - 1)


def test_zz_ball_counts():
    for r in range(0, 7):
        assert len(build_ball(ZZ, r)) == 2 * r * r + 2 * r + 1


def test_surface_ball_radius_one():
    ball = build_ball(SURF2, 1)
    assert len(ball) == 9


def test_vertex_zero_is_identity():
    ball = build_ball(ZZ, 3)
    assert ball.vertices[0] == ()
    assert ball.dist[0] == 0
    assert all(ball.dist[v] <= 3 for v in range(len(ball)))


def test_vertex_numbering_by_layer_then_shortlex():
    ball = build_ball(ZZ, 2)
    names = [parse_word(t, ZZ) for t in ("1", "a", "A", "b", "B", "aa", "ab", "aB", "AA", "Ab", "AB", "bb", "BB")]
    assert list(ball.vertices) == names


def test_edges_bidirectional_and_degree():
    ball = build_ball(ZZ, 3)
    edges = set(ball.edges)
    assert all((v, -letter, u) in edges for u, letter, v in edges)
    for v in range(len(ball)):
        if ball.dist[v] < ball.radius:
            assert len(ball.adjacency[v]) == 4


def test_no_duplicate_elements_small_balls():
    for pres, r in ((ZZ, 3), (F2, 3), (SURF2, 2)):
        ball = build_ball(pres, r)
        reps = ball.vertices
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert words_equal(pres, reps[i], reps[j]) is Tristate.NOT_EQUAL


def test_generic_presentation_ball_with_oracle_dedup():
    generic = Presentation(("a", "b"), ((1, 2, -1, -2),))
    ball = build_ball(generic, 2)
    assert len(ball) == 13


def test_distances_from_examples():
    ball = build_ball(ZZ, 4)
    ab = parse_word("ab", ZZ)
    assert ball.distances_from(())[ball.vertex_of(ab)] == 2
    assert ball.distances_from(ab)[ball.vertex_of(ab)] == 0
    free_ball = build_ball(F2, 4)
    assert free_ball.distances_from((1,))[free_ball.vertex_of((2,))] == 2


def test_unclipped_flags_possible_clipping():
    ball = build_ball(ZZ, 2)
    assert not ball.unclipped(parse_word("aa", ZZ), parse_word("AA", ZZ))
    assert ball.unclipped((), parse_word("a", ZZ))


def test_distance_rows_are_ints_with_or_without_the_matrix():
    ball = build_ball(SURF2, 2)
    rows = [ball.distances_from(v) for v in range(len(ball))]
    flags = [ball.unclipped(0, v) for v in range(len(ball))]
    ball.distance_matrix()
    assert [ball.distances_from(v) for v in range(len(ball))] == rows
    for row in (rows[5], ball.distances_from(5)):
        assert {type(d) for d in row} == {int}
    assert [ball.unclipped(0, v) for v in range(len(ball))] == flags
    assert {type(ball.unclipped(0, v)) for v in range(len(ball))} == {bool}
    json.dumps(ball.distances_from(0))


def test_normal_form_index_never_asks_the_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("words_equal called on a presentation with a normal form")

    monkeypatch.setattr(cayley, "words_equal", refuse)
    assert len(build_ball(F2, 4)) == 161
    assert len(build_ball(ZZ, 6)) == 85
    gens = [parse_word(t, ZZ) for t in ("a", "b", "ab")]
    report = compare_metrics(ZZ, None, gens, 4)
    assert (report.lam, report.c) == (2.0, 0)


def test_distance_matrix_triangle_inequality():
    ball = build_ball(ZZ, 3)
    mat = ball.distance_matrix()
    n = len(ball)
    for a in range(0, n, 3):
        for b in range(0, n, 3):
            for c in range(0, n, 3):
                assert mat[a, c] <= mat[a, b] + mat[b, c]
    assert (mat == mat.T).all()


def test_word_outside_ball_raises():
    ball = build_ball(ZZ, 2)
    with pytest.raises(ValueError):
        ball.vertex_of(parse_word("aaa", ZZ))


@pytest.mark.parametrize("ref", [-1, 13, True], ids=["negative", "past-the-end", "bool"])
def test_vertex_index_out_of_range_raises(ref):
    ball = build_ball(ZZ, 2)
    assert len(ball) == 13
    with pytest.raises(ValueError, match=f"vertex index {ref} out of range"):
        ball.distances_from(ref)


def test_vertex_index_may_be_a_numpy_integer():
    ball = build_ball(ZZ, 2)
    assert ball.distances_from(np.int64(3)) == ball.distances_from(3)
    assert ball.unclipped(np.int64(0), np.int32(5)) == ball.unclipped(0, 5)


def test_physical_memory_unknown_refuses_nothing(monkeypatch):
    def no_sysconf(name):
        raise ValueError(f"unknown configuration name {name}")

    monkeypatch.setattr(cayley.os, "sysconf", no_sysconf)
    assert cayley.physical_memory() is None
    cayley.check_memory(1 << 62, "a computation larger than any machine")


@pytest.mark.parametrize(
    "radius, message",
    [
        (-1, "radius must be nonnegative"),
        (2.5, "radius must be an integer, got 2.5"),
        (3.0, "radius must be an integer, got 3.0"),
        ("2", "radius must be an integer, got '2'"),
        (True, "radius must be an integer, got True"),
    ],
    ids=["negative", "fractional", "integral-float", "text", "bool"],
)
def test_build_ball_rejects_a_bad_radius(radius, message):
    with pytest.raises(ValueError, match=message):
        build_ball(ZZ, radius)


def test_build_ball_accepts_a_numpy_integer_radius():
    ball, expected = build_ball(ZZ, np.int64(3)), build_ball(ZZ, 3)
    assert (ball.vertices, ball.dist, ball.adjacency) == (expected.vertices, expected.dist, expected.adjacency)
    assert ball.radius == 3


def test_geodesics_unique_in_tree():
    ball = build_ball(F2, 4)
    paths, truncated = all_geodesics(ball, 0, ball.vertex_of(parse_word("ab", F2)))
    assert len(paths) == 1 and not truncated
    assert paths[0].labels == (1, 2)


def test_geodesics_staircase_count():
    ball = build_ball(ZZ, 4)
    target = ball.vertex_of(parse_word("aabb", ZZ))
    paths, truncated = all_geodesics(ball, 0, target)
    assert len(paths) == 6 and not truncated  # C(4, 2) monotone staircases
    for path in paths:
        assert len(path.labels) == 4
        assert sorted(path.labels) == [1, 1, 2, 2]


def test_geodesics_single_letter():
    ball = build_ball(ZZ, 2)
    paths, _ = all_geodesics(ball, 0, ball.vertex_of((1,)))
    assert len(paths) == 1
    assert paths[0].labels == (1,)


def test_geodesic_cap_truncates():
    ball = build_ball(ZZ, 4)
    target = ball.vertex_of(parse_word("aabb", ZZ))
    paths, truncated = all_geodesics(ball, 0, target, cap=3)
    assert len(paths) == 3 and truncated


def test_half_radius_distances_match_canonical_length():
    from groupgeom.words import invert, multiply

    for pres, radius in ((ZZ, 6), (F2, 4)):
        ball = build_ball(pres, radius)
        mat = ball.distance_matrix()
        half = [v for v in range(len(ball)) if ball.dist[v] <= radius // 2]
        for u in half:
            for v in half:
                quotient = multiply(invert(ball.vertices[u]), ball.vertices[v])
                assert mat[u, v] == len(canonical_form(pres, quotient))


def test_build_ball_signals_on_undecided_oracle(monkeypatch):
    # S3 = <a, b | a^3, b^2, abab>: a and the identity share a residue, no
    # relator loop closes at the identity, and the area search cannot tell
    # them apart.
    monkeypatch.setattr(isoperimetry, "ORACLE_CAPS", AreaCaps(0, 8))
    s3 = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))
    with pytest.raises(UndecidedError):
        build_ball(s3, 1)


def test_surface_ball_merges_relator_cycles():
    # tree count at radius 4 is 3201; the 8 octagonal relator cycles
    # through the identity each merge one antipodal pair of vertices
    assert len(build_ball(SURF2, 4)) == 3201 - 8


def test_length_one_relator_collapses_generator():
    pres = Presentation(("a", "b"), ((1,),))
    ball = build_ball(pres, 2)
    assert len(ball) == 5  # the quotient is free on b
    assert ball.adjacency[0][1] == 0  # a-edge loops at the identity


# -- relator-loop deduction and the bipartite stop, against the plain BFS --

UNTAGGED_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2),))
ODD_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2), (1,) * 5))


def _commutator(x, y):
    return (x, y, -x, -y)


def _reference_build_ball(presentation, radius):
    """The breadth-first search that asks the index for every edge."""
    index = ElementIndex(presentation)
    index.add(())
    dist = [0]
    adjacency = [{}]
    letters = presentation.letters()
    u = 0
    while u < len(index.reps):
        interior = dist[u] < radius
        for letter in letters:
            if letter in adjacency[u]:
                continue
            target = multiply(index.reps[u], (letter,))
            v = index.find(target)
            if v is None:
                if not interior:
                    continue
                v = index.add(target)
                dist.append(dist[u] + 1)
                adjacency.append({})
            adjacency[u][letter] = v
            adjacency[v][-letter] = u
        u += 1
    return tuple(index.reps), tuple(dist), [list(edges.items()) for edges in adjacency]


def _assert_matches_reference(presentation, radius):
    """Where the plain search builds a ball, build_ball builds the same one,
    down to vertex order and the insertion order of every vertex's edges."""
    try:
        expected = _reference_build_ball(presentation, radius)
    except UndecidedError:
        return
    ball = build_ball(presentation, radius)
    assert (ball.vertices, ball.dist, [list(e.items()) for e in ball.adjacency]) == expected


DIFFERENTIAL_CASES = [
    (SURF2, 4),
    (standard_presentation("surface", 3), 3),
    (ZZ, 9),
    (UNTAGGED_ZZ, 9),
    (Presentation(("a", "b", "c"), (_commutator(1, 2), _commutator(1, 3), _commutator(2, 3))), 3),
    (F2, 4),
    (Presentation(("a",), ((1,) * 5,)), 4),
    (ODD_ZZ, 4),
    (Presentation(("a", "b"), ((1,),)), 3),
]


@pytest.mark.parametrize("presentation, max_radius", DIFFERENTIAL_CASES)
def test_build_ball_matches_reference(presentation, max_radius):
    for radius in range(max_radius + 1):
        _assert_matches_reference(presentation, radius)


relator = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.lists(relator, max_size=2), st.integers(0, 3))
def test_build_ball_matches_reference_on_small_presentations(relators, radius):
    # Small caps keep each undecided comparison cheap; both searches ask the
    # same oracle, so the comparison stays exact.
    saved = isoperimetry.ORACLE_CAPS
    isoperimetry.ORACLE_CAPS = AreaCaps(2, 12)
    try:
        _assert_matches_reference(Presentation(("a", "b"), tuple(relators)), radius)
    finally:
        isoperimetry.ORACLE_CAPS = saved


def test_untagged_zz_builds_where_the_oracle_alone_could_not():
    # Two distinct elements in one residue bucket defeat the area search;
    # relator loops decide every edge of this ball without comparing them.
    with pytest.raises(UndecidedError):
        _reference_build_ball(UNTAGGED_ZZ, 11)
    ball = build_ball(UNTAGGED_ZZ, 11)
    assert len(ball) == 265
    assert Counter(ball.dist) == Counter(build_ball(ZZ, 11).dist)


def test_untagged_zz_builds_under_tiny_caps(monkeypatch):
    monkeypatch.setattr(isoperimetry, "ORACLE_CAPS", AreaCaps(0, 8))
    assert len(build_ball(UNTAGGED_ZZ, 2)) == 13


def _find_lengths(monkeypatch):
    """Record the length of every word build_ball looks up in the index."""
    lengths = []
    find = ElementIndex.find

    def counting_find(self, word):
        lengths.append(len(word))
        return find(self, word)

    monkeypatch.setattr(cayley.ElementIndex, "find", counting_find)
    return lengths


@pytest.mark.parametrize("presentation, radius", [(SURF2, 3), (UNTAGGED_ZZ, 5), (F2, 3)])
def test_even_relators_skip_the_boundary_lookups(monkeypatch, presentation, radius):
    # Representatives are geodesic, so only a vertex at depth ``radius``
    # looks up a word one letter longer than the radius.
    lengths = _find_lengths(monkeypatch)
    build_ball(presentation, radius)
    assert lengths and max(lengths) <= radius


def test_odd_relators_keep_the_boundary_lookups(monkeypatch):
    lengths = _find_lengths(monkeypatch)
    build_ball(ODD_ZZ, 3)
    assert max(lengths) == 4
