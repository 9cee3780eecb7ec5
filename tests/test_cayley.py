import pytest

from groupgeom import isoperimetry
from groupgeom.cayley import all_geodesics, build_ball
from groupgeom.isoperimetry import AreaCaps
from groupgeom.oracle import Tristate, canonical_form, words_equal
from groupgeom.words import Presentation, parse_word, standard_presentation

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
    from groupgeom.oracle import UndecidedError

    monkeypatch.setattr(isoperimetry, "ORACLE_CAPS", AreaCaps(0, 8))
    generic = Presentation(("a", "b"), ((1, 2, -1, -2),))
    with pytest.raises(UndecidedError):
        build_ball(generic, 2)


def test_surface_ball_merges_relator_cycles():
    # tree count at radius 4 is 3201; the 8 octagonal relator cycles
    # through the identity each merge one antipodal pair of vertices
    assert len(build_ball(SURF2, 4)) == 3201 - 8


def test_length_one_relator_collapses_generator():
    pres = Presentation(("a", "b"), ((1,),))
    ball = build_ball(pres, 2)
    assert len(ball) == 5  # the quotient is free on b
    assert ball.adjacency[0][1] == 0  # a-edge loops at the identity
