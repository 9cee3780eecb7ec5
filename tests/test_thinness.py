import random
import tracemalloc
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from groupgeom import cayley, thinness
from groupgeom.cayley import build_ball
from groupgeom.thinness import ThinnessReport, ThinnessWitness, delta_estimate, triangle_thinness
from groupgeom.words import Presentation, parse_presentation, parse_word, standard_presentation

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)
UNTAGGED_ZZ = parse_presentation("gens: a b\nrels: abAB\n")

# The balls the array kernels are checked on against their references.
KERNEL_CASES = (
    [("zz", ZZ, r) for r in (2, 3, 4, 5)]
    + [("surface2", SURF2, 2)]
    + [("free2", F2, r) for r in (2, 3)]
    + [("untagged-zz", UNTAGGED_ZZ, r) for r in (2, 3)]
)
KERNEL_IDS = [f"{name}-r{r}" for name, _, r in KERNEL_CASES]


@lru_cache(maxsize=None)
def _kernel_ball(index):
    _, pres, r = KERNEL_CASES[index]
    return build_ball(pres, r)


def _brute_triangle_delta(ball, x, y, z):
    """Independent oracle: explicitly enumerate every geodesic for every
    side, then take the exact max-over-choices of the point-to-union gap."""
    from groupgeom.cayley import all_geodesics

    mat = ball.distance_matrix()
    sides = [(x, y), (y, z), (x, z)]
    geos = []
    for a, b in sides:
        paths, truncated = all_geodesics(ball, a, b, cap=100_000)
        assert not truncated
        geos.append([set(p.vertices) for p in paths])
    best = 0
    for si in range(3):
        o1, o2 = geos[(si + 1) % 3], geos[(si + 2) % 3]
        for g in geos[si]:
            for p in g:
                worst_1 = max(min(int(mat[p, q]) for q in h) for h in o1)
                worst_2 = max(min(int(mat[p, q]) for q in h) for h in o2)
                best = max(best, min(worst_1, worst_2))
    return best


def test_lattice_triangle_matches_bruteforce():
    ball = build_ball(ZZ, 4)
    corners = [0, ball.vertex_of(parse_word("aa", ZZ)), ball.vertex_of(parse_word("bb", ZZ))]
    delta, witness = triangle_thinness(ball, *corners)
    assert delta == _brute_triangle_delta(ball, *corners) == 2
    assert witness.distance == 2
    assert ball.vertices[witness.point] == parse_word("aabb", ZZ)


def test_more_triangles_match_bruteforce():
    ball = build_ball(ZZ, 4)
    v = ball.vertex_of
    triples = [
        (0, v(parse_word("ab", ZZ)), v(parse_word("aB", ZZ))),
        (v(parse_word("a", ZZ)), v(parse_word("b", ZZ)), v(parse_word("A", ZZ))),
        (0, v(parse_word("aabb", ZZ)), v(parse_word("ab", ZZ))),
    ]
    for tri in triples:
        delta, _ = triangle_thinness(ball, *tri)
        assert delta == _brute_triangle_delta(ball, *tri)


def test_degenerate_triangle():
    ball = build_ball(ZZ, 3)
    delta, _ = triangle_thinness(ball, 1, 1, 1)
    assert delta == 0


def test_triangle_symmetric_under_vertex_permutations():
    ball = build_ball(ZZ, 4)
    tri = (0, ball.vertex_of(parse_word("aa", ZZ)), ball.vertex_of(parse_word("bb", ZZ)))
    values = {triangle_thinness(ball, *perm)[0] for perm in permutations(tri)}
    assert values == {2}


def test_triangle_rejects_clipped_pairs():
    ball = build_ball(ZZ, 2)
    far1 = ball.vertex_of(parse_word("aa", ZZ))
    far2 = ball.vertex_of(parse_word("AA", ZZ))
    with pytest.raises(ValueError):
        triangle_thinness(ball, 0, far1, far2)


def test_tree_triangles_are_zero_thin():
    ball = build_ball(F2, 4)
    report = delta_estimate(ball)
    assert report.delta == 0
    assert report.witness is None
    assert report.triangles_examined > 0


def test_lattice_delta_grows_with_radius():
    values = {}
    for r in (2, 3, 4):
        report = delta_estimate(build_ball(ZZ, r))
        values[r] = report.delta
    assert values[2] <= values[3] <= values[4]
    assert values[4] == 2
    assert values[2] >= 1


def test_delta_bounded_by_max_side():
    ball = build_ball(ZZ, 4)
    mat = ball.distance_matrix()
    report = delta_estimate(ball)
    wit = report.witness
    tri = wit.triangle
    max_side = max(mat[tri[0], tri[1]], mat[tri[1], tri[2]], mat[tri[0], tri[2]])
    assert report.delta <= max_side


def test_random_sample_bounded_by_exhaustive():
    ball = build_ball(ZZ, 4)
    full = delta_estimate(ball)
    sampled = delta_estimate(ball, sample_count=60, seed=5)
    assert sampled.delta <= full.delta
    again = delta_estimate(ball, sample_count=60, seed=5)
    assert again.delta == sampled.delta
    assert again.triangles_examined == sampled.triangles_examined


def test_random_sample_needs_seed():
    ball = build_ball(ZZ, 3)
    with pytest.raises(ValueError):
        delta_estimate(ball, sample_count=10)


@pytest.mark.parametrize("count", [-3, 0])
def test_random_sample_rejects_nonpositive_count(count):
    ball = build_ball(ZZ, 3)
    with pytest.raises(ValueError, match="sample count must be at least 1"):
        delta_estimate(ball, sample_count=count, seed=1)


@pytest.mark.parametrize("relator", [(1,), (1, 1)], ids=["a", "aa"])
def test_random_sample_of_a_ball_without_triangles(relator):
    ball = build_ball(Presentation(("a",), (relator,)), 2)
    assert len(ball) == len(relator)
    assert delta_estimate(ball) == ThinnessReport(0, None, 0, "exhaustive")
    sampled = delta_estimate(ball, sample_count=3, seed=1)
    assert sampled == ThinnessReport(0, None, 0, "random(seed=1, count=3)")


def test_ball_with_one_triangle():
    # Z/3 at radius 2: its one unclipped triple, examined exhaustively or
    # by a sample of any count.
    ball = build_ball(Presentation(("a",), ((1, 1, 1),)), 2)
    assert len(ball) == 3
    assert delta_estimate(ball) == ThinnessReport(0, None, 1, "exhaustive")
    for count in (1, 3):
        sampled = delta_estimate(ball, sample_count=count, seed=1)
        assert sampled == ThinnessReport(0, None, 1, f"random(seed=1, count={count})")


def test_sample_larger_than_the_ball_stops_drawing(monkeypatch):
    # 13 vertices: C(13, 3) = 286 triples, 26 of them unclipped.  One
    # draw picks the sample from those 26.
    ball = build_ball(ZZ, 2)
    calls = 0

    class CountingRandom(random.Random):
        def sample(self, population, k, **kwargs):
            nonlocal calls
            calls += 1
            return super().sample(population, k, **kwargs)

    monkeypatch.setattr(thinness.random, "Random", CountingRandom)
    sampled = delta_estimate(ball, sample_count=10_000, seed=1)
    assert calls == 1
    full = delta_estimate(ball)
    assert (sampled.delta, sampled.witness, sampled.triangles_examined) == (
        full.delta, full.witness, full.triangles_examined
    )
    assert full.triangles_examined == 26


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sample_count": 5, "seed": None}, "explicit seed"),
        ({"sample_count": 0, "seed": 1}, "sample count must be at least 1"),
        ({"sample_count": 2.5, "seed": 1}, "sample count must be an integer, got 2.5"),
        ({"sample_count": "40", "seed": 1}, "sample count must be an integer, got '40'"),
        ({"sample_count": True, "seed": 1}, "sample count must be an integer, got True"),
    ],
    ids=["no-seed", "zero-count", "fractional-count", "text-count", "bool-count"],
)
def test_bad_sampling_arguments_fail_before_the_distance_matrix(monkeypatch, kwargs, message):
    ball = build_ball(ZZ, 3)

    def no_matrix(self):
        raise AssertionError("built the distance matrix")

    monkeypatch.setattr(cayley.CayleyBall, "distance_matrix", no_matrix)
    with pytest.raises(ValueError, match=message):
        delta_estimate(ball, **kwargs)


def test_triangle_corners_may_be_numpy_integers():
    ball = build_ball(ZZ, 3)
    delta, witness = triangle_thinness(ball, *np.array([0, 1, 2]))
    assert (delta, witness) == triangle_thinness(ball, 0, 1, 2)
    assert {type(v) for v in witness.triangle} == {int}


def test_sample_count_may_be_a_numpy_integer():
    ball = build_ball(ZZ, 3)
    assert delta_estimate(ball, np.int64(40), 1) == delta_estimate(ball, 40, 1)


def test_sample_reaching_every_triple_matches_the_exhaustive_estimate():
    # 457 vertices, 5,068 unclipped triples among C(457, 3): a sample that
    # drew vertex triples until it had 20,000 eligible ones would need
    # millions of draws.
    ball = build_ball(SURF2, 3)
    sampled = delta_estimate(ball, 20000, 1)
    full = delta_estimate(ball)
    assert sampled.triangles_examined == full.triangles_examined == 5068
    assert (sampled.delta, sampled.witness) == (full.delta, full.witness)
    assert sampled.sampling_policy == "random(seed=1, count=20000)"


def test_surface_ball_delta_small():
    report = delta_estimate(build_ball(SURF2, 2))
    assert 0 <= report.delta <= 2


def test_witness_consistency():
    ball = build_ball(ZZ, 4)
    report = delta_estimate(ball)
    wit = report.witness
    mat = ball.distance_matrix()
    assert wit.distance == report.delta
    assert mat[wit.point, wit.nearest] == report.delta
    # the witness point lies on one of the witness geodesics
    path = next(g for g in wit.geodesics if wit.point in g)
    assert {path[0], path[-1]} <= set(wit.triangle)
    assert all(mat[u, v] == 1 for u, v in zip(path, path[1:]))
    assert len(path) - 1 == mat[path[0], path[-1]]


def test_surface_delta_pins():
    # radius 3 holds no relator cycle (those need radius 4), so the ball
    # is still a tree; at radius 4 the octagons appear and fatten
    # triangles to exactly 2
    assert delta_estimate(build_ball(SURF2, 3)).delta == 0
    assert delta_estimate(build_ball(SURF2, 4)).delta == 2


@pytest.mark.parametrize(
    "pres, radius, expected",
    [
        (
            ZZ,
            10,
            ThinnessReport(
                5,
                ThinnessWitness(
                    (0, 1, 171),
                    70,
                    1,
                    5,
                    (
                        (0, 1),
                        (1, 6, 16, 30, 48, 70, 59, 81, 107, 137, 171),
                        (0, 2, 8, 18, 32, 51, 75, 103, 135, 171),
                    ),
                ),
                211926,
                "exhaustive",
            ),
        ),
        (F2, 5, ThinnessReport(0, None, 18764, "exhaustive")),
    ],
    ids=["zz-r10", "free2-r5"],
)
def test_exhaustive_delta_pins(pres, radius, expected):
    # Both balls outgrow the first node array several times, and their
    # chunks read sides built in different batches of the side DP.
    assert delta_estimate(build_ball(pres, radius)) == expected


def test_exhaustive_delta_deterministic():
    r1 = delta_estimate(build_ball(ZZ, 4))
    r2 = delta_estimate(build_ball(ZZ, 4))
    assert (r1.delta, r1.witness, r1.triangles_examined) == (
        r2.delta,
        r2.witness,
        r2.triangles_examined,
    )


# The side DAG, its DP and the witness walkers that ``thinness._side_dp``
# and ``thinness._descend`` replaced, kept unchanged as references.
class _SideDag:
    """Shortest-path DAG between two ball vertices.

    ``nodes`` lists every vertex on some geodesic, topologically ordered
    by distance from ``a``; ``preds[i]`` are node positions one step
    closer to ``a``.
    """

    __slots__ = ("a", "b", "nodes", "preds", "pos")

    def __init__(self, ball, a, b, D):
        self.a, self.b = a, b
        da, db = D[a], D[b]
        total = int(da[b])
        nodes = np.nonzero(da + db == total)[0]
        order = np.argsort(da[nodes], kind="stable")
        self.nodes = nodes[order]
        self.pos = {int(v): i for i, v in enumerate(self.nodes)}
        self.preds = [[] for _ in self.nodes]
        for i, v in enumerate(self.nodes):
            dv = int(da[v])
            for w in ball.adjacency[int(v)].values():
                j = self.pos.get(w)
                if j is not None and int(da[w]) == dv - 1:
                    self.preds[i].append(j)


def _adversary_vector(dag, D):
    """For every ball vertex p: max over geodesics of min distance p to the path.

    Bottleneck DP, vectorized over all vertices: M[v] = min(d(v, p), max
    over predecessors), answered at the far endpoint.  Returns a copy of
    that row, so the k-by-n table is freed.
    """
    M = D[dag.nodes]
    for i, preds in enumerate(dag.preds):
        if preds:
            acc = M[preds[0]]
            for j in preds[1:]:
                acc = np.maximum(acc, M[j])
            np.minimum(M[i], acc, out=M[i])
    return M[dag.pos[dag.b]].copy()


def _adversary_path(dag, weights):
    """One geodesic attaining the bottleneck max-min for scalar weights."""
    n = len(dag.nodes)
    value = [0] * n
    parent = [-1] * n
    for i in range(n):
        w = int(weights[dag.nodes[i]])
        if not dag.preds[i]:
            value[i] = w
        else:
            j_best = max(dag.preds[i], key=lambda j: value[j])
            value[i] = min(w, value[j_best])
            parent[i] = j_best
    path = []
    i = dag.pos[dag.b]
    while i >= 0:
        path.append(int(dag.nodes[i]))
        i = parent[i]
    return tuple(reversed(path))


def _any_geodesic_through(ball, a, p, b, D):
    def descend(frm, to):
        seq = [frm]
        d = D[to]
        v = frm
        while v != to:
            step = min(
                (w for w in ball.adjacency[v].values() if d[w] == d[v] - 1),
                key=lambda w: w,
            )
            seq.append(step)
            v = step
        return seq

    left = descend(p, a)[::-1]
    right = descend(p, b)
    return tuple(left + right[1:])


def _reference_adversary_distances(dag, points, D):
    """The per-triangle DP that ``thinness._adversary_vector`` replaced:
    the same recurrence, restricted to ``points`` through ``np.ix_``."""
    W = D[np.ix_(dag.nodes, points)].astype(np.int32)
    M = np.empty_like(W)
    for i in range(len(dag.nodes)):
        if not dag.preds[i]:
            M[i] = W[i]
        else:
            acc = M[dag.preds[i][0]]
            for j in dag.preds[i][1:]:
                acc = np.maximum(acc, M[j])
            M[i] = np.minimum(W[i], acc)
    return M[dag.pos[dag.b]]


def _reference_evaluate(ball, tri, D):
    """(delta, side index, point) through the reference DP."""
    dags = [_SideDag(ball, tri[ia], tri[ib], D) for ia, ib in thinness._SIDES]
    best = (-1, -1, -1)
    for si in range(3):
        points = dags[si].nodes
        vals = np.minimum(
            _reference_adversary_distances(dags[(si + 1) % 3], points, D),
            _reference_adversary_distances(dags[(si + 2) % 3], points, D),
        )
        k = int(vals.argmax())
        if int(vals[k]) > best[0]:
            best = (int(vals[k]), si, int(points[k]))
    return best, dags


def _reference_triangle(ball, tri):
    """``triangle_thinness`` (worst case) assembled from the reference DP."""
    D = ball.distance_matrix()
    (delta, si, p), dags = _reference_evaluate(ball, tri, D)
    ia, ib = thinness._SIDES[si]
    paths = [None, None, None]
    paths[si] = _any_geodesic_through(ball, tri[ia], p, tri[ib], D)
    others = [(si + 1) % 3, (si + 2) % 3]
    for o in others:
        paths[o] = _adversary_path(dags[o], D[p])
    q = min((v for o in others for v in paths[o]), key=lambda v: (D[p][v], v))
    return delta, ThinnessWitness(tri, p, int(q), delta, tuple(paths))


def _reference_triples(ball, D):
    """The Python double loop that ``thinness._triples`` replaced: every
    unclipped triple ``(i, j, k, longest side)``, sorted the way
    ``delta_estimate`` visits them."""
    n = len(ball)
    depth = np.asarray(ball.dist, dtype=np.int16)
    elig = D + depth[:, None] + depth <= 2 * ball.radius
    triples = []
    for i in range(n):
        row_i = elig[i]
        for j in range(i + 1, n):
            if not row_i[j]:
                continue
            ks = np.nonzero(row_i[j + 1 :] & elig[j, j + 1 :])[0]
            dij = int(D[i, j])
            for k in ks:
                kk = int(k) + j + 1
                triples.append((i, j, kk, max(dij, int(D[i, kk]), int(D[j, kk]))))
    return sorted(triples, key=lambda t: (-t[3], t[0], t[1], t[2]))


def _reference_scan(ball, sample_count=None, seed=None):
    """Every examined triple with its reference thinness, in the order
    ``delta_estimate`` visits them, and the sampling policy."""
    D = ball.distance_matrix()
    order = _reference_triples(ball, D)
    policy = "exhaustive"
    if sample_count is not None:
        policy = f"random(seed={seed}, count={sample_count})"
        picks = random.Random(seed).sample(range(len(order)), min(sample_count, len(order)))
        order = [order[x] for x in sorted(picks)]
    return [(t, _reference_evaluate(ball, t[:3], D)[0][0]) for t in order], policy


def _reference_report(ball, sample_count=None, seed=None):
    scan, policy = _reference_scan(ball, sample_count, seed)
    best = max((delta for _, delta in scan), default=0)
    witness = None
    if best > 0:
        first = next(t for t, delta in scan if delta == best)
        best, witness = _reference_triangle(ball, first[:3])
    return thinness.ThinnessReport(best, witness, len(scan), policy)


@pytest.mark.parametrize("index", range(len(KERNEL_CASES)), ids=KERNEL_IDS)
def test_thinness_is_at_most_half_the_longest_side(index):
    # The bound the scan stops on: a point of a side of length l is within
    # l // 2 of a corner, which lies on another side.
    scan, _ = _reference_scan(_kernel_ball(index))
    assert scan
    assert all(delta <= maxside // 2 for (_, _, _, maxside), delta in scan)


def _unclipped_pairs(ball):
    D = ball.distance_matrix()
    depth = np.asarray(ball.dist)
    n = len(ball)
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if depth[a] + depth[b] + D[a, b] <= 2 * ball.radius
    ]


@pytest.mark.parametrize("index", range(len(KERNEL_CASES)), ids=KERNEL_IDS)
def test_side_vector_matches_reference_dp(index):
    ball = _kernel_ball(index)
    D = ball.distance_matrix()
    everywhere = np.arange(len(ball))
    pairs = _unclipped_pairs(ball)
    a, b = np.array(pairs).T
    # Every unclipped pair in one batch.
    side, nodes, M = thinness._side_dp(ball, D, a, b)
    assert M.shape == (len(nodes), len(ball))
    assert np.all(np.diff(D[a[side], nodes]) >= 0)
    for s, (x, y) in enumerate(pairs):
        dag = _SideDag(ball, x, y, D)
        k = np.flatnonzero(side == s)
        assert np.array_equal(nodes[k], dag.nodes)
        assert nodes[k[-1]] == y
        vector = M[k[-1]]
        assert np.array_equal(vector, _adversary_vector(dag, D))
        assert np.array_equal(vector, _reference_adversary_distances(dag, everywhere, D))


TRIPLE_CASES = (
    [("zz", ZZ, r) for r in range(2, 11)]
    + [("free2", F2, r) for r in range(2, 6)]
    + [("surface2", SURF2, r) for r in (2, 3)]
    + [("untagged-zz", UNTAGGED_ZZ, r) for r in (2, 3)]
)


@pytest.mark.parametrize(
    "pres, radius",
    [(pres, r) for _, pres, r in TRIPLE_CASES],
    ids=[f"{name}-r{r}" for name, _, r in TRIPLE_CASES],
)
def test_triples_match_the_reference_loop(pres, radius):
    ball = build_ball(pres, radius)
    D = ball.distance_matrix()
    rows = thinness._triples(ball, D)
    expected = np.array(_reference_triples(ball, D), dtype=np.int32).reshape(-1, 4)
    assert rows.shape == expected.shape
    assert rows.dtype == expected.dtype
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize(
    "case",
    [*range(len(KERNEL_CASES)), (ZZ, 6, (None, 40)), (SURF2, 3, (200,))],
    ids=[*KERNEL_IDS, "zz-r6", "surface2-r3-sample200"],
)
def test_delta_estimate_matches_reference(case):
    if isinstance(case, int):
        ball, counts = _kernel_ball(case), (None, 40)
    else:
        pres, radius, counts = case
        ball = build_ball(pres, radius)
    for count in counts:
        for seed in (None,) if count is None else (1, 2):
            assert delta_estimate(ball, count, seed) == _reference_report(ball, count, seed)


@pytest.mark.parametrize("index", range(len(KERNEL_CASES)), ids=KERNEL_IDS)
def test_triangle_thinness_matches_reference(index):
    ball = _kernel_ball(index)
    # In (i, j, k) order, so the seeded picks do not follow the examination order.
    triples = sorted(thinness._triples(ball, ball.distance_matrix()).tolist())
    rng = random.Random(index)
    for i, j, k, _ in rng.sample(triples, min(60, len(triples))):
        tri = tuple(rng.sample((i, j, k), 3))
        assert triangle_thinness(ball, *tri) == _reference_triangle(ball, tri)


@pytest.mark.parametrize(
    "pres, radius",
    [(pres, r) for _, pres, r in KERNEL_CASES] + [(ZZ, 32)],
    ids=[*KERNEL_IDS, "zz-r32"],
)
def test_distance_matrix_matches_per_vertex_bfs(pres, radius):
    # zz r = 32 has 2,113 vertices, so its rows are unpacked in two blocks
    # of 2,048; there the rows at the block edges and 40 seeded rows are checked.
    ball = build_ball(pres, radius)
    mat = ball.distance_matrix()
    n = len(ball)
    assert mat.dtype == np.int16
    assert np.array_equal(mat, mat.T)
    rows = range(n)
    if n > 2048:
        rows = sorted({0, 2047, 2048, n - 1, *random.Random(n).sample(range(n), 40)})
    for v in rows:
        assert mat[v].tolist() == ball._bfs(v)


def _counting_side_dp(monkeypatch):
    """The sides ``thinness._side_dp`` builds, one list per call."""
    calls = []
    real = thinness._side_dp

    def counting(ball, D, a, b):
        calls.append(list(zip(np.asarray(a).tolist(), np.asarray(b).tolist())))
        return real(ball, D, a, b)

    monkeypatch.setattr(thinness, "_side_dp", counting)
    return calls


@pytest.mark.parametrize(
    "pres, radius, count",
    [(ZZ, 4, None), (F2, 3, None), (SURF2, 2, None), (ZZ, 6, 150), (ZZ, 4, 50), (ZZ, 5, None)],
    ids=["zz-r4", "free2-r3", "surface2-r2", "zz-r6-sample150", "zz-r4-sample50", "zz-r5"],
)
def test_side_dp_runs_once_per_distinct_side(monkeypatch, pres, radius, count):
    # A sample leaves sides that only pruned rows use, so a chunk that ran
    # past its run of equal longest side would build them (zz-r4-sample50);
    # on zz-r5 a chunk twice as long builds more sides than the scan reads.
    ball = build_ball(pres, radius)
    seed = count and 4
    scan, _ = _reference_scan(ball, count, seed)
    D = ball.distance_matrix()
    # The chunk rule of delta_estimate: a chunk of `step` rows, cut at the end
    # of its run of equal longest side, is built whole; the next step follows
    # from the chunk's (triangle, side, point) count, a side's points being
    # its geodesics' vertices.
    states = {}
    lo, step, best = 0, 1, 0
    while lo < len(scan) and scan[lo][0][3] // 2 > best:
        hi = lo + 1
        while hi < lo + step and hi < len(scan) and scan[hi][0][3] == scan[lo][0][3]:
            hi += 1
        total = 0
        for (i, j, k, _), delta in scan[lo:hi]:
            for a, b in ((i, j), (j, k), (i, k)):
                if (a, b) not in states:
                    states[a, b] = len(_SideDag(ball, a, b, D).nodes)
                total += states[a, b]
            best = max(best, delta)
        step = max(1, thinness._CHUNK_BYTES * (hi - lo) // (18 * total))
        lo = hi
    # The scan reaches scan[:lo]; those rows' sides are built, once each.
    used = set(states)

    calls = _counting_side_dp(monkeypatch)
    report = delta_estimate(ball, count, seed)
    # triangle_thinness rebuilds the witness from its own three sides, in one call.
    if report.witness:
        assert len(calls.pop()) == 3
    in_scan = [pair for call in calls for pair in call]
    assert len(in_scan) == len(used)
    assert set(in_scan) == used


@pytest.mark.parametrize(
    "pres, radius, count",
    [(ZZ, 4, None), (ZZ, 5, 300), (SURF2, 2, None), (UNTAGGED_ZZ, 3, None)],
    ids=["zz-r4", "zz-r5-sample300", "surface2-r2", "untagged-zz-r3"],
)
def test_one_triangle_chunks_leave_report_unchanged(monkeypatch, pres, radius, count):
    ball = build_ball(pres, radius)
    seed = count and 3
    expected = delta_estimate(ball, count, seed)
    # With one triangle a chunk and one side a batch, the sides are built
    # in the order rows first use them, a row's in key order.
    scan, _ = _reference_scan(ball, count, seed)
    first_use, best = [], 0
    for (i, j, k, maxside), delta in scan:
        if maxside // 2 <= best:
            break
        first_use += sorted({(i, j), (j, k), (i, k)} - set(first_use))
        best = max(best, delta)

    calls = _counting_side_dp(monkeypatch)
    monkeypatch.setattr(thinness, "_CHUNK_BYTES", 1)
    assert delta_estimate(ball, count, seed) == expected
    if expected.witness:
        calls.pop()
    assert calls == [[side] for side in first_use]


def test_side_dp_batches_on_surface2_r3(monkeypatch):
    # A batch holds up to 1 MiB of DP working set: 15 calls build the
    # sides of the 457-vertex ball.
    ball = build_ball(SURF2, 3)
    calls = _counting_side_dp(monkeypatch)
    assert delta_estimate(ball).witness is None
    assert len(calls) == 15


def test_memory_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(cayley, "physical_memory", lambda: 1_000)
    ball = build_ball(ZZ, 4)
    n = len(ball)
    matrix = _distance_matrix_bytes(n)
    with pytest.raises(MemoryError, match=f"{n}-vertex ball needs about {5 * n * n:,} bytes"):
        delta_estimate(ball)
    with pytest.raises(MemoryError, match=f"{n}-vertex ball needs about {matrix:,} bytes"):
        ball.distance_matrix()
    assert ball._matrix is None
    # The triangle list peaks below 64 bytes a pair or candidate, more than
    # the distance matrix and the side table (a one-byte vector per side) need.
    sides = _distinct_sides(monkeypatch, ball)
    need = _triangle_list_bytes(ball)
    assert need > max(matrix, sides * n)
    monkeypatch.setattr(cayley, "physical_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"triangle list of a {n}-vertex ball needs about {need:,}"):
        delta_estimate(ball)
    monkeypatch.setattr(cayley, "physical_memory", lambda: need)
    assert delta_estimate(ball).delta == 2

    # On a free ball of radius 6 the side table, a byte per side and
    # vertex, is the largest array.
    ball = build_ball(F2, 6)
    n = len(ball)
    sides, need = _distinct_sides(monkeypatch, ball), _triangle_list_bytes(ball)
    # Enough for the estimate's 5n², the distance matrix and the triangle list.
    enough = max(5 * n * n, _distance_matrix_bytes(n), need)
    assert sides * n > enough
    monkeypatch.setattr(cayley, "physical_memory", lambda: enough)
    message = f"side table of a {n}-vertex ball needs about {sides * n:,} bytes"
    with pytest.raises(MemoryError, match=message):
        delta_estimate(ball)


def _distance_matrix_bytes(n):
    """The distance matrix guard's count: the int16 matrix, the bit rows
    (a byte per eight sources) of the frontier with its empty row, seen,
    nxt, step and ~seen, and one block of at most 2,048 unpacked rows."""
    return 2 * n * n + (5 * n + 1) * ((n + 7) // 8) + min(n, 2048) * n


@pytest.mark.parametrize(
    "pres, radius", [(SURF2, 3), (F2, 6), (ZZ, 32)], ids=["surface2-r3", "free2-r6", "zz-r32"]
)
def test_distance_matrix_guard_bounds_its_peak(monkeypatch, pres, radius):
    # Everything the search allocates after its guard, the matrix included,
    # fits in the bytes the guard states (zz r = 32 unpacks two blocks).
    ball = build_ball(pres, radius)
    stated = []

    def measure(need, what):
        stated.append((need, tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()

    monkeypatch.setattr(cayley, "check_memory", measure)
    tracemalloc.start()
    try:
        ball.distance_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(need, before)] = stated
    assert need == _distance_matrix_bytes(len(ball))
    assert peak - before <= need


def _distinct_sides(monkeypatch, ball):
    """How many distinct sides the ball's unclipped triples have; leaves
    the memory guards off."""
    monkeypatch.setattr(cayley, "physical_memory", lambda: None)
    rows = thinness._triples(ball, ball.distance_matrix()).tolist()
    return len({side for i, j, k, _ in rows for side in ((i, j), (j, k), (i, k))})


def _triangle_list_bytes(ball):
    """The triangle list guard's count: 64 bytes for each unclipped pair
    i < j and for each candidate, a pair (i, j) followed by a pair (j, k)."""
    D = ball.distance_matrix()
    depth = np.asarray(ball.dist)
    upper = np.triu(depth[:, None] + depth + D <= 2 * ball.radius, 1)
    candidates = sum(int(upper[:j, j].sum()) * int(upper[j].sum()) for j in range(len(ball)))
    return 64 * (int(upper.sum()) + candidates)


def test_triangle_list_guard_refuses_before_building_it(monkeypatch):
    ball = build_ball(ZZ, 8)
    n = len(ball)
    # The guard counts the pairs and candidates before it allocates either.
    need = _triangle_list_bytes(ball)
    monkeypatch.setattr(cayley, "physical_memory", lambda: 6 * n * n)
    message = f"triangle list of a {n}-vertex ball needs about {need:,} bytes"
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=message):
            delta_estimate(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Refused at once, far short of what the list would take.
    assert need > 3 << 20
    assert peak < 1 << 20


@pytest.mark.parametrize("pres, radius", [(ZZ, 10), (F2, 6)], ids=["zz-r10", "free2-r6"])
def test_triangle_list_guard_bounds_its_peak(monkeypatch, pres, radius):
    # Everything _triples allocates after its guard, the sorted rows
    # included, fits in the bytes the guard states.
    ball = build_ball(pres, radius)
    D = ball.distance_matrix()
    stated = []

    def measure(need, what):
        stated.append((need, tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()

    monkeypatch.setattr(thinness, "check_memory", measure)
    tracemalloc.start()
    try:
        thinness._triples(ball, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(need, before)] = stated
    assert need == _triangle_list_bytes(ball)
    assert peak - before <= need


@pytest.mark.parametrize(
    "pres, radius, limit_mib", [(ZZ, 6, 2.75), (SURF2, 3, 3.65)], ids=["zz-r6", "surface2-r3"]
)
def test_delta_estimate_peak_memory(pres, radius, limit_mib):
    # Python allocations of one estimate on a fresh ball, the distance
    # matrix included.
    ball = build_ball(pres, radius)
    tracemalloc.start()
    try:
        delta_estimate(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
