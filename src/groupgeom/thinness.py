"""Thinness of geodesic triangles in a Cayley ball.

A triangle's thinness here is the worst case over geodesic choices: the
largest distance from a point on one side to the union of the other two
sides, maximized over all length-minimizing paths for all three sides.
Rather than enumerating geodesics (their count is binomial in flat
directions), each side is handled through its shortest-path DAG: the set
of vertices lying on any geodesic gives the candidate points p, and the
adversary's "farthest geodesic" distance is a bottleneck max-min dynamic
program over the DAG, which computes the exact maximum over all choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import CayleyBall, VertexRef, all_geodesics


@dataclass(frozen=True)
class ThinnessWitness:
    triangle: tuple[int, int, int]
    side: tuple[int, int]
    point: int
    nearest: int
    distance: int
    geodesics: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ThinnessReport:
    delta: int
    witness: Optional[ThinnessWitness]
    triangles_examined: int
    sampling_policy: str


class _SideDag:
    """Shortest-path DAG between two ball vertices.

    ``nodes`` lists every vertex on some geodesic, topologically ordered
    by distance from ``a``; ``preds[i]`` are node positions one step
    closer to ``a``.
    """

    __slots__ = ("a", "b", "nodes", "preds", "pos")

    def __init__(self, ball: CayleyBall, a: int, b: int, D: np.ndarray):
        self.a, self.b = a, b
        da, db = D[a], D[b]
        total = int(da[b])
        nodes = np.nonzero(da + db == total)[0]
        order = np.argsort(da[nodes], kind="stable")
        self.nodes = nodes[order]
        self.pos = {int(v): i for i, v in enumerate(self.nodes)}
        self.preds: list[list[int]] = [[] for _ in self.nodes]
        for i, v in enumerate(self.nodes):
            dv = int(da[v])
            for w in ball.adjacency[int(v)].values():
                j = self.pos.get(w)
                if j is not None and int(da[w]) == dv - 1:
                    self.preds[i].append(j)


def _adversary_distances(dag: _SideDag, points: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each p in points: max over geodesics of min distance p to the path.

    Bottleneck DP, vectorized over points: M[v] = min(d(v, p), max over
    predecessors), answered at the far endpoint.
    """
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


def _adversary_path(dag: _SideDag, weights: np.ndarray) -> tuple[int, ...]:
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


def _any_geodesic_through(ball: CayleyBall, a: int, p: int, b: int, D: np.ndarray):
    def descend(frm: int, to: int):
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


_SIDES = ((0, 1, 2), (1, 2, 0), (0, 2, 1))


def _evaluate(ball, tri, dags, D):
    """(delta, side index, point) for one triangle, worst case over choices."""
    best = (-1, -1, -1)
    for si, (ia, ib, _) in enumerate(_SIDES):
        points = dags[si].nodes
        others = [dags[(si + 1) % 3], dags[(si + 2) % 3]]
        vals = np.minimum(
            _adversary_distances(others[0], points, D),
            _adversary_distances(others[1], points, D),
        )
        k = int(vals.argmax())
        if int(vals[k]) > best[0]:
            best = (int(vals[k]), si, int(points[k]))
    return best


def triangle_thinness(
    ball: CayleyBall,
    x: VertexRef,
    y: VertexRef,
    z: VertexRef,
    worst_case: bool = True,
) -> tuple[int, ThinnessWitness]:
    """Thinness of one triangle, with a witness configuration.

    ``worst_case=False`` evaluates a single canonical choice instead (the
    lexicographically least geodesic per side), which can only be thinner.
    All three vertex pairs must be unclipped so the ball's geodesics are
    the group's.
    """
    tri = tuple(ball._resolve(v) for v in (x, y, z))
    for i in range(3):
        for j in range(i + 1, 3):
            if not ball.unclipped(tri[i], tri[j]):
                raise ValueError(
                    f"pair {tri[i]},{tri[j]} may have geodesics clipped by the ball boundary"
                )
    D = ball.distance_matrix()
    if not worst_case:
        return _canonical_choice_thinness(ball, tri, D)
    dags = [_SideDag(ball, tri[ia], tri[ib], D) for ia, ib, _ in _SIDES]
    delta, si, p = _evaluate(ball, tri, dags, D)
    ia, ib, _ = _SIDES[si]
    side_path = _any_geodesic_through(ball, tri[ia], p, tri[ib], D)
    other = [dags[(si + 1) % 3], dags[(si + 2) % 3]]
    adv_paths = [_adversary_path(dag, D[p]) for dag in other]
    q = min((v for path in adv_paths for v in path), key=lambda v: (D[p][v], v))
    paths = [None, None, None]
    paths[si] = side_path
    paths[(si + 1) % 3] = adv_paths[0]
    paths[(si + 2) % 3] = adv_paths[1]
    witness = ThinnessWitness(
        triangle=tri,
        side=(tri[ia], tri[ib]),
        point=p,
        nearest=int(q),
        distance=delta,
        geodesics=tuple(paths),
    )
    return delta, witness


def _canonical_choice_thinness(ball, tri, D):
    paths = []
    for ia, ib, _ in _SIDES:
        geos, _trunc = all_geodesics(ball, tri[ia], tri[ib], cap=1)
        paths.append(geos[0].vertices)
    best = (-1, 0, 0, 0)
    for si in range(3):
        union = sorted(set(paths[(si + 1) % 3]) | set(paths[(si + 2) % 3]))
        for p in paths[si]:
            q = min(union, key=lambda v: (D[p][v], v))
            d = int(D[p][q])
            if d > best[0]:
                best = (d, si, p, q)
    delta, si, p, q = best
    ia, ib, _ = _SIDES[si]
    witness = ThinnessWitness(tri, (tri[ia], tri[ib]), p, q, delta, tuple(paths))
    return delta, witness


def delta_estimate(
    ball: CayleyBall,
    sample_count: Optional[int] = None,
    seed: Optional[int] = None,
) -> ThinnessReport:
    """Max triangle thinness over unclipped vertex triples.

    Exhaustive by default; pass ``sample_count``/``seed`` for a seeded
    random subset (whose maximum can only undershoot the exhaustive one).
    Triangles that provably cannot beat the running maximum are skipped:
    every point on a side is within half that side's length of a shared
    corner, so thinness never exceeds half the longest side.
    """
    if ball.radius < 2:
        raise ValueError("delta estimation needs radius >= 2")
    n = len(ball)
    D = ball.distance_matrix()
    d0 = np.asarray(ball.dist, dtype=np.int32)
    elig = (d0[:, None] + d0[None, :] + D) <= 2 * ball.radius

    if sample_count is None:
        policy = "exhaustive"
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
    else:
        if seed is None:
            raise ValueError("random sampling needs an explicit seed")
        policy = f"random(seed={seed}, count={sample_count})"
        rng = random.Random(seed)
        chosen = set()
        attempts = 0
        while len(chosen) < sample_count and attempts < 200 * max(1, sample_count):
            attempts += 1
            picks = sorted(rng.sample(range(n), 3))
            i, j, k = picks
            if (i, j, k) in chosen:
                continue
            if elig[i, j] and elig[i, k] and elig[j, k]:
                chosen.add((i, j, k))
        triples = [
            (i, j, k, max(int(D[i, j]), int(D[i, k]), int(D[j, k])))
            for i, j, k in sorted(chosen)
        ]

    examined = len(triples)
    triples.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    dag_cache: dict[tuple[int, int], _SideDag] = {}

    def dag_of(a: int, b: int) -> _SideDag:
        key = (a, b) if a <= b else (b, a)
        dag = dag_cache.get(key)
        if dag is None:
            dag = _SideDag(ball, key[0], key[1], D)
            dag_cache[key] = dag
        return dag

    best = 0
    best_triple = None
    for i, j, k, maxside in triples:
        if (maxside + 1) // 2 < best:
            continue
        tri = (i, j, k)
        dags = [dag_of(tri[ia], tri[ib]) for ia, ib, _ in _SIDES]
        delta, _, _ = _evaluate(ball, tri, dags, D)
        if delta > best:
            best = delta
            best_triple = tri
    witness = None
    if best_triple is not None:
        best, witness = triangle_thinness(ball, *best_triple)
    return ThinnessReport(best, witness, examined, policy)
