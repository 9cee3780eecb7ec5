"""Thinness of geodesic triangles in a Cayley ball.

A triangle's thinness here is the worst case over geodesic choices: the
largest distance from a point on one side to the union of the other two
sides, maximized over all length-minimizing paths for all three sides.
Rather than enumerating geodesics (their count is binomial in flat
directions), each side is handled through its shortest-path DAG: the set
of vertices lying on any geodesic gives the candidate points p, and the
adversary's "farthest geodesic" distance is a bottleneck max-min dynamic
program over the DAG, which computes the exact maximum over all choices.
The program runs once per side, vectorized over every ball vertex, so its
result (the side's adversary vector) serves every triangle that shares
the side: a triangle then costs one lookup per side and point.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import CayleyBall, VertexRef, all_geodesics, check_memory

# Bytes of side entries delta_estimate keeps at once, about 10k sides of
# the 3,193-vertex surface ball; evicting one only means computing it again.
_SIDE_CACHE_BYTES = 64 << 20


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


def _adversary_vector(dag: _SideDag, D: np.ndarray) -> np.ndarray:
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


def _evaluate(sides):
    """(delta, side index, point) for one triangle, worst case over choices.

    ``sides[si]`` is ``(DAG nodes, adversary vector)`` of side si.
    """
    best = (-1, -1, -1)
    for si, (points, _) in enumerate(sides):
        vals = np.minimum(sides[(si + 1) % 3][1][points], sides[(si + 2) % 3][1][points])
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
    delta, si, p = _evaluate([(dag.nodes, _adversary_vector(dag, D)) for dag in dags])
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


def _triples(ball: CayleyBall, D: np.ndarray, sample_count, seed):
    """The triples ``(i, j, k, longest side)``, ``i < j < k``, that
    :func:`delta_estimate` examines, and the policy that chose them."""
    n = len(ball)
    d0 = np.asarray(ball.dist, dtype=np.int16)
    # int16 holds depth + depth + distance <= 4 * radius.
    elig = D + d0[:, None]
    elig += d0
    elig = elig <= 2 * ball.radius

    if sample_count is None:
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
        return triples, "exhaustive"
    if seed is None:
        raise ValueError("random sampling needs an explicit seed")
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
    return triples, f"random(seed={seed}, count={sample_count})"


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
    corner, so thinness never exceeds half the longest side.  Raises
    ``MemoryError`` before allocating when the ball's n-by-n arrays
    cannot fit in physical memory.
    """
    if ball.radius < 2:
        raise ValueError("delta estimation needs radius >= 2")
    # D, then the int16 sum and the bool eligibility matrix of _triples.
    check_memory(len(ball), 5, "delta estimation")
    D = ball.distance_matrix()
    triples, policy = _triples(ball, D, sample_count, seed)
    examined = len(triples)
    triples.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    # (DAG nodes, adversary vector) per side, least recently used first.
    sides: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()
    cached_bytes = 0

    def side(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal cached_bytes
        entry = sides.get((a, b))
        if entry is not None:
            sides.move_to_end((a, b))
        else:
            dag = _SideDag(ball, a, b, D)
            entry = sides[(a, b)] = (dag.nodes, _adversary_vector(dag, D))
            cached_bytes += entry[0].nbytes + entry[1].nbytes
            while cached_bytes > _SIDE_CACHE_BYTES:
                nodes, vector = sides.popitem(last=False)[1]
                cached_bytes -= nodes.nbytes + vector.nbytes
        return entry

    best = 0
    best_triple = None
    for i, j, k, maxside in triples:
        if (maxside + 1) // 2 < best:
            continue
        delta, _, _ = _evaluate([side(i, j), side(j, k), side(i, k)])
        if delta > best:
            best = delta
            best_triple = (i, j, k)
    witness = None
    if best_triple is not None:
        best, witness = triangle_thinness(ball, *best_triple)
    return ThinnessReport(best, witness, examined, policy)
