"""Thinness of geodesic triangles in a Cayley ball.

A triangle's thinness here is the worst case over geodesic choices: the
largest distance from a point on one side to the union of the other two
sides, maximized over all length-minimizing paths for all three sides.
Rather than enumerating geodesics (their count is binomial in flat
directions), each side is handled through its shortest-path DAG: the set
of vertices lying on any geodesic gives the candidate points p, and the
adversary's "farthest geodesic" distance is a bottleneck max-min dynamic
program over the DAG, which computes the exact maximum over all choices.
One pass per side finds its predecessors and runs the program,
vectorized over every ball vertex, so its last row (the side's adversary
vector) serves every triangle that shares the side: a triangle then
costs one lookup per side and point.  The witness geodesics are drawn
by one greedy walker that steps toward an endpoint along the DAG.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import CayleyBall, VertexRef, check_memory

# Bytes of side entries delta_estimate keeps at once, about 10k sides of
# the 3,193-vertex surface ball; evicting one only means computing it again.
_SIDE_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class ThinnessWitness:
    triangle: tuple[int, int, int]
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


def _side(
    ball: CayleyBall, a: int, b: int, D: np.ndarray
) -> tuple[np.ndarray, dict[int, int], np.ndarray]:
    """``(nodes, row, M)`` for the side from ``a`` to ``b``.

    ``nodes`` lists every vertex on some geodesic, ordered by distance
    from ``a``, and ``row`` maps a vertex to its index.  ``M[i]`` holds,
    for every ball vertex p, the max over geodesics from ``a`` to
    ``nodes[i]`` of the min distance from p to the path: the bottleneck
    DP ``M[v] = min(d(v, p), max over predecessors)``.  A neighbour one
    step closer to ``a`` needs no membership test, since the triangle
    inequality puts it on a geodesic to ``b`` as well.
    """
    da = D[a]
    nodes = np.nonzero(da + D[b] == da[b])[0]
    nodes = nodes[np.argsort(da[nodes], kind="stable")]
    row = {v: i for i, v in enumerate(nodes.tolist())}
    M = D[nodes]
    for v, i in row.items():
        closer = da[v] - 1
        preds = [row[w] for w in ball.adjacency[v].values() if da[w] == closer]
        if preds:
            acc = M[preds[0]]
            for j in preds[1:]:
                acc = np.maximum(acc, M[j])
            np.minimum(M[i], acc, out=M[i])
    return nodes, row, M


def _descend(ball: CayleyBall, v: int, to: int, D: np.ndarray, key=None) -> list[int]:
    """A geodesic from ``v`` to ``to``: each step goes to the neighbour one
    step closer that ``key`` ranks least (the first on ties), by default
    the least vertex."""
    d = D[to]
    path = [v]
    while v != to:
        closer = d[v] - 1
        v = min((w for w in ball.adjacency[v].values() if d[w] == closer), key=key)
        path.append(v)
    return path


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
    ball: CayleyBall, x: VertexRef, y: VertexRef, z: VertexRef
) -> tuple[int, ThinnessWitness]:
    """Thinness of one triangle, with a witness configuration.

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
    ends = [(tri[ia], tri[ib]) for ia, ib, _ in _SIDES]
    sides = [_side(ball, a, b, D) for a, b in ends]
    delta, si, p = _evaluate([(nodes, M[row[b]]) for (nodes, row, M), (_, b) in zip(sides, ends)])
    paths = []
    for o, ((a, b), (_, row, M)) in enumerate(zip(ends, sides)):
        if o == si:
            paths.append(tuple(_descend(ball, p, a, D)[::-1] + _descend(ball, p, b, D)[1:]))
        else:
            # The geodesic that keeps farthest from p, walked back from b.
            paths.append(tuple(_descend(ball, b, a, D, key=lambda w: -M[row[w], p])[::-1]))
    others = paths[(si + 1) % 3] + paths[(si + 2) % 3]
    q = min(others, key=lambda v: (D[p][v], v))
    witness = ThinnessWitness(tri, p, q, delta, tuple(paths))
    return delta, witness


def _triples(ball: CayleyBall, D: np.ndarray) -> np.ndarray:
    """Rows ``(i, j, k, longest side)``, ``i < j < k``, of every unclipped
    triple, in the order :func:`delta_estimate` examines them: longest
    side first, then by corner."""
    d0 = np.asarray(ball.dist, dtype=np.int16)
    # int16 holds depth + depth + distance <= 4 * radius.
    elig = D + d0[:, None]
    elig += d0
    elig = elig <= 2 * ball.radius
    blocks = []
    for i in range(len(ball)):
        js = np.nonzero(elig[i, i + 1 :])[0] + i + 1
        a, b = np.nonzero(np.triu(elig[np.ix_(js, js)], 1))
        j, k = js[a], js[b]
        longest = np.maximum(np.maximum(D[i, j], D[i, k]), D[j, k])
        blocks.append(np.column_stack((np.full_like(j, i), j, k, longest)))
    rows = np.concatenate(blocks)
    return rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0], -rows[:, 3]))]


def delta_estimate(
    ball: CayleyBall,
    sample_count: Optional[int] = None,
    seed: Optional[int] = None,
) -> ThinnessReport:
    """Max triangle thinness over unclipped vertex triples.

    Exhaustive by default; pass ``sample_count`` (at least 1) and ``seed``
    for a seeded random subset of those triples, all of them once the
    count reaches theirs (its maximum can only undershoot the exhaustive
    one).
    Triangles that provably cannot beat the running maximum are skipped:
    every point on a side is within half that side's length of a shared
    corner, so thinness never exceeds half the longest side.  Raises
    ``MemoryError`` before allocating when the ball's n-by-n arrays
    cannot fit in physical memory.
    """
    if ball.radius < 2:
        raise ValueError("delta estimation needs radius >= 2")
    if sample_count is not None and seed is None:
        raise ValueError("random sampling needs an explicit seed")
    if sample_count is not None and sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    # D, then the int16 sum and the bool eligibility matrix of _triples.
    check_memory(len(ball), 5, "delta estimation")
    D = ball.distance_matrix()
    rows = _triples(ball, D)
    policy = "exhaustive"
    if sample_count is not None:
        policy = f"random(seed={seed}, count={sample_count})"
        picks = random.Random(seed).sample(range(len(rows)), min(sample_count, len(rows)))
        rows = rows[sorted(picks)]
    # (DAG nodes, adversary vector) per side, least recently used first.
    sides: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()
    cached_bytes = 0

    def side(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal cached_bytes
        entry = sides.get((a, b))
        if entry is not None:
            sides.move_to_end((a, b))
        else:
            nodes, row, M = _side(ball, a, b, D)
            entry = sides[(a, b)] = (nodes, M[row[b]].copy())
            cached_bytes += entry[0].nbytes + entry[1].nbytes
            while cached_bytes > _SIDE_CACHE_BYTES:
                nodes, vector = sides.popitem(last=False)[1]
                cached_bytes -= nodes.nbytes + vector.nbytes
        return entry

    best = 0
    best_triple = None
    for i, j, k, maxside in rows.tolist():
        # Sides only shorten from here and best only rises: no later row can win.
        if (maxside + 1) // 2 < best:
            break
        delta, _, _ = _evaluate([side(i, j), side(j, k), side(i, k)])
        if delta > best:
            best = delta
            best_triple = (i, j, k)
    witness = None
    if best_triple is not None:
        best, witness = triangle_thinness(ball, *best_triple)
    return ThinnessReport(best, witness, len(rows), policy)
