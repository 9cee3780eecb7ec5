"""Thinness of geodesic triangles in a Cayley ball.

A triangle's thinness here is the worst case over geodesic choices: the
largest distance from a point on one side to the union of the other two
sides, maximized over all length-minimizing paths for all three sides.
Rather than enumerating geodesics (their count is binomial in flat
directions), each side is handled through its shortest-path DAG: its
vertices are the candidate points p, and the adversary's "farthest
geodesic" distance is an exact bottleneck max-min dynamic program over
it.  The program runs one distance layer at a time for many sides at
once, over every ball vertex, and a side's last row (its adversary
vector) serves every triangle on the side.  ``delta_estimate`` lists the
unclipped triples in one array pass, each unclipped pair (i, j) extended
by j's pairs (j, k), and reads a chunk of triangles by one gather over
every (triangle, side, point).  The witness geodesics are drawn by one
greedy walker that steps toward an endpoint along the DAG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .cayley import CayleyBall, VertexRef, check_memory
from .words import check_count

# Working bytes of one chunk of triangles; a batch of the side DP takes four
# times this.  Larger budgets add peak memory for little more speed (ROADMAP).
_CHUNK_BYTES = 256 << 10


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


def _side_dp(ball: CayleyBall, D: np.ndarray, a: np.ndarray, b: np.ndarray):
    """``(side, node, M)`` over the states of the sides ``a[s]`` to ``b[s]``,
    their geodesics' vertices, by distance from ``a``, then side and node;
    a side's last state is ``b``.  ``M[k]`` holds, for every ball vertex p,
    the max over geodesics from ``a`` to the node of the min distance from
    p to the path: the bottleneck DP ``M[v] = min(d(v, p), max over
    predecessors)``.  A neighbour one step closer to ``a`` needs no
    membership test: the triangle inequality puts it on a geodesic to ``b``.
    """
    n = len(D)
    side, v = np.nonzero(D[a] + D[b] == D[a, b][:, None])
    order = np.argsort(D[a[side], v], kind="stable")
    side, v = side[order], v[order]
    layer = D[a[side], v]
    key = v + n * (side + len(a) * layer.astype(np.intp))
    nb = ball.neighbours()[v]
    # Keys sort as (layer, side, node); state k's predecessors, pred[first[k] :
    # first[k + 1]], have the key of their node one layer down.
    k, c = np.nonzero((nb >= 0) & (D[a[side][:, None], nb] == layer[:, None] - 1))
    pred = np.searchsorted(key, key[k] + nb[k, c] - v[k] - n * len(a))
    first = np.searchsorted(k, np.arange(len(v) + 1))
    M = D[v]
    bounds = np.searchsorted(layer, np.arange(1, int(layer[-1]) + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        # Round j reads each state's j-th predecessor, or again its last.
        start, last = first[lo:hi], first[lo + 1 : hi + 1] - 1
        acc = M[pred[start]]
        for j in range(1, int((last - start).max()) + 1):
            np.maximum(acc, M[pred[np.minimum(start + j, last)]], out=acc)
        np.minimum(M[lo:hi], acc, out=M[lo:hi])
    return side, v, M


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


_SIDES = ((0, 1), (1, 2), (0, 2))


def triangle_thinness(
    ball: CayleyBall, x: VertexRef, y: VertexRef, z: VertexRef
) -> tuple[int, ThinnessWitness]:
    """Thinness of one triangle, with a witness configuration.

    All three vertex pairs must be unclipped so the ball's geodesics are
    the group's.
    """
    tri = tuple(ball._resolve(v) for v in (x, y, z))
    for u, w in combinations(tri, 2):
        if not ball.unclipped(u, w):
            raise ValueError(f"pair {u},{w} may have geodesics clipped by the ball boundary")
    D = ball.distance_matrix()
    ends = [(tri[ia], tri[ib]) for ia, ib in _SIDES]
    side, v, M = _side_dp(ball, D, *np.array(ends).T)
    # Each side's states, ordered by distance from its first corner.
    states = [np.flatnonzero(side == s) for s in range(3)]
    # The worst point of the first worst side, the first in that order on ties.
    delta, si, p = -1, -1, -1
    for s, k in enumerate(states):
        vals = np.minimum(M[states[(s + 1) % 3][-1], v[k]], M[states[(s + 2) % 3][-1], v[k]])
        j = int(vals.argmax())
        if vals[j] > delta:
            delta, si, p = int(vals[j]), s, int(v[k[j]])
    paths = []
    for o, ((a, b), k) in enumerate(zip(ends, states)):
        if o == si:
            paths.append(tuple(_descend(ball, p, a, D)[::-1] + _descend(ball, p, b, D)[1:]))
        else:
            # The geodesic that keeps farthest from p, walked back from b.
            row = dict(zip(v[k].tolist(), k.tolist()))
            paths.append(tuple(_descend(ball, b, a, D, key=lambda w: -M[row[w], p])[::-1]))
    q = min(paths[(si + 1) % 3] + paths[(si + 2) % 3], key=lambda v: (D[p][v], v))
    return delta, ThinnessWitness(tri, p, q, delta, tuple(paths))


def _triples(ball: CayleyBall, D: np.ndarray) -> np.ndarray:
    """Rows ``(i, j, k, longest side)``, ``i < j < k``, of every unclipped
    triple, in the order :func:`delta_estimate` examines them: longest
    side first, then by corner."""
    d0 = np.asarray(ball.dist, dtype=np.int16)
    # int16 holds depth + depth + distance <= 4 * radius.
    elig = D + d0[:, None]
    elig += d0
    elig = elig <= 2 * ball.radius
    # The pairs i < j by i, then j.  A candidate extends a pair (i, j) by a pair
    # (j, k); a pair or a candidate, its row included, peaks below 64 bytes.
    upper = np.triu(elig, 1)
    out = np.count_nonzero(upper, axis=1)
    need = 64 * int(out.sum() + np.count_nonzero(upper, axis=0) @ out)
    check_memory(need, f"the triangle list of a {len(ball)}-vertex ball")
    pi, pj = (x.astype(np.int32) for x in np.nonzero(upper))
    del upper
    count = out[pj]
    owner = np.repeat(np.arange(len(pj), dtype=np.min_scalar_type(-len(pj))), count)
    # Candidate c of pair p is j's pair at cumsum(out)[j] - cumsum(count)[p] + c.
    k = pj[np.repeat(np.cumsum(out)[pj] - np.cumsum(count), count) + np.arange(len(owner))]
    keep = elig[pi[owner], k]
    i, j, k = pi[owner[keep]], pj[owner[keep]], k[keep]
    longest = np.maximum(np.maximum(D[i, j], D[i, k]), D[j, k])
    # The rows come in (i, j, k) order: a stable sort by longest side ends it.
    return np.column_stack((i, j, k, longest))[np.argsort(-longest, kind="stable")]


def check_delta_arguments(radius: int, sample_count: Optional[int], seed: Optional[int]) -> None:
    """Raise the ``ValueError`` :func:`delta_estimate` raises on these arguments."""
    if radius < 2:
        raise ValueError("delta estimation needs radius >= 2")
    if sample_count is not None and seed is None:
        raise ValueError("random sampling needs an explicit seed")
    if sample_count is not None:
        check_count(sample_count, "sample count", 1)


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
    Triangles that provably cannot beat the running maximum are skipped: a
    point on a side is within half that side's length of a shared corner,
    so thinness is at most half the longest side, rounded down.  Each
    side's adversary vector is built once, into a table with a row per
    distinct side.  Raises ``MemoryError`` before allocating when the n-by-n
    arrays, the triangle list or that table cannot fit in physical memory.
    """
    check_delta_arguments(ball.radius, sample_count, seed)
    # D, then the int16 sum and the bool eligibility matrix of _triples (later
    # that matrix and its upper triangle); the triangle list and the side table
    # have guards of their own, and the working set of a chunk is a constant.
    n = len(ball)
    check_memory(5 * n * n, f"delta estimation of a {n}-vertex ball")
    D = ball.distance_matrix()
    rows = _triples(ball, D)
    policy = "exhaustive"
    if sample_count is not None:
        policy = f"random(seed={seed}, count={sample_count})"
        picks = random.Random(seed).sample(range(len(rows)), min(sample_count, len(rows)))
        rows = rows[sorted(picks)]
    # Each row's sides (i, j), (j, k), (i, k) as indices into their sorted keys a * n + b.
    corners = rows[:, :3].astype(np.min_scalar_type(-n * n))
    ids = corners[:, [0, 1, 0]] * n + corners[:, [1, 2, 2]]
    keys = np.sort(ids, axis=None, kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    # Wide enough for the gather offsets id * n + point.
    ids = np.searchsorted(keys, ids).astype(np.min_scalar_type(-len(keys) * n))
    # The side table: a row per side, its adversary vector (at most twice the
    # radius), built the first time a chunk reads it.  Every side has at least
    # two states, so a size of 0 marks one not built yet.
    dtype = np.min_scalar_type(2 * ball.radius)
    check_memory(len(keys) * n * dtype.itemsize, f"the side table of a {n}-vertex ball")
    table = np.empty((len(keys), n), dtype=dtype)
    sizes = np.zeros(len(keys), dtype=np.int32)
    # The nodes of every built side's states, side after side, from start[id].
    nodes, start, used = np.empty(n, dtype=np.int32), np.zeros(len(keys), dtype=np.intp), 0
    run_end = np.append(np.flatnonzero(np.diff(rows[:, 3])) + 1, len(rows))
    best, first, lo, step, per_side = 0, None, 0, 1, n
    # Chunks stay inside a run of equal longest side.  Sides only shorten and
    # best only rises: once a row's bound only ties best, no row can win.
    while lo < len(rows) and rows[lo, 3] // 2 > best:
        hi = min(lo + step, int(run_end[np.searchsorted(run_end, lo, side="right")]))
        sides = ids[lo:hi]
        missing = np.sort(sides[sizes[sides] == 0], kind="stable")
        missing = missing[np.diff(missing, prepend=-1) != 0]
        a, b = np.divmod(keys[missing], n)
        size = max(1, 4 * _CHUNK_BYTES // per_side)
        for s in range(0, len(missing), size):
            side, v, M = _side_dp(ball, D, a[s : s + size], b[s : s + size])
            at = missing[s : s + size]
            sizes[at] = np.bincount(side, minlength=len(at))
            # D[a] + D[b] and its mask, then two int16 rows per state of the largest side.
            per_side = n * (7 + 2 * int(sizes[at].max()))
            grouped, ends = np.argsort(side, kind="stable"), np.cumsum(sizes[at])
            table[at] = M[grouped[ends - 1]]
            if used + len(v) > len(nodes):
                nodes = np.resize(nodes[:used], used + max(used, len(v)))
            nodes[used : used + len(v)] = v[grouped]
            start[at] = used + ends - sizes[at]
            used += len(v)
        count = sizes[sides]
        flat, total = count.ravel(), int(count.sum())
        # Side t's points, nodes[start[t]:], follow the points of the sides before it.
        points = nodes[np.repeat(start[sides.ravel()] - np.cumsum(flat) + flat, flat) + np.arange(total)]
        # Each (triangle, side, point) against the other two sides' vectors.
        other = [np.repeat(np.roll(sides, -r, axis=1).ravel() * n, flat) for r in (1, 2)]
        vals = np.minimum(table.ravel()[other[0] + points], table.ravel()[other[1] + points])
        count = count.sum(axis=1)
        delta = np.maximum.reduceat(vals, np.cumsum(count) - count)
        k = int(delta.argmax())
        if delta[k] > best:
            best, first = int(delta[k]), lo + k
        # Bytes per (triangle, side, point): an int32 point, two positions, values.
        step = max(1, _CHUNK_BYTES * (hi - lo) // (18 * total))
        lo = hi
    witness = None if first is None else triangle_thinness(ball, *rows[first, :3])[1]
    return ThinnessReport(best, witness, len(rows), policy)
