"""Reference computations the benchmark checks the program against.

Nothing here calls into groupgeom: words are tuples of nonzero ints (``+k``
is generator k, ``-k`` its inverse), balls are read only through their
``vertices``, ``dist`` and ``adjacency`` fields, and every distance,
geodesic, count and hyperbolic length is recomputed from scratch.  Each
check returns ``None`` when the program's answer holds and a short message
when it does not.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

HPLANE_BOUND = math.log(1.0 + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# words


def free_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def cyclic_forms(relator) -> list[tuple[int, ...]]:
    """Every cyclic permutation of a relator and of its inverse."""
    out = []
    for form in (tuple(relator), inverse(relator)):
        for k in range(len(form)):
            out.append(form[k:] + form[:k])
    return out


def retract_to_free(word, images: dict[int, int]) -> tuple[int, ...]:
    """Image under the homomorphism sending generator g to ``images.get(g)``
    (a free generator, or nothing when absent), freely reduced."""
    out = []
    for x in word:
        g = images.get(abs(x))
        if g is not None:
            out.append(g if x > 0 else -g)
    return free_reduce(out)


def exponent_sums(word, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for x in word:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(out)


def reduced_words(rank: int, max_length: int) -> list[tuple[int, ...]]:
    """Every freely reduced word of length <= max_length, by length."""
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    out = [()]
    layer = [()]
    for _ in range(max_length):
        layer = [w + (x,) for w in layer for x in letters if not w or w[-1] != -x]
        out.extend(layer)
    return out


def closed_reduced_word_count(n_max: int) -> int:
    """Nonempty freely reduced words over {a, b} of length <= n_max whose
    exponent sums are both zero, counted by a dynamic program over
    (last letter, exponent pair)."""
    letters = (1, -1, 2, -2)
    step = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}
    layer = {(x, step[x]): 1 for x in letters}
    total = 0
    for _ in range(n_max):
        total += sum(c for (_, pos), c in layer.items() if pos == (0, 0))
        nxt: dict = {}
        for (last, (i, j)), c in layer.items():
            for x in letters:
                if x == -last:
                    continue
                key = (x, (i + step[x][0], j + step[x][1]))
                nxt[key] = nxt.get(key, 0) + c
        layer = nxt
    return total


# ---------------------------------------------------------------------------
# balls


def bfs(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u].values():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def check_sphere_sizes(ball, expected) -> str | None:
    counts = [0] * (max(ball.dist) + 1)
    for d in ball.dist:
        counts[d] += 1
    if counts != list(expected):
        return f"sphere sizes {counts}, expected {list(expected)}"
    for word, d in zip(ball.vertices, ball.dist):
        if len(word) != d or free_reduce(word) != tuple(word):
            return f"representative {word} is not a reduced word of length {d}"
    return None


def check_distance_rows(ball, matrix, sources) -> str | None:
    for s in sources:
        ref = bfs(ball.adjacency, s)
        if list(map(int, matrix[s])) != ref:
            return f"distance row {s} differs from breadth-first search"
    return None


def surface_sphere_sizes(radius: int) -> list[int]:
    """Genus-2 sphere sizes: 8 * 7^(k-1) reduced words for k < 4; at k = 4
    the 8 words that are both halves of one relator conjugate pair up."""
    sizes = [1] + [8 * 7 ** (k - 1) for k in range(1, radius + 1)]
    if radius >= 4:
        sizes[4] -= 8
    if radius > 4:
        raise ValueError("closed form given only up to radius 4")
    return sizes


def flat_sphere_sizes(radius: int) -> list[int]:
    return [1] + [4 * k for k in range(1, radius + 1)]


# ---------------------------------------------------------------------------
# thinness


def eligible(ball, rows, u: int, v: int) -> bool:
    return ball.dist[u] + ball.dist[v] + rows(u)[v] <= 2 * ball.radius


def geodesics(adjacency, row_a, row_b, a: int, b: int, cap: int):
    """Every shortest path from a to b as a vertex tuple; None past ``cap``."""
    total = row_a[b]
    out: list[tuple[int, ...]] = []
    stack = [(a, (a,))]
    while stack:
        v, path = stack.pop()
        if v == b:
            out.append(path)
            if len(out) > cap:
                return None
            continue
        for w in adjacency[v].values():
            if row_a[w] == row_a[v] + 1 and row_b[w] == total - row_a[w]:
                stack.append((w, path + (w,)))
    return out


def geodesic_count(adjacency, row_a, row_b, a: int, b: int) -> int:
    total = row_a[b]
    layers: dict[int, list[int]] = {}
    for v, (da, db) in enumerate(zip(row_a, row_b)):
        if da >= 0 and da + db == total:
            layers.setdefault(da, []).append(v)
    count = {a: 1}
    for d in range(1, total + 1):
        for v in layers.get(d, ()):
            count[v] = sum(count.get(w, 0) for w in adjacency[v].values() if row_a[w] == d - 1)
    return count.get(b, 0)


def brute_force_thinness(ball, tri, rows, cap: int = 2000):
    """Worst-case thinness of one triangle by enumerating every geodesic of
    every side: the largest, over sides and points p on some geodesic of
    that side, of min over the two other sides of the largest distance
    from p to one of that side's geodesics.  None past ``cap`` geodesics."""
    adj = ball.adjacency
    sides = ((0, 1), (1, 2), (2, 0))
    geos = []
    for i, j in sides:
        a, b = tri[i], tri[j]
        g = geodesics(adj, rows(a), rows(b), a, b, cap)
        if g is None:
            return None
        geos.append(g)
    best = 0
    for s in range(3):
        points = {v for g in geos[s] for v in g}
        for p in points:
            dp = rows(p)
            worst = min(
                max(min(dp[q] for q in g) for g in geos[t]) for t in range(3) if t != s
            )
            best = max(best, worst)
    return best


def check_witness(ball, report, rows) -> str | None:
    """The witness triangle's brute-force thinness is the reported delta,
    its geodesics are shortest paths, and delta is at most half its
    longest side."""
    w = report.witness
    if w is None:
        # Without a triangle of positive thinness there is nothing to witness.
        return None if report.delta == 0 else "a positive delta comes without a witness"
    if w.distance != report.delta:
        return f"witness distance {w.distance} differs from delta {report.delta}"
    x, y, z = w.triangle
    longest = max(rows(x)[y], rows(y)[z], rows(x)[z])
    if 2 * report.delta > longest:
        return f"delta {report.delta} exceeds half the longest side {longest}"
    for path in w.geodesics:
        hops = all(path[k + 1] in ball.adjacency[path[k]].values() for k in range(len(path) - 1))
        if not hops or rows(path[0])[path[-1]] != len(path) - 1:
            return f"witness path {path} is not a geodesic"
    truth = brute_force_thinness(ball, w.triangle, rows)
    if truth is None:
        return "witness triangle has too many geodesics to enumerate"
    if truth != report.delta:
        return f"witness thinness {truth} by enumeration, program says {report.delta}"
    return None


def sample_triangles(ball, rows, rng, count: int, cap: int):
    """Seeded unclipped triangles whose sides have at most ``cap`` geodesics."""
    n = len(ball.vertices)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        x = rng.randrange(n)
        ys = [v for v in range(n) if v != x and eligible(ball, rows, x, v)]
        y = rng.choice(ys)
        zs = [v for v in ys if v != y and eligible(ball, rows, y, v)]
        if not zs:
            continue
        z = rng.choice(zs)
        tri = (x, y, z)
        if all(
            geodesic_count(ball.adjacency, rows(a), rows(b), a, b) <= cap
            for a, b in ((x, y), (y, z), (z, x))
        ):
            out.append(tri)
    return out


def check_triangle(ball, tri, program_value: int, rows, delta: int) -> str | None:
    truth = brute_force_thinness(ball, tri, rows)
    if truth != program_value:
        return f"triangle {tri}: thinness {truth} by enumeration, program says {program_value}"
    x, y, z = tri
    longest = max(rows(x)[y], rows(y)[z], rows(x)[z])
    if 2 * program_value > longest:
        return f"triangle {tri}: thinness {program_value} exceeds half its longest side"
    if program_value > delta:
        return f"triangle {tri}: thinness {program_value} exceeds the ball's delta {delta}"
    return None


class RowCache:
    """Breadth-first rows computed on demand and kept for one ball."""

    def __init__(self, ball):
        self.ball = ball
        self.rows: dict[int, list[int]] = {}

    def __call__(self, v: int) -> list[int]:
        row = self.rows.get(v)
        if row is None:
            row = self.rows[v] = bfs(self.ball.adjacency, v)
        return row


# ---------------------------------------------------------------------------
# filling


def check_dehn_rows(table, n_max: int) -> str | None:
    """Square-lattice rows: max area floor(n^2 / 16) at every even n, each
    argmax a closed reduced word, and the word count of the last row equal
    to an independent count of closed reduced words."""
    ns = [row.n for row in table.rows]
    if ns != list(range(2, n_max + 1, 2)):
        return f"rows cover lengths {ns}"
    for row in table.rows:
        if row.max_area != row.n * row.n // 16:
            return f"row n={row.n}: max area {row.max_area}, expected {row.n * row.n // 16}"
        w = row.argmax
        if row.max_area and (len(w) > row.n or free_reduce(w) != tuple(w) or any(exponent_sums(w, 2))):
            return f"row n={row.n}: argmax {w} is not a closed reduced word"
    expected = closed_reduced_word_count(n_max)
    if table.rows[-1].words_examined != expected:
        return f"{table.rows[-1].words_examined} words examined, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# hyperbolic plane


def h_distance(px, py, qx, qy):
    """Upper half-plane distance; works elementwise on numpy arrays."""
    return np.arccosh(1.0 + ((px - qx) ** 2 + (py - qy) ** 2) / (2.0 * py * qy))


def _segment_points(a, b, t):
    """Points of the geodesic segment [a, b] at arclength fractions ``t``,
    as (x, y) arrays."""
    (ax, ay), (bx, by) = a, b
    if abs(ax - bx) <= 1e-12 * max(1.0, abs(ax), abs(bx), ay, by):
        return np.full(len(t), ax), ay * (by / ay) ** t
    c = (bx * bx + by * by - ax * ax - ay * ay) / (2.0 * (bx - ax))
    r = math.hypot(ax - c, ay)
    # Arclength along the circle is log tan(theta / 2).
    ua = math.log(math.tan(math.atan2(ay, ax - c) / 2.0))
    ub = math.log(math.tan(math.atan2(by, bx - c) / 2.0))
    theta = 2.0 * np.arctan(np.exp(ua + t * (ub - ua)))
    return c + r * np.cos(theta), r * np.sin(theta)


def dense_point_to_side(p, a, b, samples: int = 4001, rounds: int = 3) -> float:
    """Distance from p to the segment [a, b] as the least distance to
    samples evenly spaced in arclength, resampled around the best sample."""
    px, py = p
    lo, hi = 0.0, 1.0
    best = math.inf
    for _ in range(rounds):
        t = np.linspace(lo, hi, samples)
        sx, sy = _segment_points(a, b, t)
        d = h_distance(px, py, sx, sy)
        k = int(np.argmin(d))
        best = min(best, float(d[k]))
        step = (hi - lo) / (samples - 1)
        lo, hi = max(0.0, t[k] - step), min(1.0, t[k] + step)
    return best


def check_point_to_side(value: float, p, a, b, tol: float = 1e-6) -> str | None:
    """The exact distance can never exceed a sampled one, and the densest
    sample can exceed it only by a second-order term."""
    dense = dense_point_to_side(p, a, b)
    if not (value <= dense + 1e-9 and dense - value <= tol * max(1.0, dense)):
        return f"point_to_side {value!r}, dense sampling gives {dense!r}"
    return None


def check_survey(max_thinness: float, triangles: int, expected: int) -> str | None:
    if triangles != expected:
        return f"survey covered {triangles} triangles, asked for {expected}"
    if not max_thinness < HPLANE_BOUND + 1e-6:
        return f"max thinness {max_thinness!r} is not below log(1 + sqrt 2)"
    if not max_thinness > 0.0:
        return f"max thinness {max_thinness!r} is not positive"
    return None


def check_decision(answer: str, truth: str) -> str | None:
    if answer != truth:
        return f"decided {answer}, truth is {truth}"
    return None

