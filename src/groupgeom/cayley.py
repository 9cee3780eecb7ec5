"""Finite radius-r balls of a Cayley graph, with metric queries.

Vertices are group elements discovered by breadth-first search from the
identity, numbered by (distance, shortlex of representative).  Every
stored representative is the shortlex-least geodesic spelling of its
element.  Distances and geodesics are exact for the group whenever the
query pair is "unclipped": both endpoint depths plus their distance stay
within twice the radius, which forces some group geodesic to lie in the
ball.  Edges are read off closed relator loops, as in coset enumeration,
and the equality oracle decides only the rest.
"""

from __future__ import annotations

import os
from collections import deque
from numbers import Integral
from typing import NamedTuple, Optional, Union

import numpy as np

from .oracle import Tristate, abelian_residue, normal_form, words_equal, UndecidedError
from .words import Presentation, Word, check_count, free_reduce, invert, letter_key, multiply, symmetrize

VertexRef = Union[int, Word]


class GeodesicPath(NamedTuple):
    vertices: tuple[int, ...]
    labels: tuple[int, ...]


class CayleyBall:
    def __init__(self, presentation, radius, vertices, dist, adjacency):
        self.presentation = presentation
        self.radius = radius
        self.vertices: tuple[Word, ...] = tuple(vertices)
        self.dist: tuple[int, ...] = tuple(dist)
        self.adjacency: tuple[dict[int, int], ...] = tuple(adjacency)
        self._matrix: Optional[np.ndarray] = None
        self._nbr: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Every directed labeled edge (u, letter, v); closed under reversal."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for letter in sorted(nbrs, key=letter_key):
                out.append((u, letter, nbrs[letter]))
        return tuple(out)

    def vertex_of(self, word: Word) -> int:
        """Walk a word edge by edge from the identity vertex.  A letter outside
        the alphabet (1.5 too) fails ``check_word`` first, not as a step out of the ball."""
        self.presentation.check_word(word)
        v = 0
        for i, letter in enumerate(word):
            nxt = self.adjacency[v].get(letter)
            if nxt is None:
                raise ValueError(
                    f"word leaves the radius-{self.radius} ball after {i + 1} letters"
                )
            v = nxt
        return v

    def _resolve(self, ref: VertexRef) -> int:
        if isinstance(ref, Integral):
            if isinstance(ref, bool) or not 0 <= ref < len(self.vertices):
                raise ValueError(f"vertex index {ref} out of range")
            return int(ref)
        # Checked before free reduction cancels a bad pair such as (1.5, -1.5).
        self.presentation.check_word(ref)
        return self.vertex_of(free_reduce(ref))

    def distances_from(self, source: VertexRef) -> list[int]:
        src = self._resolve(source)
        if self._matrix is not None:
            return self._matrix[src].tolist()
        return self._bfs(src)

    def _bfs(self, src: int) -> list[int]:
        dist = [-1] * len(self.vertices)
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.adjacency[u].values():
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distances inside the ball (int16, cached).

        One breadth-first search from every source at once, in rows of bits,
        a byte per eight sources (Then et al., PVLDB 2014).  Row v of the
        frontier marks the sources at the current level's distance from v; the
        next level ORs the frontier rows of v's neighbours and drops the
        sources already seen.  The graph is undirected, so the rows found this
        way are also the columns.
        """
        if self._matrix is None:
            # -1, an edge leaving the ball, wraps to frontier row n: no bits.
            nbr = self.neighbours()
            n = len(self.vertices)
            width, block = (n + 7) // 8, min(n, 2048)
            # The matrix, the frontier, seen, nxt, step and ~seen bit rows, one unpacked block.
            need = 2 * n * n + (5 * n + 1) * width + block * n
            check_memory(need, f"the distance matrix of a {n}-vertex ball")
            frontier = np.zeros((n + 1, width), dtype=np.uint8)
            v = np.arange(n)
            frontier[v, v >> 3] = 0x80 >> (v & 7)
            seen = frontier[:n].copy()
            mat = np.full((n, n), -1, dtype=np.int16)
            np.fill_diagonal(mat, 0)
            nxt, step = np.empty((2, n, width), dtype=np.uint8)
            level = 0
            while True:
                level += 1
                nxt.fill(0)
                for col in nbr.T:
                    np.take(frontier, col, axis=0, out=step, mode="wrap")
                    nxt |= step
                nxt &= ~seen
                if not nxt.any():
                    break
                seen |= nxt
                for lo in range(0, n, block):
                    rows = mat[lo : lo + block]
                    rows[np.unpackbits(nxt[lo : lo + block], axis=1, count=n).view(bool)] = level
                frontier[:n] = nxt
            self._matrix = mat
        return self._matrix

    def neighbours(self) -> np.ndarray:
        """Each vertex's neighbour by letter of ``presentation.letters()``,
        -1 where the edge leaves the ball (an n-by-2m table, cached)."""
        if self._nbr is None:
            letters = self.presentation.letters()
            rows = [[edges.get(letter, -1) for letter in letters] for edges in self.adjacency]
            self._nbr = np.array(rows, dtype=np.intp).reshape(len(self), len(letters))
        return self._nbr

    def unclipped(self, u: VertexRef, v: VertexRef) -> bool:
        """True when some group geodesic between u and v must lie in the ball.

        Any geodesic's farthest point from the identity is at most
        (|u| + |v| + d(u, v)) / 2 away, so a bound of twice the radius
        certifies containment (and hence that ball distance is group
        distance).
        """
        iu, iv = self._resolve(u), self._resolve(v)
        d = self.distances_from(iu)[iv]
        return self.dist[iu] + self.dist[iv] + d <= 2 * self.radius


class ElementIndex:
    """Word deduplication by group element.

    Words are bucketed by a key that equal elements share: the
    :func:`normal_form` where one exists (no relators, or the tagged
    commuting pair), else the abelianized residue.  A normal-form bucket
    holds one element; the rest are compared pairwise with the equality
    oracle.  An Unknown comparison raises rather than risking a merged or
    split element.  :func:`build_ball` asks only where no relator loop closes.
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.reps: list[Word] = []
        self._exact = normal_form(presentation, ()) is not None
        self._key = normal_form if self._exact else abelian_residue
        self._buckets: dict = {}

    def find(self, word: Word) -> Optional[int]:
        for cand in self._buckets.get(self._key(self.presentation, word), ()):
            if self._exact:
                return cand
            answer = words_equal(self.presentation, word, self.reps[cand])
            if answer is Tristate.EQUAL:
                return cand
            if answer is Tristate.UNKNOWN:
                raise UndecidedError(
                    "equality oracle returned Unknown while deduplicating elements: "
                    "this presentation has no exact equality test, and the area "
                    "search can prove two words equal but never different"
                )
        return None

    def add(self, word: Word) -> int:
        idx = len(self.reps)
        self.reps.append(word)
        self._buckets.setdefault(self._key(self.presentation, word), []).append(idx)
        return idx

    def find_or_add(self, word: Word) -> int:
        found = self.find(word)
        return self.add(word) if found is None else found


def physical_memory() -> Optional[int]:
    """Bytes of physical memory on this machine; None where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, a computation whose peak over all its
    arrays, ``need`` bytes, cannot fit in physical memory."""
    limit = physical_memory()
    if limit is not None and need > limit:
        raise MemoryError(
            f"{what} needs about {need:,} bytes, "
            f"more than the {limit:,} bytes of physical memory"
        )


def _walk(adjacency: list[dict[int, int]], v: Optional[int], word: Word) -> Optional[int]:
    """Where ``word`` leads from v along recorded edges; None where it leaves them."""
    for letter in word:
        if (v := adjacency[v].get(letter)) is None:
            break
    return v


def build_ball(presentation: Presentation, radius: int) -> CayleyBall:
    """Breadth-first ball construction with sound element deduplication.

    Each relator x·s gives u·x = u·s^-1, so an edge comes from such a loop
    where it reads along recorded edges and from the index only otherwise.
    Even-length relators make the graph bipartite, so the search stops at
    depth ``radius``, whose unrecorded edges all leave the ball.
    """
    radius = check_count(radius, "radius")
    index = ElementIndex(presentation)
    index.add(())
    dist: list[int] = [0]
    adjacency: list[dict[int, int]] = [{}]

    letters = presentation.letters()
    loops = {x: [invert(m[1:]) for m in symmetrize(presentation).members if m[0] == x] for x in letters}
    bipartite = all(len(r) % 2 == 0 for r in presentation.relators)
    u = 0
    while u < len(index.reps) and not (bipartite and dist[u] == radius):
        interior = dist[u] < radius
        for letter in letters:
            if letter in adjacency[u]:
                continue
            v = next((w for loop in loops[letter] if (w := _walk(adjacency, u, loop)) is not None), None)
            if v is None:
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
    return CayleyBall(presentation, radius, index.reps, dist, adjacency)


def all_geodesics(
    ball: CayleyBall, x: VertexRef, y: VertexRef, cap: int = 10_000
) -> tuple[tuple[GeodesicPath, ...], bool]:
    """Every shortest path from x to y realized inside the ball.

    Enumerated in lexicographic label order via the shortest-path DAG;
    the boolean reports truncation at ``cap``.
    """
    ix, iy = ball._resolve(x), ball._resolve(y)
    from_x = ball.distances_from(ix)
    from_y = ball.distances_from(iy)
    total = from_x[iy]
    if total < 0:
        raise ValueError("vertices are disconnected inside the ball")
    paths: list[GeodesicPath] = []
    truncated = False
    stack_v = [ix]
    stack_l: list[int] = []

    def rec(v: int) -> bool:
        nonlocal truncated
        if v == iy and len(stack_l) == total:
            if len(paths) >= cap:
                truncated = True
                return False
            paths.append(GeodesicPath(tuple(stack_v), tuple(stack_l)))
            return True
        for letter in sorted(ball.adjacency[v], key=letter_key):
            w = ball.adjacency[v][letter]
            if from_x[w] == from_x[v] + 1 and from_y[w] == from_y[v] - 1:
                stack_v.append(w)
                stack_l.append(letter)
                ok = rec(w)
                stack_v.pop()
                stack_l.pop()
                if not ok:
                    return False
        return True

    rec(ix)
    return tuple(paths), truncated
