"""Combinatorial area and the filling function over word length.

The area of an identity word is the least number of relator moves that
rewrite it to the empty word, where one move swaps a subword ``s`` for
``t`` whenever ``s * t^-1`` is a symmetrized relator (free reduction is
free).  The search is Dijkstra over freely reduced words, sharpened to A*
by pairing-form lower bounds that never overestimate, so reported values
are exact minima within the caps.
"""

from __future__ import annotations

import heapq
import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .oracle import UndecidedError, abelian_residue, exponent_vector
from .words import (
    EMPTY,
    Presentation,
    Word,
    conjugacy_rep,
    free_reduce,
    letter_key,
    symmetrize,
)


# Most words one area search may hold; its memory stays in tens of MB.
_MAX_STATES = 20_000


@dataclass(frozen=True)
class AreaCaps:
    max_area: int
    max_intermediate_length: int

    def __post_init__(self):
        if self.max_area < 0 or self.max_intermediate_length < 0:
            raise ValueError("budgets must be nonnegative")


@dataclass(frozen=True)
class AreaMove:
    position: int
    removed: Word
    inserted: Word
    relator: Word


@dataclass(frozen=True)
class AreaResult:
    value: Optional[int]  # None: the caps or the state budget ran out first
    caps: AreaCaps
    moves: Optional[tuple[AreaMove, ...]]


@dataclass(frozen=True)
class DehnRow:
    n: int
    max_area: int
    argmax: Word
    words_examined: int


@dataclass(frozen=True)
class DehnTable:
    rows: tuple[DehnRow, ...]
    caps: AreaCaps


@dataclass(frozen=True)
class GrowthClass:
    kind: str  # linear | quadratic | other
    exponent: float
    residual: float


ORACLE_CAPS = AreaCaps(max_area=8, max_intermediate_length=32)  # words_equal's area caps


def default_caps(presentation: Presentation, length: int) -> AreaCaps:
    """The caps ``area`` and ``dehn_function`` use for words of up to ``length`` letters."""
    if length < 0:
        raise ValueError("word length must be nonnegative")
    longest = symmetrize(presentation).max_length
    return AreaCaps(max_area=16, max_intermediate_length=2 * length + longest)


def _winding(word: Iterable[int], x: int, y: int):
    """Winding field and lattice points of the word's path in the (x, y) plane.

    Project the word to a lattice path (generator x moves horizontally, y
    vertically, everything else stays put).  The field maps each unit
    cell, named by its lower-left corner, to the path's nonzero winding
    number around it: the net count of upward crossings to its right.
    ``points[i]`` is the lattice point before letter i (the last one is
    the end point).  Free reduction leaves the field unchanged.
    """
    rows: dict[int, dict[int, int]] = {}
    px = py = 0
    points = [(0, 0)]
    for letter in word:
        g = abs(letter)
        s = 1 if letter > 0 else -1
        if g == x:
            px += s
        elif g == y:
            j = py if s > 0 else py - 1
            row = rows.setdefault(j, {})
            row[px] = row.get(px, 0) + s
            py += s
        points.append((px, py))
    field = {}
    for j, row in rows.items():
        cols = sorted(row)
        suffix = 0
        for i in range(cols[-1] - 1, cols[0] - 1, -1):
            suffix += row.get(i + 1, 0)
            if suffix:
                field[i, j] = suffix
    return field, points


@lru_cache(maxsize=None)
def _pairing_forms(presentation: Presentation):
    """(x, y, scale, fields) per pairing form usable as an admissible lower
    bound, where ``fields[k]`` lists the (cell, winding) pairs of the k-th
    symmetrized member's own field and ``scale`` is the largest member
    mass; empty when some relator has a nonzero exponent sum (the winding
    profile is then not a loop and its move increment is not controlled)."""
    rank = presentation.rank
    for rel in presentation.relators:
        if any(exponent_vector(rel, rank)):
            return ()
    members = symmetrize(presentation).members
    forms = []
    for x, y in combinations(range(1, rank + 1), 2):
        fields = tuple(tuple(_winding(m, x, y)[0].items()) for m in members)
        scale = max((sum(abs(v) for _, v in f) for f in fields), default=0)
        if scale > 0:
            forms.append((x, y, scale, fields))
    return tuple(forms)


def _winding_states(word: Word, forms) -> list:
    """Per pairing form, ``(scale, (field, points, mass, member fields))``
    of ``word``: all that scoring its moves reads, built in one pass.

    The mass, the sum of |winding number| over all unit cells, is
    invariant under free reduction, and a relator move subtracts a
    translate of the applied member's own field, so it changes by at most
    that member's mass: dividing by ``scale``, the largest member mass,
    gives an admissible, consistent move-count bound.  The search builds
    the states once per expanded word and updates the mass per move on
    the member's cells only (``_moved_mass``).
    """
    states = []
    for x, y, scale, fields in forms:
        field, points = _winding(word, x, y)
        states.append((scale, (field, points, sum(map(abs, field.values())), fields)))
    return states


def _moved_mass(state, pos: int, k: int) -> int:
    """Winding mass of the word that the k-th member's move at ``pos`` makes.

    Every path in one search is closed (forms exist only when every
    relator has exponent sum zero, and the start word has residue zero),
    so the move subtracts the member's own field translated to the point
    before ``pos``, and the mass changes only on that field's few cells.
    """
    field, points, mass, fields = state
    px, py = points[pos]
    for (dx, dy), v in fields[k]:
        f = field.get((px + dx, py + dy), 0)
        mass += abs(f - v) - abs(f)
    return mass


def _neighbors(word: Word, members, max_length: int):
    """Single relator moves from freely reduced ``word`` within the length
    cap, as ``(pos, cut, k, neighbour)`` in (pos, member) order.

    ``members`` pairs each symmetrized member rho with its inverted
    suffixes.  For rho split as rho = s + u at ``cut``, an occurrence of s
    at ``pos`` may be swapped for u^-1; cut = 0 inserts a whole inverted
    relator.  Since u^-1 = rho^-1 s freely, every cut at one (pos, rho)
    gives the same word, ``word[:pos] + rho^-1 + word[pos:]`` freely
    reduced, so only one is tried: the least cut that passes the cheap
    pre-filter ``n - cut + |u| <= max_length + 2`` and that s still covers.
    The filter drops some moves whose word would fit the cap; it stays,
    because which move the search records first depends on it.

    The move of rho at ``pos`` is skipped when ``word[pos - 1]`` is
    ``rho[-1]`` or ``-rho[0]``: a rotation of rho by one letter, inserted
    at ``pos - 1``, makes the same word and passes the filter whenever
    this move does, so that word was yielded already.  What is left
    yields each neighbour once, at its first (pos, member).

    ``word`` and u^-1 are freely reduced, so letters cancel only at the
    two seams, and reach across from the left seam to the right once u^-1
    is used up.  The cut points are found by comparing letters and the
    reduced length is checked before ``word[:i] + u^-1[a:b] + word[j:]``
    is built.
    """
    n = len(word)
    least = [max(0, (n + len(rho) - max_length - 1) // 2) for rho, _ in members]
    for pos in range(n + 1):
        prev = word[pos - 1] if pos else 0
        for k, (rho, suffixes) in enumerate(members):
            if prev == rho[-1] or prev == -rho[0]:
                continue
            cut = least[k]
            if cut and (cut > len(rho) or word[pos : pos + cut] != rho[:cut]):
                continue
            repl = suffixes[cut]
            i, j = pos, pos + cut
            a, b = 0, len(repl)
            while a < b and i and word[i - 1] == -repl[a]:
                i -= 1
                a += 1
            while a < b and j < n and repl[b - 1] == -word[j]:
                b -= 1
                j += 1
            if a == b:
                while i and j < n and word[i - 1] == -word[j]:
                    i -= 1
                    j += 1
            if i + b - a + n - j <= max_length:
                yield pos, cut, k, word[:i] + repl[a:b] + word[j:]


def area(presentation: Presentation, word: Word, caps: Optional[AreaCaps] = None) -> AreaResult:
    """Minimal relator-move count rewriting ``word`` to the empty word.

    Unknown (value None) when no derivation exists within the caps, or
    when the search holds more than ``_MAX_STATES`` words (without a
    pairing-form bound it is blind, and grows exponentially under the
    caps); the move path comes back on success and replays move by move.

    The bound is consistent and at least 1 on every nonempty word, so the
    empty word is the next pop once it is generated, and the search
    returns it at once, unless the rest of that expansion could still
    exhaust the state budget (it adds at most one word per position and
    member).  Each word records only its parent and the move's
    (pos, cut, member); ``AreaMove``s are built for the returned path.
    """
    presentation.check_word(word)
    if caps is None:
        caps = default_caps(presentation, len(word))
    start = free_reduce(word)
    if start == EMPTY:
        return AreaResult(0, caps, ())
    relators = symmetrize(presentation)
    if any(abelian_residue(presentation, start)):
        # Moves preserve the abelianized residue and the empty word has
        # residue zero, so no derivation exists at any cap.
        return AreaResult(None, caps, None)
    forms = _pairing_forms(presentation)
    members = tuple(zip(relators.members, relators.inverted_suffixes))
    max_len = caps.max_intermediate_length
    if len(start) > max_len:
        return AreaResult(None, caps, None)

    h0 = max([1] + [-(-mass // scale) for scale, (_, _, mass, _) in _winding_states(start, forms)])
    if h0 > caps.max_area:
        return AreaResult(None, caps, None)
    # Ties in f resolved toward small h then short words, so the search
    # hugs derivations that shorten the word and the goal, once pushed,
    # pops ahead of the rest of its f-plateau.
    counter = 0
    heap = [(h0, h0, len(start), counter, start)]
    best = {start: 0}
    parent: dict[Word, tuple[Word, int, int, int]] = {}

    def found(g: int) -> AreaResult:
        moves = []
        cur = EMPTY
        while cur != start:
            cur, pos, cut, k = parent[cur]
            rho, suffixes = members[k]
            moves.append(AreaMove(pos, cur[pos : pos + cut], suffixes[cut], rho))
        return AreaResult(g, caps, tuple(reversed(moves)))

    while heap:
        f, h, _, _, w = heapq.heappop(heap)
        g = best[w]
        if f > g + h:
            continue  # stale entry
        if w == EMPTY:
            return found(g)
        states = _winding_states(w, forms)
        for pos, cut, k, nxt in _neighbors(w, members, max_len):
            ng = g + 1
            old = best.get(nxt)
            if old is not None and old <= ng:
                continue
            nh = 0
            if nxt:
                nh = 1
                for scale, state in states:
                    nh = max(nh, -(-_moved_mass(state, pos, k) // scale))  # ceil div
            if ng + nh > caps.max_area:
                continue
            best[nxt] = ng
            if len(best) > _MAX_STATES:
                return AreaResult(None, caps, None)
            parent[nxt] = (w, pos, cut, k)
            if not nxt and len(best) + (len(w) + 1) * len(members) <= _MAX_STATES:
                return found(ng)
            counter += 1
            heapq.heappush(heap, (ng + nh, nh, len(nxt), counter, nxt))
    return AreaResult(None, caps, None)


def _closed_reduced_words(presentation: Presentation, n_max: int):
    """Identity words of length <= n_max, shortlex-sorted, as closed
    label-nonbacktracking walks in a radius-(n_max // 2) ball; any prefix
    of such a word stays within min(k, n - k) of the start, so the ball
    suffices.  Without relators the Cayley graph is a tree and has none."""
    from .cayley import build_ball

    if not presentation.relators:
        return []
    ball = build_ball(presentation, n_max // 2)
    letters_of = [
        sorted(ball.adjacency[v].items(), key=lambda kv: letter_key(kv[0]))
        for v in range(len(ball.vertices))
    ]
    dist = ball.dist
    out: list[Word] = []
    word: list[int] = []

    def rec(vertex: int):
        depth = len(word)
        if vertex == 0 and word:
            out.append(tuple(word))
        if depth == n_max:
            return
        last = word[-1] if word else 0
        for letter, nxt in letters_of[vertex]:
            if letter == -last:
                continue
            if dist[nxt] > n_max - depth - 1:
                continue
            word.append(letter)
            rec(nxt)
            word.pop()

    rec(0)
    # The walk tries letters in ``letter_key`` order, so ``out`` is already
    # lexicographic; a stable sort by length makes it shortlex.
    out.sort(key=len)
    return out


def dehn_function(
    presentation: Presentation, n_max: int, caps: Optional[AreaCaps] = None
) -> DehnTable:
    """Worst-case area over identity words of length <= n, per even n;
    raises ``UndecidedError`` when the caps or the state budget run out.

    Area is invariant under cyclic permutation and inversion (both give
    the same van Kampen diagram), so one search runs per class: on its
    ``conjugacy_rep``, remembered for the rest of the call.  The rows,
    ``argmax`` and ``words_examined`` still come word by word.
    """
    if n_max < 0:
        raise ValueError("word length must be nonnegative")
    if caps is None:
        caps = default_caps(presentation, n_max)
    words = _closed_reduced_words(presentation, n_max)
    areas: dict[Word, Optional[int]] = {}
    rows = []
    best_area = 0
    best_word: Word = EMPTY
    idx = 0
    for n in range(2, n_max + 1, 2):
        while idx < len(words) and len(words[idx]) <= n:
            w = words[idx]
            rep = conjugacy_rep(w)
            if rep not in areas:
                areas[rep] = area(presentation, rep, caps).value
            value = areas[rep]
            if value is None:
                raise UndecidedError(
                    f"area caps {caps} or state budget exhausted on a length-{len(w)} word"
                )
            if value > best_area:
                best_area, best_word = value, w
            idx += 1
        rows.append(DehnRow(n, best_area, best_word, idx))
    return DehnTable(tuple(rows), caps)


def fit_growth(table) -> GrowthClass:
    """Log-log least-squares slope, binned into linear / quadratic / other.

    Accepts a DehnTable or (n, value) rows.  Every n must be an integer and
    every value finite, and the rows with positive n and value must span two
    lengths.  A table with no positive values classifies linear by convention.
    """
    if isinstance(table, DehnTable):
        rows = [(row.n, row.max_area) for row in table.rows]
    else:
        rows = [(n, float(value)) for n, value in table]
    if not rows:
        raise ValueError("empty table")
    for row in rows:
        if not (float(row[0]).is_integer() and math.isfinite(row[1])):
            raise ValueError(f"row {row}: needs an integer length and a finite value")
    positive = [(n, v) for n, v in rows if v > 0 and n > 0]
    if not positive:
        return GrowthClass("linear", 0.0, 0.0)
    if len(positive) < 3:
        raise ValueError("need at least 3 rows with positive values to fit")
    if len({n for n, _ in positive}) < 2:
        raise ValueError("need rows at two distinct lengths with positive values to fit")
    xs = [math.log(n) for n, _ in positive]
    ys = [math.log(v) for _, v in positive]
    slope, intercept = statistics.linear_regression(xs, ys)
    residual = math.sqrt(
        statistics.fmean((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    )
    if 0.8 <= slope <= 1.2:
        kind = "linear"
    elif 1.8 <= slope <= 2.2:
        kind = "quadratic"
    else:
        kind = "other"
    return GrowthClass(kind, slope, residual)
