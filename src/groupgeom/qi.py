"""Comparison of word metrics from two generating sets of one group.

Both metrics are measured from the identity by breadth-first search over
right multiplication by the generating words; elements are identified
across the two searches through a shared element table, so only the
identity is at distance 0 in either metric and the additive constant is
0.  The multiplicative one is the least quarter >= 1 that sandwiches one
metric by the other with no violations, in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cayley import ElementIndex
from .words import Presentation, Word, check_count, invert, multiply


@dataclass(frozen=True)
class QIReport:
    lam: float
    c: int
    element_count: int


def _metric_bfs(
    index: ElementIndex, gen_words: Sequence[Word], radius: int
) -> dict[int, int]:
    moves = list(gen_words) + [invert(w) for w in gen_words]
    dist = {index.find_or_add(()): 0}
    frontier = [index.find_or_add(())]
    for layer in range(radius):
        nxt = []
        for eid in frontier:
            rep = index.reps[eid]
            for g in moves:
                tid = index.find_or_add(multiply(rep, g))
                if tid not in dist:
                    dist[tid] = layer + 1
                    nxt.append(tid)
        frontier = nxt
    return dist


def _satisfies(pairs, k: int) -> bool:
    # lambda = k / 4 and c = 0; both inequalities cleared of division:
    #   (1/lam) dS <= dT   <=>   4 dS <= k dT
    #   dT <= lam dS       <=>   4 dT <= k dS
    for ds, dt in pairs:
        if 4 * ds > k * dt or 4 * dt > k * ds:
            return False
    return True


def _minimal_quarters(pairs) -> int:
    """Least k >= 4 with lambda = k/4 satisfying both inequalities at c = 0:
    ceil(4 max / min) over the pairs, bar the identity's (0, 0)."""
    k = 4
    for ds, dt in pairs:
        if ds:
            k = max(k, -(-4 * ds // dt), -(-4 * dt // ds))
    return k


def compare_metrics(
    presentation: Presentation,
    gens_a: Optional[Sequence[Word]],
    gens_b: Sequence[Word],
    radius: int,
) -> QIReport:
    """Fit the linear comparison constants between two word metrics.

    ``gens_a`` of None means the presentation's own generators.  Distances
    from the identity are exact within each radius-``radius`` search, so
    the fit runs over the elements both searches reached.  Each set's words
    must lie in the other set's search (else ValueError).
    """
    check_count(radius, "radius")
    if gens_a is None:
        gens_a = [(k,) for k in range(1, presentation.rank + 1)]
    if not gens_a or not gens_b:
        raise ValueError("generating sets must be nonempty")
    for w in list(gens_a) + list(gens_b):
        presentation.check_word(w)
    index = ElementIndex(presentation)
    da = _metric_bfs(index, gens_a, radius)
    db = _metric_bfs(index, gens_b, radius)
    for gens, dist in ((gens_a, db), (gens_b, da)):
        if any(index.find_or_add(w) not in dist for w in gens):
            raise ValueError(f"a word of one set is not within radius {radius} of the other: the "
                             "sets may not generate the same group, or the radius is too small")
    pairs = [(da[e], db[e]) for e in da.keys() & db.keys()]
    k = _minimal_quarters(pairs)
    assert _satisfies(pairs, k)
    return QIReport(k / 4.0, 0, len(pairs))
