"""Three-valued word equality, canonical forms, and identity-word generation.

The relators choose the exact strategies: a presentation without relators
gets the free normal form, and one whose relators satisfy the
small-cancellation condition C'(1/6) gets greedy rewriting, which that
condition makes exact.  The family tag adds only the commuting pair's
``a^i b^j`` normal form.  Presentations with a normal form also get every
identity word up to a length.  Every other presentation gets a sound but
incomplete strategy: an abelianized certificate for "different" and a
budgeted minimal-rewrite search for "equal", with Unknown when the budget
runs out.  A definite answer is never wrong.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from .dehn import dehn_reduce, zz_normal_form
from .words import (
    EMPTY,
    Presentation,
    Word,
    conjugacy_rep,
    free_reduce,
    invert,
    shortlex_key,
    small_cancellation,
    symmetrize,
)

if TYPE_CHECKING:
    from .isoperimetry import AreaCaps


class Tristate(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


class UndecidedError(RuntimeError):
    """Raised where an Unknown answer would poison the surrounding result."""


def exponent_vector(word: Word, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for x in word:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(out)


@lru_cache(maxsize=None)
def _lattice_basis(presentation: Presentation):
    """Column-echelon basis (over the integers) of the relator exponent span."""
    rank = presentation.rank
    work = [list(exponent_vector(r, rank)) for r in presentation.relators]
    work = [c for c in work if any(c)]
    basis: list[tuple[int, tuple[int, ...]]] = []
    for coord in range(rank):
        while True:
            nz = [c for c in work if c[coord] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[coord]))
            piv = nz[0]
            for c in nz[1:]:
                q = c[coord] // piv[coord]
                for k in range(coord, rank):
                    c[k] -= q * piv[k]
        nz = [c for c in work if c[coord] != 0]
        if nz:
            basis.append((coord, tuple(nz[0])))
            work.remove(nz[0])
        work = [c for c in work if any(c)]
    return tuple(basis)


def abelian_residue(presentation: Presentation, word: Word) -> tuple[int, ...]:
    """Exponent vector reduced modulo the relator lattice.

    Equal group elements always share a residue, so a residue mismatch is
    a sound "different" certificate even when relators have nonzero
    exponent sums.
    """
    vec = list(exponent_vector(word, presentation.rank))
    for coord, b in _lattice_basis(presentation):
        q = vec[coord] // b[coord]
        if q:
            for k in range(coord, len(vec)):
                vec[k] -= q * b[k]
    return tuple(vec)


def words_equal(
    presentation: Presentation, u: Word, v: Word, caps: Optional[AreaCaps] = None
) -> Tristate:
    """Decide whether two words name the same group element; ``caps`` bound
    the area search where no exact strategy applies (None: ``ORACLE_CAPS``)."""
    presentation.check_word(u + v)
    if u == v:
        return Tristate.EQUAL
    # Every strategy below reduces the product or ignores letter order.
    w = u + invert(v)
    nf = normal_form(presentation, w)
    if nf is not None:
        return Tristate.EQUAL if nf == EMPTY else Tristate.NOT_EQUAL
    if small_cancellation(presentation):
        reduced, _ = dehn_reduce(presentation, w)
        return Tristate.EQUAL if reduced == EMPTY else Tristate.NOT_EQUAL
    if any(abelian_residue(presentation, w)):
        return Tristate.NOT_EQUAL
    from .isoperimetry import ORACLE_CAPS, area

    # w = 1 exactly when its class representative is; that word is
    # cyclically reduced, so the search starts shorter.
    result = area(presentation, conjugacy_rep(w), ORACLE_CAPS if caps is None else caps)
    return Tristate.EQUAL if result.value is not None else Tristate.UNKNOWN


def normal_form(presentation: Presentation, word: Word) -> Optional[Word]:
    """Exact normal form of the element, where one is known.

    No relators: the freely reduced word.  The tagged commuting pair:
    ``a^i b^j``.  None for every other presentation.  Two words name the
    same element exactly when their normal forms agree.
    """
    if not presentation.relators:
        return free_reduce(word)
    if presentation.family == "zz":
        i, j, _ = zz_normal_form(word)
        return (1 if i > 0 else -1,) * abs(i) + (2 if j > 0 else -2,) * abs(j)
    return None


def canonical_form(
    presentation: Presentation, word: Word, max_radius: Optional[int] = None
) -> Word:
    """A canonical spelling of the element named by ``word``.

    The :func:`normal_form` where there is one.  Otherwise: the
    representative stored at the word's vertex in a Cayley ball, the
    shortlex-least geodesic spelling of the element, so any ball that
    reaches the word gives the same answer.  Each call builds the ball it
    needs.  The ``max_radius`` guard turns an over-budget request into an
    error instead of a runaway ball construction.
    """
    presentation.check_word(word)
    nf = normal_form(presentation, word)
    if nf is not None:
        return nf
    # Greedy rewriting preserves the element and never lengthens, so it
    # shrinks the ball radius the lookup needs.
    w, _ = dehn_reduce(presentation, word)
    radius = len(w)
    if max_radius is not None and radius > max_radius:
        raise UndecidedError(
            f"canonical form needs a radius-{radius} ball, over the {max_radius} budget"
        )
    from .cayley import build_ball

    ball = build_ball(presentation, radius)
    return ball.vertices[ball.vertex_of(w)]


def generate_null_homotopic(
    presentation: Presentation, max_insertions: int, max_length: int
) -> tuple[Word, ...]:
    """Words built by splicing up to ``max_insertions`` symmetrized relators
    into the empty word, keeping every freely reduced result of length at
    most ``max_length``: the breadth-first closure of the area search's
    relator moves.  All outputs equal the identity by construction.
    Returned shortlex-sorted, starting with the empty word.
    """
    if max_insertions < 0 or max_length < 0:
        raise ValueError("budgets must be nonnegative")
    from .isoperimetry import _neighbors

    relators = symmetrize(presentation)
    members = tuple(zip(relators.members, relators.inverted_suffixes))
    seen: set[Word] = {EMPTY}
    frontier: set[Word] = {EMPTY}
    for _ in range(max_insertions):
        frontier = {nxt for w in frontier for *_, nxt in _neighbors(w, members, max_length)} - seen
        seen |= frontier
    return tuple(sorted(seen, key=shortlex_key))


def exhaustive_identity_words(
    presentation: Presentation, max_length: int
) -> Optional[tuple[Word, ...]]:
    """Every identity word up to ``max_length`` for presentations with a
    normal form (an independent exact test); None for every other one.
    Returned shortlex-sorted, starting with the empty word."""
    if normal_form(presentation, EMPTY) is None:
        return None
    if max_length < 0:
        raise ValueError("budgets must be nonnegative")
    from .isoperimetry import _closed_reduced_words

    return (EMPTY, *_closed_reduced_words(presentation, max_length))
