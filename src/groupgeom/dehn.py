"""Greedy majority-subword rewriting and the commuting-pair normal form.

``dehn_reduce`` scans a word for a subword covering strictly more than
half of some symmetrized relator, swaps it for the inverse of the
remaining part (which is strictly shorter), backs the scan up one full
relator length, and repeats.  It keeps the scanned prefix and the reversed
unread suffix on two stacks and matches by one walk of the relator trie
(``SymmetrizedRelatorSet.majority_prefix``), so a step costs O(relator
length) and the loop runs in linear time.  ``verify_dehn_presentation``
tests whether that procedure recognizes the identity on a budgeted family
of words that are equal to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .words import (
    EMPTY,
    Presentation,
    SymmetrizedRelatorSet,
    Word,
    check_count,
    free_reduce,
    reduce_onto,
    symmetrize,
)


@dataclass(frozen=True)
class DehnStep:
    """One replacement: ``matched_length`` letters at ``position`` covered a
    strict majority of ``relator`` and were swapped for ``replacement``."""

    position: int
    relator: Word
    matched_length: int
    replacement: Word


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[DehnStep, ...]
    free_cancellations: int

    @property
    def step_count(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DehnVerdict:
    holds: bool
    counterexample: Optional[Word]
    words_checked: int


def find_majority_subword(
    word: Word, relators: SymmetrizedRelatorSet, start: int = 0
) -> Optional[DehnStep]:
    """Leftmost subword matching a strict-majority prefix of some member.

    Ties at one position go to the longest match, then to the member
    earliest in the set's (shortlex) enumeration order.
    """
    for i in range(start, len(word)):
        match = relators.majority_prefix(islice(word, i, None))
        if match is not None:
            return DehnStep(i, *match)
    return None


def dehn_reduce(presentation: Presentation, word: Word) -> tuple[Word, ReductionTrace]:
    """Run the greedy rewriting loop to a word with no majority subword."""
    presentation.check_word(word)
    relators = symmetrize(presentation)
    match, back = relators.majority_prefix, relators.max_length
    done: list[int] = []  # the scanned prefix
    todo = list(reversed(free_reduce(word)))  # the unread suffix, reversed
    cancels = (len(word) - len(todo)) // 2  # each cancelled pair removes two letters
    steps: list[DehnStep] = []
    while todo:
        found = match(reversed(todo))
        if found is None:
            done.append(todo.pop())
            continue
        relator, length, replacement = found
        steps.append(DehnStep(len(done), relator, length, replacement))
        del todo[len(todo) - length :]
        c, low = reduce_onto(done, replacement)
        # ``todo`` is freely reduced: the cascade stops at its first surviving letter.
        while done and todo and done[-1] == -todo[-1]:
            done.pop()
            todo.pop()
            c += 1
        cancels += c
        # A match spans at most one relator length, so one starting that far
        # before the first changed letter reads only old letters and would
        # have been found already: no match starts left of the scan point,
        # and no second pass from the top is needed.
        scan = max(0, min(low, len(done)) - back)
        todo += reversed(done[scan:])
        del done[scan:]
    return tuple(done), ReductionTrace(tuple(steps), cancels)


def zz_normal_form(word: Word) -> tuple[int, int, int]:
    """Exponent pair and transposition count for a word over {a, b}.

    ``swaps`` counts pairs (b-type letter, a-type letter) occurring in
    that order: the adjacent transpositions needed to move every a-type
    letter left of every b-type letter.
    """
    i = j = swaps = 0
    b_seen = 0
    for x in word:
        g = abs(x)
        if g == 1:
            i += 1 if x > 0 else -1
            swaps += b_seen
        elif g == 2:
            j += 1 if x > 0 else -1
            b_seen += 1
        else:
            raise ValueError(f"letter {x} outside the two-generator alphabet")
    return i, j, swaps


def verify_dehn_presentation(
    presentation: Presentation, max_insertions: int, max_length: int
) -> DehnVerdict:
    """Check that greedy rewriting kills every budgeted identity word.

    Candidates are the relator-insertion products of up to
    ``max_insertions`` relators.  For presentations with a normal form (an
    independent exact equality test) every identity word up to
    ``max_length`` replaces them; it contains every product, so there
    ``max_insertions`` does not widen the check.  That set catches failures
    that no short product of relator conjugates exhibits.
    """
    check_count(max_insertions, "max_insertions", 1)
    from .oracle import exhaustive_identity_words, generate_null_homotopic

    candidates = exhaustive_identity_words(presentation, max_length)
    if candidates is None:
        candidates = generate_null_homotopic(presentation, max_insertions, max_length)
    # Both sources are shortlex-sorted and start with the empty word.
    for checked, w in enumerate(candidates[1:], 1):
        reduced, _ = dehn_reduce(presentation, w)
        if reduced != EMPTY:
            return DehnVerdict(False, w, checked)
    return DehnVerdict(True, None, len(candidates) - 1)
